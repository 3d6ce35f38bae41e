package remote

import (
	"cmp"
	"fmt"
	"maps"
	"slices"

	"leap/internal/core"
)

// MarkFailed records that the agent at index idx is considered dead: it is
// excluded from future placements and is no copy source. Existing placements
// keep the index so reads keep failing over; call RepairSlabs (or Rebalance)
// to move its slabs onto live agents, which leaves it its copies and acks. It
// returns an error only for an index out of range.
func (h *Host) MarkFailed(idx int) error {
	return h.setStanding("MarkFailed", idx, func(l *link) { l.failed = true })
}

// MarkRecovered clears a MarkFailed verdict: the agent rejoins the placement
// pool. If the agent came back empty (process restart), call PurgeAgent
// first so stale placements do not point at its wiped memory.
func (h *Host) MarkRecovered(idx int) error {
	return h.setStanding("MarkRecovered", idx, func(l *link) { l.failed = false })
}

// PurgeAgent removes agent idx from every placement and acknowledgment set:
// the agent's memory is gone (crash/restart), so nothing may ever read from
// it until repair re-copies data onto it. Slabs whose only replica was idx
// are unplaced entirely — their contents are lost and a future write
// re-places them fresh. It reports how many slab placements dropped the
// agent.
func (h *Host) PurgeAgent(idx int) (dropped int, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	l, err := h.agent("PurgeAgent", idx)
	if err != nil {
		return 0, err
	}
	h.settleWrites() // an ack from idx landing after the purge would put it back
	for slab, replicas := range h.placements {
		if !slices.Contains(replicas, idx) {
			continue
		}
		dropped++
		rest := slices.DeleteFunc(slices.Clone(replicas), func(r int) bool { return r == idx })
		if len(rest) == 0 {
			delete(h.placements, slab)
		} else {
			h.placements[slab] = rest
		}
	}
	h.dropAgentFromHotLocked(idx)
	h.records.Range(func(page core.PageID, r *record) bool {
		if !slices.Contains(r.acks, idx) {
			return true
		}
		r.acks = slices.DeleteFunc(r.acks, func(a int) bool { return a == idx })
		if len(r.acks) == 0 {
			// The last acknowledged copy is gone: the write is lost, and
			// there is nothing left for repushDegraded to propagate — drop
			// the degraded flag too, or the page wedges every future
			// repair barrier with un-actionable work.
			delete(h.degraded, page)
		}
		return true
	})
	l.slabs = 0
	return dropped, nil
}

// settleWrites lands every write frame in the air, so that the ack sets,
// degraded flags and write generations a control-plane pass is about to read
// or rewrite are not about to change under it by a landing of the caller's own
// earlier writes. (Another goroutine's writes may still start while the pass
// copies with h.mu released: that is what a record's gen is snapshotted for.) A
// failure landed here is the next doorbell's to report. Callers hold h.mu,
// which is released for the waits.
func (h *Host) settleWrites() {
	for _, l := range h.links {
		for f := l.oldestWrite(); f != nil; f = l.oldestWrite() {
			_, err := h.reap(f)
			h.keep(err)
		}
	}
}

// FailedAgents reports the indices currently marked failed, sorted.
func (h *Host) FailedAgents() []int {
	return h.agentsWhere(func(l *link) bool { return l.failed })
}

// RepairSlabs restores the configured replication factor for every slab
// that lost replicas (failed agents, purged restarts, or placements that
// never reached the factor): each such slab keeps its live replicas, in
// placement order, and gains the healthy agents rendezvous hashing ranks
// first among those not holding it, which moveSlabs copies it onto. It then
// re-pushes degraded pages — pages whose latest write was acknowledged by
// fewer than Replicas agents — from an acknowledged copy to the replicas that
// missed it (best effort: unreachable targets stay degraded for the next
// round). It returns the number of slabs repaired and the first error met in
// slab order: a slab with no healthy agent left to take a replica, or a copy
// that failed (that slab keeps its placement). An error does not end the
// round: every other slab is repaired and degraded pages re-pushed all the
// same, and a later call retries what failed.
//
// This is the §4.5 re-replication path: after RepairSlabs, the failure of
// the *other* original replica no longer loses data.
func (h *Host) RepairSlabs() (int, error) {
	repaired, err := h.moveSlabs(&h.stats.Repairs, func(slab SlabID, replicas []int) (to []int, err error) {
		live := h.live(replicas)
		missing := h.cfg.Replicas - len(live)
		if len(live) == 0 || missing <= 0 {
			return nil, nil
		}
		picks := h.rendezvousRank(slab, live)
		if len(picks) < missing {
			err = fmt.Errorf("remote: no healthy agent available to repair slab %d", slab)
		}
		if len(picks) == 0 {
			return nil, err
		}
		return append(live, picks[:min(missing, len(picks))]...), err
	})
	h.repushDegraded()
	return repaired, err
}

// moveSlabs is the one job runner of RepairSlabs and Rebalance. Once the
// writes in the air have landed — an ack landing after a slab has moved would
// name its leavers, and count them towards the replication factor — it takes
// the placed slabs in slab order, so that the order of the copies (and any
// transport-level accounting) is deterministic, and moves each to the replica
// list plan gives it. plan is asked under h.mu just before the slab's move,
// so an agent marked failed or recovered while the round runs is planned for
// as it is then; it returns nil for a slab to leave as it is, and an error for
// one it cannot give the list it should have. Each slab moved counts in
// tally. A move that fails leaves its slab as it was and the round goes on: it
// returns the slabs moved and the first error met.
func (h *Host) moveSlabs(tally *int64, plan func(slab SlabID, replicas []int) ([]int, error)) (moved int, err error) {
	h.mu.Lock()
	h.settleWrites()
	slabs := slices.Sorted(maps.Keys(h.placements))
	h.mu.Unlock()
	for _, slab := range slabs {
		h.mu.Lock()
		from, to, planErr := h.placements[slab], []int(nil), error(nil)
		if from != nil {
			to, planErr = plan(slab, from)
		}
		h.mu.Unlock()
		err = cmp.Or(err, planErr)
		if to == nil {
			continue
		}
		if moveErr := h.moveSlab(slab, from, to); moveErr != nil {
			err = cmp.Or(err, moveErr)
			continue
		}
		moved++
		h.mu.Lock()
		*tally++
		h.mu.Unlock()
	}
	return moved, err
}

// moveSlab moves slab from the replica list from to the list to, the one way a
// slab changes agents. Each agent that joins (in to, not in from) gets a copy
// of the slab from from's live agents (copySlabTo) and the slab's pending
// writes (joinWrites); then to is installed, and each agent that leaves (in
// from, not in to) gives up its share of the slab load. A leaver live when the
// move began has its copy freed and leaves the slab's ack and hot sets; a
// failed one is unreachable and keeps its copy and its acks, which
// copySlabTo's skip rule needs should it come back from a partition holding a
// page's newest image. A copy that fails leaves the slab as it was: the
// joiners copied onto so far leave the ack sets this move's copies put them
// in, and give the slab up as a leaver does where nothing else holds them there.
func (h *Host) moveSlab(slab SlabID, from, to []int) error {
	h.mu.Lock()
	live := h.live(from)
	h.mu.Unlock()
	if len(live) == 0 {
		return fmt.Errorf("remote: move slab %d: no live replica to copy from", slab)
	}
	joining := slices.DeleteFunc(slices.Clone(to), func(idx int) bool { return slices.Contains(from, idx) })
	certified := make([][]core.PageID, len(joining))
	for i, idx := range joining {
		var err error
		if certified[i], err = h.copySlabTo(slab, live, idx); err != nil {
			h.mu.Lock()
			trs := h.release(slab, joining[:i+1], certified)
			h.mu.Unlock()
			freeSlab(slab, trs)
			return err
		}
	}

	h.mu.Lock()
	h.placements[slab] = to
	for _, idx := range joining {
		h.joinWrites(core.PageID(int64(slab)*int64(h.cfg.SlabPages)), h.cfg.SlabPages, idx)
		h.links[idx].slabs++
	}
	var freed []int
	for _, idx := range from {
		if slices.Contains(to, idx) {
			continue
		}
		if l := h.links[idx]; l.slabs > 0 {
			l.slabs--
		}
		if slices.Contains(live, idx) {
			freed = append(freed, idx)
		}
	}
	h.scrubHot(slab, freed)
	trs := h.release(slab, freed, nil)
	h.mu.Unlock()
	freeSlab(slab, trs)
	return nil
}

// release takes agents out of the ack sets of slab's pages so that reads never
// prefer their copies: agents[i] out of those of the pages certified[i] lists,
// or with certified nil, out of every one. It returns the transports of the
// agents then left in no ack or hot set of the slab, whose copy nothing reads:
// the caller frees the slab on them, with h.mu released. Callers hold h.mu.
func (h *Host) release(slab SlabID, agents []int, certified [][]core.PageID) []Transport {
	held := make([]bool, len(agents))
	first := core.PageID(int64(slab) * int64(h.cfg.SlabPages))
	for page := first; page < first+core.PageID(h.cfg.SlabPages); page++ {
		r := h.rec(page)
		if len(r.acked()) > 0 {
			r.acks = slices.DeleteFunc(r.acks, func(a int) bool {
				i := slices.Index(agents, a)
				return i >= 0 && (certified == nil || slices.Contains(certified[i], page))
			})
			if len(r.acks) == 0 {
				// Every acked holder left and the copy could not certify
				// freshness: the write is no longer recoverable as acked, so
				// drop the bookkeeping as PurgeAgent does.
				delete(h.degraded, page)
			}
		}
		for i, a := range agents {
			held[i] = held[i] || slices.Contains(r.acked(), a) || slices.Contains(h.hot[page], a)
		}
	}
	var trs []Transport
	for i, a := range agents {
		if !held[i] {
			trs = append(trs, h.links[a].tr)
		}
	}
	return trs
}

// freeSlab frees slab on trs, best effort: an agent that fails to free keeps a
// stale copy, but it is in no placement nor ack set, so nothing reads it.
func freeSlab(slab SlabID, trs []Transport) {
	for _, tr := range trs {
		_, _ = tr.Call(&Request{Op: OpFreeSlab, Slab: slab})
	}
}

// copySlabTo maps slab on the target agent and copies every page from the
// given source replicas — moveSlab's copy onto an agent that joins. For each page it prefers a source that acknowledged the
// page's most recent write, and certifies the copy only from such a source (a
// replica that missed a write holds stale bytes); unwritten pages copy as
// zeros, which is exactly their state on the source. Nor does a stale source
// overwrite a target already in the page's ack set (an agent marked failed and
// recovered since the repair began): the target holds the newest image, and
// the page is left as it is. It returns the pages whose ack set the copy put
// target in, as far as it got.
func (h *Host) copySlabTo(slab SlabID, sources []int, target int) (certified []core.PageID, err error) {
	h.mu.Lock()
	dst := h.links[target].tr
	h.mu.Unlock()
	resp, err := dst.Call(&Request{Op: OpMapSlab, Slab: slab})
	if err = callError(OpMapSlab, resp, err); err != nil {
		return nil, fmt.Errorf("remote: map slab %d on agent %d: %w", slab, target, err)
	}
	first, targets := core.PageID(int64(slab)*int64(h.cfg.SlabPages)), []int{target}
	for page := first; page < first+core.PageID(h.cfg.SlabPages); page++ {
		h.mu.Lock()
		acked := h.rec(page).acked()
		i := slices.IndexFunc(sources, func(s int) bool { return slices.Contains(acked, s) })
		had := slices.Contains(acked, target)
		h.mu.Unlock()
		if i < 0 && had {
			continue
		}
		readErr, writeErr := h.copyPage(page, sources[max(i, 0)], targets, i >= 0)
		if i >= 0 && !had {
			h.mu.Lock()
			if slices.Contains(h.rec(page).acked(), target) {
				certified = append(certified, page)
			}
			h.mu.Unlock()
		}
		if readErr != nil || writeErr != nil {
			return certified, cmp.Or(readErr, writeErr)
		}
	}
	return certified, nil
}

// joinWrites has the writes still pending of the n pages from first on go to
// target too, which has just taken a copy of them as a replica (moveSlab) or a
// hot holder (ReplicateHot): each was cut for the holders its page had when it
// was issued, and its landing, which sets the page's ack set, would leave
// target out. target's copy is done by now, so the write reaches it after the
// copy. Callers hold h.mu.
func (h *Host) joinWrites(first core.PageID, n int, target int) {
	for page := first; page < first+core.PageID(n); page++ {
		if pw := h.rec(page).dirty(); pw != nil && !slices.Contains(pw.replicas, target) {
			pw.replicas = append(pw.replicas, target)
			l := h.links[target]
			l.queue = append(l.queue, queueEntry{write: pw})
		}
	}
}

// repushDegraded walks the pages whose latest write is under-acknowledged
// and copies the fresh bytes from an acknowledged replica to the live
// replicas that missed the write. Unreachable targets are skipped (the page
// stays degraded); a page with no live acknowledged copy is beyond saving
// by this path and is left for slab-level repair. Its targets are replicas
// the page's own writes go to, so copyPage pushes under h.mu, and leaves a
// page with a write pending or landed since the source read to that write.
func (h *Host) repushDegraded() {
	h.mu.Lock()
	pages := slices.Sorted(maps.Keys(h.degraded))
	h.mu.Unlock()

	for _, page := range pages {
		slab, _ := h.locate(page)
		h.mu.Lock()
		acked, replicas, src := h.rec(page).acked(), h.placements[slab], -1
		if i := slices.IndexFunc(acked, func(a int) bool { return !h.links[a].failed && slices.Contains(replicas, a) }); i >= 0 {
			src = acked[i]
		}
		targets := slices.DeleteFunc(h.live(replicas), func(a int) bool { return slices.Contains(acked, a) })
		h.mu.Unlock()
		if src >= 0 && len(targets) > 0 {
			_, _ = h.copyPage(page, src, targets, true) // what took the copy is in the ack set
		}
		h.mu.Lock()
		// With no source or nothing to push, slab-level repair may already
		// have restored full coverage (every live replica acked).
		if r := h.rec(page); r.dirty() == nil && h.placedAcks(page, r.acked()) >= h.cfg.Replicas {
			delete(h.degraded, page)
		}
		h.mu.Unlock()
	}
}

// placedAcks counts the agents of acks that are in page's slab placement: a
// hot holder's copy is extra, and does not stand in for a placement replica
// that missed a write. Callers hold h.mu.
func (h *Host) placedAcks(page core.PageID, acks []int) int {
	if len(h.hot[page]) == 0 {
		return len(acks)
	}
	slab, _ := h.locate(page)
	n := 0
	for _, idx := range acks {
		if slices.Contains(h.placements[slab], idx) {
			n++
		}
	}
	return n
}

// SlabOf reports which slab a page belongs to.
func (h *Host) SlabOf(page core.PageID) SlabID {
	s, _ := h.locate(page)
	return s
}
