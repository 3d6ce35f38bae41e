package remote

import (
	"cmp"
	"fmt"
	"maps"
	"slices"

	"leap/internal/core"
)

// MarkFailed records that the agent at index idx is considered dead: it is
// excluded from future placements. Existing placements keep the index so
// reads keep failing over; call RepairSlabs to restore the replication
// factor.
func (h *Host) MarkFailed(idx int) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if idx < 0 || idx >= len(h.transports) {
		return fmt.Errorf("remote: MarkFailed(%d) out of range", idx)
	}
	if h.failed == nil {
		h.failed = make(map[int]bool)
	}
	h.failed[idx] = true
	return nil
}

// MarkRecovered clears a MarkFailed verdict: the agent rejoins the placement
// pool. If the agent came back empty (process restart), call PurgeAgent
// first so stale placements do not point at its wiped memory.
func (h *Host) MarkRecovered(idx int) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if idx < 0 || idx >= len(h.transports) {
		return fmt.Errorf("remote: MarkRecovered(%d) out of range", idx)
	}
	delete(h.failed, idx)
	return nil
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
	if idx < 0 || idx >= len(h.transports) {
		return 0, fmt.Errorf("remote: PurgeAgent(%d) out of range", idx)
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
	h.slabLoad[idx] = 0
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
	for idx := range h.links {
		for f := h.links[idx].oldestWrite(); f != nil; f = h.links[idx].oldestWrite() {
			_, err := h.reap(f)
			h.keep(err)
		}
	}
}

// FailedAgents reports the indices currently marked failed, sorted.
func (h *Host) FailedAgents() []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]int, 0, len(h.failed))
	for i := range h.failed {
		out = append(out, i)
	}
	slices.Sort(out)
	return out
}

// RepairSlabs restores the configured replication factor for every slab
// that lost replicas (failed agents, purged restarts, or placements that
// never reached the factor): each affected slab is re-placed on the healthy
// agent rendezvous hashing ranks first among those not holding it, and its
// contents copied from a surviving replica, page by page. It then re-pushes
// degraded pages — pages whose latest write was acknowledged by fewer than
// Replicas agents — from an acknowledged copy to the replicas that missed it
// (best effort: unreachable targets stay degraded for the next round). It
// returns the number of slabs repaired.
//
// This is the §4.5 re-replication path: after RepairSlabs, the failure of
// the *other* original replica no longer loses data.
func (h *Host) RepairSlabs() (int, error) {
	h.mu.Lock()
	h.settleWrites() // which pages are degraded is settled only then
	// Snapshot the work under the lock; copying happens outside it. Jobs
	// are sorted by slab so the repair order (and therefore any
	// transport-level accounting) is deterministic.
	type job struct {
		slab      SlabID
		survivors []int
		missing   int
	}
	var jobs []job
	for slab, replicas := range h.placements {
		alive := make([]int, 0, len(replicas))
		for _, idx := range replicas {
			if !h.failed[idx] {
				alive = append(alive, idx)
			}
		}
		if len(alive) > 0 && len(alive) < h.cfg.Replicas {
			jobs = append(jobs, job{slab: slab, survivors: alive, missing: h.cfg.Replicas - len(alive)})
		}
	}
	h.mu.Unlock()
	slices.SortFunc(jobs, func(a, b job) int {
		switch {
		case a.slab < b.slab:
			return -1
		case a.slab > b.slab:
			return 1
		}
		return 0
	})

	repaired := 0
	for _, j := range jobs {
		survivors := j.survivors
		for k := 0; k < j.missing; k++ {
			target, err := h.repairOne(j.slab, survivors)
			if err != nil {
				return repaired, err
			}
			survivors = append(survivors, target)
		}
		repaired++
	}
	h.repushDegraded()
	return repaired, nil
}

// repairOne adds one replica to slab, copying contents from survivors, and
// returns the agent index chosen.
func (h *Host) repairOne(slab SlabID, survivors []int) (int, error) {
	h.mu.Lock()
	// Choose the best-ranked healthy agent not already holding the slab —
	// the same rendezvous ordering placement uses, so a later Rebalance has
	// nothing left to move whenever the top-ranked agents are alive.
	exclude := make(map[int]bool, len(survivors))
	for _, idx := range survivors {
		exclude[idx] = true
	}
	ranked := h.rendezvousRank(slab, exclude)
	if len(ranked) == 0 {
		h.mu.Unlock()
		return -1, fmt.Errorf("remote: no healthy agent available to repair slab %d", slab)
	}
	target := ranked[0]
	h.mu.Unlock()

	if err := h.copySlabTo(slab, survivors, target); err != nil {
		return -1, err
	}

	h.mu.Lock()
	// Install the new replica set: survivors plus the repaired copy.
	newSet := append(slices.Clone(survivors), target)
	h.placements[slab] = newSet
	h.joinWrites(slab, target)
	h.scrubHot(slab, nil)
	h.slabLoad[target]++
	h.stats.Repairs++
	h.mu.Unlock()
	return target, nil
}

// copySlabTo maps slab on the target agent and copies every page from the
// given source replicas — the re-replication machinery shared by RepairSlabs
// and Rebalance. For each page it prefers a source that acknowledged the
// page's most recent write, and certifies the copy only from such a source (a
// replica that missed a write holds stale bytes); unwritten pages copy as
// zeros, which is exactly their state on the source. Nor does a stale source
// overwrite a target already in the page's ack set (an agent marked failed and
// recovered since the repair began): the target holds the newest image, and
// the page is left as it is.
func (h *Host) copySlabTo(slab SlabID, sources []int, target int) error {
	h.mu.Lock()
	dst := h.transports[target]
	h.mu.Unlock()
	resp, err := dst.Call(&Request{Op: OpMapSlab, Slab: slab})
	if err = callError(OpMapSlab, resp, err); err != nil {
		return fmt.Errorf("remote: repair map slab %d: %w", slab, err)
	}
	first, targets := core.PageID(int64(slab)*int64(h.cfg.SlabPages)), []int{target}
	for page := first; page < first+core.PageID(h.cfg.SlabPages); page++ {
		h.mu.Lock()
		acked := h.rec(page).acked()
		i := slices.IndexFunc(sources, func(s int) bool { return slices.Contains(acked, s) })
		skip := i < 0 && slices.Contains(acked, target)
		h.mu.Unlock()
		if skip {
			continue
		}
		if readErr, writeErr := h.copyPage(page, sources[max(i, 0)], targets, i >= 0); readErr != nil || writeErr != nil {
			return cmp.Or(readErr, writeErr)
		}
	}
	return nil
}

// joinWrites has the writes of slab still pending go to target too, now in its
// placement: each was cut for the replicas the slab had when it was issued,
// and landing on those alone would leave its page degraded past the repair or
// migration that added target. target's copy of the page is done by now, so
// the write reaches it after the copy. Callers hold h.mu.
func (h *Host) joinWrites(slab SlabID, target int) {
	first := core.PageID(int64(slab) * int64(h.cfg.SlabPages))
	for page := first; page < first+core.PageID(h.cfg.SlabPages); page++ {
		if pw := h.rec(page).dirty(); pw != nil && !slices.Contains(pw.replicas, target) {
			pw.replicas = append(pw.replicas, target)
			h.queues[target] = append(h.queues[target], queueEntry{write: pw})
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
		if i := slices.IndexFunc(acked, func(a int) bool { return !h.failed[a] && slices.Contains(replicas, a) }); i >= 0 {
			src = acked[i]
		}
		targets := slices.DeleteFunc(slices.Clone(replicas), func(a int) bool { return h.failed[a] || slices.Contains(acked, a) })
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
