package remote

import (
	"fmt"
	"slices"

	"leap/internal/core"
)

// Hot-page read replicas: the control plane promotes the top-K
// fault-frequency pages to extra copies beyond their slab placement, so the
// hottest reads can be served by whichever acked holder is least loaded (or
// not hinted slow) instead of always hammering the same two replicas. A hot
// copy is readable only once certified fresh — it joins the page's ack set
// when installed from an acked source and on every subsequent write, exactly
// like a placement replica — so the staleness discipline is unchanged.

// readOrder returns the holder a read of page should try next: the first, in
// attempt order, not in tried, or -1 when all have been. The order is acked
// holders first (placement order, hot extras after), then the unacked rest;
// when the control plane has hinted agents slow, each group orders not-slow
// before slow — routing around lag without ever dropping a candidate. With no
// hot copies and no slow hints this is exactly the legacy acked-first order.
// It runs on every read and allocates nothing; r is page's record. Callers
// hold h.mu.
func (h *Host) readOrder(page core.PageID, r *record, replicas, tried []int) int {
	acked, extra := r.acked(), h.hot[page]
	for _, wantAcked := range [2]bool{true, false} {
		for _, wantSlow := range [2]bool{false, true} {
			// A hot holder that placement lists too is met twice, to no effect.
			for _, cands := range [2][]int{replicas, extra} {
				for _, idx := range cands {
					if slices.Contains(acked, idx) == wantAcked && h.links[idx].slow == wantSlow && !slices.Contains(tried, idx) {
						return idx
					}
				}
			}
		}
	}
	return -1
}

// readCandidates returns the whole attempt list readOrder picks from, in
// order. Callers hold h.mu.
func (h *Host) readCandidates(page core.PageID, replicas []int) []int {
	var order []int
	for {
		idx := h.readOrder(page, h.rec(page), replicas, order)
		if idx < 0 {
			return order
		}
		order = append(order, idx)
	}
}

// writeTargets returns the write fan-out set for page: the slab replicas
// plus any hot extra holders (deduplicated, placement order first). Callers
// hold h.mu.
func (h *Host) writeTargets(page core.PageID, replicas []int) []int {
	extra := h.hot[page]
	if len(extra) == 0 {
		return replicas
	}
	targets := slices.Clone(replicas)
	for _, idx := range extra {
		if !slices.Contains(targets, idx) {
			targets = append(targets, idx)
		}
	}
	return targets
}

// maxHotStaleRetries bounds how many times one ReplicateHot call re-copies
// onto a target after a concurrent write overtook the bytes in hand — enough
// to make progress under sporadic writes without livelocking against a page
// under constant write pressure (the control plane retries next refresh).
const maxHotStaleRetries = 3

// ReplicateHot installs extra read replicas for page until it has up to
// extra hot holders beyond its slab placement, choosing the best
// rendezvous-ranked live agents not already holding a copy. The page bytes
// are copied (copyPage) from a holder that acknowledged the latest write; a
// copy joins the ack set only if no write overtook it, and the page's pending
// write, if any, goes to it too (joinWrites). With no live acked source the
// call is a no-op (an uncertifiable copy could never be read anyway).
// Unreachable targets are skipped best-effort. It reports how many copies were
// installed.
func (h *Host) ReplicateHot(page core.PageID, extra int) (added int, err error) {
	slab, _ := h.locate(page)

	h.mu.Lock()
	h.settleWrites() // a write in the air does not know the new holder: its ack would leave the copy out
	replicas, ok := h.placements[slab]
	if !ok {
		h.mu.Unlock()
		return 0, fmt.Errorf("remote: ReplicateHot(%d): page's slab is not placed", page)
	}
	have := h.hot[page]
	need := extra - len(have)
	if need <= 0 {
		h.mu.Unlock()
		return 0, nil
	}
	ranked := h.rendezvousRank(slab, slices.Concat(replicas, have))
	h.mu.Unlock()

	for i, rereads := 0, 0; i < len(ranked) && added < need; {
		target := ranked[i]
		h.mu.Lock()
		tr, sources := h.links[target].tr, h.live(h.rec(page).acked())
		h.mu.Unlock()
		if len(sources) == 0 {
			return added, nil
		}
		if resp, err := tr.Call(&Request{Op: OpMapSlab, Slab: slab}); callError(OpMapSlab, resp, err) != nil {
			i++ // unreachable; try the next ranked agent
			continue
		}
		readErr, writeErr := h.copyPage(page, sources[0], []int{target}, true)
		if readErr != nil {
			return added, readErr
		}
		if writeErr != nil {
			i++
			continue
		}
		h.mu.Lock()
		if !slices.Contains(h.rec(page).acked(), target) {
			// A write completed after the source read: the bytes just pushed
			// are stale and stay out of the ack set. Copy again.
			h.mu.Unlock()
			if rereads++; rereads > maxHotStaleRetries {
				return added, nil
			}
			continue
		}
		if h.hot == nil {
			h.hot = make(map[core.PageID][]int)
		}
		h.hot[page] = append(h.hot[page], target)
		h.joinWrites(page, 1, target)
		h.stats.HotCopies++
		h.mu.Unlock()
		added++
		i++
	}
	return added, nil
}

// live returns, in a slice of its own, those of agents not marked failed.
// Callers hold h.mu.
func (h *Host) live(agents []int) []int {
	return slices.DeleteFunc(slices.Clone(agents), func(a int) bool { return h.links[a].failed })
}

// DropHot demotes page back to its plain slab placement: hot holders leave
// the ack set (so no read path consults a copy that will no longer receive
// writes) and the hot entry is removed. The bytes on the former holders are
// simply abandoned — nothing references them.
//
// When every acked copy is a hot holder (the placement replicas all missed
// the last write), demoting as-is would abandon the only certified copies
// while readers silently fall back to stale placement bytes. Instead the
// page is first copied from a hot holder back onto its live placement
// replicas; if none can take it (or a write to the page is pending), DropHot
// refuses and reports false so the caller retries later.
func (h *Host) DropHot(page core.PageID) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	holders := h.hot[page]
	if r := h.rec(page); len(holders) > 0 && r.dirty() == nil && len(r.acked()) > 0 &&
		!slices.ContainsFunc(r.acks, func(a int) bool { return !slices.Contains(holders, a) }) {
		slab, _ := h.locate(page)
		sources, targets := h.live(r.acked()), h.live(h.placements[slab])
		h.mu.Unlock()
		for _, src := range sources {
			if readErr, _ := h.copyPage(page, src, targets, true); readErr == nil {
				break // the replicas that took the copy are in the ack set
			}
		}
		h.mu.Lock()
		holders = h.hot[page]
	}
	if len(holders) == 0 {
		return true
	}
	if r := h.rec(page); len(r.acked()) > 0 {
		rest := slices.DeleteFunc(slices.Clone(r.acks), func(a int) bool {
			return slices.Contains(holders, a)
		})
		if len(rest) == 0 {
			return false // the copy-back reached no replica, or a write is pending
		}
		r.acks = rest
		if len(rest) < h.cfg.Replicas {
			// The last write is certified on fewer than Replicas placement
			// copies once the holders leave: keep it flagged so RepairSlabs
			// re-pushes it.
			h.degraded[page] = true
		} else {
			delete(h.degraded, page)
		}
	}
	delete(h.hot, page)
	return true
}

// HotPages reports the pages currently carrying hot extra replicas, sorted.
func (h *Host) HotPages() []core.PageID {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]core.PageID, 0, len(h.hot))
	for page := range h.hot {
		out = append(out, page)
	}
	slices.Sort(out)
	return out
}

// HotHolders reports (a copy of) the extra holders for page, if any.
func (h *Host) HotHolders(page core.PageID) []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return slices.Clone(h.hot[page])
}

// scrubHot takes out of the hot sets of slab's pages the agents of its
// placement — a holder that became a replica by repair or migration holds a
// full placement copy now, not an extra one (DropHot would strip it from the
// ack set) — and the agents of gone, whose copies are being freed. Callers
// hold h.mu and have installed the slab's new placement.
func (h *Host) scrubHot(slab SlabID, gone []int) {
	if len(h.hot) == 0 {
		return
	}
	first := core.PageID(int64(slab) * int64(h.cfg.SlabPages))
	for page := first; page < first+core.PageID(h.cfg.SlabPages); page++ {
		if holders, ok := h.hot[page]; ok {
			rest := slices.DeleteFunc(slices.Clone(holders), func(r int) bool {
				return slices.Contains(gone, r) || slices.Contains(h.placements[slab], r)
			})
			if len(rest) == 0 {
				delete(h.hot, page)
			} else {
				h.hot[page] = rest
			}
		}
	}
}

// dropAgentFromHotLocked removes agent idx from every hot holder set —
// PurgeAgent's scrub (slab moves use scrubHot). A page whose hot set
// empties is demoted (its entry is deleted); the ack-set scrub is the
// caller's responsibility (purge and migration already handle acked).
// Callers hold h.mu.
func (h *Host) dropAgentFromHotLocked(idx int) {
	for page, holders := range h.hot {
		if !slices.Contains(holders, idx) {
			continue
		}
		rest := slices.DeleteFunc(slices.Clone(holders), func(r int) bool { return r == idx })
		if len(rest) == 0 {
			delete(h.hot, page)
		} else {
			h.hot[page] = rest
		}
	}
}
