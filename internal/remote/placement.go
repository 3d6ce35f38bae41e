package remote

import (
	"fmt"
	"slices"

	"leap/internal/core"
)

// Slab placement uses rendezvous (highest-random-weight) hashing: every
// (slab, agent) pair gets a deterministic pseudo-random score, and a slab
// lives on the Replicas highest-scoring live agents. The property that
// matters is minimal disruption — when an agent joins or leaves, the only
// slabs whose top-Replicas set changes are the ones the new agent now wins
// (or the departed agent held), about a 1/N share — so Rebalance moves
// exactly that share and nothing else. Scores depend only on
// (HostConfig.Seed, slab, agent index), so placement needs no coordination,
// no RNG stream, and replays identically from the configuration.

// hrwScore is the rendezvous weight of agent idx for slab: a splitmix64-
// style finalizer over the (seed, slab, agent) triple, uniform enough that
// per-agent load concentrates tightly around slabs×replicas/agents.
func hrwScore(seed uint64, slab SlabID, idx int) uint64 {
	x := seed ^ uint64(slab)*0x9E3779B97F4A7C15 ^ (uint64(idx)+1)*0xD1B54A32D192ED03
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// rendezvousRank returns the live (not failed, not retired, not excluded)
// agent indices ordered by descending rendezvous score for slab, ties
// broken by index. Callers hold h.mu.
func (h *Host) rendezvousRank(slab SlabID, exclude map[int]bool) []int {
	type scored struct {
		idx   int
		score uint64
	}
	ranked := make([]scored, 0, len(h.transports))
	for i := range h.transports {
		if h.failed[i] || h.retired[i] || exclude[i] {
			continue
		}
		ranked = append(ranked, scored{i, hrwScore(h.cfg.Seed, slab, i)})
	}
	slices.SortFunc(ranked, func(a, b scored) int {
		switch {
		case a.score > b.score:
			return -1
		case a.score < b.score:
			return 1
		case a.idx < b.idx:
			return -1
		case a.idx > b.idx:
			return 1
		}
		return 0
	})
	out := make([]int, len(ranked))
	for i, s := range ranked {
		out[i] = s.idx
	}
	return out
}

// desiredPlacement reports the rendezvous target set for slab under the
// current live-agent population: the top-Replicas ranked agents. Callers
// hold h.mu.
func (h *Host) desiredPlacement(slab SlabID) []int {
	ranked := h.rendezvousRank(slab, nil)
	if len(ranked) > h.cfg.Replicas {
		ranked = ranked[:h.cfg.Replicas]
	}
	return ranked
}

// AddAgent appends a transport to the placement pool and returns its agent
// index. The new agent receives no existing slabs until Rebalance (or a
// repair) migrates its rendezvous share onto it; new placements include it
// immediately.
func (h *Host) AddAgent(tr Transport) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.transports = append(h.transports, tr)
	h.slabLoad = append(h.slabLoad, 0)
	h.queues = append(h.queues, nil)
	h.links = append(h.links, link{})
	return len(h.transports) - 1
}

// Agents reports the current number of transports in the pool (live or
// failed).
func (h *Host) Agents() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.transports)
}

// Transports reports the agent transports in index order (a copy of the
// slice; the transports themselves are shared). Control planes use it to
// probe failed agents and to chain per-call observers onto fault-injecting
// transports.
func (h *Host) Transports() []Transport {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]Transport, len(h.transports))
	copy(out, h.transports)
	return out
}

// Retire marks agent idx as draining for graceful scale-down: it leaves
// the rendezvous ranking — new placements skip it and the next Rebalance
// migrates its slab share away — but unlike MarkFailed it stays a fully
// live copy source and read target, so draining never reduces the set of
// fresh copies. The scale-down sequence is Retire → Rebalance →
// PurgeAgent; call Reinstate to roll a drain back.
func (h *Host) Retire(idx int) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if idx < 0 || idx >= len(h.transports) {
		return fmt.Errorf("remote: Retire(%d) out of range", idx)
	}
	if h.retired == nil {
		h.retired = make(map[int]bool)
	}
	h.retired[idx] = true
	return nil
}

// Reinstate cancels a Retire: the agent rejoins the rendezvous ranking.
func (h *Host) Reinstate(idx int) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if idx < 0 || idx >= len(h.transports) {
		return fmt.Errorf("remote: Reinstate(%d) out of range", idx)
	}
	delete(h.retired, idx)
	return nil
}

// RetiredAgents reports the indices currently draining, sorted.
func (h *Host) RetiredAgents() []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]int, 0, len(h.retired))
	for i := range h.retired {
		out = append(out, i)
	}
	slices.Sort(out)
	return out
}

// Rebalance converges every placed slab onto its rendezvous target set —
// the minimal-disruption migration run after AddAgent or MarkFailed. For
// each slab whose current replica set differs from the rendezvous ranking
// it copies the slab (page by page, preferring acknowledged sources, the
// same machinery RepairSlabs uses) onto the agents that should now hold it,
// then frees the copies on agents that should not. It reports how many
// slabs moved. Rebalance expects the target agents to be reachable; a copy
// failure aborts with an error, leaving already-migrated slabs in place
// (Rebalance is idempotent — rerun it after healing).
func (h *Host) Rebalance() (moved int, err error) {
	h.mu.Lock()
	// An ack landing after a slab has moved would name its leavers, and count
	// them towards the replication factor.
	h.settleWrites()
	type job struct {
		slab    SlabID
		current []int
		desired []int
	}
	var jobs []job
	for slab, replicas := range h.placements {
		desired := h.desiredPlacement(slab)
		if slices.Equal(replicas, desired) {
			continue
		}
		jobs = append(jobs, job{slab, slices.Clone(replicas), desired})
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

	for _, j := range jobs {
		if err := h.migrateSlab(j.slab, j.current, j.desired); err != nil {
			return moved, err
		}
		moved++
		h.mu.Lock()
		h.stats.SlabsMoved++
		h.mu.Unlock()
	}
	return moved, nil
}

// migrateSlab moves one slab from its current replica set to the desired
// one: copy to the newcomers (from acknowledged survivors where possible),
// install the new placement, then free the leavers' copies.
func (h *Host) migrateSlab(slab SlabID, current, desired []int) error {
	// Copy sources: the current holders that are still reachable. Live
	// leavers stay eligible while copying, so a page whose only acked
	// holder is a leaver still has its fresh copy available as the source;
	// failed holders cannot serve reads and are skipped.
	h.mu.Lock()
	sources := make([]int, 0, len(current))
	for _, idx := range current {
		if !h.failed[idx] {
			sources = append(sources, idx)
		}
	}
	h.mu.Unlock()
	if len(sources) == 0 {
		return fmt.Errorf("remote: rebalance slab %d: no live replica to copy from", slab)
	}
	for _, target := range desired {
		if slices.Contains(current, target) {
			continue
		}
		if err := h.copySlabTo(slab, sources, target); err != nil {
			return fmt.Errorf("remote: rebalance slab %d: %w", slab, err)
		}
	}

	h.mu.Lock()
	var leavers []int
	for _, idx := range current {
		if !slices.Contains(desired, idx) {
			leavers = append(leavers, idx)
		}
	}
	h.placements[slab] = slices.Clone(desired)
	for _, idx := range desired {
		if !slices.Contains(current, idx) {
			h.joinWrites(slab, idx)
			h.slabLoad[idx]++
		}
	}
	for _, idx := range leavers {
		if h.slabLoad[idx] > 0 {
			h.slabLoad[idx]--
		}
	}
	// The leavers' copies are going away: drop them from every page ack set
	// in this slab so reads never prefer a freed copy.
	first := core.PageID(int64(slab) * int64(h.cfg.SlabPages))
	for off := int64(0); off < int64(h.cfg.SlabPages); off++ {
		page := first + core.PageID(off)
		if r := h.rec(page); len(r.acked()) > 0 {
			r.acks = slices.DeleteFunc(r.acks, func(a int) bool {
				return slices.Contains(leavers, a)
			})
			if len(r.acks) == 0 {
				// Every acked holder was a leaver and the copy could not
				// certify freshness: the write is no longer recoverable
				// as-acked, so drop the bookkeeping as PurgeAgent does.
				delete(h.degraded, page)
			}
		}
	}
	h.scrubHot(slab, leavers) // a leaver's slab copy is being freed
	leaverTransports := make([]Transport, len(leavers))
	for i, idx := range leavers {
		leaverTransports[i] = h.transports[idx]
	}
	h.mu.Unlock()

	for _, tr := range leaverTransports {
		// Best effort: an unreachable leaver keeps a stale copy, but it is
		// no longer in the placement (or any ack set), so nothing reads it.
		_, _ = tr.Call(&Request{Op: OpFreeSlab, Slab: slab})
	}
	return nil
}
