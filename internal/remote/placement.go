package remote

import "slices"

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
func (h *Host) rendezvousRank(slab SlabID, exclude []int) []int {
	type scored struct {
		idx   int
		score uint64
	}
	ranked := make([]scored, 0, len(h.links))
	for i, l := range h.links {
		if l.failed || l.retired || slices.Contains(exclude, i) {
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
	return h.addLink(tr)
}

// Agents reports the current number of transports in the pool (live or
// failed).
func (h *Host) Agents() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.links)
}

// Transports reports the agent transports in index order (a copy of the
// slice; the transports themselves are shared). Control planes use it to
// probe failed agents and to chain per-call observers onto fault-injecting
// transports.
func (h *Host) Transports() []Transport {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]Transport, len(h.links))
	for i, l := range h.links {
		out[i] = l.tr
	}
	return out
}

// Retire marks agent idx as draining for graceful scale-down: it leaves
// the rendezvous ranking — new placements skip it and the next Rebalance
// migrates its slab share away — but unlike MarkFailed it stays a fully
// live copy source and read target, so draining never reduces the set of
// fresh copies. The scale-down sequence is Retire → Rebalance →
// PurgeAgent; call Reinstate to roll a drain back.
func (h *Host) Retire(idx int) error {
	return h.setStanding("Retire", idx, func(l *link) { l.retired = true })
}

// Reinstate cancels a Retire: the agent rejoins the rendezvous ranking.
func (h *Host) Reinstate(idx int) error {
	return h.setStanding("Reinstate", idx, func(l *link) { l.retired = false })
}

// RetiredAgents reports the indices currently draining, sorted.
func (h *Host) RetiredAgents() []int {
	return h.agentsWhere(func(l *link) bool { return l.retired })
}

// Rebalance converges every placed slab onto its rendezvous target set —
// the minimal-disruption migration run after AddAgent, Retire or MarkFailed:
// each slab whose replica list differs from the rendezvous ranking's top
// Replicas is moved there by moveSlabs, as RepairSlabs moves a slab, copied
// onto the agents that should now hold it and freed from the live ones that
// should not. It reports how many slabs moved and the first error met in slab
// order (a slab with no live replica to copy from, or a copy that failed);
// that slab stays where it was, every other slab moves all the same, and
// Rebalance is idempotent — rerun it after healing.
func (h *Host) Rebalance() (moved int, err error) {
	return h.moveSlabs(&h.stats.SlabsMoved, func(slab SlabID, replicas []int) ([]int, error) {
		if desired := h.desiredPlacement(slab); !slices.Equal(replicas, desired) {
			return desired, nil
		}
		return nil, nil
	})
}
