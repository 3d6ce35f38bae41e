package prefetch

import "leap/internal/core"

// Leap adapts internal/core's majority-trend predictor to the Prefetcher
// interface. By default each process gets its own predictor — the paper's
// page-access isolation (§4.1); setting Shared before first use collapses
// all processes onto a single predictor, which exists only for the
// isolation ablation bench.
type Leap struct {
	// Shared disables per-process isolation when true.
	Shared bool

	cfg   core.Config
	procs map[PID]*core.Predictor

	// lastPID/lastPred memoize the most recent predictor lookup: the fault
	// path typically issues runs of accesses from one process, and the
	// map hit per access is measurable at simulation scale.
	lastPID  PID
	lastPred *core.Predictor
}

// NewLeap returns a Leap prefetcher; zero Config fields take the paper's
// defaults (Hsize=32, Nsplit=2, PWsizemax=8).
func NewLeap(cfg core.Config) *Leap {
	return &Leap{cfg: cfg, procs: make(map[PID]*core.Predictor)}
}

// Name implements Prefetcher.
func (p *Leap) Name() string { return "leap" }

func (p *Leap) predictor(pid PID) *core.Predictor {
	if p.Shared {
		pid = 0
	}
	if p.lastPred != nil && p.lastPID == pid {
		return p.lastPred
	}
	pr, ok := p.procs[pid]
	if !ok {
		pr = core.NewPredictor(p.cfg)
		p.procs[pid] = pr
	}
	p.lastPID, p.lastPred = pid, pr
	return pr
}

// OnAccess implements Prefetcher. Every swap-in is recorded in the access
// history (§4.1's log_access_history); candidate generation — the
// do_prefetch that replaces swapin_readahead — runs only on cache misses.
func (p *Leap) OnAccess(pid PID, page PageID, miss bool, dst []PageID) []PageID {
	pr := p.predictor(pid)
	pr.Record(page)
	if !miss {
		return dst
	}
	return pr.PredictInto(page, dst)
}

// OnPrefetchHit implements Prefetcher.
func (p *Leap) OnPrefetchHit(pid PID) { p.predictor(pid).NoteHit() }

// Ahead implements RunAhead with pid's predictor.
func (p *Leap) Ahead(pid PID, page PageID, frame, train, limit, room int, dst []PageID) []PageID {
	return p.predictor(pid).AheadInto(page, frame, train, limit, room, dst)
}

// Reset implements Prefetcher.
func (p *Leap) Reset() {
	p.procs = make(map[PID]*core.Predictor)
	p.lastPred = nil
}

// Predictor exposes pid's predictor (created on first use), for direct
// inspection of its window and history through a live fault path.
func (p *Leap) Predictor(pid PID) *core.Predictor { return p.predictor(pid) }

// ProcessStats reports the per-process predictor statistics, keyed by PID
// (key 0 when Shared).
func (p *Leap) ProcessStats() map[PID]core.Stats {
	out := make(map[PID]core.Stats, len(p.procs))
	for pid, pr := range p.procs {
		out[pid] = pr.Stats()
	}
	return out
}
