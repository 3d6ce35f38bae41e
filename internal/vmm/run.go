package vmm

import (
	"leap/internal/metrics"
	"leap/internal/sim"
)

// ProcResult is the per-process outcome of a run.
type ProcResult struct {
	PID      PID
	Name     string
	Accesses int64
	Faults   int64
	Ops      int64
	// Time is the process's local completion time.
	Time sim.Duration
	// OpsPerSec is application-level throughput (TPS/OPS in the paper's
	// Figure 11c/d terms).
	OpsPerSec float64
	// Latency summarizes this process's 4KB swap-in latencies.
	Latency metrics.Summary
}

// Result is the aggregate outcome of a measured run.
type Result struct {
	// Makespan is the slowest process's completion time.
	Makespan sim.Duration
	// Latency summarizes 4KB swap-in latency across all processes.
	Latency metrics.Summary
	// Faults is total swap-in faults; ResidentHits is accesses that paid no
	// fault.
	Faults, ResidentHits int64
	// CacheAdds / CacheMisses mirror Figure 9a. PrefetchIssued counts pages
	// requested by the prefetcher (cache adds plus in-flight consumptions).
	CacheAdds, CacheMisses, PrefetchIssued int64
	// Pollution counts prefetched pages evicted unused.
	Pollution int64
	// Accuracy is prefetch hits / prefetch issued; Coverage is prefetch
	// hits / faults (§3.1 definitions).
	Accuracy, Coverage float64
	// PerProc holds per-process results in App order.
	PerProc []ProcResult
}

// Collect derives a Result covering the measured phase (everything since
// recording was last enabled).
func (m *Machine) Collect() Result {
	st := m.eng.Cache().Stats()
	c := &m.eng.Counters
	prefetchHits := st.PrefetchHits - m.cacheStats0.PrefetchHits + c.InflightHits
	issued, faults := c.PrefetchIssued, c.Faults

	r := Result{
		Makespan:       m.measuredMakespan(),
		Latency:        m.eng.FaultLatency.Summarize(),
		Faults:         faults,
		ResidentHits:   c.ResidentHits,
		CacheAdds:      st.Adds - m.cacheStats0.Adds,
		CacheMisses:    c.CacheMisses,
		PrefetchIssued: issued,
		Pollution:      st.Pollution - m.cacheStats0.Pollution,
	}
	if issued > 0 {
		r.Accuracy = float64(prefetchHits) / float64(issued)
	}
	if faults > 0 {
		r.Coverage = float64(prefetchHits) / float64(faults)
	}
	for _, p := range m.procs {
		dur := p.clock.Sub(p.clock0)
		pr := ProcResult{
			PID:      p.app.PID,
			Name:     p.app.Gen.Name(),
			Accesses: p.accesses - p.accesses0,
			Faults:   p.faults - p.faults0,
			Ops:      p.ops - p.ops0,
			Time:     dur,
			Latency:  p.Latency.Summarize(),
		}
		if dur > 0 {
			pr.OpsPerSec = float64(pr.Ops) / dur.Seconds()
		}
		r.PerProc = append(r.PerProc, pr)
	}
	return r
}

// Run builds a machine, performs warmup accesses per process without
// recording, then measures the next measured accesses per process and
// returns the machine (for histogram access) and the collected result.
func Run(cfg Config, apps []App, warmup, measured int64) (*Machine, Result, error) {
	m, err := NewMachine(cfg, apps)
	if err != nil {
		return nil, Result{}, err
	}
	if warmup > 0 {
		m.SetRecording(false)
		m.Run(warmup)
		m.SetRecording(true)
	}
	m.Run(measured)
	return m, m.Collect(), nil
}
