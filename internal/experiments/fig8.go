package experiments

import (
	"fmt"
	"strings"

	"leap/internal/core"
	"leap/internal/metrics"
	"leap/internal/pagecache"
	"leap/internal/prefetch"
	"leap/internal/sim"
	"leap/internal/vmm"
	"leap/internal/workload"
)

// Fig8aResult is the benefit breakdown of Figure 8a: the 4KB access latency
// distribution as Leap's components are enabled one at a time on
// PowerGraph at 50% memory.
type Fig8aResult struct {
	// PathOnly: lean data path, no prefetcher, lazy eviction.
	PathOnly metrics.Summary
	// PathPrefetcher: + the Leap prefetcher, still lazy eviction.
	PathPrefetcher metrics.Summary
	// Full: + eager eviction (complete Leap).
	Full metrics.Summary
	// Hists for CCDF rendering keyed by stage name.
	Hists map[string]*metrics.Histogram
}

// Fig8a runs the three cumulative configurations.
func Fig8a(s Scale, seed uint64) Fig8aResult {
	prof := workload.PowerGraphProfile()
	apps := func(sd uint64) []vmm.App { return []vmm.App{appAt(prof, 1, 0.5, sd)} }

	pathOnly := vmm.SystemDVMMLeap.Config(seed)
	pathOnly.Prefetcher = nil
	pathOnly.CachePolicy = pagecache.EvictLazy
	m1, r1 := mustRun(pathOnly, apps(seed), s)

	withPf := vmm.SystemDVMMLeap.Config(seed)
	withPf.CachePolicy = pagecache.EvictLazy
	m2, r2 := mustRun(withPf, apps(seed), s)

	full := vmm.SystemDVMMLeap.Config(seed)
	m3, r3 := mustRun(full, apps(seed), s)

	return Fig8aResult{
		PathOnly:       r1.Latency,
		PathPrefetcher: r2.Latency,
		Full:           r3.Latency,
		Hists: map[string]*metrics.Histogram{
			"path":            m1.ProcLatency(1),
			"path+prefetcher": m2.ProcLatency(1),
			"full leap":       m3.ProcLatency(1),
		},
	}
}

// String renders the CCDF-style table.
func (r Fig8aResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8a — benefit breakdown, PowerGraph @50%% (4KB access latency)\n")
	fmt.Fprintf(&b, "  %-18s %10s %10s %10s %10s %10s\n", "config", "p50", "p85", "p95", "p99", "mean")
	row := func(name string, s metrics.Summary, h *metrics.Histogram) {
		fmt.Fprintf(&b, "  %-18s %10v %10v %10v %10v %10v\n",
			name, s.P50, h.Percentile(85), s.P95, s.P99, s.Mean)
	}
	row("path", r.PathOnly, r.Hists["path"])
	row("path+prefetcher", r.PathPrefetcher, r.Hists["path+prefetcher"])
	row("full leap", r.Full, r.Hists["full leap"])
	fmt.Fprintf(&b, "  (paper: prefetcher gives sub-µs to p85; eviction trims tail another ~22%%)\n")
	return b.String()
}

// Fig8bResult reproduces Figure 8b: the Leap prefetcher alone (legacy data
// path, lazy eviction) against Linux read-ahead while paging to slow
// storage.
type Fig8bResult struct {
	// Completion times per (device, prefetcher).
	HDDReadAhead, HDDLeap sim.Duration
	SSDReadAhead, SSDLeap sim.Duration
}

// Gains reports the completion-time improvement factors (HDD, SSD).
func (r Fig8bResult) Gains() (hdd, ssd float64) {
	if r.HDDLeap > 0 {
		hdd = float64(r.HDDReadAhead) / float64(r.HDDLeap)
	}
	if r.SSDLeap > 0 {
		ssd = float64(r.SSDReadAhead) / float64(r.SSDLeap)
	}
	return
}

// Fig8b swaps only the prefetching algorithm on the stock disk path.
func Fig8b(s Scale, seed uint64) Fig8bResult {
	prof := workload.PowerGraphProfile()
	run := func(system vmm.System, leapPf bool) sim.Duration {
		cfg := system.Config(seed)
		if leapPf {
			cfg.Prefetcher = prefetch.NewLeap(core.Config{})
		}
		_, res := mustRun(cfg, []vmm.App{appAt(prof, 1, 0.5, seed)}, s)
		return res.Makespan
	}
	return Fig8bResult{
		HDDReadAhead: run(vmm.SystemDisk, false),
		HDDLeap:      run(vmm.SystemDisk, true),
		SSDReadAhead: run(vmm.SystemSSD, false),
		SSDLeap:      run(vmm.SystemSSD, true),
	}
}

// String renders the slow-storage comparison.
func (r Fig8bResult) String() string {
	var b strings.Builder
	hdd, ssd := r.Gains()
	fmt.Fprintf(&b, "Figure 8b — Leap prefetcher on slow storage (PowerGraph @50%%, legacy path)\n")
	fmt.Fprintf(&b, "  %-18s %14s %14s %8s\n", "device", "read-ahead", "leap prefetch", "gain")
	fmt.Fprintf(&b, "  %-18s %14v %14v %7.2f×  (paper 1.61×)\n", "HDD", r.HDDReadAhead, r.HDDLeap, hdd)
	fmt.Fprintf(&b, "  %-18s %14v %14v %7.2f×  (paper 1.25×)\n", "SSD", r.SSDReadAhead, r.SSDLeap, ssd)
	return b.String()
}
