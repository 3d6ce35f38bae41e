package experiments

import (
	"fmt"
	"strings"

	"leap/internal/metrics"
	"leap/internal/pagecache"
	"leap/internal/sim"
	"leap/internal/vmm"
	"leap/internal/workload"
)

// Fig4Result reproduces Figure 4 (and the §4.3 eager-eviction claim): how
// long consumed prefetched pages linger in the cache before reclamation,
// under Linux's lazy policy versus Leap's eager policy, plus the page
// allocation cost each policy leaves behind.
type Fig4Result struct {
	LazyWait  metrics.Summary
	EagerWait metrics.Summary
	// AllocLazy / AllocEager are the page-allocation latencies at the end
	// of the run (the paper: eager saves ~750ns, 36%).
	AllocLazy, AllocEager sim.Duration
}

// Fig4 drives PowerGraph at 50% memory with read-ahead prefetching on the
// default path, toggling only the eviction policy.
func Fig4(s Scale, seed uint64) Fig4Result {
	prof := workload.PowerGraphProfile()

	// The lazy scan period is compressed so the simulated run (hundreds of
	// virtual milliseconds) spans many kswapd passes; the paper's absolute
	// waits (seconds, Fig. 4's x-axis) scale with the real scan cadence.
	lazyCfg := vmm.SystemDVMM.Config(seed)
	lazyCfg.CachePolicy = pagecache.EvictLazy
	lazyCfg.CacheScanInterval = 20 * sim.Millisecond
	mLazy, _ := mustRun(lazyCfg, []vmm.App{appAt(prof, 1, 0.5, seed)}, s)

	eagerCfg := vmm.SystemDVMM.Config(seed)
	eagerCfg.CachePolicy = pagecache.EvictEager
	mEager, _ := mustRun(eagerCfg, []vmm.App{appAt(prof, 1, 0.5, seed)}, s)

	return Fig4Result{
		LazyWait:   mLazy.Cache().WaitTime.Summarize(),
		EagerWait:  mEager.Cache().WaitTime.Summarize(),
		AllocLazy:  mLazy.AllocLatency().Mean(),
		AllocEager: mEager.AllocLatency().Mean(),
	}
}

// String renders the comparison.
func (r Fig4Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4 — consumed prefetch pages: wait time until reclamation\n")
	fmt.Fprintf(&b, "  %-8s %12s %12s %12s %12s\n", "policy", "p50", "p90", "p99", "max")
	fmt.Fprintf(&b, "  %-8s %12v %12v %12v %12v\n", "lazy",
		r.LazyWait.P50, r.LazyWait.P90, r.LazyWait.P99, r.LazyWait.Max)
	fmt.Fprintf(&b, "  %-8s %12v %12v %12v %12v\n", "eager",
		r.EagerWait.P50, r.EagerWait.P90, r.EagerWait.P99, r.EagerWait.Max)
	fmt.Fprintf(&b, "  page allocation latency: lazy %v vs eager %v (paper: −750ns, −36%%)\n",
		r.AllocLazy, r.AllocEager)
	return b.String()
}
