package experiments

import (
	"fmt"
	"strings"

	"leap/internal/core"
	"leap/internal/pagecache"
	"leap/internal/prefetch"
	"leap/internal/sim"
	"leap/internal/storage"
	"leap/internal/vmm"
	"leap/internal/workload"
)

// AblationRow is one configuration's outcome in an ablation sweep.
type AblationRow struct {
	Label      string
	Completion sim.Duration
	P50, P99   sim.Duration
	Coverage   float64
	Accuracy   float64
	Pollution  int64
}

// AblationResult is a named sweep.
type AblationResult struct {
	Name string
	Rows []AblationRow
}

// Row fetches a labeled row.
func (r AblationResult) Row(label string) (AblationRow, bool) {
	for _, row := range r.Rows {
		if row.Label == label {
			return row, true
		}
	}
	return AblationRow{}, false
}

// String renders the sweep.
func (r AblationResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — %s\n", r.Name)
	fmt.Fprintf(&b, "  %-18s %14s %10s %10s %9s %9s %10s\n",
		"config", "completion", "p50", "p99", "coverage", "accuracy", "pollution")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-18s %14v %10v %10v %8.1f%% %8.1f%% %10d\n",
			row.Label, row.Completion, row.P50, row.P99,
			row.Coverage*100, row.Accuracy*100, row.Pollution)
	}
	return b.String()
}

// powerGraphLeapRun runs PowerGraph @50% on the Leap stack with a custom
// predictor config, returning the ablation row.
func powerGraphLeapRun(label string, cc core.Config, shared bool, policy pagecache.Policy, s Scale, seed uint64) AblationRow {
	prof := workload.PowerGraphProfile()
	lp := prefetch.NewLeap(cc)
	lp.Shared = shared
	cfg := vmm.SystemDVMMLeap.Config(seed)
	cfg.Prefetcher = lp
	cfg.CachePolicy = policy
	_, res := mustRun(cfg, []vmm.App{appAt(prof, 1, 0.5, seed)}, s)
	return AblationRow{
		Label:      label,
		Completion: res.Makespan,
		P50:        res.Latency.P50,
		P99:        res.Latency.P99,
		Coverage:   res.Coverage,
		Accuracy:   res.Accuracy,
		Pollution:  res.Pollution,
	}
}

// AblationMajorityVsStrict compares the paper's majority vote against
// strict trend matching (DESIGN.md's first called-out choice).
func AblationMajorityVsStrict(s Scale, seed uint64) AblationResult {
	return AblationResult{
		Name: "majority vote vs strict trend detection (PowerGraph @50%)",
		Rows: []AblationRow{
			powerGraphLeapRun("majority", core.Config{}, false, pagecache.EvictEager, s, seed),
			powerGraphLeapRun("strict", core.Config{StrictDetection: true}, false, pagecache.EvictEager, s, seed),
		},
	}
}

// AblationWindowDoubling sweeps NSplit: 1 disables the small-window fast
// path (full-history scan immediately), larger values start smaller.
func AblationWindowDoubling(s Scale, seed uint64) AblationResult {
	r := AblationResult{Name: "window doubling (NSplit sweep, PowerGraph @50%)"}
	for _, nsplit := range []int{1, 2, 4, 8} {
		r.Rows = append(r.Rows, powerGraphLeapRun(
			fmt.Sprintf("nsplit=%d", nsplit),
			core.Config{NSplit: nsplit}, false, pagecache.EvictEager, s, seed))
	}
	return r
}

// AblationEviction compares eager vs lazy reclamation under the full Leap
// stack.
func AblationEviction(s Scale, seed uint64) AblationResult {
	return AblationResult{
		Name: "eager vs lazy prefetch-cache eviction (PowerGraph @50%)",
		Rows: []AblationRow{
			powerGraphLeapRun("eager", core.Config{}, false, pagecache.EvictEager, s, seed),
			powerGraphLeapRun("lazy", core.Config{}, false, pagecache.EvictLazy, s, seed),
		},
	}
}

// AblationIsolation compares per-process predictors against one shared
// predictor under a concurrent two-app mix.
func AblationIsolation(s Scale, seed uint64) AblationResult {
	run := func(label string, shared bool) AblationRow {
		lp := prefetch.NewLeap(core.Config{})
		lp.Shared = shared
		cfg := vmm.SystemDVMMLeap.Config(seed)
		cfg.Prefetcher = lp
		apps := []vmm.App{
			microApp(workload.NewSequential(1<<20, seed), 1),
			microApp(workload.NewStride(1<<20, 7, seed+1), 2),
		}
		_, res := mustRun(cfg, apps, s)
		return AblationRow{
			Label:      label,
			Completion: res.Makespan,
			P50:        res.Latency.P50,
			P99:        res.Latency.P99,
			Coverage:   res.Coverage,
			Accuracy:   res.Accuracy,
			Pollution:  res.Pollution,
		}
	}
	return AblationResult{
		Name: "per-process isolation vs shared history (sequential + stride-7 mix)",
		Rows: []AblationRow{run("isolated", false), run("shared", true)},
	}
}

// AblationHistorySize sweeps Hsize.
func AblationHistorySize(s Scale, seed uint64) AblationResult {
	r := AblationResult{Name: "access history size (Hsize sweep, PowerGraph @50%)"}
	for _, h := range []int{8, 16, 32, 64, 128} {
		r.Rows = append(r.Rows, powerGraphLeapRun(
			fmt.Sprintf("hsize=%d", h),
			core.Config{HistorySize: h}, false, pagecache.EvictEager, s, seed))
	}
	return r
}

// AblationMaxWindow sweeps PWsizemax.
func AblationMaxWindow(s Scale, seed uint64) AblationResult {
	r := AblationResult{Name: "max prefetch window (PWsizemax sweep, PowerGraph @50%)"}
	for _, w := range []int{2, 4, 8, 16, 32} {
		r.Rows = append(r.Rows, powerGraphLeapRun(
			fmt.Sprintf("pwmax=%d", w),
			core.Config{MaxPrefetchWindow: w}, false, pagecache.EvictEager, s, seed))
	}
	return r
}

// ThrottlingRow is one prefetcher's RDMA congestion footprint on a random
// workload (the §5.3.3 claim: Leap's adaptive throttling "helps the most by
// not congesting the RDMA").
type ThrottlingRow struct {
	Prefetcher    string
	Issued        int64
	QueueDelayP99 sim.Duration
	FaultP99      sim.Duration
	OpsPerSec     float64
}

// ThrottlingResult holds the sweep.
type ThrottlingResult struct {
	Rows []ThrottlingRow
}

// Row fetches a row by prefetcher name.
func (r ThrottlingResult) Row(name string) (ThrottlingRow, bool) {
	for _, row := range r.Rows {
		if row.Prefetcher == name {
			return row, true
		}
	}
	return ThrottlingRow{}, false
}

// String renders the table.
func (r ThrottlingResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — RDMA congestion under random access (Memcached @50%%)\n")
	fmt.Fprintf(&b, "  %-12s %12s %16s %12s %12s\n",
		"prefetcher", "issued", "queue-delay p99", "fault p99", "ops/sec")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-12s %12d %16v %12v %12.0f\n",
			row.Prefetcher, row.Issued, row.QueueDelayP99, row.FaultP99, row.OpsPerSec)
	}
	fmt.Fprintf(&b, "  (paper §5.3.3: adaptive throttling avoids congesting the RDMA fabric)\n")
	return b.String()
}

// AblationThrottling measures fabric queue delay on the lean path when the
// prefetcher floods (next-n-line) versus throttles (leap) versus issues
// nothing at all (none), on the mostly-random Memcached workload.
func AblationThrottling(s Scale, seed uint64) ThrottlingResult {
	prof := workload.MemcachedProfile()
	var out ThrottlingResult
	for _, name := range []string{"nextnline", "leap", "none"} {
		pf, err := prefetch.New(name)
		if err != nil {
			panic(err)
		}
		cfg := vmm.SystemDVMMLeap.Config(seed)
		cfg.Prefetcher = pf
		m, res := mustRun(cfg, []vmm.App{appAt(prof, 1, 0.5, seed)}, s)
		row := ThrottlingRow{
			Prefetcher: name,
			Issued:     res.PrefetchIssued,
			FaultP99:   res.Latency.P99,
			OpsPerSec:  res.PerProc[0].OpsPerSec,
		}
		if rm, ok := m.Device().(*storage.Remote); ok {
			row.QueueDelayP99 = rm.Fabric().QueueDelay.Percentile(99)
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}
