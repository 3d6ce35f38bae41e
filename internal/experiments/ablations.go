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

// sweep is one design-choice ablation: its title and its labelled
// configurations.
type sweep struct {
	title string
	cases []vmmCase
}

// ablations are the DESIGN.md design-choice sweeps in presentation order.
// Every configuration but the isolation mix runs PowerGraph at 50% memory
// on the Leap stack with its own predictor config and eviction policy.
func ablations(seed uint64) []sweep {
	leap := func(label string, cc core.Config, policy pagecache.Policy) vmmCase {
		cfg := vmm.SystemDVMMLeap.Config(seed)
		cfg.Prefetcher = prefetch.NewLeap(cc)
		cfg.CachePolicy = policy
		return vmmCase{label, cfg, powerGraph(seed)}
	}
	grid := func(knob string, values []int, cc func(int) core.Config) []vmmCase {
		var cases []vmmCase
		for _, v := range values {
			cases = append(cases, leap(fmt.Sprintf("%s=%d", knob, v), cc(v), pagecache.EvictEager))
		}
		return cases
	}
	// The §4.1 isolation argument: per-process predictors against one
	// shared predictor under a concurrent sequential + stride-7 mix.
	mix := func(label string, shared bool) vmmCase {
		lp := prefetch.NewLeap(core.Config{})
		lp.Shared = shared
		cfg := vmm.SystemDVMMLeap.Config(seed)
		cfg.Prefetcher = lp
		return vmmCase{label, cfg, []vmm.App{
			{PID: 1, Gen: workload.NewSequential(1<<20, seed), LimitPages: 8192},
			{PID: 2, Gen: workload.NewStride(1<<20, 7, seed+1), LimitPages: 8192},
		}}
	}
	return []sweep{
		{"majority vote vs strict trend detection (PowerGraph @50%)", []vmmCase{
			leap("majority", core.Config{}, pagecache.EvictEager),
			leap("strict", core.Config{StrictDetection: true}, pagecache.EvictEager)}},
		// NSplit 1 disables the small-window fast path (a full-history scan
		// at once); larger values start smaller.
		{"window doubling (NSplit sweep, PowerGraph @50%)",
			grid("nsplit", []int{1, 2, 4, 8}, func(n int) core.Config { return core.Config{NSplit: n} })},
		{"eager vs lazy prefetch-cache eviction (PowerGraph @50%)", []vmmCase{
			leap("eager", core.Config{}, pagecache.EvictEager),
			leap("lazy", core.Config{}, pagecache.EvictLazy)}},
		{"per-process isolation vs shared history (sequential + stride-7 mix)", []vmmCase{
			mix("isolated", false), mix("shared", true)}},
		{"access history size (Hsize sweep, PowerGraph @50%)",
			grid("hsize", []int{8, 16, 32, 64, 128}, func(h int) core.Config { return core.Config{HistorySize: h} })},
		{"max prefetch window (PWsizemax sweep, PowerGraph @50%)",
			grid("pwmax", []int{2, 4, 8, 16, 32}, func(w int) core.Config { return core.Config{MaxPrefetchWindow: w} })},
	}
}

// throttling runs the mostly-random Memcached workload on the lean path
// while the prefetcher floods (next-N-line), throttles (leap) or issues
// nothing (none): the §5.3.3 claim that Leap's adaptive throttling "helps
// the most by not congesting the RDMA".
func throttling(s Scale, seed uint64) []run {
	var cases []vmmCase
	for _, name := range []string{"nextnline", "leap", "none"} {
		cfg := vmm.SystemDVMMLeap.Config(seed)
		cfg.Prefetcher = mustPrefetcher(name)
		cases = append(cases, vmmCase{name, cfg, []vmm.App{appAt(workload.MemcachedProfile(), 1, 0.5, seed)}})
	}
	return runMachines(s, cases...)
}

// queueDelayP99 is a remote-memory run's p99 fabric queueing delay (0 on
// any other device).
func queueDelayP99(r run) sim.Duration {
	if rm, ok := r.m.Device().(*storage.Remote); ok {
		return rm.Fabric().QueueDelay.Percentile(99)
	}
	return 0
}

func renderAblations(s Scale, seed uint64) string {
	var b strings.Builder
	for _, sw := range ablations(seed) {
		fmt.Fprintf(&b, "Ablation — %s\n", sw.title)
		var rows [][]any
		for _, r := range runCases(s, sw.cases...) {
			rows = append(rows, []any{r.label, r.Makespan, r.Latency.P50, r.Latency.P99,
				r.Coverage * 100, r.Accuracy * 100, r.Pollution})
		}
		table(&b, "  ", []col{{"config", -18, ""}, {"completion", 14, ""}, {"p50", 10, ""}, {"p99", 10, ""},
			{"coverage", 9, percent}, {"accuracy", 9, percent}, {"pollution", 10, ""}}, rows)
		b.WriteByte('\n')
	}
	b.WriteString("Ablation — RDMA congestion under random access (Memcached @50%)\n")
	var rows [][]any
	for _, r := range throttling(s, seed) {
		rows = append(rows, []any{r.label, r.PrefetchIssued, queueDelayP99(r), r.Latency.P99, r.PerProc[0].OpsPerSec})
	}
	table(&b, "  ", []col{{"prefetcher", -12, ""}, {"issued", 12, ""}, {"queue-delay p99", 16, ""},
		{"fault p99", 12, ""}, {"ops/sec", 12, "%.0f"}}, rows)
	b.WriteString("  (paper §5.3.3: adaptive throttling avoids congesting the RDMA fabric)\n")
	return b.String()
}
