package experiments

import (
	"math"
	"strings"
	"testing"

	"leap/internal/analysis"
	"leap/internal/sim"
	"leap/internal/workload"
)

// relErr reports |got-want|/want.
func relErr(got, want sim.Duration) float64 {
	return math.Abs(float64(got)-float64(want)) / float64(want)
}

func TestFig1StageCalibration(t *testing.T) {
	means := map[string]sim.Duration{}
	for _, st := range fig1(Small, 1) {
		means[st.name] = st.mean
	}
	checks := []struct {
		stage string
		want  sim.Duration
		tol   float64
	}{
		{"fault/VFS entry + cache lookup", 270, 0.10},
		{"block-layer bio preparation", 10040, 0.10},
		{"request-queue staging/batching", 21880, 0.15},
		{"dispatch queue", 2100, 0.10},
		{"device: SSD", 20000, 0.10},
		{"device: RDMA 4KB", 4300, 0.10},
		{"device: HDD (near seek)", 91480, 0.10},
	}
	for _, c := range checks {
		if got := means[c.stage]; relErr(got, c.want) > c.tol {
			t.Errorf("%s = %v, want ~%v", c.stage, got, c.want)
		}
	}
	// The paper's headline gap: legacy end-to-end ~38µs vs lean ~7µs.
	if l := means["end-to-end miss (legacy, remote)"]; l < 30*sim.Microsecond || l > 50*sim.Microsecond {
		t.Errorf("legacy miss mean = %v, want ~38µs", l)
	}
	if l := means["end-to-end miss (lean, remote)"]; l > 12*sim.Microsecond {
		t.Errorf("lean miss mean = %v, want ~7µs", l)
	}
}

func TestFig2Shapes(t *testing.T) {
	runs := fig2(Small, 2)
	lat := func(pattern, series string) run { return find(runs, pattern+"/"+series) }
	// Stride-10 on the default path: disk slower than remote media; D-VMM
	// median near the measured ~38µs.
	disk := lat("stride-10", "disk").Latency
	dvmm := lat("stride-10", "d-vmm").Latency
	dvfs := lat("stride-10", "d-vfs").Latency
	if disk.P50 <= dvmm.P50 {
		t.Errorf("disk stride p50 %v should exceed d-vmm %v", disk.P50, dvmm.P50)
	}
	if dvmm.Mean < 25*sim.Microsecond || dvmm.Mean > 60*sim.Microsecond {
		t.Errorf("d-vmm stride mean = %v, want ~38µs", dvmm.Mean)
	}
	if dvfs.Mean < 20*sim.Microsecond {
		t.Errorf("d-vfs stride mean = %v, want ~30-40µs", dvfs.Mean)
	}
	// Sequential beats stride everywhere (read-ahead works there).
	for _, medium := range []string{"disk", "d-vmm", "d-vfs"} {
		seq, stride := lat("sequential", medium).Latency, lat("stride-10", medium).Latency
		if seq.P50 >= stride.P50 {
			t.Errorf("%s: sequential p50 %v not below stride p50 %v", medium, seq.P50, stride.P50)
		}
	}
}

func TestFig3Shapes(t *testing.T) {
	runs := fig3(Small, 3)
	if len(runs) != 4 {
		t.Fatalf("runs = %d", len(runs))
	}
	strict := func(app string, w int) analysis.Mix {
		return analysis.ClassifyStrict(find(runs, app).m.FaultTrace(1), w)
	}
	majority := func(app string) analysis.Mix { return analysis.ClassifyMajority(find(runs, app).m.FaultTrace(1), 8) }
	for _, r := range runs {
		if len(r.m.FaultTrace(1)) == 0 {
			t.Fatalf("%s captured no faults", r.label)
		}
	}
	// Strict sequential decays with window size for the patterned apps.
	for _, app := range []string{"powergraph", "numpy"} {
		w2, w8, maj := strict(app, 2), strict(app, 8), majority(app)
		if !(w8.Sequential < w2.Sequential) {
			t.Errorf("%s: strict seq W8 %.3f !< W2 %.3f", app, w8.Sequential, w2.Sequential)
		}
		// Majority at W8 recovers sequential windows vs strict at W8.
		if maj.Sequential <= w8.Sequential {
			t.Errorf("%s: majority seq %.3f not above strict %.3f", app, maj.Sequential, w8.Sequential)
		}
	}
	// Memcached is overwhelmingly irregular; VoltDB majority-irregular.
	if o := majority("memcached").Other; o < 0.85 {
		t.Errorf("memcached other = %.3f, want >= 0.85", o)
	}
	if o := majority("voltdb").Other; o < 0.45 {
		t.Errorf("voltdb other = %.3f, want >= 0.45", o)
	}
}

func TestFig4EagerVsLazy(t *testing.T) {
	runs := fig4(Small, 4)
	lazy, eager := runs[0].m, runs[1].m
	lazyWait, eagerWait := lazy.Cache().WaitTime.Summarize(), eager.Cache().WaitTime.Summarize()
	// Eager frees at consumption: zero wait. Lazy waits for scans: large.
	if eagerWait.Max != 0 {
		t.Errorf("eager wait max = %v, want 0", eagerWait.Max)
	}
	if lazyWait.Count == 0 || lazyWait.P50 <= 0 {
		t.Errorf("lazy wait distribution empty: %+v", lazyWait)
	}
	// Ghost pages inflate the allocator's scan cost under lazy eviction;
	// pressure reclaim bounds the effect, so assert direction, not size.
	if a, b := eager.AllocLatency().Mean(), lazy.AllocLatency().Mean(); a > b {
		t.Errorf("alloc eager %v above lazy %v", a, b)
	}
}

func TestTable1(t *testing.T) {
	if len(table1) != 6 {
		t.Fatalf("rows = %d", len(table1))
	}
	// Leap is the only row with every property.
	for _, r := range table1 {
		if n := len([]rune(r.marks)); n != 7 {
			t.Errorf("%s: %d properties, want 7", r.technique, n)
		}
		all := !strings.Contains(r.marks, "✗")
		if all != (r.technique == "Leap Prefetcher") {
			t.Errorf("%s: all-properties = %v", r.technique, all)
		}
	}
	if !strings.Contains(renderTable1(Small, 1), "Read-Ahead") {
		t.Error("render missing rows")
	}
}

func TestFig7Gains(t *testing.T) {
	runs := fig7(Small, 7)
	// gains reports a series' median and tail improvement: its default run
	// is followed by its Leap run.
	gains := func(series string) (p50, p99 float64) {
		for i := 0; i < len(runs); i += 2 {
			if runs[i].label == series {
				def, leap := runs[i].Latency, runs[i+1].Latency
				return ratio(def.P50, leap.P50), ratio(def.P99, leap.P99)
			}
		}
		t.Fatalf("no series %s", series)
		return 0, 0
	}
	if g, tail := gains("d-vmm/stride-10"); g < 20 || tail < 3 {
		t.Errorf("d-vmm stride gains = %.1f×/%.1f×, want >= 20×/3× (paper 104×/22×)", g, tail)
	}
	if g, _ := gains("d-vmm/sequential"); g < 1.5 {
		t.Errorf("d-vmm sequential median gain = %.1f×, want >= 1.5× (paper 4.07×)", g)
	}
	if g, _ := gains("d-vfs/stride-10"); g < 8 {
		t.Errorf("d-vfs stride median gain = %.1f×, want >= 8× (paper 24.96×)", g)
	}
}

func TestFig8aOrdering(t *testing.T) {
	runs := fig8a(Small, 8)
	path, withPf, full := runs[0].Latency, runs[1].Latency, runs[2].Latency
	// Each added component improves (or at least does not hurt) the median
	// and the mean.
	if withPf.P50 > path.P50 {
		t.Errorf("prefetcher worsened p50: %v > %v", withPf.P50, path.P50)
	}
	// Eager eviction must not regress the mean (pressure reclaim already
	// bounds lazy ghosts, so the remaining gain is small; allow 2% noise).
	if float64(full.Mean) > float64(withPf.Mean)*1.02 {
		t.Errorf("eager eviction worsened mean: %v > %v", full.Mean, withPf.Mean)
	}
	// The prefetcher must push the median into sub-µs territory (paper:
	// sub-µs to p85).
	if full.P50 > sim.Microsecond {
		t.Errorf("full leap p50 = %v, want sub-µs", full.P50)
	}
}

func TestFig8bGains(t *testing.T) {
	runs := fig8b(Small, 9)
	if hdd := ratio(runs[0].Makespan, runs[1].Makespan); hdd < 1.05 {
		t.Errorf("HDD gain = %.2f×, want > 1 (paper 1.61×)", hdd)
	}
	if ssd := ratio(runs[2].Makespan, runs[3].Makespan); ssd < 1.0 {
		t.Errorf("SSD gain = %.2f×, want >= 1 (paper 1.25×)", ssd)
	}
}

func TestFig9Orderings(t *testing.T) {
	runs := fig9(Small, 10)
	leap, ra, nnl, st := find(runs, "leap"), find(runs, "readahead"), find(runs, "nextnline"), find(runs, "stride")
	// Figure 9a: Leap adds far fewer pages to the cache than the aggressive
	// Next-N-Line (paper: 28–62% fewer) and misses less than Read-Ahead and
	// Stride (paper: 1.74× and 10.5×).
	if float64(leap.CacheAdds) > 0.7*float64(nnl.CacheAdds) {
		t.Errorf("leap adds %d not ≲70%% of next-n-line's %d", leap.CacheAdds, nnl.CacheAdds)
	}
	if leap.CacheMisses >= ra.CacheMisses {
		t.Errorf("leap misses %d not below read-ahead %d", leap.CacheMisses, ra.CacheMisses)
	}
	if leap.CacheMisses >= st.CacheMisses {
		t.Errorf("leap misses %d not below stride %d", leap.CacheMisses, st.CacheMisses)
	}
	// Figure 9b: Leap completes ahead of Read-Ahead and Stride. Against
	// Next-N-Line our seek-accurate HDD model under-prices the flood of
	// sequential junk reads (NCQ + streaming), so only near-parity is
	// asserted; the paper's 2.59× gap relies on that waste being expensive.
	// See EXPERIMENTS.md (known deviations).
	for _, other := range []run{ra, st} {
		if leap.Makespan >= other.Makespan {
			t.Errorf("leap completion %v not below %s %v", leap.Makespan, other.label, other.Makespan)
		}
	}
	if float64(leap.Makespan) > 1.15*float64(nnl.Makespan) {
		t.Errorf("leap completion %v far above next-n-line %v", leap.Makespan, nnl.Makespan)
	}
}

func TestFig10Quality(t *testing.T) {
	runs := fig9(Small, 10)
	leap, ra, st := find(runs, "leap"), find(runs, "readahead"), find(runs, "stride")
	// Coverage: Leap highest (paper: +3.06–37.51%).
	if leap.Coverage <= ra.Coverage {
		t.Errorf("leap coverage %.3f not above read-ahead %.3f", leap.Coverage, ra.Coverage)
	}
	if leap.Coverage <= st.Coverage {
		t.Errorf("leap coverage %.3f not above stride %.3f", leap.Coverage, st.Coverage)
	}
	// Sanity bounds.
	for _, r := range runs {
		if r.Accuracy < 0 || r.Accuracy > 1 || r.Coverage < 0 || r.Coverage > 1 {
			t.Errorf("%s: metrics out of range: %+v", r.label, r.Result)
		}
	}
}

func TestFig11Shapes(t *testing.T) {
	runs := fig11(Small, 11)
	cell := func(app string, system int, frac float64) run {
		return find(runs, fig11Label(app, systems[system], frac))
	}
	const disk, dvmm, leap = 0, 1, 2
	for _, prof := range workload.Profiles() {
		app := prof.AppName
		// At 100% memory nothing pages: all systems equivalent (within
		// noise) and faster than their 50% runs.
		for i, system := range systems {
			c100, c50 := cell(app, i, 1.0), cell(app, i, 0.5)
			if c100.Makespan > c50.Makespan {
				t.Errorf("%s/%s: 100%% slower than 50%% (%v vs %v)", app, system, c100.Makespan, c50.Makespan)
			}
		}
		// Leap beats stock D-VMM at 50% and 25%.
		for _, frac := range []float64{0.5, 0.25} {
			if l, d := cell(app, leap, frac).Makespan, cell(app, dvmm, frac).Makespan; l > d {
				t.Errorf("%s@%.0f%%: leap %v slower than d-vmm %v", app, frac*100, l, d)
			}
		}
		// Disk is the slowest medium under pressure.
		if d, l := cell(app, disk, 0.25).Makespan, cell(app, leap, 0.25).Makespan; d < l {
			t.Errorf("%s: disk faster than leap at 25%% (%v vs %v)", app, d, l)
		}
	}
	// Throughput view: VoltDB TPS with Leap at 50% must beat stock D-VMM
	// (paper: 2.76×).
	l, d := cell("voltdb", leap, 0.5).PerProc[0].OpsPerSec, cell("voltdb", dvmm, 0.5).PerProc[0].OpsPerSec
	if l <= d {
		t.Errorf("voltdb TPS: leap %.0f not above d-vmm %.0f", l, d)
	}
}

func TestFig12BoundedDegradation(t *testing.T) {
	runs := fig12(Small, 12)
	for _, prof := range workload.Profiles() {
		unlimited := find(runs, prof.AppName+"/no limit").Makespan
		smallest := find(runs, prof.AppName+"/3.2MB").Makespan
		if unlimited == 0 || smallest == 0 {
			t.Fatalf("%s: missing cells", prof.AppName)
		}
		// Paper: 11.87–13.05% drop; allow extra slack for the small scale.
		if deg := ratio(smallest, unlimited) - 1; deg > 0.30 {
			t.Errorf("%s: degradation at 3.2MB cache = %.1f%%, want <= 30%%", prof.AppName, deg*100)
		}
	}
}

func TestFig13AllAppsImprove(t *testing.T) {
	runs := fig13(Small, 13)
	def, leap := runs[0].PerProc, runs[1].PerProc
	if len(def) != 4 || len(leap) != 4 {
		t.Fatalf("processes = %d/%d", len(def), len(leap))
	}
	for i, prof := range workload.Profiles() {
		if g := ratio(def[i].Time, leap[i].Time); g < 1.0 {
			t.Errorf("%s: concurrent gain = %.2f×, want >= 1 (paper 1.1–2.4×)", prof.AppName, g)
		}
	}
}

// ablation runs the sweep whose title starts with prefix.
func ablation(t *testing.T, seed uint64, prefix string) []run {
	t.Helper()
	for _, sw := range ablations(seed) {
		if strings.HasPrefix(sw.title, prefix) {
			return runCases(Small, sw.cases...)
		}
	}
	t.Fatalf("no ablation %q", prefix)
	return nil
}

func TestAblationMajorityVsStrict(t *testing.T) {
	runs := ablation(t, 14, "majority vote")
	maj, strict := find(runs, "majority"), find(runs, "strict")
	if maj.Coverage <= strict.Coverage {
		t.Errorf("majority coverage %.3f not above strict %.3f", maj.Coverage, strict.Coverage)
	}
	if maj.Makespan > strict.Makespan {
		t.Errorf("majority completion %v slower than strict %v", maj.Makespan, strict.Makespan)
	}
}

func TestAblationIsolation(t *testing.T) {
	runs := ablation(t, 15, "per-process isolation")
	if iso, sh := find(runs, "isolated"), find(runs, "shared"); iso.Coverage <= sh.Coverage {
		t.Errorf("isolated coverage %.3f not above shared %.3f", iso.Coverage, sh.Coverage)
	}
}

func TestAblationEviction(t *testing.T) {
	runs := ablation(t, 16, "eager vs lazy")
	eager, lazy := find(runs, "eager"), find(runs, "lazy")
	// Pressure-driven reclaim already bounds lazy ghosts, so the completion
	// gap is small; eager must at least not regress beyond noise.
	if float64(eager.Makespan) > 1.02*float64(lazy.Makespan) {
		t.Errorf("eager completion %v slower than lazy %v", eager.Makespan, lazy.Makespan)
	}
}

func TestAblationSweepsRun(t *testing.T) {
	for i, prefix := range []string{"window doubling", "access history size", "max prefetch window"} {
		runs := ablation(t, uint64(17+i), prefix)
		if len(runs) < 2 {
			t.Errorf("%s: only %d runs", prefix, len(runs))
		}
		for _, r := range runs {
			if r.Makespan <= 0 {
				t.Errorf("%s/%s: zero completion", prefix, r.label)
			}
		}
	}
	if out := renderAblations(Small, 17); strings.Count(out, "Ablation — ") != 7 {
		t.Errorf("ablations render %d tables, want 7:\n%s", strings.Count(out, "Ablation — "), out)
	}
}

func TestAblationThrottling(t *testing.T) {
	runs := throttling(Small, 20)
	leap, nnl, none := find(runs, "leap"), find(runs, "nextnline"), find(runs, "none")
	// Leap suspends on randomness: near-zero issues; Next-N-Line floods.
	if leap.PrefetchIssued > nnl.PrefetchIssued/10 {
		t.Errorf("leap issued %d, want ≪ next-n-line's %d", leap.PrefetchIssued, nnl.PrefetchIssued)
	}
	// Flooding congests the fabric: its queue delay dominates Leap's.
	if queueDelayP99(nnl) <= queueDelayP99(leap) {
		t.Errorf("flood queue delay %v not above leap's %v", queueDelayP99(nnl), queueDelayP99(leap))
	}
	// With no useful prefetching possible, Leap performs like 'none', not
	// worse (the §5.3.4 Memcached claim).
	if l, n := leap.PerProc[0].OpsPerSec, none.PerProc[0].OpsPerSec; l < n*0.95 {
		t.Errorf("leap OPS %.0f well below none %.0f", l, n)
	}
}
