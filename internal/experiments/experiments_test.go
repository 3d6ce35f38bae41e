package experiments

import (
	"math"
	"strings"
	"testing"

	"leap/internal/sim"
)

// relErr reports |got-want|/want.
func relErr(got, want sim.Duration) float64 {
	return math.Abs(float64(got)-float64(want)) / float64(want)
}

func TestFig1StageCalibration(t *testing.T) {
	r := Fig1(Small, 1)
	checks := []struct {
		name string
		got  sim.Duration
		want sim.Duration
		tol  float64
	}{
		{"entry", r.Entry, 270, 0.10},
		{"bioPrep", r.BioPrep, 10040, 0.10},
		{"staging", r.Staging, 21880, 0.15},
		{"dispatch", r.Dispatch, 2100, 0.10},
		{"ssd", r.SSD, 20000, 0.10},
		{"rdma", r.RDMA, 4300, 0.10},
		{"hdd", r.HDD, 91480, 0.10},
	}
	for _, c := range checks {
		if relErr(c.got, c.want) > c.tol {
			t.Errorf("%s = %v, want ~%v", c.name, c.got, c.want)
		}
	}
	// The paper's headline gap: legacy end-to-end ~38µs vs lean ~7µs.
	if r.LegacyMissMean < 30*sim.Microsecond || r.LegacyMissMean > 50*sim.Microsecond {
		t.Errorf("legacy miss mean = %v, want ~38µs", r.LegacyMissMean)
	}
	if r.LeanMissMean > 12*sim.Microsecond {
		t.Errorf("lean miss mean = %v, want ~7µs", r.LeanMissMean)
	}
	if !strings.Contains(r.String(), "Figure 1") {
		t.Error("String() missing title")
	}
}

func TestFig2Shapes(t *testing.T) {
	r := Fig2(Small, 2)
	// Stride-10 on the default path: disk slower than remote media; D-VMM
	// median near the measured ~38µs.
	disk := r.Stride["disk"]
	dvmm := r.Stride["d-vmm"]
	dvfs := r.Stride["d-vfs"]
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
		if r.Sequential[medium].P50 >= r.Stride[medium].P50 {
			t.Errorf("%s: sequential p50 %v not below stride p50 %v",
				medium, r.Sequential[medium].P50, r.Stride[medium].P50)
		}
	}
	if !strings.Contains(r.String(), "stride-10") {
		t.Error("String() missing pattern tables")
	}
}

func TestFig3Shapes(t *testing.T) {
	r := Fig3(Small, 3)
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	byApp := map[string]Fig3Row{}
	for _, row := range r.Rows {
		byApp[row.App] = row
		if row.Faults == 0 {
			t.Fatalf("%s captured no faults", row.App)
		}
	}
	// Strict sequential decays with window size for the patterned apps.
	for _, app := range []string{"powergraph", "numpy"} {
		row := byApp[app]
		if !(row.StrictW8.Sequential < row.StrictW2.Sequential) {
			t.Errorf("%s: strict seq W8 %.3f !< W2 %.3f", app,
				row.StrictW8.Sequential, row.StrictW2.Sequential)
		}
		// Majority at W8 recovers sequential windows vs strict at W8.
		if row.MajorityW8.Sequential <= row.StrictW8.Sequential {
			t.Errorf("%s: majority seq %.3f not above strict %.3f", app,
				row.MajorityW8.Sequential, row.StrictW8.Sequential)
		}
	}
	// Memcached is overwhelmingly irregular; VoltDB majority-irregular.
	if byApp["memcached"].MajorityW8.Other < 0.85 {
		t.Errorf("memcached other = %.3f, want >= 0.85", byApp["memcached"].MajorityW8.Other)
	}
	if byApp["voltdb"].MajorityW8.Other < 0.45 {
		t.Errorf("voltdb other = %.3f, want >= 0.45", byApp["voltdb"].MajorityW8.Other)
	}
}

func TestFig4EagerVsLazy(t *testing.T) {
	r := Fig4(Small, 4)
	// Eager frees at consumption: zero wait. Lazy waits for scans: large.
	if r.EagerWait.Max != 0 {
		t.Errorf("eager wait max = %v, want 0", r.EagerWait.Max)
	}
	if r.LazyWait.Count == 0 || r.LazyWait.P50 <= 0 {
		t.Errorf("lazy wait distribution empty: %+v", r.LazyWait)
	}
	// Ghost pages inflate the allocator's scan cost under lazy eviction;
	// pressure reclaim bounds the effect, so assert direction, not size.
	if r.AllocEager > r.AllocLazy {
		t.Errorf("alloc eager %v above lazy %v", r.AllocEager, r.AllocLazy)
	}
}

func TestTable1(t *testing.T) {
	rows := Table1()
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Leap is the only row with every property.
	for _, r := range rows {
		all := r.LowCompute && r.LowMemory && r.Unmodified && r.HWSWIndep &&
			r.TemporalLoc && r.SpatialLoc && r.HighUtil
		if all != (r.Technique == "Leap Prefetcher") {
			t.Errorf("%s: all-properties = %v", r.Technique, all)
		}
	}
	if !strings.Contains(RenderTable1(), "Read-Ahead") {
		t.Error("render missing rows")
	}
}

func TestFig7Gains(t *testing.T) {
	r := Fig7(Small, 7)
	stride := r.Cells["d-vmm/stride-10"]
	if g := stride.MedianGain(); g < 20 {
		t.Errorf("d-vmm stride median gain = %.1f×, want >= 20× (paper 104×)", g)
	}
	if g := stride.TailGain(); g < 3 {
		t.Errorf("d-vmm stride tail gain = %.1f×, want >= 3× (paper 22×)", g)
	}
	seq := r.Cells["d-vmm/sequential"]
	if g := seq.MedianGain(); g < 1.5 {
		t.Errorf("d-vmm sequential median gain = %.1f×, want >= 1.5× (paper 4.07×)", g)
	}
	vfsStride := r.Cells["d-vfs/stride-10"]
	if g := vfsStride.MedianGain(); g < 8 {
		t.Errorf("d-vfs stride median gain = %.1f×, want >= 8× (paper 24.96×)", g)
	}
}

func TestFig8aOrdering(t *testing.T) {
	r := Fig8a(Small, 8)
	// Each added component improves (or at least does not hurt) the median
	// and the mean.
	if r.PathPrefetcher.P50 > r.PathOnly.P50 {
		t.Errorf("prefetcher worsened p50: %v > %v", r.PathPrefetcher.P50, r.PathOnly.P50)
	}
	// Eager eviction must not regress the mean (pressure reclaim already
	// bounds lazy ghosts, so the remaining gain is small; allow 2% noise).
	if float64(r.Full.Mean) > float64(r.PathPrefetcher.Mean)*1.02 {
		t.Errorf("eager eviction worsened mean: %v > %v", r.Full.Mean, r.PathPrefetcher.Mean)
	}
	// The prefetcher must push the median into sub-µs territory (paper:
	// sub-µs to p85).
	if r.Full.P50 > sim.Microsecond {
		t.Errorf("full leap p50 = %v, want sub-µs", r.Full.P50)
	}
}

func TestFig8bGains(t *testing.T) {
	r := Fig8b(Small, 9)
	hdd, ssd := r.Gains()
	if hdd < 1.05 {
		t.Errorf("HDD gain = %.2f×, want > 1 (paper 1.61×)", hdd)
	}
	if ssd < 1.0 {
		t.Errorf("SSD gain = %.2f×, want >= 1 (paper 1.25×)", ssd)
	}
}

func TestFig9Orderings(t *testing.T) {
	r := Fig9(Small, 10)
	leap, _ := r.Row("leap")
	ra, _ := r.Row("readahead")
	nnl, _ := r.Row("nextnline")
	st, _ := r.Row("stride")
	// Figure 9a: Leap adds far fewer pages to the cache than the aggressive
	// Next-N-Line (paper: 28–62% fewer) and misses less than Read-Ahead and
	// Stride (paper: 1.74× and 10.5×).
	if float64(leap.CacheAdds) > 0.7*float64(nnl.CacheAdds) {
		t.Errorf("leap adds %d not ≲70%% of next-n-line's %d", leap.CacheAdds, nnl.CacheAdds)
	}
	if leap.CacheMiss >= ra.CacheMiss {
		t.Errorf("leap misses %d not below read-ahead %d", leap.CacheMiss, ra.CacheMiss)
	}
	if leap.CacheMiss >= st.CacheMiss {
		t.Errorf("leap misses %d not below stride %d", leap.CacheMiss, st.CacheMiss)
	}
	// Figure 9b: Leap completes ahead of Read-Ahead and Stride. Against
	// Next-N-Line our seek-accurate HDD model under-prices the flood of
	// sequential junk reads (NCQ + streaming), so only near-parity is
	// asserted; the paper's 2.59× gap relies on that waste being expensive.
	// See EXPERIMENTS.md (known deviations).
	for _, other := range []Fig9Row{ra, st} {
		if leap.Completion >= other.Completion {
			t.Errorf("leap completion %v not below %s %v",
				leap.Completion, other.Prefetcher, other.Completion)
		}
	}
	if float64(leap.Completion) > 1.15*float64(nnl.Completion) {
		t.Errorf("leap completion %v far above next-n-line %v", leap.Completion, nnl.Completion)
	}
}

func TestFig10Quality(t *testing.T) {
	r := Fig10(Small, 10)
	leap, _ := r.Row("leap")
	ra, _ := r.Row("readahead")
	st, _ := r.Row("stride")
	// Coverage: Leap highest (paper: +3.06–37.51%).
	if leap.Coverage <= ra.Coverage {
		t.Errorf("leap coverage %.3f not above read-ahead %.3f", leap.Coverage, ra.Coverage)
	}
	if leap.Coverage <= st.Coverage {
		t.Errorf("leap coverage %.3f not above stride %.3f", leap.Coverage, st.Coverage)
	}
	// Sanity bounds.
	for _, row := range r.Rows {
		if row.Accuracy < 0 || row.Accuracy > 1 || row.Coverage < 0 || row.Coverage > 1 {
			t.Errorf("%s: metrics out of range: %+v", row.Prefetcher, row)
		}
	}
}

func TestFig11Shapes(t *testing.T) {
	r := Fig11(Small, 11)
	apps := []string{"powergraph", "numpy", "voltdb", "memcached"}
	for _, app := range apps {
		// At 100% memory nothing pages: all systems equivalent (within
		// noise) and faster than their 50% runs.
		for _, system := range Systems {
			c100, _ := r.Cell(app, system.String(), 1.0)
			c50, _ := r.Cell(app, system.String(), 0.5)
			if c100.Completion > c50.Completion {
				t.Errorf("%s/%s: 100%% slower than 50%% (%v vs %v)",
					app, system, c100.Completion, c50.Completion)
			}
		}
		// Leap beats stock D-VMM at 50% and 25%.
		for _, frac := range []float64{0.5, 0.25} {
			dvmm, _ := r.Cell(app, "d-vmm", frac)
			leap, _ := r.Cell(app, "d-vmm+leap", frac)
			if leap.Completion > dvmm.Completion {
				t.Errorf("%s@%.0f%%: leap %v slower than d-vmm %v",
					app, frac*100, leap.Completion, dvmm.Completion)
			}
		}
		// Disk is the slowest medium under pressure.
		disk, _ := r.Cell(app, "disk", 0.25)
		leap, _ := r.Cell(app, "d-vmm+leap", 0.25)
		if disk.Completion < leap.Completion {
			t.Errorf("%s: disk faster than leap at 25%% (%v vs %v)",
				app, disk.Completion, leap.Completion)
		}
	}
	// Throughput view: VoltDB TPS with Leap at 50% must beat stock D-VMM
	// (paper: 2.76×).
	dvmm, _ := r.Cell("voltdb", "d-vmm", 0.5)
	leap, _ := r.Cell("voltdb", "d-vmm+leap", 0.5)
	if leap.OpsPerSec <= dvmm.OpsPerSec {
		t.Errorf("voltdb TPS: leap %.0f not above d-vmm %.0f", leap.OpsPerSec, dvmm.OpsPerSec)
	}
}

func TestFig12BoundedDegradation(t *testing.T) {
	r := Fig12(Small, 12)
	for _, app := range []string{"powergraph", "numpy", "voltdb", "memcached"} {
		unlimited, _ := r.Cell(app, "no limit")
		smallest, _ := r.Cell(app, "3.2MB")
		if unlimited.Completion == 0 || smallest.Completion == 0 {
			t.Fatalf("%s: missing cells", app)
		}
		deg := float64(smallest.Completion)/float64(unlimited.Completion) - 1
		// Paper: 11.87–13.05% drop; allow extra slack for the small scale.
		if deg > 0.30 {
			t.Errorf("%s: degradation at 3.2MB cache = %.1f%%, want <= 30%%", app, deg*100)
		}
	}
}

func TestFig13AllAppsImprove(t *testing.T) {
	r := Fig13(Small, 13)
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if g := row.Gain(); g < 1.0 {
			t.Errorf("%s: concurrent gain = %.2f×, want >= 1 (paper 1.1–2.4×)", row.App, g)
		}
	}
}

func TestAblationMajorityVsStrict(t *testing.T) {
	r := AblationMajorityVsStrict(Small, 14)
	maj, _ := r.Row("majority")
	strict, _ := r.Row("strict")
	if maj.Coverage <= strict.Coverage {
		t.Errorf("majority coverage %.3f not above strict %.3f", maj.Coverage, strict.Coverage)
	}
	if maj.Completion > strict.Completion {
		t.Errorf("majority completion %v slower than strict %v", maj.Completion, strict.Completion)
	}
}

func TestAblationIsolation(t *testing.T) {
	r := AblationIsolation(Small, 15)
	iso, _ := r.Row("isolated")
	sh, _ := r.Row("shared")
	if iso.Coverage <= sh.Coverage {
		t.Errorf("isolated coverage %.3f not above shared %.3f", iso.Coverage, sh.Coverage)
	}
}

func TestAblationEviction(t *testing.T) {
	r := AblationEviction(Small, 16)
	eager, _ := r.Row("eager")
	lazy, _ := r.Row("lazy")
	// Pressure-driven reclaim already bounds lazy ghosts, so the completion
	// gap is small; eager must at least not regress beyond noise.
	if float64(eager.Completion) > 1.02*float64(lazy.Completion) {
		t.Errorf("eager completion %v slower than lazy %v", eager.Completion, lazy.Completion)
	}
}

func TestAblationSweepsRun(t *testing.T) {
	for _, r := range []AblationResult{
		AblationWindowDoubling(Small, 17),
		AblationHistorySize(Small, 18),
		AblationMaxWindow(Small, 19),
	} {
		if len(r.Rows) < 2 {
			t.Errorf("%s: only %d rows", r.Name, len(r.Rows))
		}
		for _, row := range r.Rows {
			if row.Completion <= 0 {
				t.Errorf("%s/%s: zero completion", r.Name, row.Label)
			}
		}
		if len(r.String()) == 0 {
			t.Errorf("%s: empty render", r.Name)
		}
	}
}

func TestAblationThrottling(t *testing.T) {
	r := AblationThrottling(Small, 20)
	leapRow, _ := r.Row("leap")
	nnl, _ := r.Row("nextnline")
	none, _ := r.Row("none")
	// Leap suspends on randomness: near-zero issues; Next-N-Line floods.
	if leapRow.Issued > nnl.Issued/10 {
		t.Errorf("leap issued %d, want ≪ next-n-line's %d", leapRow.Issued, nnl.Issued)
	}
	// Flooding congests the fabric: its queue delay dominates Leap's.
	if nnl.QueueDelayP99 <= leapRow.QueueDelayP99 {
		t.Errorf("flood queue delay %v not above leap's %v",
			nnl.QueueDelayP99, leapRow.QueueDelayP99)
	}
	// With no useful prefetching possible, Leap performs like 'none', not
	// worse (the §5.3.4 Memcached claim).
	if leapRow.OpsPerSec < none.OpsPerSec*0.95 {
		t.Errorf("leap OPS %.0f well below none %.0f", leapRow.OpsPerSec, none.OpsPerSec)
	}
	if len(r.String()) == 0 {
		t.Error("empty render")
	}
}
