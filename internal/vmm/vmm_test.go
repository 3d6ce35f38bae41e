package vmm

import (
	"testing"

	"leap/internal/core"
	"leap/internal/datapath"
	"leap/internal/pagecache"
	"leap/internal/prefetch"
	"leap/internal/sim"
	"leap/internal/storage"
	"leap/internal/workload"
)

// coreConfig is the paper-default Leap predictor configuration.
func coreConfig() core.Config { return core.Config{} }

// leanLeap is the full Leap stack; legacyLinux the stock one (remote
// memory on the legacy path, read-ahead, lazy eviction).
func leanLeap(seed uint64) Config    { return SystemDVMMLeap.Config(seed) }
func legacyLinux(seed uint64) Config { return SystemDVMM.Config(seed) }

func TestMachineValidation(t *testing.T) {
	if _, err := NewMachine(Config{}, nil); err == nil {
		t.Fatal("no apps accepted")
	}
	if _, err := NewMachine(Config{}, []App{{PID: 1, Gen: nil}}); err == nil {
		t.Fatal("nil generator accepted")
	}
	g := workload.NewSequential(100, 1)
	if _, err := NewMachine(Config{}, []App{
		{PID: 1, Gen: g, LimitPages: 10},
		{PID: 1, Gen: g, LimitPages: 10},
	}); err == nil {
		t.Fatal("duplicate pid accepted")
	}
}

func TestFullMemoryNoFaultsAfterWarmup(t *testing.T) {
	// Limit >= working set: after one pass everything is resident.
	gen := workload.NewSequential(1000, 1)
	m, res, err := Run(leanLeap(1), []App{{PID: 1, Gen: gen, LimitPages: 2000}}, 2000, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults != 0 {
		t.Fatalf("faults = %d with full memory, want 0", res.Faults)
	}
	if res.ResidentHits != 5000 {
		t.Fatalf("resident hits = %d, want 5000", res.ResidentHits)
	}
	_ = m
}

func TestMemoryLimitForcesFaults(t *testing.T) {
	// Cyclic scan over 1000 pages with a 500-page budget: LRU keeps the
	// wrong half; nearly every access faults.
	gen := workload.NewSequential(1000, 1)
	cfg := Config{Path: datapath.Config{Kind: datapath.Lean}, Seed: 2}
	_, res, err := Run(cfg, []App{{PID: 1, Gen: gen, LimitPages: 500}}, 2000, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults < 2900 {
		t.Fatalf("faults = %d, want ~3000 (cyclic scan defeats LRU)", res.Faults)
	}
}

func TestResidentSetNeverExceedsLimit(t *testing.T) {
	gen := workload.NewUniform(2000, 3)
	m, err := NewMachine(leanLeap(3), []App{{PID: 1, Gen: gen, LimitPages: 100}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		m.step(m.procs[0])
		if got := m.procs[0].res.Len(); got > 100 {
			t.Fatalf("resident set %d exceeds limit 100", got)
		}
	}
	if m.Counters().Swapouts == 0 {
		t.Fatal("no swap-outs recorded despite evictions")
	}
}

func TestLeapBeatsLegacyOnStride(t *testing.T) {
	// The paper's Stride-10 microbenchmark: Leap detects the stride and
	// serves from cache; the legacy path misses every time. Median gap
	// should be order(s) of magnitude (paper: 104×).
	mkApps := func() []App {
		return []App{{PID: 1, Gen: workload.NewStride(1<<20, 10, 7), LimitPages: 4096}}
	}
	_, legacy, err := Run(legacyLinux(4), mkApps(), 3000, 20000)
	if err != nil {
		t.Fatal(err)
	}
	_, leap, err := Run(leanLeap(4), mkApps(), 3000, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if leap.Latency.P50 >= legacy.Latency.P50 {
		t.Fatalf("Leap p50 %v not better than legacy %v", leap.Latency.P50, legacy.Latency.P50)
	}
	ratio := float64(legacy.Latency.P50) / float64(leap.Latency.P50)
	if ratio < 20 {
		t.Fatalf("stride median improvement %.1f×, want >= 20×", ratio)
	}
	// Steady state with PWsizemax=8: each window's lead miss re-arms the
	// prefetcher, so 8 hits follow every 9th fault — coverage 8/9 ≈ 0.889.
	if leap.Coverage < 0.85 {
		t.Fatalf("Leap stride coverage = %.3f, want >= 0.85", leap.Coverage)
	}
}

func TestLegacySequentialCacheHitRate(t *testing.T) {
	// §2.2: with read-ahead, ~80% of sequential requests hit the cache.
	apps := []App{{PID: 1, Gen: workload.NewSequential(1<<20, 9), LimitPages: 4096}}
	_, res, err := Run(legacyLinux(5), apps, 3000, 20000)
	if err != nil {
		t.Fatal(err)
	}
	hitRate := 1 - float64(res.CacheMisses)/float64(res.Faults)
	if hitRate < 0.6 {
		t.Fatalf("sequential hit rate = %.3f, want >= 0.6", hitRate)
	}
}

func TestLegacyStrideAllMisses(t *testing.T) {
	// §2.2: under Stride-10 every access misses the cache on the default
	// path (read-ahead's aligned blocks of <=8 pages never cover stride-10
	// targets... except when the 8-block happens to contain the next
	// stride; allow a small hit rate).
	apps := []App{{PID: 1, Gen: workload.NewStride(1<<20, 10, 11), LimitPages: 4096}}
	_, res, err := Run(legacyLinux(6), apps, 3000, 20000)
	if err != nil {
		t.Fatal(err)
	}
	missRate := float64(res.CacheMisses) / float64(res.Faults)
	if missRate < 0.9 {
		t.Fatalf("stride miss rate = %.3f, want >= 0.9", missRate)
	}
}

func TestInflightHitPaysRemainingTime(t *testing.T) {
	// With Leap on a fast sequential stream, some hits land while the
	// prefetch is still in flight; their latency must be below a full miss.
	apps := []App{{PID: 1, Gen: workload.NewSequential(1<<20, 13), LimitPages: 4096}}
	m, res, err := Run(leanLeap(7), apps, 1000, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if m.Counters().InflightHits == 0 {
		t.Skip("no in-flight hits at this parameterization")
	}
	if res.Latency.P99 > 50*sim.Microsecond {
		t.Fatalf("Leap sequential p99 = %v, want well under a legacy miss", res.Latency.P99)
	}
}

func TestPrefetchCacheCapacityRespected(t *testing.T) {
	cfg := leanLeap(8)
	cfg.CacheCapacity = 16
	apps := []App{{PID: 1, Gen: workload.NewSequential(1<<20, 15), LimitPages: 4096}}
	m, err := NewMachine(cfg, apps)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(10000)
	if got := m.Cache().Len(); got > 16 {
		t.Fatalf("cache grew to %d, capacity 16", got)
	}
}

func TestMultiProcessIsolationHelps(t *testing.T) {
	// The §4.1 isolation ablation: two similar-speed patterned processes.
	// Per-process predictors see clean streams; a single shared predictor
	// sees their interleaving — alternating huge deltas with no majority —
	// and loses coverage.
	mkApps := func() []App {
		return []App{
			{PID: 1, Gen: workload.NewSequential(1<<20, 21), LimitPages: 4096},
			{PID: 2, Gen: workload.NewStride(1<<20, 7, 22), LimitPages: 4096},
		}
	}
	run := func(shared bool) Result {
		lp := prefetch.NewLeap(coreConfig())
		lp.Shared = shared
		cfg := Config{
			Path:        datapath.Config{Kind: datapath.Lean},
			CachePolicy: pagecache.EvictEager,
			Prefetcher:  lp,
			Seed:        10,
		}
		_, res, err := Run(cfg, mkApps(), 2000, 15000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	isolated := run(false)
	shared := run(true)
	if isolated.Coverage <= shared.Coverage {
		t.Fatalf("isolation gave no coverage benefit: isolated %.3f vs shared %.3f",
			isolated.Coverage, shared.Coverage)
	}
	if isolated.Latency.P50 >= shared.Latency.P50 {
		t.Fatalf("isolation gave no latency benefit: isolated p50 %v vs shared %v",
			isolated.Latency.P50, shared.Latency.P50)
	}
}

func TestDeterministicRuns(t *testing.T) {
	mk := func() (Result, error) {
		apps := []App{{PID: 1, Gen: workload.NewApp(workload.PowerGraphProfile(), 5), LimitPages: 8192}}
		_, res, err := Run(leanLeap(42), apps, 1000, 10000)
		return res, err
	}
	a, errA := mk()
	b, errB := mk()
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if a.Makespan != b.Makespan || a.Faults != b.Faults || a.CacheAdds != b.CacheAdds {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

// TestCountersConserved: in the measured phase every access is a resident
// hit or a fault, and Fault finds each faulted page in exactly one place.
func TestCountersConserved(t *testing.T) {
	for _, sys := range []System{SystemDisk, SystemDVMM, SystemDVMMLeap} {
		cfg := sys.Config(9)
		cfg.RemoteQueueDepth = 4
		m, res, err := Run(cfg, []App{
			{PID: 1, Gen: workload.NewStride(1<<20, 10, 3), LimitPages: 512},
			{PID: 2, Gen: workload.NewUniform(4000, 4), LimitPages: 256, PreloadPages: 256},
		}, 1000, 5000)
		if err != nil {
			t.Fatal(err)
		}
		c := m.Counters()
		if sum := c.CacheHits + c.InflightHits + c.CacheMisses + c.ZtierHits; sum != c.Faults {
			t.Errorf("%v: faults %d, but cache %d + in flight %d + misses %d + ztier %d = %d",
				sys, c.Faults, c.CacheHits, c.InflightHits, c.CacheMisses, c.ZtierHits, sum)
		}
		var accesses int64
		for _, p := range res.PerProc {
			accesses += p.Accesses
		}
		if c.ResidentHits+c.Faults != accesses {
			t.Errorf("%v: resident hits %d + faults %d != %d measured accesses",
				sys, c.ResidentHits, c.Faults, accesses)
		}
	}
}

func TestWarmupExcludedFromResults(t *testing.T) {
	apps := []App{{PID: 1, Gen: workload.NewSequential(1000, 1), LimitPages: 2000}}
	_, res, err := Run(leanLeap(11), apps, 1500, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// All 1000 pages were loaded during warmup; the measured phase must
	// show zero faults and an accesses count of exactly 1000.
	if res.PerProc[0].Accesses != 1000 {
		t.Fatalf("measured accesses = %d, want 1000", res.PerProc[0].Accesses)
	}
	if res.Faults != 0 {
		t.Fatalf("measured faults = %d, want 0", res.Faults)
	}
}

func TestOpsAccounting(t *testing.T) {
	prof := workload.VoltDBProfile() // 12 accesses per op
	apps := []App{{PID: 1, Gen: workload.NewApp(prof, 3), LimitPages: prof.TotalPages}}
	_, res, err := Run(leanLeap(12), apps, 0, 1200)
	if err != nil {
		t.Fatal(err)
	}
	if res.PerProc[0].Ops != 100 {
		t.Fatalf("ops = %d, want 100 (1200 accesses / 12 per op)", res.PerProc[0].Ops)
	}
	if res.PerProc[0].OpsPerSec <= 0 {
		t.Fatal("OpsPerSec not computed")
	}
}

func TestDiskDeviceIntegration(t *testing.T) {
	// The same engine must run against HDD for the Figure 8b/11 disk rows.
	pf, _ := prefetch.New("readahead")
	cfg := Config{
		Path:        datapath.Config{Kind: datapath.Legacy},
		CachePolicy: pagecache.EvictLazy,
		Prefetcher:  pf,
		Device:      storage.NewHDD(sim.NewRNG(55)),
		Seed:        13,
	}
	apps := []App{{PID: 1, Gen: workload.NewStride(1<<18, 10, 17), LimitPages: 4096}}
	_, res, err := Run(cfg, apps, 500, 3000)
	if err != nil {
		t.Fatal(err)
	}
	// Disk miss ≈ 34µs path + ~91µs device: medians above 100µs.
	if res.Latency.P50 < 100*sim.Microsecond {
		t.Fatalf("disk stride p50 = %v, want >= 100µs", res.Latency.P50)
	}
}

func TestAccuracyCoverageBounds(t *testing.T) {
	apps := []App{{PID: 1, Gen: workload.NewApp(workload.PowerGraphProfile(), 19), LimitPages: 16384}}
	_, res, err := Run(leanLeap(14), apps, 2000, 15000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy < 0 || res.Accuracy > 1 {
		t.Fatalf("accuracy = %v out of [0,1]", res.Accuracy)
	}
	if res.Coverage < 0 || res.Coverage > 1 {
		t.Fatalf("coverage = %v out of [0,1]", res.Coverage)
	}
}

func TestEagerEvictionReducesAllocLatency(t *testing.T) {
	// Same config except the eviction policy: eager should not be slower.
	mkApps := func() []App {
		return []App{{PID: 1, Gen: workload.NewSequential(1<<20, 23), LimitPages: 4096}}
	}
	lazyCfg := leanLeap(15)
	lazyCfg.CachePolicy = pagecache.EvictLazy
	_, lazy, err := Run(lazyCfg, mkApps(), 2000, 20000)
	if err != nil {
		t.Fatal(err)
	}
	_, eager, err := Run(leanLeap(15), mkApps(), 2000, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if eager.Latency.Mean > lazy.Latency.Mean {
		t.Fatalf("eager mean %v > lazy mean %v", eager.Latency.Mean, lazy.Latency.Mean)
	}
}

func TestCgroupChargeInvariant(t *testing.T) {
	// Property: after every step, resident + charged stays within the limit
	// plus the single in-flight insertion.
	pf, _ := prefetch.New("nextnline") // the most aggressive flooder
	cfg := Config{
		Path:        datapath.Config{Kind: datapath.Legacy},
		CachePolicy: pagecache.EvictLazy,
		Prefetcher:  pf,
		Seed:        31,
	}
	apps := []App{{PID: 1, Gen: workload.NewSequential(1<<20, 31), LimitPages: 256}}
	m, err := NewMachine(cfg, apps)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8000; i++ {
		m.step(m.procs[0])
		p := m.procs[0]
		occupancy := int64(p.res.Len()) + p.res.Charged
		// The floor-16 backstop and the one-page insert give small slack.
		if occupancy > p.app.LimitPages+32 {
			t.Fatalf("step %d: occupancy %d far exceeds limit %d",
				i, occupancy, p.app.LimitPages)
		}
	}
}

func TestChargeAccountingBalanced(t *testing.T) {
	// charged must equal the number of resident cache entries attributed to
	// the pid at any quiescent point.
	cfg := leanLeap(33)
	apps := []App{{PID: 1, Gen: workload.NewStride(1<<20, 10, 33), LimitPages: 4096}}
	m, err := NewMachine(cfg, apps)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(5000)
	if got, want := m.byPID[1].res.Charged, int64(m.Cache().Len()); got != want {
		t.Fatalf("charged = %d, cache holds %d", got, want)
	}
}

func TestFaultTraceCapture(t *testing.T) {
	cfg := leanLeap(35)
	cfg.CaptureFaults = true
	apps := []App{{PID: 1, Gen: workload.NewSequential(2000, 35), LimitPages: 100}}
	m, res, err := Run(cfg, apps, 500, 1000)
	if err != nil {
		t.Fatal(err)
	}
	tr := m.FaultTrace(1)
	if int64(len(tr)) != res.Faults {
		t.Fatalf("trace has %d entries, faults %d", len(tr), res.Faults)
	}
	if m.FaultTrace(99) != nil {
		t.Fatal("unknown pid returned a trace")
	}
}
