package leap

import (
	"testing"

	"leap/internal/core"
	"leap/internal/datapath"
	"leap/internal/pagecache"
	"leap/internal/prefetch"
	"leap/internal/vmm"
	"leap/internal/workload"
)

// traceGen replays a fixed page sequence with zero think time, so the
// simulator sees exactly the accesses the Memory runtime will make.
type traceGen struct {
	pages []core.PageID
	i     int
}

func (g *traceGen) Name() string       { return "trace" }
func (g *traceGen) Pages() int64       { return 1 << 20 }
func (g *traceGen) AccessesPerOp() int { return 1 }
func (g *traceGen) Next() workload.Access {
	a := g.pages[g.i%len(g.pages)]
	g.i++
	return workload.Access{Page: a}
}

// parityTrace mixes the phases that drive the window through its whole
// life cycle: a long sequential run (growth to PWsizemax), a stride run
// (trend change), and a pseudo-random burst (smooth shrink to suspension),
// then sequential again (recovery).
func parityTrace() []core.PageID {
	var tr []core.PageID
	for i := 0; i < 1500; i++ {
		tr = append(tr, core.PageID(i))
	}
	for i := 0; i < 1500; i++ {
		tr = append(tr, core.PageID(100000+i*10))
	}
	rnd := uint64(12345)
	for i := 0; i < 800; i++ {
		rnd = rnd*6364136223846793005 + 1442695040888963407
		tr = append(tr, core.PageID(rnd%(1<<19)))
	}
	for i := 0; i < 1200; i++ {
		tr = append(tr, core.PageID(500000+i))
	}
	return tr
}

// TestMemoryMatchesSimulator is the unification gate: the Memory runtime
// and the simulator share internal/paging, so one access trace at one seed
// must produce identical prefetch decisions — equal fault-path counters,
// equal accuracy and coverage, and bit-identical per-process predictor
// statistics.
func TestMemoryMatchesSimulator(t *testing.T) {
	const seed = 77
	const limit = 256
	trace := parityTrace()

	// Simulator run: one PID-0 process (so global swap addresses equal raw
	// page numbers), lean path + eager eviction + Leap — the exact stack
	// Open builds.
	simPf := prefetch.NewLeap(core.Config{})
	m, res, err := vmm.Run(vmm.Config{
		Path:        datapath.Config{Kind: datapath.Lean},
		CachePolicy: pagecache.EvictEager,
		Prefetcher:  simPf,
		Seed:        seed,
	}, []vmm.App{{PID: 0, Gen: &traceGen{pages: trace}, LimitPages: limit}},
		0, int64(len(trace)))
	if err != nil {
		t.Fatal(err)
	}

	// Runtime run: same seed, same budget, same prefetcher configuration,
	// depth 1 (the simulator run above is unbatched).
	memPf := prefetch.NewLeap(PredictorConfig{})
	mem, err := Open(WithSeed(seed), WithCacheCapacity(limit),
		WithQueueDepth(1), WithPrefetcherFactory(func() Prefetcher { return memPf }))
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	for _, pg := range trace {
		if _, err := mem.Get(pg); err != nil {
			t.Fatal(err)
		}
	}

	st := mem.Stats()
	if st.Faults != res.Faults {
		t.Errorf("faults: memory %d, simulator %d", st.Faults, res.Faults)
	}
	if st.ResidentHits != res.ResidentHits {
		t.Errorf("resident hits: memory %d, simulator %d", st.ResidentHits, res.ResidentHits)
	}
	if st.Misses != res.CacheMisses {
		t.Errorf("misses: memory %d, simulator %d", st.Misses, res.CacheMisses)
	}
	if st.PrefetchIssued != res.PrefetchIssued {
		t.Errorf("prefetch issued: memory %d, simulator %d", st.PrefetchIssued, res.PrefetchIssued)
	}
	if got, want := st.InflightHits, m.Counters().InflightHits; got != want {
		t.Errorf("inflight hits: memory %d, simulator %d", got, want)
	}
	if got, want := st.CacheHits, m.Counters().CacheHits; got != want {
		t.Errorf("cache hits: memory %d, simulator %d", got, want)
	}
	if st.Accuracy != res.Accuracy {
		t.Errorf("accuracy: memory %.6f, simulator %.6f", st.Accuracy, res.Accuracy)
	}
	if st.Coverage != res.Coverage {
		t.Errorf("coverage: memory %.6f, simulator %.6f", st.Coverage, res.Coverage)
	}

	// The strongest form of "same decisions": the two predictors saw the
	// same faults, votes, window transitions and candidate counts.
	simStats := simPf.ProcessStats()[prefetch.PID(0)]
	memStats := memPf.ProcessStats()[prefetch.PID(0)]
	if simStats != memStats {
		t.Errorf("predictor stats diverged:\nsimulator %+v\nmemory    %+v", simStats, memStats)
	}
}

// TestMemoryWindowAdaptation asserts NoteHit-driven PWsize behaviour
// through the real fault path: growth to the cap during a hit-rich
// sequential phase, smooth shrink to suspension on random traffic, and the
// transition counters that prove both happened.
func TestMemoryWindowAdaptation(t *testing.T) {
	lp := prefetch.NewLeap(PredictorConfig{})
	mem, err := Open(WithSeed(21), WithCacheCapacity(128),
		WithPrefetcherFactory(func() Prefetcher { return lp }))
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()

	for pg := PageID(0); pg < 1000; pg++ {
		if _, err := mem.Get(pg); err != nil {
			t.Fatal(err)
		}
	}
	pred := lp.ProcessStats()[prefetch.PID(0)]
	if pred.WindowGrowths == 0 {
		t.Fatal("sequential phase produced no window growth")
	}
	// Reach into the live predictor: the window must have hit PWsizemax.
	win := lp.Predictor(0).Window()
	if win != core.DefaultMaxPrefetchWindow {
		t.Fatalf("window after sequential phase = %d, want %d", win, core.DefaultMaxPrefetchWindow)
	}

	rnd := uint64(7)
	for i := 0; i < 600; i++ {
		rnd = rnd*6364136223846793005 + 1442695040888963407
		if _, err := mem.Get(PageID(rnd % (1 << 30))); err != nil {
			t.Fatal(err)
		}
	}
	after := lp.ProcessStats()[prefetch.PID(0)]
	if after.WindowShrinks <= pred.WindowShrinks {
		t.Fatal("random phase produced no window shrink")
	}
	if after.Suspended == 0 {
		t.Fatal("random phase never suspended prefetching")
	}
	if got := lp.Predictor(0).Window(); got > 1 {
		t.Fatalf("window after random phase = %d, want <= 1", got)
	}
}
