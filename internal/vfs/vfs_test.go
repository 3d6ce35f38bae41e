package vfs

import (
	"testing"

	"leap/internal/core"
	"leap/internal/datapath"
	"leap/internal/pagecache"
	"leap/internal/prefetch"
	"leap/internal/sim"
)

func leanCfg(seed uint64) Config {
	p, _ := prefetch.New("leap")
	return Config{
		Path:        datapath.Config{Kind: datapath.Lean},
		CachePolicy: pagecache.EvictEager,
		Prefetcher:  p,
		Seed:        seed,
	}
}

func legacyCfg(seed uint64) Config {
	p, _ := prefetch.New("readahead")
	return Config{
		Path:        datapath.Config{Kind: datapath.Legacy},
		CachePolicy: pagecache.EvictLazy,
		Prefetcher:  p,
		Seed:        seed,
	}
}

func TestWriteThenReadHitsCache(t *testing.T) {
	f := New(leanCfg(1))
	lat := f.Write(1, 42, 100)
	if lat > sim.Microsecond {
		t.Fatalf("buffered write latency %v, want sub-µs", lat)
	}
	rlat := f.Read(1, 42, 100)
	if rlat > sim.Microsecond {
		t.Fatalf("cached read latency %v, want sub-µs", rlat)
	}
	if f.Counters().CacheHits != 1 {
		t.Fatal("read did not hit the cache")
	}
}

func TestColdReadPaysFullPath(t *testing.T) {
	f := New(legacyCfg(2))
	// Random far-apart pages: read-ahead stays off, every read misses.
	var sum sim.Duration
	const n = 500
	for i := 0; i < n; i++ {
		sum += f.Read(1, core.PageID(i*1_000_003), 0)
	}
	// Legacy path ≈ 34µs overhead + 4.3µs RDMA on average.
	if mean := sum / n; mean < 25*sim.Microsecond {
		t.Fatalf("cold legacy read mean = %v, want >= 25µs", mean)
	}
	if f.Counters().CacheMisses != n {
		t.Fatalf("misses = %d, want %d", f.Counters().CacheMisses, n)
	}
}

func TestLeanColdReadCheaper(t *testing.T) {
	legacy := New(legacyCfg(3))
	lean := New(leanCfg(3))
	var legacySum, leanSum sim.Duration
	for i := 0; i < 200; i++ {
		legacySum += legacy.Read(1, core.PageID(i*10), 0)
		leanSum += lean.Read(1, core.PageID(i*10), 0)
	}
	if leanSum*3 > legacySum {
		t.Fatalf("lean path not at least 3× cheaper: %v vs %v", leanSum, legacySum)
	}
}

func TestSequentialReadPrefetchWorks(t *testing.T) {
	// The paper's D-VFS microbenchmark: bulk write then sequential read.
	f := New(leanCfg(4))
	const n = 20000
	// Read a fresh region sequentially (cold): after warmup, Leap should
	// serve most reads from prefetch.
	for i := 0; i < n; i++ {
		f.Read(1, core.PageID(1_000_000+i), 200)
	}
	hits := f.Counters().CacheHits + f.Counters().InflightHits
	if rate := float64(hits) / float64(n); rate < 0.7 {
		t.Fatalf("sequential prefetch hit rate = %.3f, want >= 0.7", rate)
	}
	if f.ReadLatency.Percentile(50) > 2*sim.Microsecond {
		t.Fatalf("sequential p50 = %v, want ~hit latency", f.ReadLatency.Percentile(50))
	}
}

func TestStrideReadLeapVsLegacy(t *testing.T) {
	// Stride-10 reads: Leap detects the stride, legacy read-ahead cannot.
	leap := New(leanCfg(5))
	legacy := New(legacyCfg(5))
	for i := 0; i < 20000; i++ {
		page := core.PageID(i * 10)
		leap.Read(1, page, 200)
		legacy.Read(1, page, 200)
	}
	leapP50 := leap.ReadLatency.Percentile(50)
	legacyP50 := legacy.ReadLatency.Percentile(50)
	ratio := float64(legacyP50) / float64(leapP50)
	// Paper: 24.96× median improvement for D-VFS stride.
	if ratio < 10 {
		t.Fatalf("stride D-VFS median improvement = %.1f×, want >= 10×", ratio)
	}
}

func TestCacheCapacityBounded(t *testing.T) {
	cfg := leanCfg(6)
	cfg.CacheCapacity = 32
	f := New(cfg)
	for i := 0; i < 5000; i++ {
		f.Read(1, core.PageID(i), 100)
	}
	if f.Cache().Len() > 32 {
		t.Fatalf("cache grew to %d", f.Cache().Len())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() sim.Time {
		f := New(leanCfg(7))
		for i := 0; i < 3000; i++ {
			f.Read(1, core.PageID(i*3), 150)
		}
		return f.Now()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic: %d vs %d", a, b)
	}
}

// TestCountersConserved: Fault finds each read's page in exactly one place,
// writes in between included.
func TestCountersConserved(t *testing.T) {
	for _, f := range []*FS{New(leanCfg(9)), New(legacyCfg(9))} {
		for i := 0; i < 5000; i++ {
			if i%7 == 0 {
				f.Write(1, core.PageID(i*3+3), 100)
			}
			f.Read(1, core.PageID(i*3), 100)
		}
		c := f.Counters()
		if sum := c.CacheHits + c.InflightHits + c.CacheMisses; sum != f.Reads || f.Reads != 5000 {
			t.Errorf("reads %d, but cache %d + in flight %d + misses %d = %d",
				f.Reads, c.CacheHits, c.InflightHits, c.CacheMisses, sum)
		}
	}
}

func TestSummaryFormat(t *testing.T) {
	f := New(leanCfg(8))
	f.Read(1, 1, 0)
	if s := f.Summary(); len(s) == 0 {
		t.Fatal("empty summary")
	}
}
