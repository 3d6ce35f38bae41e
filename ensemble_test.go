package leap

import (
	"testing"

	"leap/internal/load"
)

// TestEnsembleOneArmMatchesFixed is the parity oracle: an ensemble pinned
// to a single arm must be indistinguishable — equal Stats, field for field,
// once the Ensemble block itself is zeroed — from running that arm as the
// fixed policy via WithPrefetcherFactory. This is what pins "the selected
// arm sees the real engine feedback": any skew in the OnAccess or
// OnPrefetchHit stream the arm observes shows up as diverging counters.
func TestEnsembleOneArmMatchesFixed(t *testing.T) {
	for _, arm := range []string{"leap", "ghb", "stride", "readahead", "nextnline"} {
		t.Run(arm, func(t *testing.T) {
			run := func(extra Option) MemoryStats {
				mem, err := Open(
					WithSeed(613), WithCacheCapacity(96), WithQueueDepth(8), WithShards(2),
					extra,
				)
				if err != nil {
					t.Fatal(err)
				}
				defer mem.Close()
				cfg := load.Config{Clients: 3, OpsPerClient: 400, PagesPerClient: 48, Seed: 31}
				res, err := load.Sequential(mem, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := mem.Flush(); err != nil {
					t.Fatal(err)
				}
				if err := load.VerifyFinal(mem, cfg, res.Streams); err != nil {
					t.Fatal(err)
				}
				return mem.Stats()
			}
			fixed := run(WithPrefetcherFactory(func() Prefetcher {
				p, err := NewPrefetcher(arm)
				if err != nil {
					t.Fatal(err)
				}
				return p
			}))
			ens := run(WithEnsemble(EnsembleConfig{Arms: []string{arm}}))
			if !ens.Ensemble.Enabled || ens.Ensemble.Switches != 0 {
				t.Fatalf("one-arm ensemble block off or switching: %+v", ens.Ensemble)
			}
			if fixed.Ensemble != (MemoryEnsembleStats{}) {
				t.Fatalf("fixed policy reports ensemble activity: %+v", fixed.Ensemble)
			}
			ens.Ensemble = MemoryEnsembleStats{}
			if fixed != ens {
				t.Fatalf("one-arm ensemble diverged from fixed %s:\n%+v\n---\n%+v", arm, fixed, ens)
			}
		})
	}
}

// TestMemoryAdviseDeterminism pins the determinism property: the same seed
// drives the same advise/write/read interleave to bit-identical Stats and
// selection histories across runs.
func TestMemoryAdviseDeterminism(t *testing.T) {
	run := func() (MemoryStats, []SelectionEvent) {
		mem, err := Open(
			WithSeed(1009), WithCacheCapacity(64), WithQueueDepth(4), WithShards(2),
			WithEnsemble(EnsembleConfig{EpochFaults: 16, SwitchStreak: 1}),
		)
		if err != nil {
			t.Fatal(err)
		}
		defer mem.Close()
		c := mem.Client(1)
		buf := make([]byte, RemotePageSize)
		for pg := int64(0); pg < 200; pg++ {
			if _, err := c.WriteAt(buf, pg*RemotePageSize); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Advise(AdviseSequential, 0, 100); err != nil {
			t.Fatal(err)
		}
		if err := c.Advise(AdviseRandom, 100, 50); err != nil {
			t.Fatal(err)
		}
		if err := c.Advise(AdviseWillNeed, 150, 20); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1200; i++ {
			pg := PageID(i*7%200) ^ PageID(i&3)
			if _, err := c.Get(pg % 200); err != nil {
				t.Fatal(err)
			}
		}
		return mem.Stats(), c.SelectionHistory()
	}
	s1, h1 := run()
	s2, h2 := run()
	if s1 != s2 {
		t.Fatalf("same seed produced different Stats:\n%+v\n---\n%+v", s1, s2)
	}
	if len(h1) != len(h2) {
		t.Fatalf("selection histories diverged: %+v vs %+v", h1, h2)
	}
	for i := range h1 {
		if h1[i] != h2[i] {
			t.Fatalf("selection histories diverged at %d: %+v vs %+v", i, h1[i], h2[i])
		}
	}
	if len(h1) == 0 {
		t.Fatal("no selection history recorded under WithEnsemble")
	}
}

// TestMemoryEnsembleOptionValidation pins the option- and hint-misuse
// errors.
func TestMemoryEnsembleOptionValidation(t *testing.T) {
	factory := func() Prefetcher { p, _ := NewPrefetcher("stride"); return p }
	if _, err := Open(WithEnsemble(EnsembleConfig{}), WithPrefetcherFactory(factory)); err == nil {
		t.Fatal("WithEnsemble accepted alongside WithPrefetcherFactory")
	}
	if _, err := Open(WithEnsemble(EnsembleConfig{Arms: []string{"bogus"}})); err == nil {
		t.Fatal("unknown ensemble arm accepted")
	}
	if _, err := Open(WithPrefetcherFactory(func() Prefetcher { return nil })); err == nil {
		t.Fatal("nil-returning prefetcher factory accepted")
	}
	// One factory serves every stripe count.
	mem, err := Open(WithShards(2), WithPrefetcherFactory(factory))
	if err != nil {
		t.Fatal(err)
	}
	c := mem.Client(1)
	if err := c.Advise(AdviseSequential, -1, 4); err == nil {
		t.Fatal("negative advise start accepted")
	}
	if err := c.Advise(AdviseSequential, 0, 0); err == nil {
		t.Fatal("empty advise range accepted")
	}
	if err := c.Advise(Advice(99), 0, 4); err == nil {
		t.Fatal("unknown advice accepted")
	}
	mem.Close()
}

// TestMemoryAdviseSteersIssue checks the hints actually steer candidate
// issue: a random-advised scan issues no prefetches, the same scan
// sequential-advised issues straight-line windows, and WillNeed warms pages
// so later Gets hit the prefetch cache.
func TestMemoryAdviseSteersIssue(t *testing.T) {
	const budget = 64
	run := func(span PageID, advise func(c *MemoryClient) error) MemoryStats {
		mem, err := Open(WithSeed(77), WithCacheCapacity(budget), WithQueueDepth(8))
		if err != nil {
			t.Fatal(err)
		}
		defer mem.Close()
		c := mem.Client(1)
		buf := make([]byte, RemotePageSize)
		mem.SetRecording(false) // populate without counting its prefetches
		for pg := int64(0); pg < 512; pg++ {
			if _, err := c.WriteAt(buf, pg*RemotePageSize); err != nil {
				t.Fatal(err)
			}
		}
		mem.SetRecording(true)
		if advise != nil {
			if err := advise(c); err != nil {
				t.Fatal(err)
			}
		}
		for pg := PageID(0); pg < span; pg += 2 { // stride-2 scan
			if _, err := c.Get(pg); err != nil {
				t.Fatal(err)
			}
		}
		return mem.Stats()
	}
	normal := run(512, nil)
	random := run(512, func(c *MemoryClient) error { return c.Advise(AdviseRandom, 0, 512) })
	seq := run(512, func(c *MemoryClient) error { return c.Advise(AdviseSequential, 0, 512) })
	if random.PrefetchIssued != 0 {
		t.Fatalf("random-advised scan still issued %d prefetches", random.PrefetchIssued)
	}
	if seq.PrefetchIssued == 0 {
		t.Fatal("sequential-advised scan issued no prefetches")
	}
	if normal.PrefetchIssued == 0 {
		t.Fatal("un-advised scan issued no prefetches (baseline lost its bite)")
	}

	// WillNeed warms the head of the span up front, as much of it as the
	// budget holds: a scan of that head runs on prefetched pages from its
	// first access, where the un-advised one starts on a miss.
	cold := run(budget, nil)
	warm := run(budget, func(c *MemoryClient) error { return c.Advise(AdviseWillNeed, 0, 512) })
	if warm.Misses != 0 || cold.Misses == 0 {
		t.Fatalf("WillNeed did not warm the scan: %d misses vs %d un-advised", warm.Misses, cold.Misses)
	}
}

// BenchmarkMemoryEnsembleGetHit is the selector's zero-allocation gate on
// the resident-hit path: a hit never consults the prefetcher, so routing
// through the ensemble must add nothing — gated A/B by
// scripts/bench_ab.sh --zero-alloc, like the fixed-policy hit path.
func BenchmarkMemoryEnsembleGetHit(b *testing.B) {
	mem, err := Open(
		WithSeed(42), WithCacheCapacity(256), WithQueueDepth(8),
		WithEnsemble(EnsembleConfig{}),
	)
	if err != nil {
		b.Fatal(err)
	}
	defer mem.Close()
	buf := make([]byte, RemotePageSize)
	const hot = 64 // well inside the budget: every Get below is a hit
	for pg := int64(0); pg < hot; pg++ {
		if _, err := mem.WriteAt(buf, pg*RemotePageSize); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := mem.Get(PageID(i % hot))
		if err != nil {
			b.Fatal(err)
		}
		_ = data
	}
}
