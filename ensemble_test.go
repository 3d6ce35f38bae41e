package leap

import (
	"slices"
	"testing"

	"leap/internal/load"
	"leap/internal/prefetch"
)

// selectors is a prefetcher factory of online selectors of one config that
// keeps the instances it builds, one a stripe in stripe order, for their
// accounting.
type selectors struct {
	cfg   prefetch.EnsembleConfig
	built []*prefetch.Ensemble
}

func (s *selectors) factory() Prefetcher {
	e, err := prefetch.NewEnsemble(s.cfg)
	if err != nil {
		panic(err)
	}
	s.built = append(s.built, e)
	return e
}

// totals sums the instances' accounting: clients, epochs closed and switches.
func (s *selectors) totals() (clients int, epochs, switches int64) {
	for _, e := range s.built {
		c, ep, sw, _ := e.Totals()
		clients, epochs, switches = clients+c, epochs+ep, switches+sw
	}
	return clients, epochs, switches
}

// TestEnsembleOneArmMatchesFixed is the parity oracle: an ensemble pinned
// to a single arm must be indistinguishable — equal Stats, field for field —
// from running that arm as the fixed policy. This is what pins "the selected
// arm sees the real engine feedback": any skew in the OnAccess or
// OnPrefetchHit stream the arm observes shows up as diverging counters.
func TestEnsembleOneArmMatchesFixed(t *testing.T) {
	for _, arm := range []string{"leap", "ghb", "stride", "readahead", "nextnline"} {
		t.Run(arm, func(t *testing.T) {
			run := func(f func() Prefetcher) MemoryStats {
				mem, err := Open(
					WithSeed(613), WithCacheCapacity(96), WithQueueDepth(8), WithShards(2),
					WithPrefetcherFactory(f),
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
			fixed := run(func() Prefetcher {
				p, err := NewPrefetcher(arm)
				if err != nil {
					t.Fatal(err)
				}
				return p
			})
			sel := &selectors{cfg: prefetch.EnsembleConfig{Arms: []string{arm}}}
			ens := run(sel.factory)
			if clients, _, switches := sel.totals(); len(sel.built) != 2 || clients == 0 || switches != 0 {
				t.Fatalf("one-arm ensemble off or switching: %d instances, %d clients, %d switches", len(sel.built), clients, switches)
			}
			if fixed != ens {
				t.Fatalf("one-arm ensemble diverged from fixed %s:\n%+v\n---\n%+v", arm, fixed, ens)
			}
		})
	}
}

// TestMemoryAdviseDeterminism pins the determinism property: the same seed
// drives the same advise/write/read interleave to bit-identical Stats and
// per-stripe selection histories across runs.
func TestMemoryAdviseDeterminism(t *testing.T) {
	run := func() (MemoryStats, [][]prefetch.Selection) {
		sel := &selectors{cfg: prefetch.EnsembleConfig{EpochFaults: 16, SwitchStreak: 1}}
		mem, err := Open(
			WithSeed(1009), WithCacheCapacity(64), WithQueueDepth(4), WithShards(2),
			WithPrefetcherFactory(sel.factory),
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
		var hist [][]prefetch.Selection
		for _, e := range sel.built {
			hist = append(hist, e.History(PID(c.ID())))
		}
		return mem.Stats(), hist
	}
	s1, h1 := run()
	s2, h2 := run()
	if s1 != s2 {
		t.Fatalf("same seed produced different Stats:\n%+v\n---\n%+v", s1, s2)
	}
	if !slices.EqualFunc(h1, h2, slices.Equal) {
		t.Fatalf("selection histories diverged: %+v vs %+v", h1, h2)
	}
	if len(slices.Concat(h1...)) == 0 {
		t.Fatal("no selection history recorded under the ensemble")
	}
}

// TestMemoryEnsembleOptionValidation pins the factory- and hint-misuse
// errors.
func TestMemoryEnsembleOptionValidation(t *testing.T) {
	factory := func() Prefetcher { p, _ := NewPrefetcher("stride"); return p }
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
