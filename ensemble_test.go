package leap

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"

	"leap/internal/core"
	"leap/internal/load"
	"leap/internal/remote"
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

// TestMemoryEnsembleOffIsIdentical pins the compatibility bar: a runtime
// without WithEnsemble must be field-for-field identical to the pre-selector
// runtime, and its Stats.Ensemble block must stay zero.
func TestMemoryEnsembleOffIsIdentical(t *testing.T) {
	run := func(extra ...Option) MemoryStats {
		opts := append([]Option{
			WithSeed(311), WithCacheCapacity(96), WithQueueDepth(8),
		}, extra...)
		mem, err := Open(opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer mem.Close()
		cfg := load.Config{Clients: 3, OpsPerClient: 300, PagesPerClient: 48, Seed: 19}
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
	base := run()
	factory := run(WithPrefetcherFactory(func() Prefetcher { return NewLeapPrefetcher(PredictorConfig{}) }))
	if base != factory {
		t.Fatalf("WithPrefetcherFactory(leap) diverged from the default runtime:\n%+v\n---\n%+v", base, factory)
	}
	if base.Ensemble != (MemoryEnsembleStats{}) {
		t.Fatalf("ensemble-off run reports selector activity: %+v", base.Ensemble)
	}
}

// adviseStamp writes a page image derived from (pg, v) — the same stamp the
// verifying read recomputes.
func adviseStamp(pg PageID, v uint64, buf []byte) {
	x := uint64(pg)*0x9E3779B97F4A7C15 + v | 1
	for i := range buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[i] = byte(x)
	}
}

// runAdviseReadYourWritesCase executes one seeded property case: three
// clients interleave stamped writes, verified reads, and seed-derived
// Advise calls (all four advices, arbitrary ranges) over a runtime whose
// shape (budget, queue depth, shard count, compressed tier) derives from
// the seed, with the ensemble selecting per client underneath. Every read
// must return the last stamp written to that page — no hint may ever
// surface stale bytes, whatever evict/seal/fault cycle the page is in.
func runAdviseReadYourWritesCase(t *testing.T, seed uint64) {
	t.Helper()
	qdepths := []int{1, 2, 8}
	shardCounts := []int{1, 2, 4}
	opts := []Option{
		WithSeed(seed*0x9E3779B97F4A7C15 + 7),
		WithCacheCapacity(64 + int(seed%3)*32),
		WithQueueDepth(qdepths[seed%uint64(len(qdepths))]),
		WithCompressedTier(int64(16+seed%48) * remote.PageSize),
		WithEnsemble(EnsembleConfig{EpochFaults: 16, SwitchStreak: 1}),
	}
	if n := shardCounts[(seed/7)%uint64(len(shardCounts))]; n > 1 {
		opts = append(opts, WithShards(n))
	}
	mem, err := Open(opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()

	const span = 256
	clients := []*MemoryClient{mem.Client(1), mem.Client(2), mem.Client(3)}
	oracle := make(map[PageID]uint64)
	var written []PageID
	buf := make([]byte, RemotePageSize)
	want := make([]byte, RemotePageSize)
	rnd := seed*2862933555777941757 + 3037000493
	next := func(n uint64) uint64 {
		rnd ^= rnd << 13
		rnd ^= rnd >> 7
		rnd ^= rnd << 17
		return rnd % n
	}
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("case seed %#x: %s\nreplay with LEAP_SEED=%#x go test -run TestMemoryAdviseReadYourWritesProperty",
			seed, fmt.Sprintf(format, args...), seed)
	}
	for op := 0; op < 900; op++ {
		c := clients[next(uint64(len(clients)))]
		switch next(10) {
		case 0, 1: // advise: all four kinds, seed-derived ranges
			a := Advice(next(4))
			start := PageID(next(span))
			n := int(next(40)) + 1
			if err := c.Advise(a, start, n); err != nil {
				fail("Advise(%d, %d, %d): %v", a, start, n, err)
			}
		case 2, 3, 4: // stamped write
			pg := PageID(next(span))
			v := rnd
			adviseStamp(pg, v, buf)
			if _, err := c.WriteAt(buf, int64(pg)*RemotePageSize); err != nil {
				fail("WriteAt(%d): %v", pg, err)
			}
			if _, seen := oracle[pg]; !seen {
				written = append(written, pg)
			}
			oracle[pg] = v
		default: // verified read (read-your-writes, whatever tier the page is in)
			if len(written) == 0 {
				continue
			}
			pg := written[next(uint64(len(written)))]
			got, err := c.Get(pg)
			if err != nil {
				fail("Get(%d): %v", pg, err)
			}
			adviseStamp(pg, oracle[pg], want)
			for i := range want {
				if got[i] != want[i] {
					fail("page %d byte %d = %#x, want %#x (stale image surfaced)", pg, i, got[i], want[i])
				}
			}
		}
	}
	if err := mem.Flush(); err != nil {
		fail("Flush: %v", err)
	}
	for _, pg := range written {
		if _, err := mem.ReadAt(buf, int64(pg)*RemotePageSize); err != nil {
			fail("final ReadAt(%d): %v", pg, err)
		}
		adviseStamp(pg, oracle[pg], want)
		for i := range want {
			if buf[i] != want[i] {
				fail("final image of page %d diverged at byte %d", pg, i)
			}
		}
	}
	if err := mem.CheckShardInvariants(span); err != nil {
		fail("shard invariants: %v", err)
	}
	if st := mem.Stats(); !st.Ensemble.Enabled || st.Ensemble.Clients == 0 {
		fail("ensemble never engaged: %+v", st.Ensemble)
	}
}

// TestMemoryAdviseReadYourWritesProperty is the hint-API safety gate:
// madvise-style hints may steer prefetch issue, never data. A failure
// prints its case seed; replay exactly that case with LEAP_SEED=<seed>.
func TestMemoryAdviseReadYourWritesProperty(t *testing.T) {
	if env := os.Getenv("LEAP_SEED"); env != "" {
		seed, err := strconv.ParseUint(env, 0, 64)
		if err != nil {
			t.Fatalf("bad LEAP_SEED: %v", err)
		}
		runAdviseReadYourWritesCase(t, seed)
		return
	}
	cases := 25
	if testing.Short() {
		cases = 8
	}
	for i := 0; i < cases; i++ {
		runAdviseReadYourWritesCase(t, 0xAD5E<<16|uint64(i))
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

// TestMemoryEnsembleStress is the race-enabled selector stress gate:
// concurrent clients hammer a sharded ensemble runtime while another
// goroutine streams Advise calls at the same ranges, so hint-table writes,
// WillNeed prefetches and selector epochs race the fault path. Run it under
// `go test -race` (the CI race job repeats it).
func TestMemoryEnsembleStress(t *testing.T) {
	cfg := load.Config{Clients: 6, Goroutines: 6, OpsPerClient: 1000, PagesPerClient: 64, Seed: 83}
	if testing.Short() {
		cfg.Clients, cfg.Goroutines, cfg.OpsPerClient = 4, 4, 400
	}
	mem, err := Open(
		WithSeed(29), WithCacheCapacity(96), WithQueueDepth(8),
		WithShards(4),
		WithEnsemble(EnsembleConfig{EpochFaults: 32, SwitchStreak: 1}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := mem.Client(2)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			a := Advice(i % 4)
			if err := c.Advise(a, PageID(i%128), 1+i%32); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	res, err := load.Drive(mem, cfg)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := load.VerifyFinal(mem, cfg, res.Streams); err != nil {
		t.Fatal(err)
	}
	if err := mem.CheckShardInvariants(core.PageID(cfg.Span())); err != nil {
		t.Fatal(err)
	}
	st := mem.Stats()
	if !st.Ensemble.Enabled || st.Ensemble.Clients == 0 || st.Ensemble.Epochs == 0 {
		t.Errorf("stress run never exercised the selector: %+v", st.Ensemble)
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
