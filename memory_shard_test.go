package leap

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"testing"

	"leap/internal/core"
	"leap/internal/load"
	"leap/internal/remote"
	"leap/internal/sim"
)

// shardParityRun executes one deterministic mixed read/write trace
// (load.Sequential: stamped writes, verified read-your-writes, cross-client
// reads) over a fresh Memory opened with the given extra options and
// returns everything the parity oracle compares: the full Stats block,
// every client's aggregated predictor statistics, and the final page image
// of the whole span. The shard invariant is checked before returning.
func shardParityRun(t *testing.T, cfg load.Config, extra ...Option) (MemoryStats, []core.Stats, [][]byte) {
	t.Helper()
	opts := append([]Option{
		WithSeed(131), WithCacheCapacity(96), WithQueueDepth(8),
	}, extra...)
	mem, err := Open(opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
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
	if err := mem.CheckShardInvariants(core.PageID(cfg.Span())); err != nil {
		t.Fatal(err)
	}
	st := mem.Stats()
	preds := make([]core.Stats, cfg.Clients)
	for c := 0; c < cfg.Clients; c++ {
		preds[c], _ = mem.Client(c).PredictorStats()
	}
	image := make([][]byte, cfg.Span())
	for pg := range image {
		image[pg] = make([]byte, remote.PageSize)
		if _, err := mem.ReadAt(image[pg], int64(pg)*remote.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	return st, preds, image
}

// TestShardedOneMatchesSerial is the sharding parity oracle. On a shared
// deterministic trace:
//
//   - WithShards(1) must be bit-identical to the default (pre-sharding
//     serialized) runtime: equal Stats, equal per-client predictor
//     statistics, equal page bytes.
//   - WithShards(4) driven by the same single goroutine must produce the
//     same page image and the same access/fault totals (striping moves
//     pages between predictors, it must not invent or lose work), must
//     never trip the single-flight table single-threaded, and two
//     identical sharded runs must be bit-identical to each other.
func TestShardedOneMatchesSerial(t *testing.T) {
	cfg := load.Config{Clients: 3, OpsPerClient: 400, PagesPerClient: 48, Seed: 99}

	base, basePreds, baseImage := shardParityRun(t, cfg)
	one, onePreds, oneImage := shardParityRun(t, cfg, WithShards(1))

	if base != one {
		t.Errorf("WithShards(1) stats diverged from serialized runtime:\nserial  %+v\nshards1 %+v", base, one)
	}
	for c := range basePreds {
		if basePreds[c] != onePreds[c] {
			t.Errorf("client %d predictor stats diverged:\nserial  %+v\nshards1 %+v", c, basePreds[c], onePreds[c])
		}
	}
	for pg := range baseImage {
		if !bytes.Equal(baseImage[pg], oneImage[pg]) {
			t.Fatalf("WithShards(1) page %d bytes diverged from serialized runtime", pg)
		}
	}

	sharded, shardedPreds, shardedImage := shardParityRun(t, cfg, WithShards(4))
	sharded2, shardedPreds2, shardedImage2 := shardParityRun(t, cfg, WithShards(4))

	// Determinism: a sharded run is a pure function of its options + trace.
	if sharded != sharded2 {
		t.Errorf("two identical WithShards(4) runs diverged:\nfirst  %+v\nsecond %+v", sharded, sharded2)
	}
	for c := range shardedPreds {
		if shardedPreds[c] != shardedPreds2[c] {
			t.Errorf("client %d predictor stats nondeterministic across WithShards(4) runs", c)
		}
	}
	for pg := range shardedImage {
		if !bytes.Equal(shardedImage[pg], shardedImage2[pg]) {
			t.Fatalf("WithShards(4) page %d bytes nondeterministic across runs", pg)
		}
	}

	// Correctness vs the serial oracle: same bytes, same work totals. (Stats
	// beyond the totals legitimately differ: each stripe's predictor sees
	// only its own fault stream, so prefetch windows land differently.)
	for pg := range baseImage {
		if !bytes.Equal(baseImage[pg], shardedImage[pg]) {
			t.Fatalf("WithShards(4) page %d bytes diverged from serialized runtime", pg)
		}
	}
	if sharded.Accesses != base.Accesses {
		t.Errorf("sharded run accesses %d, serialized %d — striping must not invent or lose accesses",
			sharded.Accesses, base.Accesses)
	}
	if sharded.ResidentHits+sharded.Faults != base.ResidentHits+base.Faults {
		t.Errorf("sharded hits+faults %d+%d, serialized %d+%d",
			sharded.ResidentHits, sharded.Faults, base.ResidentHits, base.Faults)
	}
	if sharded.DemandWaits != 0 {
		t.Errorf("single-goroutine sharded run recorded %d demand waits", sharded.DemandWaits)
	}
}

// runShardedInvariantCase executes one seeded property case over a sharded
// Memory whose whole shape (stripe count, cache budget, queue depth)
// derives from the seed: a deterministic pseudo-random interleave of per-client streams with read-your-writes verified on every
// read, the single-owner shard invariant checked every 64 operations — a
// page must never be resident (or cached, or in flight) outside its owning
// stripe, including across eviction at shard boundaries — and the final
// image checked against the sequential oracle.
func runShardedInvariantCase(t *testing.T, seed uint64) {
	t.Helper()
	shardCounts := []int{2, 4, 8}
	qdepths := []int{1, 2, 8}
	fail := func(err error) {
		t.Fatalf("case seed %#x: %v\nreplay with LEAP_SEED=%#x go test -run TestMemoryShardedInvariantsProperty",
			seed, err, seed)
	}
	mem, err := Open(
		WithSeed(seed*0x9E3779B97F4A7C15+1),
		WithShards(shardCounts[seed%uint64(len(shardCounts))]),
		// A small budget keeps eviction constant, so frames cross the
		// resident/cached boundary (and leave) on every stripe.
		WithCacheCapacity(32+int(seed%3)*48),
		WithQueueDepth(qdepths[(seed/3)%uint64(len(qdepths))]),
	)
	if err != nil {
		fail(err)
	}
	defer mem.Close()

	cfg := load.Config{Clients: 3, OpsPerClient: 250, PagesPerClient: 48, Seed: seed}
	span := core.PageID(cfg.Span())
	streams := make([]*load.Stream, cfg.Clients)
	ios := make([]*MemoryClient, cfg.Clients)
	for i := range streams {
		streams[i] = load.NewStream(i, cfg)
		ios[i] = mem.Client(i)
	}
	// The same seeded interleave load.Sequential uses, unrolled so the shard
	// invariant can be checked mid-run, not only at the end.
	sched := sim.NewRNG(cfg.Seed ^ 0xC0FFEE)
	remaining := cfg.Clients
	ops := 0
	for remaining > 0 {
		c := sched.Intn(cfg.Clients)
		s := streams[c]
		if s.Done() {
			continue
		}
		if err := s.Step(ios[c]); err != nil {
			fail(err)
		}
		if s.Done() {
			remaining--
		}
		if ops++; ops%64 == 0 {
			if err := mem.CheckShardInvariants(span); err != nil {
				fail(err)
			}
		}
	}
	if err := mem.Flush(); err != nil {
		fail(err)
	}
	if err := load.VerifyFinal(mem, cfg, streams); err != nil {
		fail(err)
	}
	if err := mem.CheckShardInvariants(span); err != nil {
		fail(err)
	}
	if st := mem.Stats(); st.DemandWaits != 0 {
		fail(fmt.Errorf("single-goroutine case recorded %d demand waits", st.DemandWaits))
	}
}

// TestMemoryShardedInvariantsProperty is the seeded-schedule property test
// for the sharded fault path: across random stripe counts, budgets and
// overlap bounds, no page ever appears outside its owning shard (checked
// mid-run and after eviction churn), read-your-writes holds through
// shard-boundary eviction, and the final state matches the sequential
// oracle. A failure prints its case seed; replay exactly that case with
// LEAP_SEED=<seed>.
func TestMemoryShardedInvariantsProperty(t *testing.T) {
	if env := os.Getenv("LEAP_SEED"); env != "" {
		seed, err := strconv.ParseUint(env, 0, 64)
		if err != nil {
			t.Fatalf("bad LEAP_SEED: %v", err)
		}
		runShardedInvariantCase(t, seed)
		return
	}
	cases := 40
	if testing.Short() {
		cases = 12
	}
	for i := 0; i < cases; i++ {
		runShardedInvariantCase(t, 0x51AD<<16|uint64(i))
	}
}

// TestMemoryShardedStress extends the race-enabled stress gate across the
// shards × clients × goroutines matrix: real goroutines hammer a sharded
// Memory through per-client handles, with exact access accounting (one page
// touch per op, none lost or duplicated across stripes), the final-image
// oracle, and the single-owner shard invariant checked once the dust
// settles. Run it under `go test -race`.
func TestMemoryShardedStress(t *testing.T) {
	grid := []struct{ shards, clients, goroutines int }{
		{2, 4, 4},
		{4, 8, 8},
		{8, 8, 8},
	}
	if testing.Short() {
		grid = grid[:2]
	}
	for _, g := range grid {
		g := g
		t.Run(fmt.Sprintf("shards=%d_clients=%d_goroutines=%d", g.shards, g.clients, g.goroutines), func(t *testing.T) {
			cfg := load.Config{
				Clients: g.clients, Goroutines: g.goroutines,
				OpsPerClient: 1000, PagesPerClient: 64, Seed: 47 + uint64(g.shards),
			}
			if testing.Short() {
				cfg.OpsPerClient = 400
			}
			mem, err := Open(WithSeed(17+uint64(g.shards)), WithShards(g.shards),
				WithCacheCapacity(128), WithQueueDepth(8))
			if err != nil {
				t.Fatal(err)
			}
			defer mem.Close()
			res, err := load.Drive(mem, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := mem.Flush(); err != nil {
				t.Fatal(err)
			}
			st := mem.Stats()
			if want := int64(cfg.Clients) * int64(cfg.OpsPerClient); st.Accesses != want {
				t.Errorf("accesses %d, want exactly %d (one page touch per op, none lost or duplicated)", st.Accesses, want)
			}
			if st.Faults == 0 || st.Host.Reads == 0 || st.Host.Writes == 0 {
				t.Errorf("stress run produced no remote traffic: %+v", st)
			}
			if err := load.VerifyFinal(mem, cfg, res.Streams); err != nil {
				t.Fatal(err)
			}
			if err := mem.CheckShardInvariants(core.PageID(cfg.Span())); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestShardedOptionValidation pins WithShards's edges: counts round up to
// the next power of two, non-positive means one stripe, a supplied
// prefetcher instance cannot be striped, and the capacity budget must cover
// every stripe.
func TestShardedOptionValidation(t *testing.T) {
	for _, c := range []struct{ ask, want int }{{0, 1}, {1, 1}, {3, 4}, {4, 4}, {5, 8}} {
		mem, err := Open(WithShards(c.ask))
		if err != nil {
			t.Fatalf("WithShards(%d): %v", c.ask, err)
		}
		if got := mem.Shards(); got != c.want {
			t.Errorf("WithShards(%d) ran %d stripes, want %d", c.ask, got, c.want)
		}
		mem.Close()
	}
	if _, err := Open(WithShards(8), WithCacheCapacity(4)); err == nil {
		t.Error("capacity 4 over 8 shards must be rejected: every stripe needs at least one page")
	}
}

// TestShardedHitPathZeroAllocs gates the sharded hit path at zero heap
// allocations per operation: a resident hit takes one shard lock, touches
// the stripe's LRU and copies bytes — nothing on that path may allocate
// (the bench gate enforces the same bound on BenchmarkMemoryGetHit*).
func TestShardedHitPathZeroAllocs(t *testing.T) {
	mem, err := Open(WithShards(4), WithCacheCapacity(512), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	const hot = 128
	buf := make([]byte, remote.PageSize)
	// Two sweeps: fault the hot set in, then re-touch it so every page is
	// resident in its stripe before measuring.
	for sweep := 0; sweep < 2; sweep++ {
		for pg := int64(0); pg < hot; pg++ {
			if _, err := mem.ReadAt(buf, pg*remote.PageSize); err != nil {
				t.Fatal(err)
			}
		}
	}
	var pg int64
	var rerr error
	allocs := testing.AllocsPerRun(400, func() {
		pg = (pg + 1) % hot
		_, rerr = mem.ReadAt(buf, pg*remote.PageSize)
	})
	if rerr != nil {
		t.Fatal(rerr)
	}
	if allocs != 0 {
		t.Errorf("sharded hit path allocates %.1f times per op, want 0", allocs)
	}
}
