package leap

import (
	"bytes"
	"testing"

	"leap/internal/core"
	"leap/internal/load"
	"leap/internal/remote"
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
