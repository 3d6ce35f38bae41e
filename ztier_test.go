package leap

import (
	"os"
	"strconv"
	"testing"

	"leap/internal/core"
	"leap/internal/load"
	"leap/internal/remote"
)

// runZtierReadYourWritesCase executes one seeded property case over a
// runtime with the compressed victim tier enabled: a deterministic
// interleave of stamped writes and verified reads whose shape (cache
// budget, tier budget, queue depth, shard count) derives from the seed.
// Tight budgets force every page through evict → seal → fault → unseal
// cycles; every read is verified as it happens (read-your-writes) and the
// final image must match the sequential oracle replay.
func runZtierReadYourWritesCase(t *testing.T, seed uint64) {
	t.Helper()
	qdepths := []int{1, 2, 8}
	shardCounts := []int{1, 2, 4}
	opts := []Option{
		WithSeed(seed*0x9E3779B97F4A7C15 + 1),
		WithCacheCapacity(64 + int(seed%3)*32),
		WithQueueDepth(qdepths[seed%uint64(len(qdepths))]),
		WithCompressedTier(int64(16+seed%48) * remote.PageSize),
		WithWireCompression(true),
	}
	if n := shardCounts[(seed/7)%uint64(len(shardCounts))]; n > 1 {
		opts = append(opts, WithShards(n))
	}
	mem, err := Open(opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	cfg := load.Config{Clients: 3, OpsPerClient: 250, PagesPerClient: 48, Seed: seed}
	res, err := load.Sequential(mem, cfg)
	if err == nil {
		err = mem.Flush()
	}
	if err == nil {
		err = load.VerifyFinal(mem, cfg, res.Streams)
	}
	if err == nil {
		err = mem.CheckShardInvariants(core.PageID(cfg.Span()))
	}
	if err != nil {
		t.Fatalf("case seed %#x: %v\nreplay with LEAP_SEED=%#x go test -run TestMemoryZtierReadYourWritesProperty",
			seed, err, seed)
	}
	if st := mem.Stats(); !st.Ztier.Enabled || st.Ztier.Seals == 0 {
		t.Fatalf("case seed %#x: tier never engaged (%+v) — the case shape lost its bite", seed, st.Ztier)
	}
}

// TestMemoryZtierReadYourWritesProperty is the compressed-tier
// read-your-writes property gate: with the working set overflowing the
// frame budget, dirty victims are sealed into the tier and later faults
// must get the exact bytes back (a sealed dirty page's only fresh image is
// the local compressed one). A failure prints its case seed; replay exactly
// that case with LEAP_SEED=<seed>.
func TestMemoryZtierReadYourWritesProperty(t *testing.T) {
	if env := os.Getenv("LEAP_SEED"); env != "" {
		seed, err := strconv.ParseUint(env, 0, 64)
		if err != nil {
			t.Fatalf("bad LEAP_SEED: %v", err)
		}
		runZtierReadYourWritesCase(t, seed)
		return
	}
	cases := 30
	if testing.Short() {
		cases = 10
	}
	for i := 0; i < cases; i++ {
		runZtierReadYourWritesCase(t, 0x21E4<<16|uint64(i))
	}
}

// TestMemoryZtierOffIsIdentical pins the compatibility bar: explicitly
// disabling the tier and wire compression must be indistinguishable —
// equal Stats block, field for field — from a runtime that never heard of
// them. This is what keeps every pre-tier figure byte-identical.
func TestMemoryZtierOffIsIdentical(t *testing.T) {
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
	off := run(WithCompressedTier(0), WithWireCompression(false))
	if base != off {
		t.Fatalf("tier-off runtime diverged from default:\n%+v\n---\n%+v", base, off)
	}
	if base.Evictions == 0 || base.WritebackPages == 0 {
		t.Fatalf("eviction counters never moved (evictions=%d writebacks=%d) — the satellite counters are dead",
			base.Evictions, base.WritebackPages)
	}
	if base.Ztier != (MemoryZtierStats{}) {
		t.Fatalf("tier-off run reports tier activity: %+v", base.Ztier)
	}
}

// TestMemoryZtierConcurrentStress is the race-enabled tier stress gate:
// concurrent clients hammer a sharded runtime whose frame budget is far
// under the span, so seal/unseal and overflow writeback race with the
// fault path. Run it under `go test -race` (the CI race job repeats it).
func TestMemoryZtierConcurrentStress(t *testing.T) {
	cfg := load.Config{Clients: 6, Goroutines: 6, OpsPerClient: 1200, PagesPerClient: 64, Seed: 97}
	if testing.Short() {
		cfg.Clients, cfg.Goroutines, cfg.OpsPerClient = 4, 4, 500
	}
	mem, err := Open(
		WithSeed(23), WithCacheCapacity(96), WithQueueDepth(8),
		WithShards(4),
		WithCompressedTier(64*remote.PageSize), WithWireCompression(true),
	)
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
	if err := load.VerifyFinal(mem, cfg, res.Streams); err != nil {
		t.Fatal(err)
	}
	if err := mem.CheckShardInvariants(core.PageID(cfg.Span())); err != nil {
		t.Fatal(err)
	}
	st := mem.Stats()
	if !st.Ztier.Enabled || st.Ztier.Seals == 0 {
		t.Errorf("stress run never sealed a page: %+v", st.Ztier)
	}
	// Stamped pages are xorshift-random — incompressible by design — so the
	// codec's stored fallback holds the ratio just under 1. What matters
	// here is that it never collapses (a broken accounting would show 0).
	if st.Ztier.RawBytes > 0 && (st.Ztier.Ratio <= 0.5 || st.Ztier.Ratio > 1.01) {
		t.Errorf("stress run realized compression ratio %.4f, want ~1 for incompressible stamps", st.Ztier.Ratio)
	}
}

// TestMemoryWireCompressionIntegrity checks the on-wire leg end to end.
// Phase one: the stamped (incompressible) load must survive compressed
// batch frames exactly — stored-fallback framing, worst case for the
// codec. Phase two: semi-compressible record pages must actually save wire
// bytes.
func TestMemoryWireCompressionIntegrity(t *testing.T) {
	mem, err := Open(WithSeed(59), WithCacheCapacity(48), WithQueueDepth(8), WithWireCompression(true))
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	cfg := load.Config{Clients: 2, OpsPerClient: 400, PagesPerClient: 64, Seed: 7}
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
	st := mem.Stats()
	if st.Host.CompressedFrames == 0 {
		t.Fatalf("no batched frame traveled compressed: %+v", st.Host)
	}

	// Semi-compressible phase: repeated text records with a noise byte.
	host0 := st.Host
	span := cfg.Span()
	buf := make([]byte, remote.PageSize)
	for pg := int64(0); pg < 128; pg++ {
		const record = "record-deadbeef!"
		x := uint64(pg)*0x9E3779B97F4A7C15 + 1
		for off := 0; off+len(record) <= len(buf); off += len(record) {
			copy(buf[off:], record)
			x = x*6364136223846793005 + 1442695040888963407
			buf[off+12] = byte(x >> 33)
		}
		if _, err := mem.WriteAt(buf, (span+pg)*remote.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	if err := mem.Flush(); err != nil {
		t.Fatal(err)
	}
	st = mem.Stats()
	rawDelta := st.Host.WireRawBytes - host0.WireRawBytes
	compDelta := st.Host.WireCompressedBytes - host0.WireCompressedBytes
	if rawDelta <= 0 {
		t.Fatalf("record phase moved no compressed frames: %+v", st.Host)
	}
	if compDelta >= rawDelta {
		t.Fatalf("wire compression never paid on record pages: %dB compressed vs %dB raw", compDelta, rawDelta)
	}
}

// TestMemoryZtierOptionValidation pins the option-misuse errors.
func TestMemoryZtierOptionValidation(t *testing.T) {
	if _, err := Open(WithCompressedTier(-1)); err == nil {
		t.Fatal("negative tier budget accepted")
	}
	host, err := remote.NewHost(remote.HostConfig{}, []remote.Transport{
		remote.NewInProc(remote.NewAgent(64, 0)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(WithRemoteHost(host), WithWireCompression(true)); err == nil {
		t.Fatal("WithWireCompression accepted alongside WithRemoteHost (the host's own Compress field governs)")
	}
}
