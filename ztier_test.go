package leap

import (
	"testing"

	"leap/internal/load"
	"leap/internal/remote"
)

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
