package leap

import (
	"bytes"
	"testing"

	"leap/internal/prefetch"
)

// fillPage writes a deterministic pattern for page pg into buf.
func fillPage(pg PageID, buf []byte) {
	for i := range buf {
		x := uint64(pg)*0x9E3779B97F4A7C15 + uint64(i)
		buf[i] = byte(x ^ (x >> 17))
	}
}

// TestMemoryRoundTrip pushes a working set several times the local budget
// through the runtime and reads every byte back: evictions must write real
// images to the remote substrate and faults must fetch them intact.
func TestMemoryRoundTrip(t *testing.T) {
	mem, err := Open(WithSeed(7), WithCacheCapacity(64), WithQueueDepth(8))
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()

	const pages = 512
	buf := make([]byte, RemotePageSize)
	for pg := PageID(0); pg < pages; pg++ {
		fillPage(pg, buf)
		if _, err := mem.WriteAt(buf, int64(pg)*RemotePageSize); err != nil {
			t.Fatalf("WriteAt page %d: %v", pg, err)
		}
	}
	got := make([]byte, RemotePageSize)
	for pg := PageID(0); pg < pages; pg++ {
		fillPage(pg, buf)
		if _, err := mem.ReadAt(got, int64(pg)*RemotePageSize); err != nil {
			t.Fatalf("ReadAt page %d: %v", pg, err)
		}
		if !bytes.Equal(got, buf) {
			t.Fatalf("page %d corrupted after eviction round trip", pg)
		}
	}
	st := mem.Stats()
	if st.Swapouts == 0 {
		t.Fatal("working set 8x the budget produced no swapouts")
	}
	if st.Host.Writes == 0 || st.Host.Reads == 0 {
		t.Fatalf("no real remote traffic: host stats %+v", st.Host)
	}
}

// TestMemoryUnalignedIO crosses page boundaries with both ReadAt and
// WriteAt (read-modify-write of partially covered pages).
func TestMemoryUnalignedIO(t *testing.T) {
	mem, err := Open(WithSeed(3), WithCacheCapacity(32))
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()

	msg := []byte("leap prefetches remote memory with majority trends")
	off := int64(5*RemotePageSize - 7) // straddles pages 4 and 5
	if n, err := mem.WriteAt(msg, off); err != nil || n != len(msg) {
		t.Fatalf("WriteAt = %d, %v", n, err)
	}
	got := make([]byte, len(msg))
	if n, err := mem.ReadAt(got, off); err != nil || n != len(got) {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("read %q, want %q", got, msg)
	}
	// Untouched memory reads as zeros.
	zero := make([]byte, 64)
	far := make([]byte, 64)
	if _, err := mem.ReadAt(far, 1<<30); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(far, zero) {
		t.Fatal("never-written memory did not read as zeros")
	}
}

// runScan drives a fixed access pattern through a fresh Memory with the
// named prefetcher and returns its stats.
func runScan(t *testing.T, pfName string, stride int64) MemoryStats {
	t.Helper()
	pf, err := NewPrefetcher(pfName)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := Open(WithSeed(11), WithCacheCapacity(256),
		WithPrefetcherFactory(func() Prefetcher { return pf }), WithQueueDepth(8))
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	const accesses = 4000
	const span = 1 << 20
	pg := PageID(0)
	for i := 0; i < accesses; i++ {
		if _, err := mem.Get(pg); err != nil {
			t.Fatalf("Get(%d): %v", pg, err)
		}
		pg = (pg + PageID(stride)) % span
	}
	return mem.Stats()
}

// TestMemoryLeapBeatsNone is the acceptance gate: over a real in-proc host,
// the Leap prefetcher achieves a strictly higher hit ratio than no
// prefetching on both the sequential and the stride workloads, and the
// comparison is reproducible from the fixed seed.
func TestMemoryLeapBeatsNone(t *testing.T) {
	for _, tc := range []struct {
		name   string
		stride int64
	}{
		{"sequential", 1},
		{"stride-10", 10},
	} {
		leap := runScan(t, "leap", tc.stride)
		none := runScan(t, "none", tc.stride)
		if leap.HitRatio <= none.HitRatio {
			t.Errorf("%s: leap hit ratio %.4f not strictly above none %.4f",
				tc.name, leap.HitRatio, none.HitRatio)
		}
		if leap.Accuracy == 0 || leap.Coverage == 0 {
			t.Errorf("%s: leap accuracy %.3f coverage %.3f, want > 0",
				tc.name, leap.Accuracy, leap.Coverage)
		}
		if none.PrefetchIssued != 0 {
			t.Errorf("%s: none issued %d prefetches", tc.name, none.PrefetchIssued)
		}
	}
}

// TestMemoryDeterminism replays the same run twice and expects identical
// stats and identical virtual end time.
func TestMemoryDeterminism(t *testing.T) {
	run := func() (MemoryStats, int64) {
		mem, err := Open(WithSeed(99), WithCacheCapacity(128), WithQueueDepth(4))
		if err != nil {
			t.Fatal(err)
		}
		defer mem.Close()
		buf := make([]byte, 3*RemotePageSize)
		for i := 0; i < 200; i++ {
			off := int64((i * 37) % 1024 * RemotePageSize)
			if _, err := mem.WriteAt(buf[:100], off); err != nil {
				t.Fatal(err)
			}
			if _, err := mem.ReadAt(buf, off); err != nil {
				t.Fatal(err)
			}
		}
		return mem.Stats(), int64(mem.Now())
	}
	a, ta := run()
	b, tb := run()
	if a != b {
		t.Fatalf("stats diverged:\n%+v\n%+v", a, b)
	}
	if ta != tb {
		t.Fatalf("virtual time diverged: %d vs %d", ta, tb)
	}
}

// TestMemorySharedLeapPrefetcher checks the predictor actually learns
// through the runtime's fault path: the window must grow under sequential
// hits (NoteHit feedback) and the predictor must have seen trends.
func TestMemorySharedLeapPrefetcher(t *testing.T) {
	lp := prefetch.NewLeap(PredictorConfig{})
	mem, err := Open(WithSeed(5), WithCacheCapacity(128),
		WithPrefetcherFactory(func() Prefetcher { return lp }))
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	for pg := PageID(0); pg < 2000; pg++ {
		if _, err := mem.Get(pg); err != nil {
			t.Fatal(err)
		}
	}
	st := lp.ProcessStats()[prefetch.PID(0)]
	if st.TrendHits == 0 {
		t.Fatal("sequential scan produced no trend detections")
	}
	if st.WindowGrowths == 0 {
		t.Fatal("prefetch hits produced no window growth")
	}
}
