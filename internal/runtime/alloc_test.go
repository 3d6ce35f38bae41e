package runtime

import (
	"bytes"
	"math/rand"
	goruntime "runtime"
	"testing"

	"leap/internal/core"
	"leap/internal/remote"
)

// TestScanSteadyStateAllocBytes holds the bytes the whole remote data path
// allocates per page — fault path, host engine, transport, and both agents,
// which are served in this process over loopback TCP — to a ceiling on the
// three access patterns of bench/: a page costs its copies and its syscalls,
// not a buffer, nor a read, a flight, a pending or a response, which are
// recycled (remote.Ticket). What is left is a free list or a map growing to a
// new high-water mark now and then. (Before the wire path recycled its buffers
// the three read 5.6 KB, 4.9 KB and 15.7 KB; before it recycled its reads,
// flights, pendings and responses, 294 B, 679 B and 436 B.) And its share of a syscall
// at that: on the two scans a socket write carries a train of frames
// (remote.Host.Doorbells), the store scan's writebacks riding the read stream's
// trains, where a random read's demand frame leaves alone and at once.
func TestScanSteadyStateAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const pages, capacity = 4096, 512
	m, h := loopbackCluster(t, pages, capacity)

	buf, want := make([]byte, remote.PageSize), make([]byte, remote.PageSize)
	read := func(pg core.PageID) {
		if err := m.getInto(0, pg, buf); err != nil {
			t.Fatalf("page %d: %v", pg, err)
		}
		for i := range want {
			want[i] = byte(int(pg)*13 + i)
		}
		if !bytes.Equal(buf[64:], want[64:]) { // the store scan rewrites the first 64 bytes
			t.Fatalf("page %d: wrong bytes", pg)
		}
	}
	store := func(pg core.PageID) {
		if _, err := m.WriteAt(want[:64], int64(pg)*remote.PageSize); err != nil {
			t.Fatalf("page %d: %v", pg, err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct {
		name    string
		ceiling float64
		train   float64 // frames a socket write carries, at least
		access  func(i int)
	}{
		{"sequential read", 256, 1.8, func(i int) { read(core.PageID(i % pages)) }},
		{"random read", 8, 1, func(int) { read(core.PageID(rng.Intn(pages))) }},
		{"sequential 64-byte store", 48, 3.5, func(i int) { store(core.PageID(i % pages)) }},
	} {
		// A lap to settle the predictor, the pipeline depth and every free
		// list on this pattern; two to measure.
		for i := 0; i < pages; i++ {
			c.access(i)
		}
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		writes0, frames0 := h.Doorbells()
		for i := 0; i < 2*pages; i++ {
			c.access(i)
		}
		writes, frames := h.Doorbells()
		goruntime.ReadMemStats(&after)
		perPage := float64(after.TotalAlloc-before.TotalAlloc) / (2 * pages)
		train := float64(frames-frames0) / float64(writes-writes0)
		t.Logf("%s: %.0f B allocated per access, %.2f frames per socket write", c.name, perPage, train)
		if perPage > c.ceiling {
			t.Errorf("%s: %.0f B allocated per access, want at most %.0f", c.name, perPage, c.ceiling)
		}
		if train < c.train {
			t.Errorf("%s: %.2f frames per socket write, want at least %.1f", c.name, train, c.train)
		}
	}
}
