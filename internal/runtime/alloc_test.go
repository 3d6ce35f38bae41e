package runtime

import (
	"bytes"
	"math/rand"
	"net"
	goruntime "runtime"
	"testing"

	"leap/internal/core"
	"leap/internal/remote"
)

// TestScanSteadyStateAllocBytes holds the bytes the whole remote data path
// allocates per page — fault path, host engine, transport, and both agents,
// which are served in this process over loopback TCP — to a ceiling on the
// three access patterns of bench/: a page costs its copies and its syscalls,
// not a buffer. (Before the wire path recycled its buffers the three read
// 5.6 KB, 4.9 KB and 15.7 KB.)
func TestScanSteadyStateAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const pages, capacity = 4096, 512
	transports := make([]remote.Transport, 2)
	for i := range transports {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		go remote.NewAgent(1024, 0).Serve(l)
		if transports[i], err = remote.DialTCP(l.Addr().String()); err != nil {
			t.Fatal(err)
		}
	}
	h, err := remote.NewHost(remote.HostConfig{SlabPages: 1024, Replicas: 2, QueueDepth: 8, Seed: 1}, transports)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	m, err := Open(WithRemoteHost(h), WithCacheCapacity(capacity), WithQueueDepth(8), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for pg := core.PageID(0); pg < pages; pg++ {
		if _, err := m.WriteAt(image(pg), int64(pg)*remote.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}

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
		access  func(i int)
	}{
		{"sequential read", 1024, func(i int) { read(core.PageID(i % pages)) }},
		{"random read", 1024, func(int) { read(core.PageID(rng.Intn(pages))) }},
		{"sequential 64-byte store", 2560, func(i int) { store(core.PageID(i % pages)) }},
	} {
		// A lap to settle the predictor, the pipeline depth and every free
		// list on this pattern; two to measure.
		for i := 0; i < pages; i++ {
			c.access(i)
		}
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		for i := 0; i < 2*pages; i++ {
			c.access(i)
		}
		goruntime.ReadMemStats(&after)
		perPage := float64(after.TotalAlloc-before.TotalAlloc) / (2 * pages)
		t.Logf("%s: %.0f B allocated per access", c.name, perPage)
		if perPage > c.ceiling {
			t.Errorf("%s: %.0f B allocated per access, want at most %.0f", c.name, perPage, c.ceiling)
		}
	}
}
