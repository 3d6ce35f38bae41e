package runtime

import (
	"math/rand"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"leap/internal/core"
	"leap/internal/remote"
)

// delayedLink returns a link of mode over an in-process agent on the wall
// clock: its responses are due the link's delay after their request was
// started, the agent answering at once and Wait sleeping out the rest, so
// requests outstanding together wait together — a link's propagation delay,
// with no socket.
func delayedLink(mode remote.Mode) *remote.ScriptedLink {
	return remote.NewScriptedLink(remote.NewInProc(remote.NewAgent(1024, 0)), mode, nil, nil)
}

// delayedScan opens a Memory with a budget of capacity pages over the delayed
// link l, stores image(pg) in pages [0, pages) and scans them: a lap undelayed,
// which settles the predictor and pushes out populate's dirty residue, then a
// quarter lap delayed by delay, which lets the host measure the link. It
// returns the host and the scan's next access. Memory and host are closed with
// the test.
func delayedScan(tb testing.TB, l *remote.ScriptedLink, delay time.Duration, capacity, pages int) (*remote.Host, func()) {
	tb.Helper()
	m, h := memoryOver(tb, remote.HostConfig{SlabPages: 1024, Replicas: 1, QueueDepth: 8, Seed: 1}, []remote.Transport{l.Transport()},
		nil, pages, WithCacheCapacity(capacity), WithSeed(1))
	buf, pg := make([]byte, remote.PageSize), core.PageID(0)
	next := func() {
		if err := m.getInto(0, pg, buf); err != nil {
			tb.Fatal(err)
		}
		if pg++; pg == core.PageID(pages) {
			pg = 0
		}
	}
	for i := 0; i < pages+pages/4; i++ {
		if i == pages {
			l.SetTiming(delay, 0, 0)
		}
		next()
	}
	return h, next
}

// BenchmarkScanDelayedLink is the overlap's microbenchmark: one goroutine
// scans a data set 8x its local budget over a link that answers a fixed delay
// late — none, the 50 us and 1 ms of ROADMAP item 1's gate, and 200 us between
// them. Stop-and-wait pays the delay once per window of nine pages; run-ahead
// pays it once per pipeline, and the host sizes the pipeline from the delay it
// measures, so the scan's rate should hardly depend on it: pages/s is that
// rate, pages-in-flight the mean of what was in the air after each access, and
// depth the mean of what the host allowed (remote.Host.Pipeline) — a stream
// held at its stripe's cap shows as pages in flight at the cap, below depth.
func BenchmarkScanDelayedLink(b *testing.B) {
	for _, c := range []struct {
		name  string
		delay time.Duration
	}{{"0", 0}, {"50us", 50 * time.Microsecond}, {"200us", 200 * time.Microsecond}, {"1ms", time.Millisecond}} {
		b.Run(c.name, func(b *testing.B) { benchScanDelayedLink(b, c.delay) })
	}
}

func benchScanDelayedLink(b *testing.B, delay time.Duration) {
	h, next := delayedScan(b, delayedLink(remote.Split), delay, 1024, 8192)
	b.ReportAllocs()
	var p pipelineMeans
	for b.Loop() {
		next()
		p.sample(h)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pages/s")
	p.report(b)
}

// pipelineMeans sums what Host.Pipeline reports, one sample an access.
type pipelineMeans struct{ n, depth, flying, peak int }

func (p *pipelineMeans) sample(h *remote.Host) {
	depth, flying, _ := h.Pipeline()
	p.n, p.depth, p.flying, p.peak = p.n+1, p.depth+depth, p.flying+flying, max(p.peak, flying)
}

func (p *pipelineMeans) meanDepth() float64  { return float64(p.depth) / float64(p.n) }
func (p *pipelineMeans) meanFlying() float64 { return float64(p.flying) / float64(p.n) }

func (p *pipelineMeans) report(b *testing.B) {
	b.ReportMetric(p.meanFlying(), "pages-in-flight")
	b.ReportMetric(p.meanDepth(), "depth")
}

// BenchmarkStoreScanDelayedLink is the write side's measuring stick (ROADMAP
// item 1(d)): one goroutine stores into every page of a data set 8x its local
// budget, replicated on two links that answer a fixed delay late, so that each
// access faults a page in and evicts a dirty one. A 64-byte store dirties 64
// bytes of its page, a 4 KB store all of it: wire-B/page is what both links
// carried per access, requests and responses, headers included.
func BenchmarkStoreScanDelayedLink(b *testing.B) {
	for _, d := range []struct {
		name  string
		delay time.Duration
	}{{"0", 0}, {"200us", 200 * time.Microsecond}, {"1ms", time.Millisecond}} {
		for _, s := range []struct {
			name string
			size int
		}{{"64B", 64}, {"4KB", remote.PageSize}} {
			b.Run(d.name+"/"+s.name, func(b *testing.B) { benchStoreScanDelayedLink(b, d.delay, s.size) })
		}
	}
}

// replicatedOverDelayedLinks opens a Memory with a budget of 1024 pages over
// two delayed links, both replicas of everything, stores image(pg) in pages
// [0, pages) and flushes. Memory and host are closed with the benchmark.
func replicatedOverDelayedLinks(b *testing.B, pages int) (*Memory, []*remote.ScriptedLink) {
	b.Helper()
	links := []*remote.ScriptedLink{delayedLink(remote.Split), delayedLink(remote.Split)}
	m, _ := memoryOver(b, remote.HostConfig{SlabPages: 1024, Replicas: 2, QueueDepth: 8, Seed: 1},
		[]remote.Transport{links[0].Transport(), links[1].Transport()}, nil, pages, WithCacheCapacity(1024), WithSeed(1))
	return m, links
}

func benchStoreScanDelayedLink(b *testing.B, delay time.Duration, size int) {
	const pages = 8192
	m, links := replicatedOverDelayedLinks(b, pages)
	// As in the read scan: a lap undelayed, a quarter lap on the delayed links.
	data := image(1)[:size]
	pg := core.PageID(0)
	store := func() {
		if _, err := m.WriteAt(data, int64(pg)*remote.PageSize); err != nil {
			b.Fatal(err)
		}
		if pg++; pg == pages {
			pg = 0
		}
	}
	for i := 0; i < pages+pages/4; i++ {
		if i == pages {
			for _, l := range links {
				l.SetTiming(delay, 0, 0)
			}
		}
		store()
	}
	b.ReportAllocs()
	wire := func() int64 {
		_, _, w0 := links[0].Traffic()
		_, _, w1 := links[1].Traffic()
		return w0 + w1
	}
	wire0 := wire()
	for b.Loop() {
		store()
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pages/s")
	b.ReportMetric(float64(wire()-wire0)/float64(b.N), "wire-B/page")
}

// BenchmarkMixDelayedLink is the two scans side by side (ROADMAP item 1(d)):
// one goroutine reads through the lower half of a data set 8x the local budget
// while another stores 64 bytes into every page of the upper half, over the
// store scan's two replicated links. An op is one access of either: pages/s is
// both goroutines' together, and stores/read how many stores the writer got
// through per read — what a read stream leaves a write stream next to it, and
// the other way round.
func BenchmarkMixDelayedLink(b *testing.B) {
	for _, d := range []struct {
		name  string
		delay time.Duration
	}{{"0", 0}, {"1ms", time.Millisecond}} {
		b.Run(d.name, func(b *testing.B) { benchMixDelayedLink(b, d.delay) })
	}
}

func benchMixDelayedLink(b *testing.B, delay time.Duration) {
	const pages, half = 8192, 4096
	m, links := replicatedOverDelayedLinks(b, pages)
	buf, data := make([]byte, remote.PageSize), image(1)[:64]
	rd, wr := core.PageID(0), core.PageID(half)
	read := func() {
		if err := m.getInto(1, rd, buf); err != nil {
			b.Error(err)
		}
		if rd++; rd == half {
			rd = 0
		}
	}
	store := func() {
		if _, err := m.Client(2).WriteAt(data, int64(wr)*remote.PageSize); err != nil {
			b.Error(err)
		}
		if wr++; wr == pages {
			wr = half
		}
	}
	// As in the scans: a lap of each undelayed, a quarter lap on the delayed links.
	for i := 0; i < half+half/4; i++ {
		if i == half {
			for _, l := range links {
				l.SetTiming(delay, 0, 0)
			}
		}
		read()
		store()
	}
	var stop atomic.Bool
	stores, done := 0, make(chan struct{})
	b.ReportAllocs()
	b.ResetTimer()
	go func() {
		defer close(done)
		for !stop.Load() {
			store()
			stores++
		}
	}()
	for i := 0; i < b.N; i++ {
		read()
	}
	stop.Store(true)
	<-done
	b.StopTimer()
	b.ReportMetric(float64(b.N+stores)/b.Elapsed().Seconds(), "pages/s")
	b.ReportMetric(float64(stores)/float64(b.N), "stores/read")
}

// loopbackCluster is bench/'s cluster inside this process: two agents served on
// loopback TCP, both replicas of everything, frames of eight, and a Memory with
// a budget of capacity pages over them, image(pg) stored in pages [0, pages)
// and flushed. Everything is closed with the test.
func loopbackCluster(tb testing.TB, pages, capacity int) (*Memory, *remote.Host) {
	tb.Helper()
	transports := make([]remote.Transport, 2)
	for i := range transports {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { l.Close() })
		go remote.NewAgent(1024, 0).Serve(l)
		if transports[i], err = remote.DialTCP(l.Addr().String()); err != nil {
			tb.Fatal(err)
		}
	}
	return memoryOver(tb, remote.HostConfig{SlabPages: 1024, Replicas: 2, QueueDepth: 8, Seed: 1}, transports,
		nil, pages, WithCacheCapacity(capacity), WithQueueDepth(8), WithSeed(1))
}

// BenchmarkScanLoopbackTCP is bench/'s seq_read inside the tree: one goroutine
// reads through 16384 pages, 16x its local budget, over the loopback cluster.
// Beside pages/s it reports what the library says of its doorbells — the frames
// a socket write carried (remote.Host.Doorbells) — what holding issue back for
// them cost the reader, the wait of late prefetch hits per page, and the
// pipeline's means as BenchmarkScanDelayedLink has them.
func BenchmarkScanLoopbackTCP(b *testing.B) { benchLoopbackTCP(b, false) }

// BenchmarkStoreScanLoopbackTCP is bench/'s seq_write: a 64-byte store into
// every page, so that each access faults a page in and evicts a dirty one.
func BenchmarkStoreScanLoopbackTCP(b *testing.B) { benchLoopbackTCP(b, true) }

// BenchmarkRandLoopbackTCP is bench/'s rand_read: reads of pages drawn
// uniformly from the 16384, so that nearly every access is a demand miss
// paying one round trip, with no prefetch or batch frame to share it.
func BenchmarkRandLoopbackTCP(b *testing.B) {
	const pages = 16384
	m, _ := loopbackCluster(b, pages, 1024)
	buf, rng := make([]byte, remote.PageSize), rand.New(rand.NewSource(1))
	for i := 0; i < pages/2; i++ { // settles the free lists
		if err := m.getInto(0, core.PageID(rng.Intn(pages)), buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	for b.Loop() {
		if err := m.getInto(0, core.PageID(rng.Intn(pages)), buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pages/s")
}

func benchLoopbackTCP(b *testing.B, store bool) {
	const pages = 16384
	m, h := loopbackCluster(b, pages, 1024)
	buf, data := make([]byte, remote.PageSize), image(1)[:64]
	pg := core.PageID(0)
	access := func() {
		var err error
		if store {
			_, err = m.WriteAt(data, int64(pg)*remote.PageSize)
		} else {
			err = m.getInto(0, pg, buf)
		}
		if err != nil {
			b.Fatal(err)
		}
		if pg++; pg == pages {
			pg = 0
		}
	}
	for i := 0; i < pages/2; i++ { // settles the predictor, the pipeline depth and the free lists
		access()
	}
	b.ReportAllocs()
	writes0, frames0 := h.Doorbells()
	late0 := m.Stats().PrefetchLateWait
	var p pipelineMeans
	for b.Loop() {
		access()
		p.sample(h)
	}
	writes, frames := h.Doorbells()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pages/s")
	b.ReportMetric(float64(frames-frames0)/float64(writes-writes0), "frames/write")
	b.ReportMetric(float64(m.Stats().PrefetchLateWait-late0)/float64(b.N), "late-wait-ns/page")
	p.report(b)
}
