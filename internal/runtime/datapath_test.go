package runtime

import (
	"bytes"
	"errors"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"leap/internal/core"
	"leap/internal/remote"
	"leap/internal/sim"
)

// batchGate is the script state of a link over an in-process agent for driving
// the runtime's pending-fill paths: every request reaches the agent at once
// and in order, but the response of a read batch — a prefetch window — can be
// held back, until release lets everything through or a pump lets responses
// go one at a time, or turned into a failure that only shows when the
// response is waited for. Single reads and writes always answer at once —
// unless the gate was told to hold acks, and then it is write frames whose
// responses are held, and read batches answer at once, or to gate demand
// reads, and then single reads are held (and failed) in place of read batches.
// The gate also keeps the pages of every read batch it was handed.
type batchGate struct {
	*remote.ScriptedLink
	slabPages int
	acks      bool        // hold write frames' responses, not read batches'
	both      bool        // with acks: hold read batches' as well
	demand    bool        // hold and fail single reads, not read batches
	holding   atomic.Bool // hold the gated frames' responses
	fail      atomic.Bool // fail the gated frames at Wait

	mu     sync.Mutex
	frames [][]core.PageID
}

// newBatchGate returns a gate over a link of mode (Split or Trains).
func newBatchGate(slabPages int, mode remote.Mode) *batchGate {
	g := &batchGate{slabPages: slabPages}
	g.ScriptedLink = remote.NewScriptedLink(remote.NewInProc(remote.NewAgent(slabPages, 0)), mode, nil, g.verdict)
	return g
}

var errGate = errors.New("batch gate: injected read-batch failure")

func (g *batchGate) verdict(req *remote.Request) (v remote.Verdict) {
	gated := req.Op == remote.OpReadBatch
	if gated {
		refs, _ := remote.DecodeReadBatch(req)
		pages := make([]core.PageID, len(refs))
		for i, r := range refs {
			pages[i] = core.PageID(int(r.Slab)*g.slabPages + int(r.PageOff))
		}
		g.mu.Lock()
		g.frames = append(g.frames, pages)
		g.mu.Unlock()
	}
	if g.demand {
		gated = req.Op == remote.OpRead
	}
	if gated && g.fail.Load() {
		v.Err = errGate
	}
	if g.acks {
		gated = g.both && gated || req.Op == remote.OpWrite || req.Op == remote.OpWriteBatch || req.Op == remote.OpWriteRanges
	}
	v.Hold = gated && g.holding.Load()
	return v
}

// release lets every held response through, and those of later frames too.
func (g *batchGate) release() {
	g.holding.Store(false)
	g.Release()
}

// pump is the link's Pump, whose stop releases the gate.
func (g *batchGate) pump(pick func(n int) int, observe func(held int)) (stop func()) {
	pumping := g.Pump(pick, observe)
	return func() {
		pumping()
		g.release()
	}
}

// readFrames returns the pages of every read batch sent so far, in order.
func (g *batchGate) readFrames() [][]core.PageID {
	g.mu.Lock()
	defer g.mu.Unlock()
	return slices.Clone(g.frames)
}

// image is the page image the tests below store in page pg.
func image(pg core.PageID) []byte {
	b := make([]byte, remote.PageSize)
	for i := range b {
		b[i] = byte(int(pg)*13 + i)
	}
	return b
}

// gatedMemory opens a Memory with a 64-page budget over one gated agent and
// stores image(pg) in pages [0, pages), so that the low pages live only on
// the agent. The host's clock stands still: the link is played by hand, and
// what the host makes of it must not depend on how long that took.
func gatedMemory(t *testing.T, pages int, opts ...Option) (*Memory, *batchGate) {
	t.Helper()
	g := newBatchGate(64, remote.Split)
	m, _ := memoryOver(t, remote.HostConfig{SlabPages: 64, Replicas: 1, QueueDepth: 8, Seed: 3}, []remote.Transport{g.Transport()},
		remote.NewFakeClock(), pages, append([]Option{WithCacheCapacity(64), WithSeed(11)}, opts...)...)
	t.Cleanup(g.release)
	return m, g
}

// memoryOver opens a Memory with opts over a host of cfg on trs, its depth
// estimator on clock when that is not nil, stores image(pg) in pages
// [0, pages) and flushes. Memory and host are closed with the test.
func memoryOver(tb testing.TB, cfg remote.HostConfig, trs []remote.Transport, clock *remote.FakeClock, pages int, opts ...Option) (*Memory, *remote.Host) {
	tb.Helper()
	h, err := remote.NewHost(cfg, trs)
	if err != nil {
		tb.Fatal(err)
	}
	if clock != nil {
		clock.Drive(h)
	}
	m, err := Open(append([]Option{WithRemoteHost(h)}, opts...)...)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		m.Close()
		h.Close()
	})
	for pg := core.PageID(0); pg < core.PageID(pages); pg++ {
		if _, err := m.WriteAt(image(pg), int64(pg)*remote.PageSize); err != nil {
			tb.Fatal(err)
		}
	}
	if err := m.Flush(); err != nil {
		tb.Fatal(err)
	}
	return m, h
}

// checkPage reads pg through the fault path and compares it with image(pg).
func checkPage(t *testing.T, m *Memory, pg core.PageID) {
	t.Helper()
	got := make([]byte, remote.PageSize)
	if err := m.getInto(0, pg, got); err != nil {
		t.Fatalf("page %d: %v", pg, err)
	}
	if !bytes.Equal(got, image(pg)) {
		t.Fatalf("page %d: wrong bytes", pg)
	}
}

// TestRecycledFrameIsNotFilledLate is the fill invariant's sharp edge: a
// prefetch window is on the wire, one of its pages is cancelled and another
// evicted from the cache before the response arrives, and both frames are
// reused. The late response must be dropped for those two, not copied into
// the frames' new contents, and must still fill the rest of the window.
func TestRecycledFrameIsNotFilledLate(t *testing.T) {
	m, g := gatedMemory(t, 192)
	g.holding.Store(true)
	if err := m.Client(0).Advise(AdviseWillNeed, 20, 8); err != nil {
		t.Fatal(err)
	}
	s := m.shardFor(20)
	s.mu.Lock()
	var old [2]*frame
	for i, pg := range []core.PageID{20, 21} {
		f, ok := s.frames.Get(pg)
		if !ok || f.fill == nil {
			t.Fatalf("page %d: no frame with a pending fill after the window was issued", pg)
		}
		old[i] = f
	}
	// Page 20 is cancelled while the model still has it in flight; page 21
	// is evicted after the model has landed it in the cache.
	s.abandonPrefetch(20)
	s.eng.FlushArrivals(m.clock.Advance(10 * sim.Millisecond))
	if !s.eng.Cache().Contains(21) {
		t.Fatal("page 21 did not land in the model's cache")
	}
	s.eng.Cache().Drop(21)
	if s.frames.Contains(20) || s.frames.Contains(21) {
		t.Fatal("cancelled/evicted pages kept their frames")
	}
	// The two frames come straight back off the free list for other pages.
	reused := [2]*frame{s.newFrame(), s.newFrame()}
	if !(reused[0] == old[1] && reused[1] == old[0]) {
		t.Fatal("test premise: the freed frames were not the next ones reused")
	}
	for _, f := range reused {
		for i := range f.data {
			f.data[i] = 0xAB
		}
	}
	s.mu.Unlock()

	g.release()
	if err := m.Flush(); err != nil { // barrier: the window's response has landed
		t.Fatal(err)
	}
	s.mu.Lock()
	for _, f := range reused {
		for i, b := range f.data {
			if b != 0xAB {
				t.Fatalf("late response overwrote a recycled frame at byte %d", i)
			}
		}
		s.freeFrame(f)
	}
	s.mu.Unlock()
	for pg := core.PageID(20); pg < 28; pg++ {
		checkPage(t, m, pg) // 20 and 21 by demand, the rest from their fills
	}
	if err := m.CheckShardInvariants(192); err != nil {
		t.Fatal(err)
	}
}

// TestFailedWindowFillFallsBackToDemand: the window's read batch fails, and
// nobody knows until its response is reaped. Each access to a window page
// then finds the failed fill before the engine sees the access, abandons the
// prefetch and takes a demand miss — right bytes, nothing latched, and the
// counters still add up.
func TestFailedWindowFillFallsBackToDemand(t *testing.T) {
	m, g := gatedMemory(t, 192)
	g.fail.Store(true)
	before := m.Stats()
	if err := m.Client(0).Advise(AdviseWillNeed, 30, 8); err != nil {
		t.Fatal(err)
	}
	// Some of the window is consumed while the model has it in flight,
	// the rest after the model landed it in the cache.
	for pg := core.PageID(30); pg < 34; pg++ {
		checkPage(t, m, pg)
	}
	m.clock.Advance(10 * sim.Millisecond)
	for pg := core.PageID(34); pg < 38; pg++ {
		checkPage(t, m, pg)
	}
	g.fail.Store(false)
	if err := m.Flush(); err != nil {
		t.Fatalf("a failed prefetch read latched the Memory: %v", err)
	}
	st := m.Stats()
	accesses := st.Accesses - before.Accesses
	faults := st.Faults - before.Faults
	resident := st.ResidentHits - before.ResidentHits
	served := (st.CacheHits - before.CacheHits) + (st.InflightHits - before.InflightHits) + (st.Misses - before.Misses)
	if accesses != 8 || accesses != resident+faults || faults != served {
		t.Fatalf("counters not conserved: accesses %d = resident %d + faults %d; faults = %d served",
			accesses, resident, faults, served)
	}
	if misses := st.Misses - before.Misses; misses < 8 {
		// The predictor's own windows fail too while the gate fails
		// batches, so every one of the eight accesses ends as a miss.
		t.Fatalf("%d demand misses for 8 failed fills", misses)
	}
	if err := m.CheckShardInvariants(192); err != nil {
		t.Fatal(err)
	}
}

// singleFlight parks one goroutine's demand read of page 5 at the gate and then
// sends two more goroutines after the same page: it returns once both sleep on
// the first one's fault, with a channel carrying the three accesses' outcomes.
// Client 0's window is advised away, so the demand read is the access's only one.
func singleFlight(t *testing.T, m *Memory, g *batchGate) <-chan error {
	t.Helper()
	const pg = 5
	if err := m.Client(0).Advise(AdviseRandom, 0, 192); err != nil {
		t.Fatal(err)
	}
	g.holding.Store(true)
	before := m.Stats()
	done := make(chan error, 3)
	access := func() {
		got := make([]byte, remote.PageSize)
		err := m.getInto(0, pg, got)
		if err == nil && !bytes.Equal(got, image(pg)) {
			err = errors.New("wrong bytes")
		}
		done <- err
	}
	go access()
	g.AwaitWaiters(1)
	go access()
	go access()
	for m.Stats().DemandWaits-before.DemandWaits < 2 {
		time.Sleep(100 * time.Microsecond)
	}
	if st := m.Stats(); st.Host.Reads-before.Host.Reads != 1 || st.Misses-before.Misses != 1 {
		t.Errorf("three faults on one page: %d host reads, %d misses, want 1 and 1",
			st.Host.Reads-before.Host.Reads, st.Misses-before.Misses)
	}
	return done
}

// TestSingleFlightSleepsOnFaulting: a fault that finds its page in another
// goroutine's fault — there to be seen because a demand read leaves the stripe
// lock — counts a demand wait and sleeps, puts no second read on the wire, and
// wakes to the page once the owner has mapped it in.
func TestSingleFlightSleepsOnFaulting(t *testing.T) {
	m, g := gatedMemory(t, 192)
	g.demand = true
	before := m.Stats()
	done := singleFlight(t, m, g)
	g.release()
	for i := 0; i < 3; i++ {
		if err := <-done; err != nil {
			t.Errorf("access %d: %v", i, err)
		}
	}
	st := m.Stats()
	if waits, reads := st.DemandWaits-before.DemandWaits, st.Host.Reads-before.Host.Reads; waits != 2 || reads != 1 {
		t.Errorf("%d demand waits and %d host reads, want 2 and 1", waits, reads)
	}
	if err := m.CheckShardInvariants(192); err != nil {
		t.Fatal(err)
	}
}

// TestSingleFlightWaitersWakeOnUnwind: the demand read the waiters sleep on
// fails on every replica. The owner unwinds and wakes them; each then faults
// for itself and fails the same way, nobody hangs and nothing latches, and the
// page faults cleanly once the failure is lifted.
func TestSingleFlightWaitersWakeOnUnwind(t *testing.T) {
	m, g := gatedMemory(t, 192)
	g.demand = true
	g.fail.Store(true)
	done := singleFlight(t, m, g)
	g.release()
	for i := 0; i < 3; i++ {
		if err := <-done; !errors.Is(err, errGate) {
			t.Errorf("access %d: %v, want the injected read failure", i, err)
		}
	}
	g.fail.Store(false)
	checkPage(t, m, 5)
	if err := m.Flush(); err != nil {
		t.Fatalf("a failed demand read latched the Memory: %v", err)
	}
	if err := m.CheckShardInvariants(192); err != nil {
		t.Fatal(err)
	}
}

// delayLine is a server-side connection whose writes arrive one delay late:
// each Write is queued with a due time and a writer goroutine releases it
// then, so back-to-back responses are each delayed, not serialised — a
// link's propagation delay.
type delayLine struct {
	net.Conn
	delay *atomic.Int64 // nanoseconds, switchable while connected
	line  chan delayed
}

type delayed struct {
	data []byte
	due  time.Time
}

func newDelayLine(c net.Conn, d *atomic.Int64) *delayLine {
	// Far deeper than a fault's two outstanding responses: the line never
	// pushes back on the agent.
	l := &delayLine{Conn: c, delay: d, line: make(chan delayed, 64)}
	go func() {
		for w := range l.line {
			time.Sleep(time.Until(w.due))
			if _, err := c.Write(w.data); err != nil {
				return
			}
		}
	}()
	return l
}

func (l *delayLine) Write(p []byte) (int, error) {
	l.line <- delayed{append([]byte(nil), p...), time.Now().Add(time.Duration(l.delay.Load()))}
	return len(p), nil
}

func (l *delayLine) Close() error {
	close(l.line)
	return l.Conn.Close()
}

type delayListener struct {
	net.Listener
	delay *atomic.Int64
}

func (l delayListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return newDelayLine(c, l.delay), nil
}

// TestDemandReadAndWindowShareARoundTrip is the point of the split-phase
// datapath, on the stopwatch: over a link that delivers every response 30 ms
// late, a miss and the first page of the window behind it cost one delay — the
// demand read and the window's frame are on the wire together — where the
// stop-and-wait datapath paid two (demand read, then the window's batch).
func TestDemandReadAndWindowShareARoundTrip(t *testing.T) {
	const delay = 30 * time.Millisecond
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var lineDelay atomic.Int64 // set-up runs undelayed
	go remote.NewAgent(256, 0).Serve(delayListener{l, &lineDelay})
	tr, err := remote.DialTCP(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	h, err := remote.NewHost(remote.HostConfig{SlabPages: 256, Replicas: 1, QueueDepth: 8, Seed: 3},
		[]remote.Transport{tr})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	m, err := Open(WithRemoteHost(h), WithCacheCapacity(64), WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for pg := core.PageID(0); pg < 256; pg++ {
		if _, err := m.WriteAt(image(pg), int64(pg)*remote.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	// Before timing, let the predictor settle on the scan and the scan push
	// out the 64 pages populate left resident and dirty: a writeback queued
	// ahead of a window is pushed first (writes are not asynchronous yet) and
	// would cost the window its overlap.
	for pg := core.PageID(0); pg < 112; pg++ {
		checkPage(t, m, pg)
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	lineDelay.Store(int64(delay))
	// The scan resumes beyond anything it has prefetched: one miss, whose
	// window the established trend sizes, and then a page of that window.
	before := m.Stats()
	t0 := time.Now()
	checkPage(t, m, 192)
	checkPage(t, m, 193)
	elapsed := time.Since(t0)
	st := m.Stats()
	misses := st.Misses - before.Misses
	windows := st.Host.BatchCalls - before.Host.BatchCalls
	if misses != 1 || windows < 1 || st.InflightHits+st.CacheHits == before.InflightHits+before.CacheHits {
		t.Fatalf("test premise: %d misses, %d window frames, %+v", misses, windows, st)
	}
	delays := elapsed.Seconds() / delay.Seconds()
	t.Logf("a miss and a page of its window: %v, %.2f link delays", elapsed, delays)
	if delays >= 1.6 {
		t.Errorf("a miss and its window cost %.2f link delays, want < 1.6 (2 without overlap)", delays)
	}
	// From here on the scan is fed from its hits: no further miss.
	for pg := core.PageID(194); pg < 250; pg++ {
		checkPage(t, m, pg)
	}
	if again := m.Stats().Misses - st.Misses; again != 0 {
		t.Errorf("%d misses over the 56 pages after the ramp, want 0", again)
	}
}
