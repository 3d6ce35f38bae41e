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

// batchGate is a split-phase transport over an in-process agent for driving
// the runtime's pending-fill paths: every request reaches the agent at once
// and in order, but the response of a read batch — a prefetch window — can be
// held back, until release lets everything through or a pump lets responses
// go one at a time, or turned into a failure that only shows when the
// response is waited for. Single reads and writes always answer at once —
// unless the gate was told to hold acks, and then it is write frames whose
// responses are held, and read batches answer at once, or to gate demand
// reads, and then single reads are held (and failed) in place of read batches.
// The gate also keeps the pages of every read batch it was handed, and watches
// the order its pendings are waited for in: a link answers in order, and the
// host is to land a link's flights in the order it started them.
type batchGate struct {
	inner     *remote.InProc
	slabPages int
	acks      bool // hold write frames' responses, not read batches'
	both      bool // with acks: hold read batches' as well
	demand    bool // hold and fail single reads, not read batches

	mu      sync.Mutex
	cond    *sync.Cond
	holding bool
	fail    bool
	held    []*gatePending // frames whose response is held back, oldest first
	waiting int            // goroutines in Wait on a held response
	frames  [][]core.PageID
	// issued numbers the pendings Start gave out, and every one below waited has
	// been waited for; skipped counts the Waits that passed over an older one.
	issued, waited, skipped int
}

func newBatchGate(slabPages int) *batchGate {
	g := &batchGate{inner: remote.NewInProc(remote.NewAgent(slabPages, 0)), slabPages: slabPages}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// hold holds read-batch responses back from now on.
func (g *batchGate) hold() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.holding = true
}

// release lets every held response through, and those of later batches too.
func (g *batchGate) release() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.holding = false
	for len(g.held) > 0 {
		g.letGo(0)
	}
}

// letGo lets the i-th oldest held response through. Callers hold g.mu.
func (g *batchGate) letGo(i int) {
	p := g.held[i]
	g.held = slices.Delete(g.held, i, i+1)
	p.held = false
	g.waiting -= p.waiters
	g.cond.Broadcast()
}

// pump plays the link while the gate holds: whenever a goroutine waits for a
// held response it lets one through — the pick(n)-th oldest of the n held, so
// a constant 0 is a FIFO link and a seeded draw delivers in any order — after
// telling observe how many were held. The returned stop ends the pump and
// releases the gate.
func (g *batchGate) pump(pick func(n int) int, observe func(held int)) (stop func()) {
	stopped, done := false, make(chan struct{})
	go func() {
		defer close(done)
		g.mu.Lock()
		defer g.mu.Unlock()
		for {
			for !stopped && (g.waiting == 0 || len(g.held) == 0) {
				g.cond.Wait()
			}
			if stopped {
				return
			}
			observe(len(g.held))
			g.letGo(pick(len(g.held)))
		}
	}()
	return func() {
		g.mu.Lock()
		stopped = true
		g.cond.Broadcast()
		g.mu.Unlock()
		<-done
		g.release()
	}
}

// awaitWaiters returns once n goroutines are waiting for held responses.
func (g *batchGate) awaitWaiters(n int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.waiting < n {
		g.cond.Wait()
	}
}

// failBatches makes read batches (single reads, on a gate of demand reads)
// fail at Wait.
func (g *batchGate) failBatches(on bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.fail = on
}

// readFrames returns the pages of every read batch started so far, in order.
func (g *batchGate) readFrames() [][]core.PageID {
	g.mu.Lock()
	defer g.mu.Unlock()
	return slices.Clone(g.frames)
}

type gatePending struct {
	g    *batchGate
	seq  int // its number among the gate's Starts
	resp *remote.Response
	err  error
	// held and waiters (goroutines in Wait while held) are guarded by g.mu.
	held    bool
	waiters int
}

func (p *gatePending) Wait() (*remote.Response, error) {
	g := p.g
	g.mu.Lock()
	defer g.mu.Unlock()
	switch {
	case p.seq == g.waited:
		g.waited++
	case p.seq > g.waited:
		g.skipped++
	}
	if p.held {
		p.waiters++
		g.waiting++
		g.cond.Broadcast()
		for p.held {
			g.cond.Wait()
		}
	}
	return p.resp, p.err
}

var errGate = errors.New("batch gate: injected read-batch failure")

func (g *batchGate) Start(req *remote.Request) (remote.Pending, error) {
	resp, err := g.inner.Call(req)
	p := &gatePending{g: g, resp: resp, err: err}
	var pages []core.PageID
	if req.Op == remote.OpReadBatch {
		refs, derr := remote.DecodeReadBatch(req)
		if derr != nil {
			return nil, derr
		}
		pages = make([]core.PageID, len(refs))
		for i, r := range refs {
			pages[i] = core.PageID(int(r.Slab)*g.slabPages + int(r.PageOff))
		}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	p.seq = g.issued
	g.issued++
	gated := req.Op == remote.OpReadBatch
	if gated {
		g.frames = append(g.frames, pages)
	}
	if g.demand {
		gated = req.Op == remote.OpRead
	}
	if gated && g.fail {
		p.resp, p.err = nil, errGate
	}
	if g.acks {
		gated = g.both && gated || req.Op == remote.OpWrite || req.Op == remote.OpWriteBatch || req.Op == remote.OpWriteRanges
	}
	if gated && g.holding {
		p.held = true
		g.held = append(g.held, p)
	}
	return p, nil
}

// Call is a round trip of its own, outside the order of the Starts: the agent
// is called directly.
func (g *batchGate) Call(req *remote.Request) (*remote.Response, error) {
	return g.inner.Call(req)
}

// trainGate is a batchGate that moves trains: a frame started with more to
// follow is kept — a copy, the host encodes its next frame over the request —
// and reaches the agent only when its train leaves, with the next frame started
// without more, a Call, or the first Wait for a frame of it.
type trainGate struct {
	*batchGate
	tmu  sync.Mutex
	held []*trainPending
}

type trainPending struct {
	g    *trainGate
	req  *remote.Request
	sent remote.Pending // nil while held
}

func (g *trainGate) StartTrain(req *remote.Request, more bool) (remote.Pending, error) {
	g.tmu.Lock()
	defer g.tmu.Unlock()
	p := &trainPending{g: g, req: &remote.Request{Op: req.Op, Slab: req.Slab, PageOff: req.PageOff, Payload: bytes.Clone(req.Payload)}}
	g.held = append(g.held, p)
	if !more {
		g.send()
	}
	return p, nil
}

// send hands the held frames to the agent, in order. Callers hold g.tmu.
func (g *trainGate) send() {
	for _, p := range g.held {
		var err error
		if p.sent, err = g.batchGate.Start(p.req); err != nil {
			p.sent = failedPending{err}
		}
	}
	g.held = nil
}

type failedPending struct{ err error }

func (p failedPending) Wait() (*remote.Response, error) { return nil, p.err }

func (p *trainPending) Wait() (*remote.Response, error) {
	p.g.tmu.Lock()
	if p.sent == nil {
		p.g.send()
	}
	p.g.tmu.Unlock()
	return p.sent.Wait()
}

func (g *trainGate) Start(req *remote.Request) (remote.Pending, error) {
	return g.StartTrain(req, false)
}

func (g *trainGate) Call(req *remote.Request) (*remote.Response, error) {
	g.tmu.Lock()
	g.send()
	g.tmu.Unlock()
	return g.batchGate.Call(req)
}

// outOfOrder reports how many Waits passed over an older pending.
func (g *batchGate) outOfOrder() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.skipped
}

func (g *batchGate) Close() error { return nil }

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
	g := newBatchGate(64)
	h, err := remote.NewHost(remote.HostConfig{SlabPages: 64, Replicas: 1, QueueDepth: 8, Seed: 3},
		[]remote.Transport{g})
	if err != nil {
		t.Fatal(err)
	}
	setHostClock(h, newFakeClock().Now)
	m, err := Open(append([]Option{WithRemoteHost(h), WithCacheCapacity(64), WithSeed(11)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		g.release()
		m.Close()
		h.Close()
	})
	for pg := core.PageID(0); pg < core.PageID(pages); pg++ {
		if _, err := m.WriteAt(image(pg), int64(pg)*remote.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	return m, g
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
	g.hold()
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
	g.failBatches(true)
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
	g.failBatches(false)
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
	g.hold()
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
	g.awaitWaiters(1)
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
	g.failBatches(true)
	done := singleFlight(t, m, g)
	g.release()
	for i := 0; i < 3; i++ {
		if err := <-done; !errors.Is(err, errGate) {
			t.Errorf("access %d: %v, want the injected read failure", i, err)
		}
	}
	g.failBatches(false)
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
