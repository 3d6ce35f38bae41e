package remote

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"leap/internal/core"
	"leap/internal/sim"
)

// wrapListener hands every accepted connection through wrap.
type wrapListener struct {
	net.Listener
	wrap func(net.Conn) net.Conn
}

func (l wrapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.wrap(c), nil
}

// serveAgent serves a on a loopback listener (connections passed through
// wrap when it is non-nil) until the test ends and returns the address.
func serveAgent(t testing.TB, a *Agent, wrap func(net.Conn) net.Conn) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	if wrap != nil {
		go a.Serve(wrapListener{l, wrap})
	} else {
		go a.Serve(l)
	}
	return l.Addr().String()
}

// dialAgent dials addr and closes the transport when the test ends.
func dialAgent(t testing.TB, addr string) *TCP {
	t.Helper()
	tr, err := DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

// stamp is a page image that names its page.
func stamp(pg int) []byte {
	b := make([]byte, PageSize)
	for i := range b {
		b[i] = byte(pg*31 + i)
	}
	return b
}

// mustCall makes one round trip and fails the test unless it succeeded with
// StatusOK.
func mustCall(t testing.TB, tr Transport, req *Request) *Response {
	t.Helper()
	resp, err := tr.Call(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusOK {
		t.Fatalf("op %d: status %d", req.Op, resp.Status)
	}
	return resp
}

// newHost returns a host over trs and fails the test if there is none.
func newHost(t testing.TB, cfg HostConfig, trs []Transport) *Host {
	t.Helper()
	h, err := NewHost(cfg, trs)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// within fails the test when f has not returned after d: the tests below
// exist to catch hangs.
func within(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s still blocked after %v", what, d)
	}
}

// TestTCPPipelinedCallsMatchFIFO has N goroutines make M calls each on one
// connection, every one for a different page: with many requests outstanding
// each caller must get its own page back, matched by nothing but order.
func TestTCPPipelinedCallsMatchFIFO(t *testing.T) {
	const goroutines, calls = 8, 200
	a := NewAgent(goroutines*calls, 0)
	tr := dialAgent(t, serveAgent(t, a, nil))
	mustCall(t, tr, &Request{Op: OpMapSlab, Slab: 1})
	for pg := 0; pg < goroutines*calls; pg++ {
		mustCall(t, tr, &Request{Op: OpWrite, Slab: 1, PageOff: uint32(pg), Payload: stamp(pg)})
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Half the goroutines call, half keep two requests in flight.
			for i := 0; i < calls; i += 2 {
				pg0, pg1 := g*calls+i, g*calls+i+1
				p0, err0 := tr.Start(&Request{Op: OpRead, Slab: 1, PageOff: uint32(pg0)})
				var r1 *Response
				var err1 error
				if g%2 == 0 {
					r1, err1 = tr.Call(&Request{Op: OpRead, Slab: 1, PageOff: uint32(pg1)})
				} else {
					var p1 Pending
					if p1, err1 = tr.Start(&Request{Op: OpRead, Slab: 1, PageOff: uint32(pg1)}); err1 == nil {
						r1, err1 = p1.Wait()
					}
				}
				if err0 != nil || err1 != nil {
					t.Errorf("goroutine %d: %v / %v", g, err0, err1)
					return
				}
				r0, err0 := p0.Wait()
				if err0 != nil {
					t.Errorf("goroutine %d: %v", g, err0)
					return
				}
				if !bytes.Equal(r0.Payload, stamp(pg0)) || !bytes.Equal(r1.Payload, stamp(pg1)) {
					t.Errorf("goroutine %d got another request's page", g)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestTCPPoisonFailsOutstandingAndLater breaks the response stream under
// three outstanding requests: the one answered before the break succeeds,
// and every one behind it — and every later Start — fails with the framing
// error instead of decoding whatever bytes follow.
func TestTCPPoisonFailsOutstandingAndLater(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var req Request
		for i := 0; i < 3; i++ {
			if _, err := readRequest(conn, &req, nil); err != nil {
				return
			}
		}
		// One good response, then a frame with a bad magic followed by bytes
		// that would parse as a valid response if anyone kept reading.
		EncodeResponse(conn, &Response{Status: StatusOK, Payload: stamp(1)})
		conn.Write([]byte{0x00, 0, 0, 0, 0, 0})
		EncodeResponse(conn, &Response{Status: StatusOK, Payload: stamp(3)})
		io.Copy(io.Discard, conn)
	}()
	tr := dialAgent(t, l.Addr().String())
	var ps [3]Pending
	for i := range ps {
		if ps[i], err = tr.Start(&Request{Op: OpRead, Slab: 1, PageOff: uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Waiting for the youngest first makes it the reader of all three.
	_, err2 := ps[2].Wait()
	r0, err0 := ps[0].Wait()
	_, err1 := ps[1].Wait()
	if err0 != nil || !bytes.Equal(r0.Payload, stamp(1)) {
		t.Fatalf("request answered before the break: %v", err0)
	}
	if err1 == nil || err2 == nil || err1 != err2 {
		t.Fatalf("outstanding requests behind the break: %v / %v, want one shared error", err1, err2)
	}
	if _, err := tr.Start(&Request{Op: OpPing}); err != err1 {
		t.Fatalf("Start after poisoning = %v, want %v", err, err1)
	}
	if _, err := tr.Call(&Request{Op: OpPing}); err != err1 {
		t.Fatalf("Call after poisoning = %v, want %v", err, err1)
	}
}

// smallBuffers returns a connection wrapper that shrinks the socket buffers
// to size bytes.
func smallBuffers(size int) func(net.Conn) net.Conn {
	return func(c net.Conn) net.Conn {
		tc := c.(*net.TCPConn)
		tc.SetReadBuffer(size)
		tc.SetWriteBuffer(size)
		return c
	}
}

// TestTCPNoDeadlockWithSmallSocketBuffers pipelines, on one goroutine and
// with small socket buffers on both ends, a read batch whose response is a
// multiple of the buffers (and that nobody is reaping), small reads behind it,
// a second such read batch and then a write batch as large. Without the
// writeStall rule the agent blocks writing the first response while the host
// blocks writing a later request. Depth-256 batches (1 MB frames) run through
// 32 KB buffers; the 4 KB buffers of the issue get depth-16 batches (frames of
// sixteen times the buffer) and fewer small reads, because loopback moves a
// megabyte through 4 KB buffers in 19.5 s (one delayed ACK per window). Both
// cases hang with the rule switched off.
//
// The third case is the host's read pipeline at its bound: as many 8-page
// read frames as maxUnreaped allows, started on one goroutine before any is
// collected, through 32 KB buffers. The requests are small enough to queue up
// behind the agent's blocked response write, so the writeStall rule, which
// costs 5 ms each time, must have next to nothing to do there.
func TestTCPNoDeadlockWithSmallSocketBuffers(t *testing.T) {
	for _, c := range []struct{ bufSize, depth, small int }{{32 << 10, MaxBatchOps, 40}, {4 << 10, 16, 8}} {
		t.Run(fmt.Sprintf("buf%dK_depth%d", c.bufSize>>10, c.depth), func(t *testing.T) {
			t.Parallel()
			pipelineThroughSmallBuffers(t, smallBuffers(c.bufSize), c.depth, c.small)
		})
	}
	t.Run("reads_at_the_bound", func(t *testing.T) {
		t.Parallel()
		const depth = DefaultQueueDepth
		frames := maxUnreaped / (depth * PageSize)
		shrink := smallBuffers(32 << 10)
		conn, err := net.Dial("tcp", serveAgent(t, NewAgent(depth, 0), shrink))
		if err != nil {
			t.Fatal(err)
		}
		counted := &stallCounter{Conn: shrink(conn)}
		tr := newTCP(counted)
		tr.timeout = time.Minute
		defer tr.Close()
		refs := make([]BatchRef, depth)
		pages := make([][]byte, depth)
		for i := range refs {
			refs[i] = BatchRef{Slab: 1, PageOff: uint32(i)}
			pages[i] = stamp(i)
		}
		within(t, 20*time.Second, "the read pipeline at its bound over small socket buffers", func() {
			mustCall(t, tr, &Request{Op: OpMapSlab, Slab: 1})
			wb, _ := EncodeWriteBatch(refs, pages)
			mustCall(t, tr, wb)
			ps := make([]Pending, frames)
			for i := range ps {
				rb, _ := EncodeReadBatch(refs)
				if ps[i], err = tr.Start(rb); err != nil {
					t.Error(err)
					return
				}
			}
			for i, p := range ps {
				resp, err := p.Wait()
				if err != nil {
					t.Errorf("frame %d: %v", i, err)
					return
				}
				res, err := DecodeReadBatchResponse(resp)
				if err != nil || len(res) != depth || !bytes.Equal(res[depth-1].Page, stamp(depth-1)) {
					t.Errorf("frame %d: wrong pages (%v)", i, err)
					return
				}
			}
		})
		stalls := counted.stalls.Load()
		t.Logf("%d read frames outstanding, %d request writes unstuck by writeStall", frames, stalls)
		if stalls > 8 {
			t.Errorf("writeStall fired %d times for %d outstanding read frames: the bound leans on it", stalls, frames)
		}
	})
}

// stallCounter counts the request writes that made no progress for writeStall:
// the times the rule had to reap a response to unstick one.
type stallCounter struct {
	net.Conn
	stalls atomic.Int64
}

func (c *stallCounter) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		c.stalls.Add(1)
	}
	return n, err
}

// pipelineThroughSmallBuffers starts, without waiting for any: a depth-page
// read batch, small single-page reads, a second read batch, a depth-page
// write batch and a read of a page it rewrote; then collects them in order.
func pipelineThroughSmallBuffers(t *testing.T, shrink func(net.Conn) net.Conn, depth, small int) {
	a := NewAgent(2*MaxBatchOps, 0)
	addr := serveAgent(t, a, shrink)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTCP(shrink(conn))
	tr.timeout = time.Minute // the frames trickle through these buffers; only a hang may fail the test
	defer tr.Close()

	refs := make([]BatchRef, depth)
	pages := make([][]byte, depth)
	for i := range refs {
		refs[i] = BatchRef{Slab: 1, PageOff: uint32(i)}
		pages[i] = stamp(i)
	}
	last := depth - 1
	within(t, 20*time.Second, "pipelined frames over small socket buffers", func() {
		mustCall(t, tr, &Request{Op: OpMapSlab, Slab: 1})
		wb, _ := EncodeWriteBatch(refs, pages)
		mustCall(t, tr, wb)

		var ps []Pending
		start := func(req *Request) {
			p, err := tr.Start(req)
			if err != nil {
				t.Error(err)
				return
			}
			ps = append(ps, p)
		}
		rb, _ := EncodeReadBatch(refs)
		start(rb)
		for i := 0; i < small; i++ {
			start(&Request{Op: OpRead, Slab: 1, PageOff: uint32(i % depth)})
		}
		rb2, _ := EncodeReadBatch(refs)
		start(rb2)
		for i := range pages {
			pages[i] = stamp(i + 1000)
		}
		wb2, _ := EncodeWriteBatch(refs, pages)
		start(wb2)
		start(&Request{Op: OpRead, Slab: 1, PageOff: 7})

		for i, p := range ps {
			resp, err := p.Wait()
			if err != nil || resp.Status != StatusOK {
				t.Errorf("pending %d: %v", i, err)
				return
			}
			switch {
			case i == 0 || i == small+1:
				res, err := DecodeReadBatchResponse(resp)
				if err != nil || len(res) != depth || !bytes.Equal(res[last].Page, stamp(last)) {
					t.Errorf("read batch %d: %v", i, err)
				}
			case i <= small:
				if !bytes.Equal(resp.Payload, stamp((i-1)%depth)) {
					t.Errorf("read %d returned another page", i)
				}
			case i == small+3:
				if !bytes.Equal(resp.Payload, stamp(1007)) {
					t.Error("read behind the write batch did not see it")
				}
			}
		}
	})
}

// TestTCPSilentPeerFailsOver is the silent-peer fix: an agent that accepts
// and never answers used to hang the reader forever. Now the read deadline
// poisons that connection, the host's failover takes the read to the other
// replica, and later requests to the dead connection fail at once.
func TestTCPSilentPeerFailsOver(t *testing.T) {
	silent, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	go func() {
		for {
			conn, err := silent.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			go io.Copy(io.Discard, conn)
		}
	}()
	// The write must land on both agents before one of them goes silent, so
	// agent 0 starts out as a proxy to a real agent.
	live0 := serveAgent(t, NewAgent(16, 0), nil)
	live1 := serveAgent(t, NewAgent(16, 0), nil)
	tr0, tr1 := dialAgent(t, live0), dialAgent(t, live1)
	dead := dialAgent(t, silent.Addr().String())
	dead.timeout = 100 * time.Millisecond
	sw := NewScriptedLink(tr0, Split, nil, nil)
	h := newHost(t, HostConfig{SlabPages: 1, Replicas: 2, Seed: 1}, []Transport{sw.Transport(), tr1})
	// One page per slab, so both agents are the preferred holder of some.
	const pages = 16
	for pg := 0; pg < pages; pg++ {
		if err := h.WritePage(core.PageID(pg), stamp(pg)); err != nil {
			t.Fatal(err)
		}
	}
	sw.SetInner(dead)

	buf := make([]byte, PageSize)
	within(t, 10*time.Second, "reads with one silent replica", func() {
		t0 := time.Now()
		for pg := 0; pg < pages; pg++ {
			if err := h.ReadPage(core.PageID(pg), buf); err != nil {
				t.Errorf("ReadPage(%d) with a silent replica: %v", pg, err)
				return
			}
			if !bytes.Equal(buf, stamp(pg)) {
				t.Errorf("page %d corrupted", pg)
			}
		}
		// One deadline expiry, then the dead connection fails fast.
		if d := time.Since(t0); d > 4*dead.timeout {
			t.Errorf("%d reads took %v: the dead connection is not failing fast", pages, d)
		}
	})
	var nerr net.Error
	if _, err := dead.Start(&Request{Op: OpPing}); !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("Start on the timed-out connection = %v, want its timeout", err)
	}
	if st := h.Stats(); st.Failovers == 0 {
		t.Error("no failover recorded")
	}
}

// gate is a split-phase link over an in-process agent (or a transport that
// fronts one) whose responses the test holds back (Hold, Release).
type gate struct {
	*ScriptedLink
	started chan uint8 // op of every frame sent; buffered, never blocks
}

// newGate returns a gate of mode over inner that logs to started.
func newGate(inner Transport, mode Mode, started chan uint8) gate {
	return gate{NewScriptedLink(inner, mode, nil, func(req *Request) Verdict {
		op := req.Op
		return Verdict{Then: func(*Response, error) { started <- op }}
	}), started}
}

// gateSet is a host's gates, one an agent.
type gateSet []gate

// hold holds every gate's responses back from now on, and empties their logs.
func (gs gateSet) hold() {
	for _, g := range gs {
		g.Hold()
		startedOps(g)
	}
}

// release lets every gate's responses through.
func (gs gateSet) release() {
	for _, g := range gs {
		g.Release()
	}
}

// gatedHost builds a host over n gated in-process agents, gates open.
func gatedHost(t *testing.T, n int, cfg HostConfig) (*Host, gateSet) {
	t.Helper()
	gates := make(gateSet, n)
	trs := make([]Transport, n)
	for i := range trs {
		gates[i] = newGate(NewInProc(NewAgent(cfg.SlabPages, 0)), Split, make(chan uint8, 1024))
		trs[i] = gates[i].Transport()
	}
	return newHost(t, cfg, trs), gates
}

// TestDemandReadsRunOutsideHostLock pins the lock rule of a launched frame:
// over transports that finish what they start, two goroutines' StartReads to
// different agents are inside Call at the same time, and neither keeps a
// third goroutine's ReadPageAsync + Submit out of the host.
func TestDemandReadsRunOutsideHostLock(t *testing.T) {
	// Each agent holds its first read after arming inside Call until release.
	release := make(chan struct{})
	var entered [2]chan struct{}
	var armed [2]atomic.Bool
	trs := make([]Transport, len(entered))
	for i := range trs {
		entered[i] = make(chan struct{})
		trs[i] = NewScriptedLink(NewInProc(NewAgent(1, 0)), CallOnly, nil, func(req *Request) Verdict {
			if req.Op == OpRead && armed[i].CompareAndSwap(true, false) {
				entered[i] <- struct{}{}
				<-release
			}
			return Verdict{}
		}).Transport()
	}
	h := newHost(t, HostConfig{SlabPages: 1, Replicas: 1, Seed: 5}, trs)
	// One page per slab, one holder per page: two pages on each agent.
	var on [2][]core.PageID
	for pg := core.PageID(0); len(on[0]) < 2 || len(on[1]) < 2; pg++ {
		if err := h.WritePage(pg, stamp(int(pg))); err != nil {
			t.Fatal(err)
		}
		holder := h.AckedReplicas(pg)[0]
		on[holder] = append(on[holder], pg)
	}
	armed[0].Store(true)
	armed[1].Store(true)

	var wg sync.WaitGroup
	for i := range trs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pg, buf := on[i][0], make([]byte, PageSize)
			if err := h.StartRead(pg, buf).Wait(); err != nil || !bytes.Equal(buf, stamp(int(pg))) {
				t.Errorf("demand read of page %d: err %v, bytes ok %v", pg, err, bytes.Equal(buf, stamp(int(pg))))
			}
		}()
	}
	within(t, 5*time.Second, "two demand reads entering Call side by side", func() {
		<-entered[0]
		<-entered[1]
	})
	within(t, 5*time.Second, "ReadPageAsync + Submit next to two demand reads inside Call", func() {
		pg, buf := on[0][1], make([]byte, PageSize)
		tk := h.ReadPageAsync(pg, buf)
		if _, err := h.Submit(); err != nil {
			t.Error(err)
		}
		if !tk.Done() || tk.Err() != nil || !bytes.Equal(buf, stamp(int(pg))) {
			t.Errorf("window read of page %d did not complete next to the held demand reads", pg)
		}
	})
	close(release)
	within(t, 5*time.Second, "the demand reads", wg.Wait)
}

// TestAgentConnectionReusesPayloadBuffer: the server loop's request decoder
// reuses the connection's payload buffer (one 8-page write batch used to cost
// a fresh 40 KB allocation each).
func TestAgentConnectionReusesPayloadBuffer(t *testing.T) {
	refs := make([]BatchRef, 8)
	pages := make([][]byte, 8)
	for i := range refs {
		refs[i] = BatchRef{Slab: 1, PageOff: uint32(i)}
		pages[i] = stamp(i)
	}
	wb, _ := EncodeWriteBatch(refs, pages)
	var wire bytes.Buffer
	var req Request
	var buf []byte
	allocs := testing.AllocsPerRun(20, func() {
		wire.Reset()
		if err := EncodeRequest(&wire, wb); err != nil {
			t.Fatal(err)
		}
		var err error
		if buf, err = readRequest(&wire, &req, buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("encode + decode of a write batch on a warm connection allocates %.0f times, want 0", allocs)
	}
	if _, pgs, err := DecodeWriteBatch(&req); err != nil || !bytes.Equal(pgs[7], stamp(7)) {
		t.Fatalf("reused buffer decoded wrong: %v", err)
	}
}

// countWriter counts Write calls.
type countWriter struct{ calls int }

func (w *countWriter) Write(p []byte) (int, error) { w.calls++; return len(p), nil }

// TestOneWritePerFrame: every frame kind reaches its io.Writer as a single
// Write, whether or not its encoder left header room.
func TestOneWritePerFrame(t *testing.T) {
	rb, _ := EncodeReadBatch([]BatchRef{{Slab: 1}, {Slab: 1, PageOff: 1}})
	wb, _ := EncodeWriteBatch([]BatchRef{{Slab: 1}}, [][]byte{stamp(0)})
	for _, req := range []*Request{{Op: OpPing}, {Op: OpWrite, Slab: 1, Payload: stamp(1)}, rb, wb} {
		var w countWriter
		if err := EncodeRequest(&w, req); err != nil || w.calls != 1 {
			t.Errorf("request op %d: %d writes (%v), want 1", req.Op, w.calls, err)
		}
	}
	a := NewAgent(4, 0)
	a.Handle(&Request{Op: OpMapSlab, Slab: 1})
	for _, req := range []*Request{{Op: OpPing}, {Op: OpRead, Slab: 1}, rb, wb} {
		var w countWriter
		if err := EncodeResponse(&w, a.Handle(req)); err != nil || w.calls != 1 {
			t.Errorf("response to op %d: %d writes (%v), want 1", req.Op, w.calls, err)
		}
	}
}

// populated builds a gated host over two agents, both replicas of everything,
// with stamp(pg) flushed to pages [0, pages), and empties the gates' logs.
func populated(t *testing.T, pages int, cfg HostConfig) (*Host, gateSet) {
	t.Helper()
	h, gates := gatedHost(t, 2, cfg)
	for pg := 0; pg < pages; pg++ {
		h.WritePageAsync(core.PageID(pg), stamp(pg))
	}
	if err := h.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, g := range gates {
		startedOps(g)
	}
	return h, gates
}

// startedOps empties g's log of started requests.
func startedOps(g gate) (ops []uint8) {
	for len(g.started) > 0 {
		ops = append(ops, <-g.started)
	}
	return ops
}

// inOrder fails the test if a gate saw a flight landed ahead of an older one.
func inOrder(t *testing.T, gates gateSet) {
	t.Helper()
	for i, g := range gates {
		if n := g.OutOfOrder(); n > 0 {
			t.Errorf("link %d: %d flights were waited for ahead of an older one", i, n)
		}
	}
}

// unacked reports the write frames in the air and the page images the host
// holds for them: writes started and not yet answered by every replica.
func unacked(h *Host) (frames, pages int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, l := range h.links {
		frames += l.writes
	}
	return frames, startedWrites(h)
}

// startedWrites counts, each once, the writes the host has started (begin)
// and not finished (finishWrite): those in a flight, those still queued for
// another replica, and any a page's record holds. Callers hold h.mu.
func startedWrites(h *Host) int {
	writes := map[*pendingWrite]bool{}
	held := func(pw *pendingWrite) {
		if pw != nil && pw.started {
			writes[pw] = true
		}
	}
	for _, l := range h.links {
		for _, f := range l.flights {
			for _, e := range f.batch {
				held(e.write)
			}
		}
		for _, e := range l.queue {
			held(e.write)
		}
	}
	for _, r := range h.records.Range {
		held(r.write)
	}
	return len(writes)
}

// TestWriteFramesStayInFlight: the doorbell puts a write's frames on both
// replicas' links and returns with the responses held back. Until they land the
// write is unacked — its ticket open, the ack set as it was — and the page
// reads back from the image the host keeps.
func TestWriteFramesStayInFlight(t *testing.T) {
	h, gates := populated(t, 8, HostConfig{SlabPages: 64, Replicas: 2, QueueDepth: 4, Seed: 5})
	gates.hold()
	fresh := h.WritePageAsync(20, stamp(20)) // never written: no replica has acked it
	again := h.WritePageAsync(3, stamp(33))
	within(t, 5*time.Second, "Submit with the acks held back", func() {
		if flying, err := h.Submit(); err != nil || !flying {
			t.Errorf("Submit = flying %v, %v; want the write frames in the air", flying, err)
		}
	})
	for i, g := range gates {
		if ops := startedOps(g); len(ops) != 1 {
			t.Fatalf("agent %d was sent ops %v, want one write frame", i, ops)
		}
	}
	if frames, pages := unacked(h); frames != 2 || pages != 2 {
		t.Fatalf("unacked = %d frames, %d pages; want 2 and 2", frames, pages)
	}
	if fresh.Done() || again.Done() {
		t.Fatal("a write ticket completed with no response landed")
	}
	if acked := h.AckedReplicas(20); len(acked) != 0 {
		t.Fatalf("page 20 acked by %v with its frames in the air", acked)
	}
	dirtyReads := h.Stats().DirtyReads
	buf := make([]byte, PageSize)
	within(t, 5*time.Second, "reads of pages with their writes in the air", func() {
		for pg, want := range map[core.PageID][]byte{20: stamp(20), 3: stamp(33)} {
			if err := h.ReadPage(pg, buf); err != nil || !bytes.Equal(buf, want) {
				t.Errorf("page %d: err %v, newest bytes %v", pg, err, bytes.Equal(buf, want))
			}
		}
	})
	if got := h.Stats().DirtyReads - dirtyReads; got != 2 {
		t.Errorf("%d of 2 reads were served from the images the host keeps", got)
	}

	gates.release()
	if fresh.Done() || len(h.AckedReplicas(20)) != 0 {
		t.Fatal("a response nobody landed acked its write")
	}
	within(t, 5*time.Second, "Wait for a write whose responses were let go", func() {
		if err := fresh.Wait(); err != nil {
			t.Error(err)
		}
	})
	if acked := h.AckedReplicas(20); len(acked) != 2 {
		t.Fatalf("page 20 acked by %v after landing, want both replicas", acked)
	}
	if !again.Done() { // the same two frames carried it
		t.Error("page 3's write still open with both its frames landed")
	}
	if frames, pages := unacked(h); frames != 0 || pages != 0 {
		t.Errorf("unacked = %d frames, %d pages after landing", frames, pages)
	}
	inOrder(t, gates)
}

// TestUnackedWindowBlocksWriter: a link carries unackedFrames write frames and no
// more. The doorbell that would start another waits for the oldest, and what
// the host holds unacked stays within unackedFrames frames of QueueDepth pages a
// link.
func TestUnackedWindowBlocksWriter(t *testing.T) {
	const depth = 4
	h, gates := populated(t, 64, HostConfig{SlabPages: 64, Replicas: 2, QueueDepth: depth, Seed: 5})
	gates.hold()
	bounded := func(when string) (frames, pages int) {
		t.Helper()
		frames, pages = unacked(h)
		if frames > len(gates)*unackedFrames || pages > unackedFrames*depth {
			t.Fatalf("%s: %d frames and %d pages unacked, over %d frames a link of %d pages",
				when, frames, pages, unackedFrames, depth)
		}
		return frames, pages
	}
	pg := 0
	ring := func() error {
		for i := 0; i < depth; i++ {
			h.WritePageAsync(core.PageID(pg), stamp(pg+100))
			pg++
		}
		_, err := h.Submit()
		return err
	}
	for n := 1; n <= unackedFrames; n++ {
		within(t, 5*time.Second, "a doorbell inside the window", func() {
			if err := ring(); err != nil {
				t.Error(err)
			}
		})
		if frames, pages := bounded("inside the window"); frames != len(gates)*n || pages != depth*n {
			t.Fatalf("after %d doorbells: %d frames, %d pages unacked", n, frames, pages)
		}
	}
	for _, g := range gates {
		startedOps(g)
	}

	rung := make(chan error, 1)
	go func() { rung <- ring() }()
	select {
	case err := <-rung:
		t.Fatalf("Submit returned (%v) with the window full and every ack held back", err)
	case <-time.After(100 * time.Millisecond):
	}
	for i, g := range gates {
		if ops := startedOps(g); len(ops) > 0 {
			t.Fatalf("agent %d was sent ops %v past its unacked window", i, ops)
		}
	}
	bounded("window full")
	gates.release()
	within(t, 5*time.Second, "Submit once the acks arrive", func() {
		if err := <-rung; err != nil {
			t.Error(err)
		}
	})
	// The oldest frame of each link made room, and no more was landed than that.
	if frames, pages := bounded("after the wait"); frames != len(gates)*unackedFrames || pages != unackedFrames*depth {
		t.Errorf("after the wait: %d frames, %d pages unacked, want the window full again", frames, pages)
	}
	if err := h.Flush(); err != nil {
		t.Fatal(err)
	}
	if frames, pages := unacked(h); frames != 0 || pages != 0 {
		t.Errorf("unacked = %d frames, %d pages after Flush", frames, pages)
	}
	buf := make([]byte, PageSize)
	for i := 0; i < pg; i++ {
		if err := h.ReadPage(core.PageID(i), buf); err != nil || !bytes.Equal(buf, stamp(i+100)) {
			t.Fatalf("page %d after the flush: err %v, newest bytes %v", i, err, bytes.Equal(buf, stamp(i+100)))
		}
	}
	inOrder(t, gates)
}

// TestLandingLandsOlderFlightsOfItsLink: whoever lands a flight first lands the
// older flights of the same link — a read frame nobody came for, a write's ack —
// and touches nothing on the other link.
func TestLandingLandsOlderFlightsOfItsLink(t *testing.T) {
	const slabPages, slabs = 16, 8
	h, gates := populated(t, slabs*slabPages, HostConfig{SlabPages: slabPages, Replicas: 2, QueueDepth: 4, Seed: 5})
	// A slab whose reads go to agent 0, and one whose reads go to agent 1.
	reader := [2]int{-1, -1}
	for s := 0; s < slabs; s++ {
		if err := h.ReadPage(core.PageID(s*slabPages), make([]byte, PageSize)); err != nil {
			t.Fatal(err)
		}
		for i, g := range gates {
			if len(startedOps(g)) > 0 && reader[i] < 0 {
				reader[i] = s * slabPages
			}
		}
	}
	if reader[0] < 0 || reader[1] < 0 {
		t.Fatalf("first pages read through each agent: %v; want one of %d slabs each", reader, slabs)
	}
	read := func(pg int) *Ticket {
		tk := h.ReadPageAsync(core.PageID(pg), make([]byte, PageSize))
		if _, err := h.Submit(); err != nil {
			t.Fatal(err)
		}
		return tk
	}
	ahead := read(reader[0])                                               // link 0: a read nobody consumes
	wt := h.WritePageAsync(core.PageID(reader[0]+1), stamp(reader[0]+101)) // both links, behind it on link 0
	other := read(reader[1])                                               // link 1, behind the write frame
	later := read(reader[0] + 2)                                           // link 0, behind both
	if ahead.Done() || wt.Done() || other.Done() || later.Done() {
		t.Fatal("a flight landed with nobody waiting for it")
	}
	if err := later.Wait(); err != nil {
		t.Fatal(err)
	}
	if !ahead.Done() {
		t.Error("the older read flight of the link was not landed in passing")
	}
	if frames, _ := unacked(h); frames != 1 {
		t.Errorf("%d write frames in the air, want only the other link's", frames)
	}
	if wt.Done() || other.Done() {
		t.Error("landing on link 0 landed a flight of link 1")
	}
	if err := other.Wait(); err != nil {
		t.Fatal(err)
	}
	if !wt.Done() || wt.Err() != nil || len(h.AckedReplicas(core.PageID(reader[0]+1))) != 2 {
		t.Errorf("write not acked by both replicas (done %v, err %v) once a later flight of each link had landed",
			wt.Done(), wt.Err())
	}
	if flying, err := h.Submit(); flying || err != nil {
		t.Errorf("Submit = flying %v, %v with every flight landed", flying, err)
	}
	inOrder(t, gates)
}

// TestWriteFailureSurfacesAtNextDoorbell: a writeback no replica accepted is
// landed by a reader that happened to come by, who has nobody to tell. The
// failure is on the write's ticket and is what the next doorbell reports, once.
func TestWriteFailureSurfacesAtNextDoorbell(t *testing.T) {
	faults := make([]*FaultTransport, 2)
	trs := make([]Transport, 2)
	for i := range trs {
		faults[i] = NewFaultTransport(i, NewInProc(NewAgent(1, 0)), sim.NewRNG(uint64(i)+1))
		trs[i] = NewScriptedLink(faults[i], Split, nil, nil).Transport()
	}
	// One page per slab, so both agents are the preferred holder of some.
	const pages = 16
	h := newHost(t, HostConfig{SlabPages: 1, Replicas: 2, QueueDepth: 4, Seed: 5}, trs)
	for pg := 0; pg < pages; pg++ {
		h.WritePageAsync(core.PageID(pg), stamp(pg))
	}
	if err := h.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, ft := range faults {
		ft.SetMode(FaultMode{WriteFailProb: 1})
	}
	wt := h.WritePageAsync(3, stamp(33))
	if _, err := h.Submit(); err != nil {
		t.Fatalf("Submit reported %v before any response landed", err)
	}
	buf := make([]byte, PageSize)
	for pg := 0; pg < pages && !wt.Done(); pg++ {
		if pg == 3 {
			continue
		}
		if err := h.ReadPage(core.PageID(pg), buf); err != nil || !bytes.Equal(buf, stamp(pg)) {
			t.Fatalf("read of page %d next to a failed write: err %v", pg, err)
		}
	}
	if !wt.Done() {
		t.Fatal("reads through both links left the write's frames unlanded")
	}
	if err := wt.Err(); !errors.Is(err, ErrAllReplicasFailed) {
		t.Fatalf("write ticket error = %v, want ErrAllReplicasFailed", err)
	}
	if _, err := h.Submit(); !errors.Is(err, ErrAllReplicasFailed) {
		t.Fatalf("the next doorbell reported %v, want the writeback's failure", err)
	}
	if _, err := h.Submit(); err != nil {
		t.Fatalf("the failure was reported twice: %v", err)
	}
}
