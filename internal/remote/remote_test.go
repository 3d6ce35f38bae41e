package remote

import (
	"bytes"
	"errors"
	"log"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"leap/internal/core"
	"leap/internal/sim"
)

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

// within fails the test when f has not returned after d.
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

func pageOf(b byte) []byte {
	p := make([]byte, PageSize)
	for i := range p {
		p[i] = b
	}
	return p
}

func TestProtocolRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	req := &Request{Op: OpWrite, Slab: 7, PageOff: 42, Payload: pageOf(0xAB)}
	if err := EncodeRequest(&buf, req); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRequest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Op != req.Op || got.Slab != req.Slab || got.PageOff != req.PageOff ||
		!bytes.Equal(got.Payload, req.Payload) {
		t.Fatal("request round trip mismatch")
	}

	resp := &Response{Status: StatusOK, Payload: pageOf(0xCD)}
	if err := EncodeResponse(&buf, resp); err != nil {
		t.Fatal(err)
	}
	gotR, err := DecodeResponse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if gotR.Status != StatusOK || !bytes.Equal(gotR.Payload, resp.Payload) {
		t.Fatal("response round trip mismatch")
	}
}

func TestProtocolRejectsBadMagic(t *testing.T) {
	buf := bytes.NewBuffer(make([]byte, 64))
	if _, err := DecodeRequest(buf); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestAgentMapReadWrite(t *testing.T) {
	a := NewAgent(16, 4)
	if resp := a.Handle(&Request{Op: OpMapSlab, Slab: 1}); resp.Status != StatusOK {
		t.Fatalf("map: %d", resp.Status)
	}
	data := pageOf(0x5A)
	if resp := a.Handle(&Request{Op: OpWrite, Slab: 1, PageOff: 3, Payload: data}); resp.Status != StatusOK {
		t.Fatalf("write: %d", resp.Status)
	}
	resp := a.Handle(&Request{Op: OpRead, Slab: 1, PageOff: 3})
	if resp.Status != StatusOK || !bytes.Equal(resp.Payload, data) {
		t.Fatal("read mismatch")
	}
	reads, writes := a.Ops()
	if reads != 1 || writes != 1 {
		t.Fatalf("ops = %d/%d", reads, writes)
	}
}

func TestAgentErrors(t *testing.T) {
	a := NewAgent(4, 1)
	if resp := a.Handle(&Request{Op: OpRead, Slab: 9, PageOff: 0}); resp.Status != StatusBadSlab {
		t.Fatalf("read unmapped: %d", resp.Status)
	}
	a.Handle(&Request{Op: OpMapSlab, Slab: 1})
	if resp := a.Handle(&Request{Op: OpMapSlab, Slab: 2}); resp.Status != StatusNoSpace {
		t.Fatalf("over-capacity map: %d", resp.Status)
	}
	if resp := a.Handle(&Request{Op: OpRead, Slab: 1, PageOff: 99}); resp.Status != StatusBadBound {
		t.Fatalf("out-of-bounds read: %d", resp.Status)
	}
	if resp := a.Handle(&Request{Op: OpWrite, Slab: 1, PageOff: 0, Payload: []byte{1}}); resp.Status != StatusBadBound {
		t.Fatalf("short write: %d", resp.Status)
	}
	if resp := a.Handle(&Request{Op: 99}); resp.Status != StatusBadOp {
		t.Fatalf("bad op: %d", resp.Status)
	}
}

func TestAgentMapIdempotentAndFree(t *testing.T) {
	a := NewAgent(4, 2)
	a.Handle(&Request{Op: OpMapSlab, Slab: 1})
	a.Handle(&Request{Op: OpMapSlab, Slab: 1})
	if a.SlabCount() != 1 {
		t.Fatalf("SlabCount = %d, want 1", a.SlabCount())
	}
	a.Handle(&Request{Op: OpFreeSlab, Slab: 1})
	if a.SlabCount() != 0 {
		t.Fatal("free did not release slab")
	}
}

func TestHostWriteReadThroughInProc(t *testing.T) {
	agents := []*Agent{NewAgent(8, 0), NewAgent(8, 0), NewAgent(8, 0)}
	trs := make([]Transport, len(agents))
	for i, a := range agents {
		trs[i] = NewInProc(a)
	}
	h, err := NewHost(HostConfig{SlabPages: 8, Replicas: 2, Seed: 1}, trs)
	if err != nil {
		t.Fatal(err)
	}
	// Write pages across several slabs, read them back.
	for p := core.PageID(0); p < 64; p++ {
		if err := h.WritePage(p, pageOf(byte(p))); err != nil {
			t.Fatalf("write %d: %v", p, err)
		}
	}
	buf := make([]byte, PageSize)
	for p := core.PageID(0); p < 64; p++ {
		if err := h.ReadPage(p, buf); err != nil {
			t.Fatalf("read %d: %v", p, err)
		}
		if buf[0] != byte(p) {
			t.Fatalf("page %d data mismatch: %x", p, buf[0])
		}
	}
	st := h.Stats()
	if st.SlabsMapped != 8 { // 64 pages / 8 per slab
		t.Fatalf("SlabsMapped = %d, want 8", st.SlabsMapped)
	}
}

func TestHostReplicationFailover(t *testing.T) {
	agents := []*Agent{NewAgent(8, 0), NewAgent(8, 0)}
	faults := []*FaultTransport{NewFaultTransport(0, NewInProc(agents[0]), nil), NewFaultTransport(1, NewInProc(agents[1]), nil)}
	h, err := NewHost(HostConfig{SlabPages: 8, Replicas: 2, Seed: 3},
		[]Transport{faults[0], faults[1]})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.WritePage(5, pageOf(0x77)); err != nil {
		t.Fatal(err)
	}
	// Kill agent 0; the read must fail over to the replica regardless of
	// which agent is primary.
	faults[0].SetMode(FaultMode{Partitioned: true})
	buf := make([]byte, PageSize)
	if err := h.ReadPage(5, buf); err != nil {
		t.Fatalf("read with one dead agent: %v", err)
	}
	if buf[0] != 0x77 {
		t.Fatal("failover returned wrong data")
	}
	// Both dead: the read fails.
	faults[1].SetMode(FaultMode{Partitioned: true})
	if err := h.ReadPage(5, buf); err == nil {
		t.Fatal("read succeeded with all agents dead")
	}
}

func TestHostWriteSurvivesOneReplicaFailure(t *testing.T) {
	agents := []*Agent{NewAgent(8, 0), NewAgent(8, 0)}
	faults := []*FaultTransport{NewFaultTransport(0, NewInProc(agents[0]), nil), NewFaultTransport(1, NewInProc(agents[1]), nil)}
	h, _ := NewHost(HostConfig{SlabPages: 8, Replicas: 2, Seed: 3},
		[]Transport{faults[0], faults[1]})
	if err := h.WritePage(1, pageOf(1)); err != nil {
		t.Fatal(err)
	}
	faults[1].SetMode(FaultMode{Partitioned: true})
	if err := h.WritePage(1, pageOf(2)); err != nil {
		t.Fatalf("write with one dead replica: %v", err)
	}
}

func TestHostPlacementBalance(t *testing.T) {
	// Rendezvous placement keeps slab load roughly even across agents.
	n := 8
	trs := make([]Transport, n)
	for i := 0; i < n; i++ {
		trs[i] = NewInProc(NewAgent(4, 0))
	}
	h, _ := NewHost(HostConfig{SlabPages: 4, Replicas: 2, Seed: 42}, trs)
	for p := core.PageID(0); p < 4*200; p++ {
		if err := h.WritePage(p, pageOf(byte(p))); err != nil {
			t.Fatal(err)
		}
	}
	load := h.SlabLoad()
	minL, maxL := load[0], load[0]
	for _, l := range load {
		if l < minL {
			minL = l
		}
		if l > maxL {
			maxL = l
		}
	}
	// 200 slabs × 2 replicas over 8 agents = 50 mean. Two-choices keeps the
	// spread tight; allow a generous 40% band.
	if maxL > 70 || minL < 30 {
		t.Fatalf("placement imbalance: %v", load)
	}
}

func TestHostRejectsBadSizes(t *testing.T) {
	h, _ := NewHost(HostConfig{}, []Transport{NewInProc(NewAgent(8, 0))})
	if err := h.WritePage(0, []byte{1, 2}); err == nil {
		t.Fatal("short write accepted")
	}
	if err := h.ReadPage(0, make([]byte, 7)); err == nil {
		t.Fatal("short read buffer accepted")
	}
	if err := h.ReadPage(12345, make([]byte, PageSize)); err == nil {
		t.Fatal("read of never-written page succeeded")
	}
}

func TestHostNeedsAgents(t *testing.T) {
	if _, err := NewHost(HostConfig{}, nil); err == nil {
		t.Fatal("NewHost with no agents succeeded")
	}
}

// TestTCPConcurrentClients: one agent serves several connections at once, each
// client its own slab (a tape's host holds one connection an agent).
func TestTCPConcurrentClients(t *testing.T) {
	addr := serveAgent(t, NewAgent(64, 0), nil)
	var wg sync.WaitGroup
	for c := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, err := DialTCP(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer tr.Close()
			_, err = tr.Call(&Request{Op: OpMapSlab, Slab: SlabID(c)})
			for i := 0; i < 50 && err == nil; i++ {
				page := stamp(c*50 + i)
				var resp *Response
				if _, err = tr.Call(&Request{Op: OpWrite, Slab: SlabID(c), PageOff: uint32(i), Payload: page}); err == nil {
					resp, err = tr.Call(&Request{Op: OpRead, Slab: SlabID(c), PageOff: uint32(i)})
				}
				if err == nil && !bytes.Equal(resp.Payload, page) {
					t.Errorf("client %d read another page", c)
				}
			}
			if err != nil {
				t.Errorf("client %d: %v", c, err)
			}
		}()
	}
	wg.Wait()
}

func TestAgentStatsOp(t *testing.T) {
	a := NewAgent(8, 5)
	a.Handle(&Request{Op: OpMapSlab, Slab: 1})
	resp := a.Handle(&Request{Op: OpStats})
	if resp.Status != StatusOK || len(resp.Payload) != 8 {
		t.Fatal("stats malformed")
	}
	if resp.Payload[0] != 1 || resp.Payload[4] != 5 {
		t.Fatalf("stats payload = %v", resp.Payload)
	}
}

// TestAgentLocalCloseIsQuiet: an agent whose side of a connection is closed
// locally, while its server loop waits for the next request, ends that loop
// as it does on the peer's hang-up, without logging the read error.
func TestAgentLocalCloseIsQuiet(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	tr := dialAgent(t, l.Addr().String())
	conn, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	var logged bytes.Buffer
	prev := log.Writer()
	defer log.SetOutput(prev)
	log.SetOutput(&logged)
	done := make(chan struct{})
	go func() {
		defer close(done)
		NewAgent(16, 0).serveConn(conn)
	}()
	mustCall(t, tr, &Request{Op: OpPing}) // the loop is running
	conn.Close()
	within(t, 5*time.Second, "the agent's server loop after a local close", func() { <-done })
	log.SetOutput(prev) // nothing writes to logged from here on
	// Other tests' connections may log meanwhile: only this one's lines count.
	for _, line := range strings.Split(logged.String(), "\n") {
		if strings.Contains(line, conn.LocalAddr().String()) {
			t.Errorf("agent logged a locally closed connection: %s", line)
		}
	}
}

// The tests below are kept beside the host model: the codec's (a frame's
// allocations and its writes are below what a tape sees), a doorbell's report of
// a write every replica refused (a tape takes any write error for a defect), and
// a ticket released twice (a tape plays the API as documented).

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

// TestReleaseTwicePanics: a read ticket released once more than it was held —
// its own ticket or a second reader's coalesced onto the read — panics, where
// it would otherwise put the read on the host's free list a second time for
// two later reads to share.
func TestReleaseTwicePanics(t *testing.T) {
	h := newHost(t, HostConfig{SlabPages: 8, Replicas: 1, QueueDepth: 4, Seed: 1}, []Transport{NewInProc(NewAgent(8, 0))})
	if err := h.WritePage(0, stamp(0)); err != nil {
		t.Fatal(err)
	}
	for _, stale := range []string{"own", "coalesced"} {
		own := h.ReadPageAsync(0, make([]byte, PageSize))
		second := h.ReadPageAsync(0, make([]byte, PageSize))
		if own.read == nil || second.read != own.read {
			t.Fatal("the second read did not coalesce onto the first")
		}
		if err := errors.Join(own.Wait(), second.Wait()); err != nil {
			t.Fatal(err)
		}
		own.Release()
		second.Release()
		tk := map[string]*Ticket{"own": own, "coalesced": second}[stale]
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s ticket: a second Release did not panic", stale)
				}
			}()
			tk.Release()
		}()
		h.mu.Lock()
		if n := len(h.readFree); n != 1 {
			t.Errorf("%s ticket: %d reads on the free list, want the one", stale, n)
		}
		h.mu.Unlock()
	}
}
