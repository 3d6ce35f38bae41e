package remote

import (
	"bytes"
	"log"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"leap/internal/core"
)

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

func TestTCPTransportEndToEnd(t *testing.T) {
	agent := NewAgent(16, 0)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go agent.Serve(l) //nolint:errcheck // listener close ends Serve

	tr, err := DialTCP(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	h, err := NewHost(HostConfig{SlabPages: 16, Replicas: 1, Seed: 1}, []Transport{tr})
	if err != nil {
		t.Fatal(err)
	}
	for p := core.PageID(0); p < 32; p++ {
		if err := h.WritePage(p, pageOf(byte(p*3))); err != nil {
			t.Fatalf("tcp write %d: %v", p, err)
		}
	}
	buf := make([]byte, PageSize)
	for p := core.PageID(0); p < 32; p++ {
		if err := h.ReadPage(p, buf); err != nil {
			t.Fatalf("tcp read %d: %v", p, err)
		}
		if buf[0] != byte(p*3) || buf[PageSize-1] != byte(p*3) {
			t.Fatalf("tcp page %d corrupt", p)
		}
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	agent := NewAgent(64, 0)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go agent.Serve(l) //nolint:errcheck

	const clients = 4
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tr, err := DialTCP(l.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer tr.Close()
			slab := SlabID(c)
			if resp, err := tr.Call(&Request{Op: OpMapSlab, Slab: slab}); err != nil || resp.Status != StatusOK {
				errs <- err
				return
			}
			for i := 0; i < 50; i++ {
				data := pageOf(byte(c*50 + i))
				resp, err := tr.Call(&Request{Op: OpWrite, Slab: slab, PageOff: uint32(i % 64), Payload: data})
				if err != nil || resp.Status != StatusOK {
					errs <- err
					return
				}
				resp, err = tr.Call(&Request{Op: OpRead, Slab: slab, PageOff: uint32(i % 64)})
				if err != nil || resp.Status != StatusOK || !bytes.Equal(resp.Payload, data) {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
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
