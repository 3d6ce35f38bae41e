package remote

import (
	"net"
	"strconv"
	"sync/atomic"
	"testing"

	"leap/internal/core"
)

// benchResp keeps the measured calls' results alive.
var benchResp *Response

// loopbackAgent serves an agent holding n stamped pages of slab 1 on
// loopback TCP and returns a transport dialed to it.
func loopbackAgent(b *testing.B, n int) *TCP {
	b.Helper()
	tr := dialAgent(b, serveAgent(b, NewAgent(n, 0), nil))
	mustCall(b, tr, &Request{Op: OpMapSlab, Slab: 1})
	for pg := 0; pg < n; pg++ {
		mustCall(b, tr, &Request{Op: OpWrite, Slab: 1, PageOff: uint32(pg), Payload: stamp(pg)})
	}
	return tr
}

// BenchmarkTCPCall is one OpRead round trip on loopback: the transport
// layer's share of a demand miss.
func BenchmarkTCPCall(b *testing.B) {
	tr := loopbackAgent(b, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchResp = mustCall(b, tr, &Request{Op: OpRead, Slab: 1, PageOff: uint32(i % 64)})
	}
}

// BenchmarkTCPPipelined8 keeps eight OpReads outstanding on one connection
// and collects them in order; ns/op is per page.
func BenchmarkTCPPipelined8(b *testing.B) {
	tr := loopbackAgent(b, 64)
	var ps [8]Pending
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(ps) {
		for j := range ps {
			p, err := tr.Start(&Request{Op: OpRead, Slab: 1, PageOff: uint32((i + j) % 64)})
			if err != nil {
				b.Fatal(err)
			}
			ps[j] = p
		}
		for _, p := range ps {
			resp, err := p.Wait()
			if err != nil || resp.Status != StatusOK {
				b.Fatalf("pipelined read: %v", err)
			}
			benchResp = resp
		}
	}
}

// storeHost is a host over three in-process agents, slabs of 64 pages, whose
// pages [0,pages) have been written once: every page has its record and an ack
// set, as a store scan finds them.
func storeHost(tb testing.TB, pages int) *Host {
	tb.Helper()
	h, _ := buildCluster(tb, 3, 64, 11)
	for pg := 0; pg < pages; pg++ {
		h.WritePageAsync(core.PageID(pg), stamp(pg))
	}
	if err := h.Flush(); err != nil {
		tb.Fatal(err)
	}
	return h
}

// storeAt stores 64 bytes into buf and writes that range of page back, buf
// for its image, ringing the doorbell once a frame's worth of writes is queued.
func storeAt(h *Host, page core.PageID, buf []byte) error {
	lo := int(page) % (PageSize / 64) * 64
	buf[lo]++
	_, backlog, _ := h.WritePageRangeAsync(page, buf, lo, lo+64)
	if backlog < h.cfg.QueueDepth {
		return nil
	}
	_, err := h.Submit()
	return err
}

// BenchmarkHostRangeWriteback is a store scan's host side over in-process
// agents: each op reads a page, stores 64 bytes in it and writes the range
// back. ns/op and allocs/op are per page, agents included.
func BenchmarkHostRangeWriteback(b *testing.B) {
	const pages = 1024
	h := storeHost(b, pages)
	buf := make([]byte, PageSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		page := core.PageID(i % pages)
		if err := h.ReadPage(page, buf); err != nil {
			b.Fatal(err)
		}
		if err := storeAt(h, page, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRangeWritebackAllocatesOncePerPage: in steady state a range writeback
// costs the host one object, the pendingWrite that carries its ticket, replica
// set, ack set and flight list, and its share of the frames it rides in, whose
// flights carry their batches; the ack set the write leaves in its page's
// record reuses the record's. A handed-off writeback costs its frames alone: its
// pendingWrite and its image come off the host's free lists.
func TestRangeWritebackAllocatesOncePerPage(t *testing.T) {
	const pages = 256
	for _, handoff := range []bool{false, true} {
		h := storeHost(t, pages)
		img, buf := make([]byte, PageSize), make([]byte, PageSize)
		page := core.PageID(0)
		writeFrame := func() {
			for i := 0; i < h.cfg.QueueDepth; i++ {
				lo := int(page) % (PageSize / 64) * 64
				img[lo]++
				var backlog int
				if handoff {
					copy(buf, img)
					buf, backlog, _ = h.HandOffPageRange(page, buf, lo, lo+64)
				} else {
					_, backlog, _ = h.WritePageRangeAsync(page, img, lo, lo+64)
				}
				if backlog >= h.cfg.QueueDepth {
					if _, err := h.Submit(); err != nil {
						t.Fatal(err)
					}
				}
				page = (page + 1) % pages
			}
		}
		for i := 0; i < 2*pages/h.cfg.QueueDepth; i++ {
			writeFrame()
		}
		perPage := testing.AllocsPerRun(50, writeFrame) / float64(h.cfg.QueueDepth)
		// A pendingWrite a page, unless handed off, and over a frame's worth of
		// pages two frames, one per replica, each a flight and the in-process
		// agent's response.
		want := 2 * 2 / float64(h.cfg.QueueDepth)
		if !handoff {
			want++
		}
		t.Logf("handoff %v: %.3f objects a page", handoff, perPage)
		if perPage > want {
			t.Errorf("a range writeback (handoff %v) allocates %.2f objects a page, want at most %.2f", handoff, perPage, want)
		}
	}
}

// readFrame is an eight-page read batch of slab 1 from page first on.
func readFrame(tb testing.TB, first int) *Request {
	refs := make([]BatchRef, 8)
	for i := range refs {
		refs[i] = BatchRef{Slab: 1, PageOff: uint32(first + i)}
	}
	req, err := EncodeReadBatch(refs)
	if err != nil {
		tb.Fatal(err)
	}
	return req
}

// countedConn counts the Reads made on a connection.
type countedConn struct {
	net.Conn
	reads atomic.Int64
}

func (c *countedConn) Read(b []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(b)
}

// BenchmarkTCPTrain moves eight-page read frames over loopback k to a socket
// write (StartTrain) and collects them in order, handing each response's buffer
// back as the host does: what a doorbell costs, and what a train saves of it.
// ns/op is per page; writes/page is the request writes' share of a page.
func BenchmarkTCPTrain(b *testing.B) {
	for _, k := range []int{1, 2, 4} {
		b.Run(strconv.Itoa(k), func(b *testing.B) {
			tr := loopbackAgent(b, 64)
			reqs, ps := make([]*Request, k), make([]Pending, k)
			for j := range reqs {
				reqs[j] = readFrame(b, 8*j)
			}
			b.ReportAllocs()
			b.ResetTimer()
			writes0, _ := tr.doorbells()
			for i := 0; i < b.N; i += 8 * k {
				for j, req := range reqs {
					p, err := tr.StartTrain(req, j < k-1)
					if err != nil {
						b.Fatal(err)
					}
					ps[j] = p
				}
				for _, p := range ps {
					resp, err := p.Wait()
					if err != nil || resp.Status != StatusOK {
						b.Fatalf("train read: %v", err)
					}
					resp.release()
				}
			}
			writes, _ := tr.doorbells()
			b.ReportMetric(float64(writes-writes0)/float64(b.N), "writes/page")
		})
	}
}

// BenchmarkTCPHostScan is the host's side of a read scan over loopback TCP:
// pages are read in order, three eight-page frames to a doorbell
// (ReadPageAsync, then Submit), and their tickets waited for in order and
// released, so the reaper lands each frame's pages out of the transport's
// receive buffer and the host recycles the reads. ns/op
// is per page, B/op the host's and agent's allocation per page; reads/page is
// the socket reads the transport made for it.
func BenchmarkTCPHostScan(b *testing.B) {
	const pages, train = 1024, 24
	conn, err := net.Dial("tcp", serveAgent(b, NewAgent(pages, 0), nil))
	if err != nil {
		b.Fatal(err)
	}
	counted := &countedConn{Conn: conn}
	tr := newTCP(counted)
	b.Cleanup(func() { tr.Close() })
	h, err := NewHost(HostConfig{SlabPages: pages, Replicas: 1, QueueDepth: 8, Seed: 1}, []Transport{tr})
	if err != nil {
		b.Fatal(err)
	}
	for pg := 0; pg < pages; pg++ {
		h.WritePageAsync(core.PageID(pg), stamp(pg))
	}
	if err := h.Flush(); err != nil {
		b.Fatal(err)
	}
	bufs, tickets := make([][]byte, train), make([]*Ticket, train)
	for i := range bufs {
		bufs[i] = make([]byte, PageSize)
	}
	pg := 0
	b.ReportAllocs()
	b.ResetTimer()
	reads0 := counted.reads.Load()
	for i := 0; i < b.N; i += train {
		for j := range tickets {
			tickets[j] = h.ReadPageAsync(core.PageID(pg), bufs[j])
			pg = (pg + 1) % pages
		}
		if _, err := h.Submit(); err != nil {
			b.Fatal(err)
		}
		for _, tk := range tickets {
			if err := tk.Wait(); err != nil {
				b.Fatal(err)
			}
			tk.Release()
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pages/s")
	b.ReportMetric(float64(counted.reads.Load()-reads0)/float64(b.N), "reads/page")
}
