package remote

import (
	"strconv"
	"testing"
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
