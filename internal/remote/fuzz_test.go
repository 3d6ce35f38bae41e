package remote

import (
	"bytes"
	"io"
	"log"
	"net"
	"testing"

	"leap/internal/ztier"
)

// trainSeeds returns two and three valid frames back to back in one buffer: a
// train as the agent's connection delivers it in one Read.
func trainSeeds() [][]byte {
	rb, _ := EncodeReadBatch([]BatchRef{{Slab: 1, PageOff: 0}, {Slab: 1, PageOff: 1}})
	wr, _ := rangeFrame([]writeRange{{BatchRef{Slab: 1, PageOff: 1}, 9, []byte("leap")}})
	var two, three bytes.Buffer
	for _, req := range []*Request{{Op: OpMapSlab, Slab: 1}, rb} {
		_ = EncodeRequest(&two, req)
	}
	for _, req := range []*Request{wr, rb, {Op: OpRead, Slab: 1, PageOff: 1}} {
		_ = EncodeRequest(&three, req)
	}
	return [][]byte{two.Bytes(), three.Bytes()}
}

// streamConn is a connection that delivers a buffer, as much per Read as the
// reader takes, then hangs up, and keeps what is written to it.
type streamConn struct {
	net.Conn
	in  *bytes.Reader
	out bytes.Buffer
}

func (c *streamConn) Read(p []byte) (int, error)  { return c.in.Read(p) }
func (c *streamConn) Write(p []byte) (int, error) { return c.out.Write(p) }
func (c *streamConn) Close() error                { return nil }

// fuzzServeStream serves data to an agent as one connection's bytes: whatever
// it holds, the agent answers exactly the requests that decode from it, one
// response each and in order — held back for the next or not — and stops at
// the first that does not.
func fuzzServeStream(t *testing.T, data []byte) {
	requests, r := 0, bytes.NewReader(data)
	for req := new(Request); ; requests++ {
		if _, err := readRequest(r, req, nil); err != nil {
			break
		}
	}
	conn := &streamConn{in: bytes.NewReader(data)}
	NewAgent(8, 4).serveConn(conn)
	for i := 0; i < requests; i++ {
		if _, err := DecodeResponse(&conn.out); err != nil {
			t.Fatalf("response %d of %d: %v", i, requests, err)
		}
	}
	if conn.out.Len() != 0 {
		t.Fatalf("%d bytes written after the %d responses", conn.out.Len(), requests)
	}
}

// quietLog silences the agent's connection log for a fuzz target, whose
// inputs are mostly protocol errors.
func quietLog(f *testing.F) {
	out := log.Writer()
	log.SetOutput(io.Discard)
	f.Cleanup(func() { log.SetOutput(out) })
}

// FuzzDecodeRequest hammers the request decoder with arbitrary bytes: it
// must never panic or over-allocate, only return errors.
func FuzzDecodeRequest(f *testing.F) {
	// Seed with a valid request.
	var buf bytes.Buffer
	_ = EncodeRequest(&buf, &Request{Op: OpWrite, Slab: 7, PageOff: 3, Payload: make([]byte, PageSize)})
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{protoMagic})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	// Batched frames: a read batch and a two-page write batch.
	buf.Reset()
	rb, _ := EncodeReadBatch([]BatchRef{{Slab: 1, PageOff: 0}, {Slab: 2, PageOff: 5}})
	_ = EncodeRequest(&buf, rb)
	f.Add(bytes.Clone(buf.Bytes()))
	buf.Reset()
	wb, _ := EncodeWriteBatch([]BatchRef{{Slab: 3, PageOff: 1}, {Slab: 3, PageOff: 2}},
		[][]byte{make([]byte, PageSize), make([]byte, PageSize)})
	_ = EncodeRequest(&buf, wb)
	f.Add(bytes.Clone(buf.Bytes()))
	// A range frame: one byte of a page, and a whole one.
	buf.Reset()
	wr, _ := rangeFrame([]writeRange{{BatchRef{Slab: 3, PageOff: 1}, PageSize - 1, []byte{7}},
		{BatchRef{Slab: 3, PageOff: 2}, 0, make([]byte, PageSize)}})
	_ = EncodeRequest(&buf, wr)
	f.Add(bytes.Clone(buf.Bytes()))
	for _, train := range trainSeeds() {
		f.Add(train)
	}
	quietLog(f)

	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzServeStream(t, data)
		req, err := DecodeRequest(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Anything that decodes must re-encode and decode identically.
		var out bytes.Buffer
		if err := EncodeRequest(&out, req); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		again, err := DecodeRequest(&out)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again.Op != req.Op || again.Slab != req.Slab || again.PageOff != req.PageOff ||
			!bytes.Equal(again.Payload, req.Payload) {
			t.Fatal("request round trip diverged")
		}
	})
}

// FuzzDecodeResponse mirrors FuzzDecodeRequest for responses.
func FuzzDecodeResponse(f *testing.F) {
	var buf bytes.Buffer
	_ = EncodeResponse(&buf, &Response{Status: StatusOK, Payload: make([]byte, PageSize)})
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{protoMagic}, 16))

	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := DecodeResponse(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := EncodeResponse(&out, resp); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		again, err := DecodeResponse(&out)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again.Status != resp.Status || !bytes.Equal(again.Payload, resp.Payload) {
			t.Fatal("response round trip diverged")
		}
	})
}

// FuzzAgentHandle feeds arbitrary requests to an agent: every request must
// produce a response without panicking, and the agent must stay within its
// slab budget. Batch ops (arbitrary payloads posing as batch frames
// included) go through the same entry point.
func FuzzAgentHandle(f *testing.F) {
	f.Add(uint8(OpMapSlab), uint64(1), uint32(0), []byte{})
	f.Add(uint8(OpWrite), uint64(2), uint32(3), make([]byte, PageSize))
	f.Add(uint8(99), uint64(0), uint32(0), []byte{1, 2, 3})
	rb, _ := EncodeReadBatch([]BatchRef{{Slab: 1, PageOff: 0}})
	f.Add(uint8(OpReadBatch), uint64(0), uint32(0), rb.Payload)
	wb, _ := EncodeWriteBatch([]BatchRef{{Slab: 1, PageOff: 0}}, [][]byte{make([]byte, PageSize)})
	f.Add(uint8(OpWriteBatch), uint64(0), uint32(0), wb.Payload)
	wr, _ := rangeFrame([]writeRange{{BatchRef{Slab: 1, PageOff: 0}, 100, []byte("leap")}})
	f.Add(uint8(OpWriteRanges), uint64(0), uint32(0), wr.Payload)
	for _, train := range trainSeeds() {
		f.Add(uint8(OpPing), uint64(0), uint32(0), train)
	}
	quietLog(f)

	f.Fuzz(func(t *testing.T, op uint8, slab uint64, off uint32, payload []byte) {
		if len(payload) > maxWirePayload {
			payload = payload[:maxWirePayload]
		}
		fuzzServeStream(t, payload) // the payload as a connection's bytes: a train, or noise
		a := NewAgent(8, 4)
		resp := a.Handle(&Request{Op: op, Slab: SlabID(slab), PageOff: off, Payload: payload})
		if resp == nil {
			t.Fatal("nil response")
		}
		if a.SlabCount() > 4 {
			t.Fatalf("agent exceeded slab budget: %d", a.SlabCount())
		}
	})
}

// FuzzBatchFrames hammers the batch entry decoders — raw and compressed —
// with arbitrary payloads: they must never panic; anything that decodes
// must re-encode (in both framings) and decode to the same entries
// (round-trip closure). isRead selects the read decoders, which also run
// the payload through the read-*response* decoder, the other frame shape
// that carries compressed page images; the write side also reads the payload
// as a range frame, which must in addition apply to an agent as it decodes.
func FuzzBatchFrames(f *testing.F) {
	var seedComp ztier.Compressor
	rb, _ := EncodeReadBatch([]BatchRef{{Slab: 9, PageOff: 2}, {Slab: 9, PageOff: 3}})
	f.Add(true, rb.Payload)
	wb, _ := EncodeWriteBatch([]BatchRef{{Slab: 4, PageOff: 0}}, [][]byte{make([]byte, PageSize)})
	f.Add(false, wb.Payload)
	f.Add(true, []byte{})
	f.Add(false, []byte{0xff, 0xff, 0xff, 0xff})
	crb, _ := EncodeReadBatchCompressed([]BatchRef{{Slab: 9, PageOff: 2}})
	f.Add(true, crb.Payload)
	cwb, _ := EncodeWriteBatchCompressed([]BatchRef{{Slab: 4, PageOff: 1}},
		[][]byte{bytes.Repeat([]byte{0xAB}, PageSize)}, &seedComp)
	f.Add(false, cwb.Payload)
	cresp, _ := EncodeReadBatchResponseCompressed([]BatchReadResult{
		{Status: StatusOK, Page: bytes.Repeat([]byte("leap"), PageSize/4)},
		{Status: StatusBadSlab},
	}, &seedComp)
	f.Add(true, cresp.Payload)
	wr, _ := rangeFrame([]writeRange{
		{BatchRef{Slab: 1, PageOff: 0}, 0, []byte{1}},
		{BatchRef{Slab: 1, PageOff: 0}, PageSize - 3, []byte{2, 3, 4}},
		{BatchRef{Slab: 2, PageOff: 1}, 0, bytes.Repeat([]byte{5}, PageSize)},
		{BatchRef{Slab: 9, PageOff: 0}, 64, bytes.Repeat([]byte{6}, 64)},
	})
	f.Add(false, wr.Payload)
	f.Add(false, wr.Payload[:len(wr.Payload)-1])
	for _, train := range trainSeeds() {
		f.Add(false, train)
	}
	quietLog(f)

	f.Fuzz(func(t *testing.T, isRead bool, payload []byte) {
		if len(payload) > maxWirePayload {
			payload = payload[:maxWirePayload]
		}
		fuzzServeStream(t, payload)
		var comp ztier.Compressor
		if isRead {
			if refs, err := DecodeReadBatch(&Request{Op: OpReadBatch, Payload: payload}); err == nil {
				again, err := EncodeReadBatch(refs)
				if err != nil {
					t.Fatalf("re-encode of decoded read batch failed: %v", err)
				}
				refs2, err := DecodeReadBatch(again)
				if err != nil || !slicesEqualRefs(refs, refs2) {
					t.Fatalf("read batch round trip diverged: %v vs %v (%v)", refs, refs2, err)
				}
				creq, err := EncodeReadBatchCompressed(refs)
				if err != nil {
					t.Fatalf("compressed re-encode of read batch failed: %v", err)
				}
				if !ReadBatchCompressed(creq) {
					t.Fatal("compressed read batch lost its flag")
				}
				refs3, err := DecodeReadBatch(creq)
				if err != nil || !slicesEqualRefs(refs, refs3) {
					t.Fatalf("compressed read batch round trip diverged (%v)", err)
				}
			}
			// The same bytes as a hostile read response (raw or compressed):
			// decoded results must survive a compressed re-encode.
			results, err := DecodeReadBatchResponse(&Response{Status: StatusOK, Payload: payload})
			if err != nil {
				return
			}
			cre, err := EncodeReadBatchResponseCompressed(results, &comp)
			if err != nil {
				t.Fatalf("compressed re-encode of read results failed: %v", err)
			}
			results2, err := DecodeReadBatchResponse(cre)
			if err != nil || len(results2) != len(results) {
				t.Fatalf("compressed read response round trip diverged (%v)", err)
			}
			for i := range results {
				if results[i].Status != results2[i].Status || !bytes.Equal(results[i].Page, results2[i].Page) {
					t.Fatalf("read result %d diverged through compression", i)
				}
			}
			return
		}
		fuzzWriteRanges(t, payload)
		refs, pages, err := DecodeWriteBatch(&Request{Op: OpWriteBatch, Payload: payload})
		if err != nil {
			return
		}
		again, err := EncodeWriteBatch(refs, pages)
		if err != nil {
			t.Fatalf("re-encode of decoded write batch failed: %v", err)
		}
		refs2, pages2, err := DecodeWriteBatch(again)
		if err != nil || !slicesEqualRefs(refs, refs2) {
			t.Fatalf("write batch refs round trip diverged (%v)", err)
		}
		for i := range pages {
			if !bytes.Equal(pages[i], pages2[i]) {
				t.Fatalf("write batch page %d round trip diverged", i)
			}
		}
		creq, err := EncodeWriteBatchCompressed(refs, pages, &comp)
		if err != nil {
			t.Fatalf("compressed re-encode of write batch failed: %v", err)
		}
		refs3, pages3, err := DecodeWriteBatch(creq)
		if err != nil || !slicesEqualRefs(refs, refs3) {
			t.Fatalf("compressed write batch refs round trip diverged (%v)", err)
		}
		for i := range pages {
			if !bytes.Equal(pages[i], pages3[i]) {
				t.Fatalf("compressed write batch page %d round trip diverged", i)
			}
		}
	})
}

// fuzzWriteRanges reads payload as a range frame. One that does not decode must
// leave an agent's slabs alone; one that does must re-encode to the same bytes
// and, applied to an agent, lay each range over its page — entry by entry, in
// order, for the slabs the agent has — exactly as a page map does.
func fuzzWriteRanges(t *testing.T, payload []byte) {
	const slabPages = 2
	a := NewAgent(slabPages, 0)
	model := map[SlabID][]byte{1: make([]byte, slabPages*PageSize), 2: make([]byte, slabPages*PageSize)}
	for slab := range model {
		a.Handle(&Request{Op: OpMapSlab, Slab: slab})
	}
	req := &Request{Op: OpWriteRanges, Payload: payload}
	ranges, err := decodeWriteRanges(req, nil)
	resp := a.Handle(req)
	if err != nil {
		if resp.Status != StatusBadFrame {
			t.Fatalf("agent answered status %d to a range frame that does not decode (%v)", resp.Status, err)
		}
	} else {
		again, err := rangeFrame(ranges)
		if err != nil || !bytes.Equal(again.Payload, payload) {
			t.Fatalf("range frame round trip diverged (%v)", err)
		}
		statuses, err := DecodeWriteBatchResponse(resp)
		if err != nil || len(statuses) != len(ranges) {
			t.Fatalf("range frame of %d entries answered %d statuses (%v)", len(ranges), len(statuses), err)
		}
		for i, r := range ranges {
			want := StatusOK
			if img, ok := model[r.Slab]; !ok {
				want = StatusBadSlab
			} else if r.PageOff >= slabPages {
				want = StatusBadBound
			} else {
				copy(img[int(r.PageOff)*PageSize+r.Lo:], r.Data)
			}
			if statuses[i] != want {
				t.Fatalf("range %d: status %d, want %d", i, statuses[i], want)
			}
		}
	}
	for slab, img := range model {
		for off := uint32(0); off < slabPages; off++ {
			got := a.Handle(&Request{Op: OpRead, Slab: slab, PageOff: off}).Payload
			if !bytes.Equal(got, img[int(off)*PageSize:int(off+1)*PageSize]) {
				t.Fatalf("slab %d page %d differs from the model after the frame (decode error: %v)", slab, off, err)
			}
		}
	}
}

func slicesEqualRefs(a, b []BatchRef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
