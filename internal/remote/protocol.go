// Package remote implements the remote-memory substrate of §4.4–4.5: a host
// agent that maps fixed-size memory slabs onto one or more remote agents,
// with rendezvous-hashed placement for load balance and two-way replication
// for fault tolerance.
//
// Unlike the latency *models* elsewhere in this repository, this package
// moves real bytes: agents hold slab contents in memory, and the host reads
// and writes 4KB pages through a Transport. Two transports exist — an
// in-process one for unit tests and simulations, and a TCP one (binary
// framed protocol, stdlib net) used by cmd/leapagent and the remoteswap
// example to exercise an actual network path.
package remote

import (
	"encoding/binary"
	"fmt"
	"io"
)

// PageSize is the fixed page size, matching the paper's 4KB unit.
const PageSize = 4096

// DefaultSlabPages is the default slab granularity (pages per slab). The
// real Infiniswap uses 1GB slabs; tests and examples use smaller ones, so
// this is configurable on the Host.
const DefaultSlabPages = 4096 // 16MB

// SlabID names a slab within the cluster-wide remote memory pool. It is
// 64-bit on the wire: hosts namespace pages per process in the high bits,
// so slab numbers exceed 32 bits even at moderate slab sizes.
type SlabID uint64

// Op codes of the wire protocol.
const (
	OpMapSlab  uint8 = 1 // allocate a slab on the agent
	OpFreeSlab uint8 = 2 // release a slab
	OpRead     uint8 = 3 // read one page
	OpWrite    uint8 = 4 // write one page
	OpPing     uint8 = 5 // liveness probe
	OpStats    uint8 = 6 // slab count + capacity
	// OpReadBatch reads up to MaxBatchOps pages in one frame — the
	// doorbell-style batching of §4.4's multi-queue design: one round trip
	// (and one fabric doorbell) amortized over the whole batch.
	OpReadBatch uint8 = 7
	// OpWriteBatch writes up to MaxBatchOps pages in one frame.
	OpWriteBatch uint8 = 8
	// OpWriteRanges writes a byte range of each of up to MaxBatchOps pages in
	// one frame: what a store dirtied, laid over the image the agent holds.
	OpWriteRanges uint8 = 9
)

// Status codes of the wire protocol.
const (
	StatusOK       uint8 = 0
	StatusNoSpace  uint8 = 1
	StatusBadSlab  uint8 = 2
	StatusBadOp    uint8 = 3
	StatusBadBound uint8 = 4
	// StatusBadFrame reports a malformed batch payload (bad count or
	// truncated entries). Batch responses carry per-entry statuses; this
	// status is for frames that cannot be parsed at all.
	StatusBadFrame uint8 = 5
)

// MaxBatchOps caps the page operations one batched frame may carry, which
// in turn bounds decoder allocation for hostile input.
const MaxBatchOps = 256

const protoMagic uint8 = 0x4C // 'L'

// Request is one protocol request. Payload is used by OpWrite (exactly
// PageSize bytes) and by the batch ops (OpReadBatch, OpWriteBatch,
// OpWriteRanges), whose payloads pack per-page entries (see batch.go for the
// framing). A Request must not be encoded from two goroutines at once:
// encoders that own header room write the header in place.
type Request struct {
	Op      uint8
	Slab    SlabID
	PageOff uint32 // page index within the slab
	Payload []byte

	// frame, when set by an encoder, is Payload's backing buffer with
	// reqHeaderSize bytes of room in front, so the frame goes out as one
	// contiguous Write without copying the payload.
	frame []byte
}

// Response is one protocol response. Payload carries page data for OpRead
// and two little-endian uint32s (used, capacity) for OpStats.
type Response struct {
	Status  uint8
	Payload []byte

	// frame is Payload's backing buffer with respHeaderSize bytes of room in
	// front (see Request.frame).
	frame []byte
	// home is the free list resp's buffer is from, nil for none (see release).
	home *bufPool
	// lender is the TCP transport whose receive buffer Payload was lent out
	// of, nil for none; the loan may have been revoked since (see TCP.loan).
	lender *TCP
	// pend is the TCP pending resp is stored in, which release recycles; nil
	// for a response of its own.
	pend *tcpPending
}

// reqHeaderSize is magic+op+slab+pageoff+payloadlen.
const reqHeaderSize = 1 + 1 + 8 + 4 + 4

// respHeaderSize is magic+status+payloadlen.
const respHeaderSize = 1 + 1 + 4

// batchRefSize is one (slab, pageoff) reference inside a batch payload.
const batchRefSize = 8 + 4

// rangeHeadSize is what follows the reference in an OpWriteRanges entry: the
// range's first byte and its length less one, a u16 each.
const rangeHeadSize = 2 + 2

// maxWirePayload bounds any frame payload: the largest legal frame is a full
// range batch of whole pages — count word plus MaxBatchOps × (ref, range head,
// PageSize bytes) — one byte per entry more than a compressed write batch of
// incompressible pages (ref, u16 clen, stored-fallback page of PageSize+1
// bytes). Decoders reject anything larger before allocating.
const maxWirePayload = 4 + MaxBatchOps*(batchRefSize+rangeHeadSize+PageSize)

// connBufSize sizes the agent's bufio.Reader on a connection: one
// header-sized read pulls in a whole single-page request, and larger payloads
// (write batches) are read straight into their buffer. The agent reads a
// request and answers it before the next, so a larger buffer saves it little.
const connBufSize = 16 << 10

// recvBufSize sizes a TCP transport's receive buffer: one socket read takes
// in a train of responses — the agent sends up to trainBytes in one write,
// and a reader that is behind finds several — and the host's reaper lands its
// own response straight out of it (TCP.loan). Larger payloads are read
// straight into a buffer of their own.
const recvBufSize = 256 << 10

// batchOp reports whether op's payload packs per-page entries (batch.go) and
// so may exceed a page.
func batchOp(op uint8) bool {
	return op == OpReadBatch || op == OpWriteBatch || op == OpWriteRanges
}

// sized returns a slice of n elements, s's own array when that is large
// enough: scratch for a decoder or encoder that overwrites all of it.
func sized[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// headroom returns a buffer of hdr+n bytes, reusing buf's capacity when it
// suffices, for an encoder to build a payload behind room for its header.
func headroom(buf []byte, hdr, n int) []byte { return sized(buf, hdr+n) }

// wireFrame lays header and payload out contiguously so a frame costs one
// Write on any io.Writer: in place when frame is payload's backing buffer
// with hdr bytes of room in front, else copied into scratch. The caller
// fills in the first hdr bytes.
func wireFrame(frame, payload, scratch []byte, hdr int) []byte {
	if len(payload) > 0 && len(frame) == hdr+len(payload) && &frame[hdr] == &payload[0] {
		return frame
	}
	buf := headroom(scratch, hdr, len(payload))
	copy(buf[hdr:], payload)
	return buf
}

// wire returns r in wire format as one contiguous slice, built in scratch
// unless r carries its own header room.
func (r *Request) wire(scratch []byte) []byte {
	buf := wireFrame(r.frame, r.Payload, scratch, reqHeaderSize)
	buf[0] = protoMagic
	buf[1] = r.Op
	binary.LittleEndian.PutUint64(buf[2:10], uint64(r.Slab))
	binary.LittleEndian.PutUint32(buf[10:14], r.PageOff)
	binary.LittleEndian.PutUint32(buf[14:18], uint32(len(r.Payload)))
	return buf
}

// wire is Request.wire for responses.
func (resp *Response) wire(scratch []byte) []byte {
	buf := wireFrame(resp.frame, resp.Payload, scratch, respHeaderSize)
	buf[0] = protoMagic
	buf[1] = resp.Status
	binary.LittleEndian.PutUint32(buf[2:6], uint32(len(resp.Payload)))
	return buf
}

// EncodeRequest writes r to w in wire format, as a single Write.
func EncodeRequest(w io.Writer, r *Request) error {
	if _, err := w.Write(r.wire(nil)); err != nil {
		return fmt.Errorf("remote: write request: %w", err)
	}
	return nil
}

// DecodeRequest reads one request from r into a freshly allocated payload.
func DecodeRequest(r io.Reader) (*Request, error) {
	req := new(Request)
	if _, err := readRequest(r, req, nil); err != nil {
		return nil, err
	}
	return req, nil
}

// readRequest reads one request from r into req, placing the payload in buf
// when its capacity suffices (a connection's reusable buffer) and in a fresh
// allocation otherwise. It returns the buffer to pass to the next call.
func readRequest(r io.Reader, req *Request, buf []byte) ([]byte, error) {
	// The header passes through buf too (parsed before the payload overwrites
	// it): a local array would escape through the io.Reader and cost an
	// allocation per request.
	buf = headroom(buf, 0, reqHeaderSize)
	hdr := buf
	if _, err := io.ReadFull(r, hdr); err != nil {
		return buf, err // io.EOF propagates cleanly for connection close
	}
	if hdr[0] != protoMagic {
		return buf, fmt.Errorf("remote: bad magic 0x%02x", hdr[0])
	}
	*req = Request{
		Op:      hdr[1],
		Slab:    SlabID(binary.LittleEndian.Uint64(hdr[2:10])),
		PageOff: binary.LittleEndian.Uint32(hdr[10:14]),
	}
	n := int(binary.LittleEndian.Uint32(hdr[14:18]))
	if n > maxWirePayload {
		return buf, fmt.Errorf("remote: oversized payload %d", n)
	}
	if n > PageSize && !batchOp(req.Op) {
		return buf, fmt.Errorf("remote: oversized payload %d for op %d", n, req.Op)
	}
	if n > 0 {
		buf = headroom(buf, 0, n)
		req.Payload = buf
		if _, err := io.ReadFull(r, req.Payload); err != nil {
			return buf, fmt.Errorf("remote: read payload: %w", err)
		}
	}
	return buf, nil
}

// EncodeResponse writes resp to w in wire format, as a single Write.
func EncodeResponse(w io.Writer, resp *Response) error {
	if _, err := w.Write(resp.wire(nil)); err != nil {
		return fmt.Errorf("remote: write response: %w", err)
	}
	return nil
}

// DecodeResponse reads one response from r into a freshly allocated payload.
func DecodeResponse(r io.Reader) (*Response, error) {
	resp := new(Response)
	if err := readResponse(r, make([]byte, respHeaderSize), nil, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// readResponse reads one response from r into resp: the header through hdr (a
// local array would escape through the io.Reader), the payload into one of
// pool's buffers; a nil pool, or one with no buffer large enough, allocates.
func readResponse(r io.Reader, hdr []byte, pool *bufPool, resp *Response) error {
	if _, err := io.ReadFull(r, hdr); err != nil {
		return err
	}
	if hdr[0] != protoMagic {
		return fmt.Errorf("remote: bad magic 0x%02x", hdr[0])
	}
	*resp = Response{Status: hdr[1]}
	n := binary.LittleEndian.Uint32(hdr[2:6])
	if n > maxWirePayload {
		return fmt.Errorf("remote: oversized payload %d", n)
	}
	if n > 0 {
		resp.Payload, resp.home = sized(pool.take(), int(n)), pool
		if _, err := io.ReadFull(r, resp.Payload); err != nil {
			return fmt.Errorf("remote: read payload: %w", err)
		}
	}
	return nil
}

// release hands resp's buffer back to the transport that owns it, or gives
// its loan back, and a response stored in a TCP pending recycles the pending
// with it; nothing of resp may be used afterwards. Only the host does, once a
// flight's response is applied to its tickets (Host.reap, startNext's landing
// on the spot): a direct Transport.Call's response has no owner who knows when
// it is dead, so none is.
func (resp *Response) release() {
	if resp == nil {
		return
	}
	p := resp.pend
	resp.pend = nil
	switch {
	case resp.lender != nil:
		resp.lender.giveBack(resp)
	case resp.home != nil:
		buf, home := resp.frame, resp.home
		if buf == nil {
			buf = resp.Payload
		}
		*resp = Response{Status: resp.Status}
		home.put(buf)
	}
	if p != nil {
		p.t.recycle(p)
	}
}

// statusError converts a non-OK status into an error.
func statusError(op uint8, status uint8) error {
	if status == StatusOK {
		return nil
	}
	var what string
	switch status {
	case StatusNoSpace:
		what = "no space"
	case StatusBadSlab:
		what = "unknown slab"
	case StatusBadOp:
		what = "bad op"
	case StatusBadBound:
		what = "offset out of bounds"
	case StatusBadFrame:
		what = "malformed batch frame"
	default:
		what = fmt.Sprintf("status %d", status)
	}
	return fmt.Errorf("remote: op %d failed: %s", op, what)
}
