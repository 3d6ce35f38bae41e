package remote

import (
	"encoding/binary"
	"fmt"
	"slices"

	"leap/internal/ztier"
)

// This file defines the doorbell-style batched frames of the wire protocol:
// one OpReadBatch/OpWriteBatch/OpWriteRanges request carries up to MaxBatchOps
// page operations and one response carries all their results, so a queue of
// pending pages costs one round trip (and one fabric doorbell) instead of
// one per page. The framing packs entries into Request/Response.Payload, so
// every transport — in-process, TCP, fault-injecting — carries batches
// unchanged.
//
// Read batch request payload:   u32 count, then count × (u64 slab, u32 off).
// Read batch response payload:  u32 count, then count × (u8 status,
//                               PageSize bytes present only when status==OK).
// Write batch request payload:  u32 count, then count × (u64 slab, u32 off,
//                               PageSize bytes).
// Write batch response payload: u32 count, then count × u8 status.
// Write ranges request payload: u32 count, then count × (u64 slab, u32 off,
//                               u16 lo, u16 len−1, len bytes): bytes
//                               [lo, lo+len) of the page, the rest of which
//                               the agent keeps; lo+len <= PageSize. Never
//                               compressed. Its response is the write batch's.
//
// Compressed frames: when the high bit of the count word
// (batchCompressFlag) is set, page images travel through the ztier block
// codec instead of raw. A compressed read *request* carries the same refs —
// the flag only asks the agent to compress its response. Entry layouts with
// the flag set:
//
// Read batch response payload:  u32 count|flag, then count × (u8 status,
//                               [u16 clen, clen bytes] only when status==OK).
// Write batch request payload:  u32 count|flag, then count × (u64 slab,
//                               u32 off, u16 clen, clen bytes).
//
// The codec's stored-block fallback bounds clen at
// ztier.MaxEncodedLen(PageSize), so a compressed frame is never more than
// 3 bytes per entry larger than its raw twin and always fits
// maxWirePayload. Decoders accept both layouts transparently, keyed off the
// flag, so mixed fleets interoperate: a host that never sets the flag never
// sees a compressed frame.

// batchCompressFlag marks a batch payload whose page images travel through
// the ztier codec. It rides the high bit of the leading count word:
// MaxBatchOps is far below 2^31, so on legacy frames the bit is always
// zero.
const batchCompressFlag uint32 = 1 << 31

// BatchRef names one page inside a batched frame.
type BatchRef struct {
	Slab    SlabID
	PageOff uint32
}

// writeRange is one entry of an OpWriteRanges frame: Data replaces the bytes
// of the page from Lo on. 1 <= len(Data) and Lo+len(Data) <= PageSize; decoded,
// Data aliases the request payload.
type writeRange struct {
	BatchRef
	Lo   int
	Data []byte
}

// BatchReadResult is one page's outcome inside a read-batch response. Page
// is nil unless Status is StatusOK; it aliases the response payload, so
// callers copy before reusing the response.
type BatchReadResult struct {
	Status uint8
	Page   []byte
}

// The exported encoders and decoders below allocate what they return: each is
// its lower-case twin given nothing to reuse — no buf with capacity for the
// frame, no Request to fill in, no slices whose arrays to decode into.

// EncodeReadBatch packs refs into an OpReadBatch request.
func EncodeReadBatch(refs []BatchRef) (*Request, error) {
	return encodeReadBatch(new(Request), refs, false, nil)
}

// encodeReadBatch is EncodeReadBatch, or EncodeReadBatchCompressed, into req.
func encodeReadBatch(req *Request, refs []BatchRef, compress bool, buf []byte) (*Request, error) {
	if len(refs) == 0 || len(refs) > MaxBatchOps {
		return nil, fmt.Errorf("remote: read batch of %d ops (want 1..%d)", len(refs), MaxBatchOps)
	}
	frame := headroom(buf, reqHeaderSize, 4+len(refs)*batchRefSize)
	payload := frame[reqHeaderSize:]
	word := uint32(len(refs))
	if compress {
		word |= batchCompressFlag
	}
	binary.LittleEndian.PutUint32(payload[0:4], word)
	off := 4
	for _, r := range refs {
		binary.LittleEndian.PutUint64(payload[off:], uint64(r.Slab))
		binary.LittleEndian.PutUint32(payload[off+8:], r.PageOff)
		off += batchRefSize
	}
	*req = Request{Op: OpReadBatch, Payload: payload, frame: frame}
	return req, nil
}

// EncodeReadBatchCompressed packs refs into an OpReadBatch request whose
// compress flag asks the agent to return its page images compressed. The
// request itself carries only refs — nothing in it is compressed; the flag
// is a negotiation bit echoed on the response.
func EncodeReadBatchCompressed(refs []BatchRef) (*Request, error) {
	return encodeReadBatch(new(Request), refs, true, nil)
}

// ReadBatchCompressed reports whether an OpReadBatch request asks for a
// compressed response.
func ReadBatchCompressed(req *Request) bool {
	return req.Op == OpReadBatch && payloadCompressed(req.Payload)
}

// DecodeReadBatch unpacks an OpReadBatch request payload. The compress flag
// is legal here (it only governs the response shape); ReadBatchCompressed
// reports it.
func DecodeReadBatch(req *Request) ([]BatchRef, error) { return decodeReadBatch(req, nil) }

func decodeReadBatch(req *Request, refs []BatchRef) ([]BatchRef, error) {
	if req.Op != OpReadBatch {
		return nil, fmt.Errorf("remote: DecodeReadBatch on op %d", req.Op)
	}
	n, _, err := batchCount(req.Payload)
	if err != nil {
		return nil, err
	}
	if len(req.Payload) != 4+n*batchRefSize {
		return nil, fmt.Errorf("remote: read batch payload %dB for %d ops", len(req.Payload), n)
	}
	refs = sized(refs, n)
	off := 4
	for i := range refs {
		refs[i].Slab = SlabID(binary.LittleEndian.Uint64(req.Payload[off:]))
		refs[i].PageOff = binary.LittleEndian.Uint32(req.Payload[off+8:])
		off += batchRefSize
	}
	return refs, nil
}

// EncodeReadBatchResponse packs per-page results into an OpReadBatch
// response. Each OK result must carry exactly PageSize bytes.
func EncodeReadBatchResponse(results []BatchReadResult) (*Response, error) {
	return boxed(encodeReadBatchResponse(results, nil))
}

// boxed is an encoder's response, for an exported caller: on the heap, nil
// with an error.
func boxed(resp Response, err error) (*Response, error) {
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// encodeReadBatchResponse is EncodeReadBatchResponse building the frame in
// buf when its capacity suffices (a connection's reusable response buffer).
func encodeReadBatchResponse(results []BatchReadResult, buf []byte) (Response, error) {
	if len(results) == 0 || len(results) > MaxBatchOps {
		return Response{}, fmt.Errorf("remote: read batch response of %d ops", len(results))
	}
	size := 4
	for _, r := range results {
		size++
		if r.Status == StatusOK {
			if len(r.Page) != PageSize {
				return Response{}, fmt.Errorf("remote: OK read result with %dB page", len(r.Page))
			}
			size += PageSize
		}
	}
	frame := headroom(buf, respHeaderSize, size)
	payload := frame[respHeaderSize:]
	binary.LittleEndian.PutUint32(payload[0:4], uint32(len(results)))
	off := 4
	for _, r := range results {
		payload[off] = r.Status
		off++
		if r.Status == StatusOK {
			copy(payload[off:], r.Page)
			off += PageSize
		}
	}
	return Response{Status: StatusOK, Payload: payload, frame: frame}, nil
}

// EncodeReadBatchResponseCompressed packs per-page results into an
// OpReadBatch response with every OK page run through the ztier codec:
// (u8 status, u16 clen, clen bytes) per entry. The codec's stored fallback
// bounds clen, so the frame always fits maxWirePayload.
func EncodeReadBatchResponseCompressed(results []BatchReadResult, comp *ztier.Compressor) (*Response, error) {
	return boxed(encodeReadBatchResponseCompressed(results, comp, nil))
}

// encodeReadBatchResponseCompressed is EncodeReadBatchResponseCompressed
// building the frame in buf when its capacity suffices.
func encodeReadBatchResponseCompressed(results []BatchReadResult, comp *ztier.Compressor, buf []byte) (Response, error) {
	if len(results) == 0 || len(results) > MaxBatchOps {
		return Response{}, fmt.Errorf("remote: read batch response of %d ops", len(results))
	}
	// Sized for the worst case up front, so the appends below never move the
	// payload off the frame's header room.
	frame := headroom(buf, respHeaderSize, 4+len(results)*(1+2+ztier.MaxEncodedLen(PageSize)))
	payload := frame[respHeaderSize : respHeaderSize+4]
	binary.LittleEndian.PutUint32(payload[0:4], uint32(len(results))|batchCompressFlag)
	for _, r := range results {
		payload = append(payload, r.Status)
		if r.Status != StatusOK {
			continue
		}
		if len(r.Page) != PageSize {
			return Response{}, fmt.Errorf("remote: OK read result with %dB page", len(r.Page))
		}
		lenPos := len(payload)
		payload = append(payload, 0, 0) // clen backfilled below
		payload = comp.Compress(payload, r.Page)
		binary.LittleEndian.PutUint16(payload[lenPos:], uint16(len(payload)-lenPos-2))
	}
	return Response{Status: StatusOK, Payload: payload, frame: frame[:respHeaderSize+len(payload)]}, nil
}

// DecodeReadBatchResponse unpacks an OpReadBatch response, raw or
// compressed (keyed off the payload's compress flag). Raw pages alias the
// response payload; compressed pages are freshly allocated.
func DecodeReadBatchResponse(resp *Response) ([]BatchReadResult, error) {
	return decodeReadBatchResponse(resp, nil)
}

func decodeReadBatchResponse(resp *Response, results []BatchReadResult) ([]BatchReadResult, error) {
	if resp.Status != StatusOK {
		return nil, statusError(OpReadBatch, resp.Status)
	}
	n, compressed, err := batchCount(resp.Payload)
	if err != nil {
		return nil, err
	}
	results = sized(results, n)
	off := 4
	for i := range results {
		if off >= len(resp.Payload) {
			return nil, fmt.Errorf("remote: read batch response truncated at op %d", i)
		}
		results[i] = BatchReadResult{Status: resp.Payload[off]}
		off++
		if results[i].Status != StatusOK {
			continue
		}
		if compressed {
			page, used, err := decodeCompressedPage(resp.Payload[off:])
			if err != nil {
				return nil, fmt.Errorf("remote: read batch response op %d: %w", i, err)
			}
			results[i].Page = page
			off += used
			continue
		}
		if off+PageSize > len(resp.Payload) {
			return nil, fmt.Errorf("remote: read batch response truncated at op %d page", i)
		}
		results[i].Page = resp.Payload[off : off+PageSize]
		off += PageSize
	}
	if off != len(resp.Payload) {
		return nil, fmt.Errorf("remote: read batch response has %d trailing bytes", len(resp.Payload)-off)
	}
	return results, nil
}

// EncodeWriteBatch packs refs and their page images into an OpWriteBatch
// request. pages[i] must be exactly PageSize bytes.
func EncodeWriteBatch(refs []BatchRef, pages [][]byte) (*Request, error) {
	return encodeWriteBatch(new(Request), refs, pages, nil)
}

func encodeWriteBatch(req *Request, refs []BatchRef, pages [][]byte, buf []byte) (*Request, error) {
	if len(refs) == 0 || len(refs) > MaxBatchOps {
		return nil, fmt.Errorf("remote: write batch of %d ops (want 1..%d)", len(refs), MaxBatchOps)
	}
	if len(pages) != len(refs) {
		return nil, fmt.Errorf("remote: write batch with %d refs but %d pages", len(refs), len(pages))
	}
	frame := headroom(buf, reqHeaderSize, 4+len(refs)*(batchRefSize+PageSize))
	payload := frame[reqHeaderSize:]
	binary.LittleEndian.PutUint32(payload[0:4], uint32(len(refs)))
	off := 4
	for i, r := range refs {
		if len(pages[i]) != PageSize {
			return nil, fmt.Errorf("remote: write batch page %d has %dB", i, len(pages[i]))
		}
		binary.LittleEndian.PutUint64(payload[off:], uint64(r.Slab))
		binary.LittleEndian.PutUint32(payload[off+8:], r.PageOff)
		copy(payload[off+batchRefSize:], pages[i])
		off += batchRefSize + PageSize
	}
	*req = Request{Op: OpWriteBatch, Payload: payload, frame: frame}
	return req, nil
}

// EncodeWriteBatchCompressed packs refs and their page images into an
// OpWriteBatch request with every page run through the ztier codec:
// (u64 slab, u32 off, u16 clen, clen bytes) per entry.
func EncodeWriteBatchCompressed(refs []BatchRef, pages [][]byte, comp *ztier.Compressor) (*Request, error) {
	encs := make([][]byte, len(pages))
	buf := make([]byte, 0, len(pages)*ztier.MaxEncodedLen(PageSize))
	for i, p := range pages {
		if len(p) != PageSize {
			return nil, fmt.Errorf("remote: write batch page %d has %dB", i, len(p))
		}
		n := len(buf)
		buf = comp.Compress(buf, p)
		encs[i] = buf[n:]
	}
	return encodeWriteBatchCompressed(new(Request), refs, encs, nil)
}

// encodeWriteBatchCompressed lays out an OpWriteBatch request of pages already
// through the codec (encs; Host.encoded), building the frame in buf when its
// capacity suffices.
func encodeWriteBatchCompressed(req *Request, refs []BatchRef, encs [][]byte, buf []byte) (*Request, error) {
	if len(refs) == 0 || len(refs) > MaxBatchOps {
		return nil, fmt.Errorf("remote: write batch of %d ops (want 1..%d)", len(refs), MaxBatchOps)
	}
	if len(encs) != len(refs) {
		return nil, fmt.Errorf("remote: write batch with %d refs but %d pages", len(refs), len(encs))
	}
	// Capacity covers the worst case, so the appends below never move the
	// payload off the frame's header room.
	frame := headroom(buf, reqHeaderSize, 4+len(refs)*(batchRefSize+2+ztier.MaxEncodedLen(PageSize)))
	payload := frame[reqHeaderSize : reqHeaderSize+4]
	binary.LittleEndian.PutUint32(payload[0:4], uint32(len(refs))|batchCompressFlag)
	for i, r := range refs {
		if len(encs[i]) > ztier.MaxEncodedLen(PageSize) {
			return nil, fmt.Errorf("remote: write batch page %d encodes to %dB", i, len(encs[i]))
		}
		var ref [batchRefSize]byte
		binary.LittleEndian.PutUint64(ref[0:8], uint64(r.Slab))
		binary.LittleEndian.PutUint32(ref[8:12], r.PageOff)
		payload = append(payload, ref[:]...)
		payload = binary.LittleEndian.AppendUint16(payload, uint16(len(encs[i])))
		payload = append(payload, encs[i]...)
	}
	*req = Request{Op: OpWriteBatch, Payload: payload, frame: frame[:reqHeaderSize+len(payload)]}
	return req, nil
}

// DecodeWriteBatch unpacks an OpWriteBatch request payload, raw or
// compressed (keyed off the payload's compress flag). Raw pages alias the
// request payload; compressed pages are freshly allocated.
func DecodeWriteBatch(req *Request) ([]BatchRef, [][]byte, error) {
	return decodeWriteBatch(req, nil, nil)
}

func decodeWriteBatch(req *Request, refs []BatchRef, pages [][]byte) ([]BatchRef, [][]byte, error) {
	if req.Op != OpWriteBatch {
		return nil, nil, fmt.Errorf("remote: DecodeWriteBatch on op %d", req.Op)
	}
	n, compressed, err := batchCount(req.Payload)
	if err != nil {
		return nil, nil, err
	}
	if !compressed && len(req.Payload) != 4+n*(batchRefSize+PageSize) {
		return nil, nil, fmt.Errorf("remote: write batch payload %dB for %d ops", len(req.Payload), n)
	}
	refs, pages = sized(refs, n), sized(pages, n)
	off := 4
	for i := range refs {
		if off+batchRefSize > len(req.Payload) {
			return nil, nil, fmt.Errorf("remote: write batch truncated at op %d ref", i)
		}
		refs[i].Slab = SlabID(binary.LittleEndian.Uint64(req.Payload[off:]))
		refs[i].PageOff = binary.LittleEndian.Uint32(req.Payload[off+8:])
		off += batchRefSize
		if compressed {
			page, used, err := decodeCompressedPage(req.Payload[off:])
			if err != nil {
				return nil, nil, fmt.Errorf("remote: write batch op %d: %w", i, err)
			}
			pages[i] = page
			off += used
			continue
		}
		pages[i] = req.Payload[off : off+PageSize]
		off += PageSize
	}
	if off != len(req.Payload) {
		return nil, nil, fmt.Errorf("remote: write batch has %d trailing bytes", len(req.Payload)-off)
	}
	return refs, pages, nil
}

// encodeWriteRanges packs ranges into an OpWriteRanges request: req, built in
// buf when its capacity suffices.
func encodeWriteRanges(req *Request, ranges []writeRange, buf []byte) (*Request, error) {
	if len(ranges) == 0 || len(ranges) > MaxBatchOps {
		return nil, fmt.Errorf("remote: range batch of %d ops (want 1..%d)", len(ranges), MaxBatchOps)
	}
	size := 4
	for i, r := range ranges {
		if len(r.Data) == 0 || r.Lo < 0 || r.Lo+len(r.Data) > PageSize {
			return nil, fmt.Errorf("remote: range batch entry %d is [%d,%d) of a page", i, r.Lo, r.Lo+len(r.Data))
		}
		size += batchRefSize + rangeHeadSize + len(r.Data)
	}
	frame := headroom(buf, reqHeaderSize, size)
	payload := frame[reqHeaderSize:]
	binary.LittleEndian.PutUint32(payload[0:4], uint32(len(ranges)))
	off := 4
	for _, r := range ranges {
		binary.LittleEndian.PutUint64(payload[off:], uint64(r.Slab))
		binary.LittleEndian.PutUint32(payload[off+8:], r.PageOff)
		binary.LittleEndian.PutUint16(payload[off+12:], uint16(r.Lo))
		binary.LittleEndian.PutUint16(payload[off+14:], uint16(len(r.Data)-1))
		off += batchRefSize + rangeHeadSize
		off += copy(payload[off:], r.Data)
	}
	*req = Request{Op: OpWriteRanges, Payload: payload, frame: frame}
	return req, nil
}

// decodeWriteRanges unpacks an OpWriteRanges request payload into ranges' array
// when that is large enough. Every entry is checked before any is returned, so
// a frame is applied whole or not at all.
func decodeWriteRanges(req *Request, ranges []writeRange) ([]writeRange, error) {
	if req.Op != OpWriteRanges {
		return nil, fmt.Errorf("remote: decodeWriteRanges on op %d", req.Op)
	}
	n, compressed, err := batchCount(req.Payload)
	if err != nil {
		return nil, err
	}
	if compressed {
		return nil, fmt.Errorf("remote: range batch with compress flag")
	}
	ranges = sized(ranges, n)
	off := 4
	for i := range ranges {
		if off+batchRefSize+rangeHeadSize > len(req.Payload) {
			return nil, fmt.Errorf("remote: range batch truncated at op %d", i)
		}
		r := &ranges[i]
		r.Slab = SlabID(binary.LittleEndian.Uint64(req.Payload[off:]))
		r.PageOff = binary.LittleEndian.Uint32(req.Payload[off+8:])
		r.Lo = int(binary.LittleEndian.Uint16(req.Payload[off+12:]))
		size := int(binary.LittleEndian.Uint16(req.Payload[off+14:])) + 1
		off += batchRefSize + rangeHeadSize
		if r.Lo+size > PageSize {
			return nil, fmt.Errorf("remote: range batch op %d is [%d,%d) of a page", i, r.Lo, r.Lo+size)
		}
		if off+size > len(req.Payload) {
			return nil, fmt.Errorf("remote: range batch truncated at op %d bytes", i)
		}
		r.Data = req.Payload[off : off+size]
		off += size
	}
	if off != len(req.Payload) {
		return nil, fmt.Errorf("remote: range batch has %d trailing bytes", len(req.Payload)-off)
	}
	return ranges, nil
}

// EncodeWriteBatchResponse packs per-page statuses into an OpWriteBatch (or
// OpWriteRanges) response.
func EncodeWriteBatchResponse(statuses []uint8) (*Response, error) {
	return boxed(encodeWriteBatchResponse(statuses, nil))
}

func encodeWriteBatchResponse(statuses []uint8, buf []byte) (Response, error) {
	if len(statuses) == 0 || len(statuses) > MaxBatchOps {
		return Response{}, fmt.Errorf("remote: write batch response of %d ops", len(statuses))
	}
	frame := headroom(buf, respHeaderSize, 4+len(statuses))
	payload := frame[respHeaderSize:]
	binary.LittleEndian.PutUint32(payload[0:4], uint32(len(statuses)))
	copy(payload[4:], statuses)
	return Response{Status: StatusOK, Payload: payload, frame: frame}, nil
}

// DecodeWriteBatchResponse unpacks an OpWriteBatch response.
func DecodeWriteBatchResponse(resp *Response) ([]uint8, error) {
	statuses, err := decodeWriteBatchResponse(resp)
	return slices.Clone(statuses), err
}

// decodeWriteBatchResponse returns the statuses where they lie in the payload.
func decodeWriteBatchResponse(resp *Response) ([]uint8, error) {
	if resp.Status != StatusOK {
		return nil, statusError(OpWriteBatch, resp.Status)
	}
	n, compressed, err := batchCount(resp.Payload)
	if err != nil {
		return nil, err
	}
	if compressed {
		return nil, fmt.Errorf("remote: write batch response with compress flag")
	}
	if len(resp.Payload) != 4+n {
		return nil, fmt.Errorf("remote: write batch response payload %dB for %d ops", len(resp.Payload), n)
	}
	return resp.Payload[4:], nil
}

// batchCount validates and reads the leading op count of a batch payload,
// separating the compress flag from the count.
func batchCount(payload []byte) (int, bool, error) {
	if len(payload) < 4 {
		return 0, false, fmt.Errorf("remote: batch payload too short (%dB)", len(payload))
	}
	word := binary.LittleEndian.Uint32(payload[0:4])
	compressed := word&batchCompressFlag != 0
	n := word &^ batchCompressFlag
	if n == 0 || n > MaxBatchOps {
		return 0, false, fmt.Errorf("remote: batch of %d ops (want 1..%d)", n, MaxBatchOps)
	}
	return int(n), compressed, nil
}

// payloadCompressed reports whether a batch payload carries the compress
// flag.
func payloadCompressed(payload []byte) bool {
	return len(payload) >= 4 && binary.LittleEndian.Uint32(payload[0:4])&batchCompressFlag != 0
}

// decodeCompressedPage reads one (u16 clen, clen bytes) compressed page
// entry off the front of b, returning the freshly-allocated page image and
// the bytes consumed.
func decodeCompressedPage(b []byte) ([]byte, int, error) {
	if len(b) < 2 {
		return nil, 0, fmt.Errorf("truncated compressed page length")
	}
	clen := int(binary.LittleEndian.Uint16(b))
	if clen == 0 || clen > ztier.MaxEncodedLen(PageSize) {
		return nil, 0, fmt.Errorf("compressed page of %dB (want 1..%d)", clen, ztier.MaxEncodedLen(PageSize))
	}
	if 2+clen > len(b) {
		return nil, 0, fmt.Errorf("truncated compressed page body (%dB of %dB)", len(b)-2, clen)
	}
	page, err := ztier.Decompress(make([]byte, 0, PageSize), b[2:2+clen], PageSize)
	if err != nil {
		return nil, 0, fmt.Errorf("corrupt compressed page: %w", err)
	}
	if len(page) != PageSize {
		return nil, 0, fmt.Errorf("compressed page decoded to %dB, want %d", len(page), PageSize)
	}
	return page, 2 + clen, nil
}

// BatchPages reports the page-op count a request frame represents: the
// batch entry count for batch frames, 1 for everything else. Observers use
// it to charge fabric occupancy per page while paying round-trip latency
// per doorbell.
func BatchPages(req *Request) int {
	if !batchOp(req.Op) {
		return 1
	}
	n, _, err := batchCount(req.Payload)
	if err != nil {
		return 1
	}
	return n
}
