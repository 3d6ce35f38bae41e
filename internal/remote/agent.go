package remote

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"

	"leap/internal/ztier"
)

// Agent is a remote-memory server: it donates memory as slabs and serves
// page reads/writes against them. Safe for concurrent use.
type Agent struct {
	mu        sync.Mutex
	slabPages int
	maxSlabs  int
	slabs     map[SlabID][]byte

	// Counters (read under mu).
	reads, writes int64

	// comp is the wire codec state for compressed read responses (used
	// under mu).
	comp ztier.Compressor
	// Decode scratch of the batch ops. handle holds mu from decoding a frame
	// to encoding its response, so one set serves every connection.
	refs     []BatchRef
	pages    [][]byte
	ranges   []writeRange
	results  []BatchReadResult
	statuses []uint8
}

// NewAgent returns an agent donating maxSlabs slabs of slabPages pages
// each. maxSlabs <= 0 means unlimited.
func NewAgent(slabPages, maxSlabs int) *Agent {
	if slabPages <= 0 {
		slabPages = DefaultSlabPages
	}
	return &Agent{
		slabPages: slabPages,
		maxSlabs:  maxSlabs,
		slabs:     make(map[SlabID][]byte),
	}
}

// SlabPages reports the slab granularity.
func (a *Agent) SlabPages() int { return a.slabPages }

// Reset drops every mapped slab — the memory loss of a process restart.
// Operation counters survive (they are cumulative over the agent's life).
func (a *Agent) Reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.slabs = make(map[SlabID][]byte)
}

// SlabCount reports the number of mapped slabs.
func (a *Agent) SlabCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.slabs)
}

// Ops reports cumulative (reads, writes).
func (a *Agent) Ops() (reads, writes int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.reads, a.writes
}

// Handle processes one request and returns the response. This is the
// transport-independent core used by both the in-process transport and the
// TCP server loop.
func (a *Agent) Handle(req *Request) *Response {
	resp := a.handle(req, nil)
	return &resp
}

// handle is Handle laying a response's payload out in buf when its capacity
// suffices (the response then has its frame set), and returning the response
// itself: a connection's server loop keeps it on its stack and passes its
// reusable buffer, for nothing retains a written response. nil allocates.
func (a *Agent) handle(req *Request, buf []byte) Response {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch req.Op {
	case OpPing:
		return Response{Status: StatusOK}

	case OpMapSlab:
		if _, ok := a.slabs[req.Slab]; ok {
			return Response{Status: StatusOK} // idempotent
		}
		if a.maxSlabs > 0 && len(a.slabs) >= a.maxSlabs {
			return Response{Status: StatusNoSpace}
		}
		a.slabs[req.Slab] = make([]byte, a.slabPages*PageSize)
		return Response{Status: StatusOK}

	case OpFreeSlab:
		delete(a.slabs, req.Slab)
		return Response{Status: StatusOK}

	case OpRead:
		page, status := a.page(req.Slab, req.PageOff)
		if status != StatusOK {
			return Response{Status: status}
		}
		a.reads++
		frame := headroom(buf, respHeaderSize, PageSize)
		copy(frame[respHeaderSize:], page)
		return Response{Status: StatusOK, Payload: frame[respHeaderSize:], frame: frame}

	case OpWrite:
		page, status := a.page(req.Slab, req.PageOff)
		if status == StatusOK && len(req.Payload) != PageSize {
			status = StatusBadBound
		}
		if status != StatusOK {
			return Response{Status: status}
		}
		a.writes++
		copy(page, req.Payload)
		return Response{Status: StatusOK}

	case OpStats:
		payload := make([]byte, 8)
		binary.LittleEndian.PutUint32(payload[0:4], uint32(len(a.slabs)))
		binary.LittleEndian.PutUint32(payload[4:8], uint32(a.maxSlabs))
		return Response{Status: StatusOK, Payload: payload}

	case OpReadBatch:
		refs, err := decodeReadBatch(req, a.refs)
		if err != nil {
			return Response{Status: StatusBadFrame}
		}
		results := sized(a.results, len(refs))
		a.refs, a.results = refs, results
		for i, ref := range refs {
			page, status := a.page(ref.Slab, ref.PageOff)
			if status == StatusOK {
				a.reads++
			}
			results[i] = BatchReadResult{Status: status, Page: page}
		}
		var resp Response
		if ReadBatchCompressed(req) {
			resp, err = encodeReadBatchResponseCompressed(results, &a.comp, buf)
		} else {
			resp, err = encodeReadBatchResponse(results, buf)
		}
		if err != nil {
			return Response{Status: StatusBadFrame}
		}
		return resp

	case OpWriteBatch:
		refs, pages, err := decodeWriteBatch(req, a.refs, a.pages)
		if err != nil {
			return Response{Status: StatusBadFrame}
		}
		statuses := sized(a.statuses, len(refs))
		a.refs, a.pages, a.statuses = refs, pages, statuses
		for i, ref := range refs {
			var page []byte
			if page, statuses[i] = a.page(ref.Slab, ref.PageOff); statuses[i] == StatusOK {
				a.writes++
				copy(page, pages[i])
			}
		}
		resp, err := encodeWriteBatchResponse(statuses, buf)
		if err != nil {
			return Response{Status: StatusBadFrame}
		}
		return resp

	case OpWriteRanges:
		ranges, err := decodeWriteRanges(req, a.ranges)
		if err != nil {
			return Response{Status: StatusBadFrame}
		}
		statuses := sized(a.statuses, len(ranges))
		a.ranges, a.statuses = ranges, statuses
		for i, r := range ranges {
			var page []byte
			if page, statuses[i] = a.page(r.Slab, r.PageOff); statuses[i] == StatusOK {
				a.writes++
				copy(page[r.Lo:], r.Data)
			}
		}
		resp, err := encodeWriteBatchResponse(statuses, buf)
		if err != nil {
			return Response{Status: StatusBadFrame}
		}
		return resp

	default:
		return Response{Status: StatusBadOp}
	}
}

// page returns page off of slab where it lies in the agent's memory, or the
// status that says why it cannot: the one slab and bound check of every page
// operation. Callers hold a.mu.
func (a *Agent) page(slab SlabID, off uint32) ([]byte, uint8) {
	s, ok := a.slabs[slab]
	if !ok {
		return nil, StatusBadSlab
	}
	at := int(off) * PageSize
	if at+PageSize > len(s) {
		return nil, StatusBadBound
	}
	return s[at : at+PageSize], StatusOK
}

// Serve accepts connections on l and serves the wire protocol until l is
// closed. Each connection gets its own goroutine; requests within a
// connection are answered strictly in order, which is what lets the host
// pipeline requests on it with nothing but a FIFO of outstanding ones (see
// TCP).
func (a *Agent) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return fmt.Errorf("remote: accept: %w", err)
		}
		go a.serveConn(conn)
	}
}

// serveConn serves one connection. One request is handled at a time and
// Handle copies pages in and out of the slabs, so the request payload lives in
// one buffer reused across requests, and the responses are laid out back to
// back in another. Replies leave as they came: while the next request has
// already arrived whole — the host sent a train — the response waits for that
// one's, and they go out in one write, before the loop would block on a read
// or once trainBytes are held.
func (a *Agent) serveConn(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, connBufSize)
	var (
		req     Request
		in, out []byte
		err     error
	)
	for {
		if in, err = readRequest(br, &req, in); err == nil {
			room := out[len(out):]
			resp := a.handle(&req, room)
			frame := resp.wire(room)
			if cap(room) > 0 && &frame[0] == &room[:1][0] {
				out = out[:len(out)+len(frame)] // built where it goes
			} else {
				out = append(out, frame...)
			}
			if len(out) < trainBytes && requestBuffered(br) {
				continue
			}
		} else if err != io.EOF && !errors.Is(err, net.ErrClosed) {
			// A hang-up between requests is how a connection ends, and a close
			// on this side (Serve's caller shutting down) how it is ended.
			log.Printf("remote: agent request read: %v", err)
		}
		if len(out) > 0 { // on the way down too: owed to the requests before a malformed one
			if _, werr := conn.Write(out); werr != nil {
				log.Printf("remote: agent response write: %v", werr)
				return
			}
			out = out[:0]
		}
		if err != nil {
			return
		}
	}
}

// trainBytes is how many bytes of responses a connection's server loop holds
// back at most for the requests behind them: two eight-page read responses.
const trainBytes = 64 << 10

// requestBuffered reports whether br holds a whole request already, so that
// reading it will not block.
func requestBuffered(br *bufio.Reader) bool {
	n := br.Buffered()
	if n < reqHeaderSize {
		return false
	}
	hdr, _ := br.Peek(reqHeaderSize) // buffered: no read, no error
	return n-reqHeaderSize >= int(binary.LittleEndian.Uint32(hdr[14:18]))
}
