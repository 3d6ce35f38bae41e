package remote

import (
	"bufio"
	"encoding/binary"
	"fmt"
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
func (a *Agent) Handle(req *Request) *Response { return a.handle(req, nil) }

// handle is Handle laying a response's payload out in buf when its capacity
// suffices (the response then has its frame set). A connection's server loop
// passes its reusable buffer: nothing retains a written response. nil allocates.
func (a *Agent) handle(req *Request, buf []byte) *Response {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch req.Op {
	case OpPing:
		return &Response{Status: StatusOK}

	case OpMapSlab:
		if _, ok := a.slabs[req.Slab]; ok {
			return &Response{Status: StatusOK} // idempotent
		}
		if a.maxSlabs > 0 && len(a.slabs) >= a.maxSlabs {
			return &Response{Status: StatusNoSpace}
		}
		a.slabs[req.Slab] = make([]byte, a.slabPages*PageSize)
		return &Response{Status: StatusOK}

	case OpFreeSlab:
		delete(a.slabs, req.Slab)
		return &Response{Status: StatusOK}

	case OpRead:
		slab, ok := a.slabs[req.Slab]
		if !ok {
			return &Response{Status: StatusBadSlab}
		}
		off := int(req.PageOff) * PageSize
		if off+PageSize > len(slab) {
			return &Response{Status: StatusBadBound}
		}
		a.reads++
		frame := headroom(buf, respHeaderSize, PageSize)
		copy(frame[respHeaderSize:], slab[off:off+PageSize])
		return &Response{Status: StatusOK, Payload: frame[respHeaderSize:], frame: frame}

	case OpWrite:
		slab, ok := a.slabs[req.Slab]
		if !ok {
			return &Response{Status: StatusBadSlab}
		}
		if len(req.Payload) != PageSize {
			return &Response{Status: StatusBadBound}
		}
		off := int(req.PageOff) * PageSize
		if off+PageSize > len(slab) {
			return &Response{Status: StatusBadBound}
		}
		a.writes++
		copy(slab[off:off+PageSize], req.Payload)
		return &Response{Status: StatusOK}

	case OpStats:
		payload := make([]byte, 8)
		binary.LittleEndian.PutUint32(payload[0:4], uint32(len(a.slabs)))
		binary.LittleEndian.PutUint32(payload[4:8], uint32(a.maxSlabs))
		return &Response{Status: StatusOK, Payload: payload}

	case OpReadBatch:
		refs, err := decodeReadBatch(req, a.refs)
		if err != nil {
			return &Response{Status: StatusBadFrame}
		}
		results := sized(a.results, len(refs))
		a.refs, a.results = refs, results
		for i, ref := range refs {
			slab, ok := a.slabs[ref.Slab]
			if !ok {
				results[i] = BatchReadResult{Status: StatusBadSlab}
				continue
			}
			off := int(ref.PageOff) * PageSize
			if off+PageSize > len(slab) {
				results[i] = BatchReadResult{Status: StatusBadBound}
				continue
			}
			a.reads++
			results[i] = BatchReadResult{Status: StatusOK, Page: slab[off : off+PageSize]}
		}
		var resp *Response
		if ReadBatchCompressed(req) {
			resp, err = encodeReadBatchResponseCompressed(results, &a.comp, buf)
		} else {
			resp, err = encodeReadBatchResponse(results, buf)
		}
		if err != nil {
			return &Response{Status: StatusBadFrame}
		}
		return resp

	case OpWriteBatch:
		refs, pages, err := decodeWriteBatch(req, a.refs, a.pages)
		if err != nil {
			return &Response{Status: StatusBadFrame}
		}
		statuses := sized(a.statuses, len(refs))
		a.refs, a.pages, a.statuses = refs, pages, statuses
		clear(statuses) // StatusOK
		for i, ref := range refs {
			slab, ok := a.slabs[ref.Slab]
			if !ok {
				statuses[i] = StatusBadSlab
				continue
			}
			off := int(ref.PageOff) * PageSize
			if off+PageSize > len(slab) {
				statuses[i] = StatusBadBound
				continue
			}
			a.writes++
			copy(slab[off:off+PageSize], pages[i])
		}
		resp, err := encodeWriteBatchResponse(statuses, buf)
		if err != nil {
			return &Response{Status: StatusBadFrame}
		}
		return resp

	default:
		return &Response{Status: StatusBadOp}
	}
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
// Handle copies pages in and out of the slabs, so the request payload and
// the response frame each live in one buffer reused across requests.
func (a *Agent) serveConn(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, connBufSize)
	var (
		req     Request
		in, out []byte
		err     error
	)
	for {
		if in, err = readRequest(br, &req, in); err != nil {
			return // EOF or protocol error: drop the connection
		}
		frame := a.handle(&req, out).wire(out)
		if cap(frame) > cap(out) {
			out = frame
		}
		if _, err := conn.Write(frame); err != nil {
			log.Printf("remote: agent response write: %v", err)
			return
		}
	}
}
