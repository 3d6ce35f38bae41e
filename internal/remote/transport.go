package remote

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Transport carries requests from the host to one agent. Implementations
// must be safe for concurrent use.
type Transport interface {
	// Call performs one round trip. Like Starter.Start it is done with req
	// when it returns: the host encodes its next frame over this one's bytes.
	Call(req *Request) (*Response, error)
	// Close releases the transport.
	Close() error
}

// Pending is the completion handle of a request begun with Starter.Start.
type Pending interface {
	// Wait blocks until the response has arrived and returns it. It may be
	// called from any goroutine, any number of times.
	Wait() (*Response, error)
}

// Starter is the optional split-phase side of a Transport: Start puts the
// request on the wire and returns without waiting for the response, so a
// caller can have several requests outstanding and do other work before it
// collects them. Responses arrive in Start order. A Transport without it is
// driven by Call at the point where Start would be (see start).
type Starter interface {
	Start(req *Request) (Pending, error)
}

// completed is the Pending of a request whose outcome is already known: a
// Call-driven transport's round trip, or a Start that failed outright.
type completed struct {
	resp *Response
	err  error
}

// Wait implements Pending.
func (c completed) Wait() (*Response, error) { return c.resp, c.err }

// start begins req on tr. A split-phase transport returns with the request
// outstanding; any other transport runs the whole round trip right here and
// yields a completed pending, so code written against start executes a
// Call-only transport's calls in exactly the order it would have made them
// with Call.
func start(tr Transport, req *Request) Pending {
	s, ok := tr.(Starter)
	if !ok {
		resp, err := tr.Call(req)
		return completed{resp, err}
	}
	p, err := s.Start(req)
	if err != nil {
		return completed{err: err}
	}
	return p
}

// bufPool is a transport's free list of response buffers: a payload is read
// (or, in process, built) into one and comes back through Response.release. It
// is short and fixed — what a reader holds decoded and not yet landed, not the
// pipeline's depth: a buffer released to a full list is dropped, one too small
// for its next payload replaced by one that fits. The zero value is ready.
type bufPool struct {
	mu   sync.Mutex
	free [4][]byte
	n    int
}

// poisonReleased, set by this package's tests only, overwrites every released
// buffer, so that bytes read through an alias kept past release are wrong.
var poisonReleased func([]byte)

// take removes a buffer from the list: nil when it is empty, or p is nil.
func (p *bufPool) take() []byte {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.n == 0 {
		return nil
	}
	p.n--
	buf := p.free[p.n]
	p.free[p.n] = nil
	return buf
}

// put enters buf into the list, or drops it when the list is full.
func (p *bufPool) put(buf []byte) {
	if poisonReleased != nil {
		poisonReleased(buf[:cap(buf)])
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.n < len(p.free) && cap(buf) > 0 {
		p.free[p.n] = buf
		p.n++
	}
}

// InProc is a Transport that invokes an Agent directly — the zero-cost path
// used by simulations and unit tests.
type InProc struct {
	agent *Agent
	bufs  bufPool
	// Fail simulates a crashed agent when true (for failover tests).
	mu   sync.Mutex
	fail bool
}

// NewInProc returns an in-process transport bound to agent.
func NewInProc(agent *Agent) *InProc { return &InProc{agent: agent} }

// SetFailed toggles simulated failure.
func (t *InProc) SetFailed(fail bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.fail = fail
}

// Call implements Transport.
func (t *InProc) Call(req *Request) (*Response, error) {
	t.mu.Lock()
	failed := t.fail
	t.mu.Unlock()
	if failed {
		return nil, fmt.Errorf("remote: agent unreachable (simulated)")
	}
	buf := t.bufs.take()
	resp := t.agent.handle(req, buf)
	if resp.frame != nil {
		resp.home = &t.bufs // built in buf, or in the larger buffer that replaces it
	} else {
		t.bufs.put(buf)
	}
	return resp, nil
}

// Close implements Transport.
func (t *InProc) Close() error { return nil }

// responseTimeout is how long a waiter lets a connection stay silent while
// it is owed a response before giving the connection up.
const responseTimeout = 2 * time.Second

// writeStall is how long a request write may make no progress before Start
// reaps a response. An agent answers in order and reads its next request
// only once the previous response is written, so when nobody reaps responses
// and the socket buffers fill, the agent stops reading; a host that then
// blocks writing a request — on the very goroutine that would have reaped —
// deadlocks with it. No static bound on outstanding frames or bytes closes
// that for every socket buffer size (the kernel charges a buffer per
// segment, not per byte), so the write itself is watched: a stalled write
// means the agent is stuck on a response, and reading one unsticks it.
const writeStall = 5 * time.Millisecond

// ErrTransportClosed is the error of requests outstanding on, or started
// after, a TCP transport's Close.
var ErrTransportClosed = errors.New("remote: transport closed")

// TCP is a Transport over a single TCP connection with the binary wire
// protocol. It is split-phase (Starter): requests are pipelined on the
// connection and, because the agent answers strictly in order, matched to
// responses by a FIFO of outstanding requests — no request IDs, no receiver
// goroutine. Whoever waits for the oldest outstanding response reads the
// socket, completing pendings in order until its own is done; later waiters
// queue behind it, and responses nobody waits for yet stay in the kernel's
// socket buffer. A lone Call therefore runs its write and its read on the
// calling goroutine. The host opens one transport per agent.
//
// Any I/O, framing or timeout error leaves the byte stream desynchronised,
// so it poisons the connection: every outstanding and every later request
// fails with that error, and none decodes another's bytes.
type TCP struct {
	conn net.Conn
	br   *bufio.Reader
	// hdr and bufs are the socket reader's: header scratch, payload free list.
	hdr  [respHeaderSize]byte
	bufs bufPool
	// timeout is responseTimeout (a field so tests can shorten it).
	timeout time.Duration

	// wmu serializes Starts: frame writes reach the socket, and pendings the
	// FIFO, in one order. wbuf, which it guards, is where a request that
	// brings no header room of its own (at most a page of payload) is laid
	// out for its single Write.
	wmu  sync.Mutex
	wbuf []byte

	// mu guards everything below. It is released around socket reads;
	// reading marks the one goroutine doing them.
	mu      sync.Mutex
	cond    *sync.Cond
	fifo    []*tcpPending // outstanding requests, oldest first
	reading bool
	err     error // poison: set once, fails everything after
}

// tcpPending is one outstanding request on a TCP transport.
type tcpPending struct {
	t    *TCP
	done bool
	resp *Response
	err  error
}

// DialTCP connects to an agent at addr ("host:port").
func DialTCP(addr string) (*TCP, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("remote: dial %s: %w", addr, err)
	}
	return newTCP(conn), nil
}

// newTCP wraps an established connection.
func newTCP(conn net.Conn) *TCP {
	t := &TCP{
		conn:    conn,
		br:      bufio.NewReaderSize(conn, connBufSize),
		timeout: responseTimeout,
		wbuf:    make([]byte, 0, reqHeaderSize+PageSize),
	}
	t.cond = sync.NewCond(&t.mu)
	return t
}

// Call implements Transport.
func (t *TCP) Call(req *Request) (*Response, error) {
	p, err := t.Start(req)
	if err != nil {
		return nil, err
	}
	return p.Wait()
}

// Start implements Starter: it writes req to the connection as one frame
// and returns its pending.
func (t *TCP) Start(req *Request) (Pending, error) {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	if err := t.writeFrame(req.wire(t.wbuf)); err != nil {
		// Part of the frame may be out: the agent's view of the stream is
		// broken for everything behind it.
		t.mu.Lock()
		err = t.poisonLocked(fmt.Errorf("remote: write request: %w", err))
		t.mu.Unlock()
		return nil, err
	}
	// Queued only now: a goroutine reading the socket meanwhile waits for an
	// older request and stops before this one's response.
	p := &tcpPending{t: t}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return nil, t.err
	}
	t.fifo = append(t.fifo, p)
	return p, nil
}

// writeFrame writes one request frame. Whenever the socket takes nothing for
// writeStall it reaps the oldest outstanding response (into its pending) and
// carries on (see writeStall); a peer that takes nothing for the whole
// response timeout fails the write. Callers hold t.wmu.
func (t *TCP) writeFrame(frame []byte) error {
	progress := time.Now()
	for now := progress; ; now = time.Now() {
		if err := t.conn.SetWriteDeadline(now.Add(writeStall)); err != nil {
			return err
		}
		n, err := t.conn.Write(frame)
		if err == nil {
			return nil
		}
		if n > 0 {
			frame, progress = frame[n:], now
		}
		var nerr net.Error
		if !errors.As(err, &nerr) || !nerr.Timeout() || now.Sub(progress) > t.timeout {
			return err
		}
		t.mu.Lock()
		if len(t.fifo) > 0 {
			t.awaitLocked(t.fifo[0])
		}
		err = t.err
		t.mu.Unlock()
		if err != nil {
			return err
		}
	}
}

// Wait implements Pending.
func (p *tcpPending) Wait() (*Response, error) {
	t := p.t
	t.mu.Lock()
	t.awaitLocked(p)
	t.mu.Unlock()
	return p.resp, p.err
}

// awaitLocked returns once p is done. If no goroutine is reading the socket
// it becomes the reader: it decodes responses, completing the FIFO's
// pendings in order, until p's has arrived, each under a read deadline so
// that a silent peer poisons the connection instead of hanging the waiter.
// Otherwise it sleeps until the reader gets to p or hands the socket on.
// Callers hold t.mu, which is released around reads.
func (t *TCP) awaitLocked(p *tcpPending) {
	for !p.done {
		if t.reading {
			t.cond.Wait()
			continue
		}
		t.reading = true
		for !p.done {
			t.mu.Unlock()
			// A deadline left armed by the previous read needs no clearing:
			// nothing reads the socket without arming its own.
			err := t.conn.SetReadDeadline(time.Now().Add(t.timeout))
			var resp *Response
			if err == nil {
				resp, err = readResponse(t.br, t.hdr[:], &t.bufs)
			}
			t.mu.Lock()
			if err != nil {
				t.poisonLocked(fmt.Errorf("remote: read response: %w", err))
				break
			}
			if len(t.fifo) == 0 {
				// Poisoned (closed) while the read was in progress.
				break
			}
			head := t.fifo[0]
			last := copy(t.fifo, t.fifo[1:]) // copied down: the array is kept
			t.fifo[last] = nil
			t.fifo = t.fifo[:last]
			head.resp, head.done = resp, true
			if head != p {
				t.cond.Broadcast()
			}
		}
		t.reading = false
		t.cond.Broadcast()
	}
}

// poisonLocked fails every outstanding request with err, makes every later
// Start fail with it, and closes the connection. Only the first poisoning
// counts; it returns the error in force. Callers hold t.mu.
func (t *TCP) poisonLocked(err error) error {
	if t.err != nil {
		return t.err
	}
	t.err = err
	_ = t.conn.Close() // the connection is already being abandoned for err
	for _, p := range t.fifo {
		p.err, p.done = err, true
	}
	t.fifo = nil
	t.cond.Broadcast()
	return err
}

// Close implements Transport. Requests still outstanding fail with
// ErrTransportClosed.
func (t *TCP) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.poisonLocked(ErrTransportClosed)
	return nil
}
