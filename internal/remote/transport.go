package remote

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
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
	// called from any goroutine, any number of times, until the response is
	// released: the host releases a flight's once it has landed it, and the
	// transport may then recycle the pending.
	Wait() (*Response, error)
}

// Starter is the optional split-phase side of a Transport: Start puts the
// request on the wire and returns without waiting for the response, so a
// caller can have several requests outstanding and do other work before it
// collects them. Responses arrive in Start order. A Transport without it is
// driven by Call at the point where Start would be (link.start).
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

// TrainStarter is the optional train side of a Starter. StartTrain is Start
// from a caller that says whether another frame for this transport follows at
// once (MSG_MORE's meaning): with more set the transport may hold the frame
// back — it is done with req all the same — and put it on the wire with those
// that follow, in one write. Everything held leaves, in Start order, with the
// next frame started without more, or when somebody waits for a held pending.
type TrainStarter interface {
	Starter
	StartTrain(req *Request, more bool) (Pending, error)
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

// poisonByte is what PoisonReleased overwrites a released buffer with.
const poisonByte = 0xDB

var poisoning atomic.Bool

// PoisonReleased turns on, or off, the overwriting of every buffer the package
// lets go of — a response buffer, a loan's bytes when it is given back or
// revoked, the image of a write that has landed everywhere — with poisonByte,
// so that bytes read through an alias kept past release are wrong; and of
// every read and TCP pending it recycles, so that a ticket kept past its
// release fails with errReleased and a pending answers with poisonByte for a
// status. It is for tests: call it while no host is in use.
func PoisonReleased(on bool) { poisoning.Store(on) }

// errReleased is the outcome a ticket or pending recycled while
// PoisonReleased is on reports to a holder that kept it past its release.
var errReleased = errors.New("remote: used after release")

// poison overwrites buf, just released, while PoisonReleased is on.
func poison(buf []byte) {
	if poisoning.Load() {
		for i := range buf {
			buf[i] = poisonByte
		}
	}
}

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
	poison(buf[:cap(buf)])
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.n < len(p.free) && cap(buf) > 0 {
		p.free[p.n] = buf
		p.n++
	}
}

// InProc is a Transport that invokes an Agent directly — the zero-cost path
// used by simulations and unit tests. It never fails a call: put a
// FaultTransport in front of it to take the agent down.
type InProc struct {
	agent *Agent
	bufs  bufPool
}

// NewInProc returns an in-process transport bound to agent.
func NewInProc(agent *Agent) *InProc { return &InProc{agent: agent} }

// Call implements Transport.
func (t *InProc) Call(req *Request) (*Response, error) {
	buf := t.bufs.take()
	resp := t.agent.handle(req, buf)
	if resp.frame != nil {
		resp.home = &t.bufs // built in buf, or in the larger buffer that replaces it
	} else {
		t.bufs.put(buf)
	}
	return &resp, nil
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

// trainKeep is the most a TCP transport keeps of the buffer its trains are laid
// out in: a link's unacked window of eight-page write frames and change.
const trainKeep = 256 << 10

// ErrTransportClosed is the error of requests outstanding on, or started
// after, a TCP transport's Close.
var ErrTransportClosed = errors.New("remote: transport closed")

// TCP is a Transport over a single TCP connection with the binary wire
// protocol. It is split-phase (a Starter): requests are pipelined on the
// connection and, because the agent answers strictly in order, matched to
// responses by a FIFO of outstanding requests — no request IDs, no receiver
// goroutine. Whoever waits for the oldest outstanding response reads the
// socket, completing pendings in order until its own is done; later waiters
// queue behind it, and responses nobody waits for yet stay in the receive
// buffer or the kernel's. A lone Call therefore runs its write and its read on
// the calling goroutine. It moves trains (a TrainStarter): a frame started with
// more to follow is held, and the frame that ends the train takes everything
// held out in one socket write; whoever waits for a held frame writes the train
// first. The host opens one transport per agent.
//
// One socket read takes in a train of responses (recvBufSize). The host's
// reaper is lent its own response there instead of a copy (see loan): the
// reader role stays with the loan until the host has landed it, and a
// goroutine that needs the socket before the holder has pinned it revokes it.
//
// Any I/O, framing or timeout error leaves the byte stream desynchronised,
// so it poisons the connection: every outstanding and every later request,
// held ones included, fails with that error, and none decodes another's bytes.
type TCP struct {
	conn net.Conn
	br   *bufio.Reader
	// hdr and bufs are the socket reader's: header scratch, payload free list.
	hdr  [respHeaderSize]byte
	bufs bufPool
	// timeout is responseTimeout (a field so tests can shorten it).
	timeout time.Duration

	// wmu serializes Starts: frames reach the socket, and pendings the FIFO,
	// in one order. It guards wbuf, where a request that brings no header room
	// of its own (at most a page of payload) is laid out; train, the held
	// frames back to back; and the counts of socket writes and their frames.
	wmu            sync.Mutex
	wbuf, train    []byte
	writes, frames int64

	// mu guards everything below. It is released around socket reads;
	// reading marks the one goroutine doing them, or the loan that holds the
	// role in its place.
	mu      sync.Mutex
	cond    *sync.Cond
	fifo    []*tcpPending // outstanding requests, oldest first; the held ones are its tail
	free    []*tcpPending // pendings whose responses have been released
	reading bool
	// loan is the response whose payload is lent out of br's buffer, nil for
	// none; pinned says its holder is landing it.
	loan   *Response
	pinned bool
	err    error // poison: set once, fails everything after
}

// tcpPending is one outstanding request on a TCP transport. Its response is
// stored in it, and releasing the response recycles the pending
// (Response.release).
type tcpPending struct {
	t    *TCP
	done bool
	resp Response
	err  error
	// held: the frame is in t.train and not all of it on the wire, where it
	// ends at byte end. Nothing reads the socket for a held pending.
	held bool
	end  int
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
		br:      bufio.NewReaderSize(conn, recvBufSize),
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

// Start implements Starter: it writes req to the connection, behind whatever
// is held, and returns its pending.
func (t *TCP) Start(req *Request) (Pending, error) { return t.StartTrain(req, false) }

// StartTrain implements TrainStarter. A frame with more to follow, or with
// frames held ahead of it, is copied to the train; one without more then
// sends what is held, or goes out alone from where it lies. A pending is
// queued, as held, before its frame is written: whoever reads the socket
// meanwhile waits for an older request and stops before this one's response.
func (t *TCP) StartTrain(req *Request, more bool) (Pending, error) {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	t.frames++
	out := req.wire(t.wbuf)
	if more || len(t.train) > 0 {
		t.train = append(t.train, out...)
		out = t.train
	}
	var p *tcpPending
	t.mu.Lock()
	err := t.err
	if err == nil {
		p = t.pending()
		p.held, p.end = true, len(out)
		t.fifo = append(t.fifo, p)
	}
	t.mu.Unlock()
	if err == nil && !more {
		err = t.send(out)
	}
	if err != nil {
		t.train = t.train[:0]
		return nil, err
	}
	return p, nil
}

// send puts frames — one, or the train — on the socket as one Write, the
// deadline armed and the clock read once for all of them, and marks their
// pendings as no longer held. Whenever the socket takes nothing for writeStall
// it reaps the oldest outstanding response (into its pending) and carries on
// (see writeStall); a peer that takes nothing for the whole response timeout
// fails the write, and a failed write poisons the connection: part of a frame
// may be out, the agent's view of the stream broken. Callers hold t.wmu.
func (t *TCP) send(frames []byte) error {
	t.writes++
	if t.train = t.train[:0]; cap(t.train) > trainKeep {
		t.train = nil
	}
	progress, sent := time.Now(), 0
	for now := progress; ; now = time.Now() {
		err := t.conn.SetWriteDeadline(now.Add(writeStall))
		if err == nil {
			var n int
			n, err = t.conn.Write(frames[sent:])
			if n > 0 {
				sent, progress = sent+n, now
			}
		}
		stalled := false
		if err != nil { // the check's error variable escapes: allocate it only here
			var nerr net.Error
			stalled = errors.As(err, &nerr) && nerr.Timeout() && now.Sub(progress) <= t.timeout
		}
		t.mu.Lock()
		// The frames that are out are owed responses like any other; one that
		// is not must not be waited for from here.
		for i := len(t.fifo) - 1; i >= 0 && t.fifo[i].held; i-- {
			if p := t.fifo[i]; p.end <= sent {
				p.held = false
			}
		}
		if err != nil && !stalled {
			err = t.poisonLocked(fmt.Errorf("remote: write request: %w", err))
		} else if stalled {
			if len(t.fifo) > 0 && !t.fifo[0].held {
				t.awaitLocked(t.fifo[0], false)
			}
			err = t.err
		}
		t.mu.Unlock()
		if err != nil || !stalled {
			return err
		}
	}
}

// pending takes a pending off t.free, or allocates one. Callers hold t.mu.
func (t *TCP) pending() *tcpPending {
	n := len(t.free)
	if n == 0 {
		return &tcpPending{t: t}
	}
	p := t.free[n-1]
	t.free = t.free[:n-1]
	*p = tcpPending{t: t}
	return p
}

// recycle takes back p, whose response its holder has released. While
// PoisonReleased is on, whoever waits for p after that reads a response with
// poisonByte for its status.
func (t *TCP) recycle(p *tcpPending) {
	t.mu.Lock()
	defer t.mu.Unlock()
	*p = tcpPending{t: t}
	if poisoning.Load() {
		p.done, p.resp.Status = true, poisonByte
	}
	t.free = append(t.free, p)
}

// doorbells reports the socket writes made for requests and their frames.
func (t *TCP) doorbells() (writes, frames int64) {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	return t.writes, t.frames
}

// Wait implements Pending. Waiting for a held frame sends its train first.
func (p *tcpPending) Wait() (*Response, error) { return p.wait(false) }

// borrow is Wait for a caller that pins the response (Response.pin), under
// Host.mu, before it reads the payload, and releases it once done: a payload
// that fits the receive buffer is lent. Only the host's reaper borrows.
func (p *tcpPending) borrow() (*Response, error) { return p.wait(true) }

func (p *tcpPending) wait(lend bool) (*Response, error) {
	t := p.t
	t.mu.Lock()
	if p.held && !p.done {
		t.mu.Unlock()
		t.wmu.Lock()
		if len(t.train) > 0 { // else somebody else sent it meanwhile
			_ = t.send(t.train) // a failure has poisoned the connection, p with it
		}
		t.wmu.Unlock()
		t.mu.Lock()
	}
	t.awaitLocked(p, lend)
	err := p.err
	t.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return &p.resp, nil
}

// awaitLocked returns once p is done. If no goroutine is reading the socket
// it becomes the reader: it decodes responses, completing the FIFO's
// pendings in order, until p's has arrived, each under a read deadline so
// that a silent peer poisons the connection instead of hanging the waiter.
// With lend set p's own response may be lent, and the reader role goes with
// it. Otherwise it sleeps until the reader gets to p or hands the socket on,
// or takes the role from a loan not yet pinned. Callers hold t.mu, which is
// released around reads.
func (t *TCP) awaitLocked(p *tcpPending, lend bool) {
	for !p.done {
		if t.reading && !t.revokeLocked() {
			t.cond.Wait()
			continue
		}
		t.reading = true
		for !p.done {
			own := lend && t.fifo[0] == p
			t.mu.Unlock()
			// A deadline left armed by the previous read needs no clearing:
			// nothing reads the socket without arming its own.
			err := t.conn.SetReadDeadline(time.Now().Add(t.timeout))
			var resp Response
			if err == nil {
				err = t.receive(own, &resp)
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
			head.resp.pend = head
			if resp.lender != nil {
				t.loan = &head.resp
			}
			if head != p {
				t.cond.Broadcast()
			}
		}
		t.reading = t.loan != nil
		t.cond.Broadcast()
	}
}

// receive reads the next response off the socket into resp. With lend set, a
// payload that fits the receive buffer is left there and the response lent:
// its payload is valid until the loan is given back or revoked, and no byte
// may be read from br meanwhile. Anything else is read into one of t.bufs.
// Only the reader calls it, without t.mu.
func (t *TCP) receive(lend bool, resp *Response) error {
	if !lend {
		return readResponse(t.br, t.hdr[:], &t.bufs, resp)
	}
	hdr, err := t.br.Peek(respHeaderSize)
	if err != nil {
		return err
	}
	n := respHeaderSize + int(binary.LittleEndian.Uint32(hdr[2:6]))
	if hdr[0] != protoMagic || n == respHeaderSize || n > t.br.Size() {
		return readResponse(t.br, t.hdr[:], &t.bufs, resp)
	}
	frame, err := t.br.Peek(n)
	if err != nil {
		return err
	}
	*resp = Response{Status: frame[1], Payload: frame[respHeaderSize:], lender: t}
	return nil
}

// pin marks a lent response as being read by its holder, who from now on
// waits for nothing until it gives the loan back; whoever needs the socket
// meanwhile waits for that. A response revoked before it was pinned is in a
// buffer of its own, and pin leaves it alone. The holder calls it, under
// Host.mu, before it looks at the payload.
func (resp *Response) pin() {
	if resp == nil || resp.lender == nil {
		return
	}
	t := resp.lender
	t.mu.Lock()
	if t.loan == resp {
		t.pinned = true
	}
	t.mu.Unlock()
}

// revokeLocked takes the reader role from a loan its holder has not pinned:
// the lent payload is copied into a buffer of t.bufs, the response repointed
// at it, and the receive buffer moved past the frame. It reports whether it
// did. Callers hold t.mu and become the reader when it returns true.
func (t *TCP) revokeLocked() bool {
	resp := t.loan
	if resp == nil || t.pinned {
		return false
	}
	lent := resp.Payload
	resp.Payload, resp.home = sized(t.bufs.take(), len(lent)), &t.bufs
	copy(resp.Payload, lent)
	t.repayLocked(lent)
	return true
}

// giveBack ends resp's loan: the receive buffer moves past the frame and the
// reader role is free. A revoked response's buffer goes back to t.bufs.
func (t *TCP) giveBack(resp *Response) {
	t.mu.Lock()
	lent := t.loan == resp
	if lent {
		t.repayLocked(resp.Payload)
		t.reading = false
		t.cond.Broadcast()
	}
	t.mu.Unlock()
	resp.lender = nil
	if lent {
		*resp = Response{Status: resp.Status}
	} else {
		resp.release()
	}
}

// repayLocked moves the receive buffer past the frame whose payload is lent,
// and clears the loan. Callers hold t.mu and the reader role.
func (t *TCP) repayLocked(lent []byte) {
	poison(lent)
	_, _ = t.br.Discard(respHeaderSize + len(lent)) // buffered: cannot fail
	t.loan, t.pinned = nil, false
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
