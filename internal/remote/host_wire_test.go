package remote

import (
	"bytes"
	"errors"
	"net"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// tapeLink is what the tape drives of an agent's link: a scriptLink, or on TCP
// the host's end of the connection, which answers in order.
type tapeLink interface {
	drive(kind opKind, pick func(int) int) // hold, pump or release
	holds() bool
	parked() int // goroutines waiting for a held response
	OutOfOrder() int
}

// scriptLink is a ScriptedLink whose script holds what the tape holds.
type scriptLink struct {
	*ScriptedLink
	hold atomic.Bool
	stop func() // a running pump's
}

func (l *scriptLink) drive(kind opKind, pick func(int) int) {
	switch {
	case kind == opHold:
		l.hold.Store(true)
	case kind == opPump && l.stop == nil:
		l.stop = l.Pump(pick, func(int) {})
	case kind == opRelease:
		l.hold.Store(false)
		if l.stop != nil {
			l.stop()
			l.stop = nil
		}
		l.Release()
	}
}

func (l *scriptLink) holds() bool { return l.hold.Load() }

func (l *scriptLink) parked() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.waiting
}

// A tape on TCP links plays each agent as a real Agent served on loopback. The
// host dials it through a tapeConn, where the tape holds, stalls and narrows
// the link; the agent's end is an agentConn, where the agent's faults act, the
// tape's triggers fire and a truncate cuts the next response.

// stallTimeout is the response timeout of a link the tape stalls.
const stallTimeout = 250 * time.Millisecond

// dial serves agent i on loopback and returns the host's end of its link, ft
// deciding which frames fail. A tape with sockBuf set has both ends' socket
// buffers set that small before the first byte moves.
func (r *hostRun) dial(i int, a *Agent, ft *FaultTransport) (*tapeConn, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r.t.Cleanup(func() { l.Close() })
	small := func(c net.Conn) {
		if n := r.tape.sockBuf; n > 0 {
			c.(*net.TCPConn).SetReadBuffer(n)
			c.(*net.TCPConn).SetWriteBuffer(n)
		}
	}
	c := &tapeConn{closed: make(chan struct{})}
	c.cond = sync.NewCond(&c.mu)
	accepted := make(chan *agentConn, 1)
	go a.Serve(wrapListener{l, func(conn net.Conn) net.Conn {
		small(conn)
		ac := &agentConn{Conn: conn, run: r, idx: i, fault: ft, host: c}
		accepted <- ac
		return ac
	}})
	if c.Conn, err = net.Dial("tcp", l.Addr().String()); err != nil {
		return nil, err
	}
	small(c.Conn)
	c.agent, c.tr = <-accepted, newTCP(c)
	if slices.ContainsFunc(r.tape.ops, func(op tapeOp) bool { return op.kind == opStall && op.link == i }) {
		c.tr.timeout = stallTimeout
	}
	r.t.Cleanup(func() { c.tr.Close() })
	return c, nil
}

// tapeConn is the host's end of a TCP link, tr its transport and agent the
// other end. A read waits while the link is held and not pumped, the wait not
// counted against its deadline; once stalled no byte arrives, and a read times
// out at the deadline the transport set, or never. While narrow, the link
// holds narrow bytes in flight each way: a write that finds its way full waits
// for the peer to read, or times out at its deadline. stalls counts the writes
// that timed out, the writeStall rule at work; writes all the writes made.
type tapeConn struct {
	net.Conn
	tr                    *TCP
	agent                 *agentConn
	mu                    sync.Mutex
	cond                  *sync.Cond
	held, pumped          bool
	stalled               time.Time // zero until the tape stalls the link
	waiting               int
	deadline, wdeadline   time.Time
	narrow, inReq, inResp int // the limit, and the bytes written and not yet read each way
	closed                chan struct{}
	// outstanding is what the transport had in the air when poisoning closed
	// the connection.
	outstanding    []*tcpPending
	stalls, writes atomic.Int64
}

func (c *tapeConn) drive(kind opKind, _ func(int) int) {
	c.set(func() { c.held, c.pumped = kind == opHold || kind == opPump && c.held, kind == opPump })
}

func (c *tapeConn) holds() (held bool) {
	c.set(func() { held = c.held })
	return held
}

func (c *tapeConn) parked() (n int) {
	c.set(func() { n = c.waiting })
	return n
}

func (c *tapeConn) OutOfOrder() int { return 0 }

func (c *tapeConn) SetWriteDeadline(d time.Time) error {
	c.set(func() { c.wdeadline = d })
	return c.Conn.SetWriteDeadline(d)
}

// send writes b to conn through the bytes *used of the way: as much at a time
// as fits, waiting for room, or until deadline, if set.
func (c *tapeConn) send(conn net.Conn, used *int, b []byte, deadline time.Time) (n int, err error) {
	if !deadline.IsZero() {
		defer time.AfterFunc(time.Until(deadline), func() { c.set(func() {}) }).Stop()
	}
	for n < len(b) && err == nil {
		c.mu.Lock()
		for c.narrow > 0 && *used >= c.narrow && (deadline.IsZero() || time.Now().Before(deadline)) {
			c.cond.Wait()
		}
		k := len(b) - n
		if c.narrow > 0 {
			k = min(k, c.narrow-*used)
		}
		*used += max(k, 0)
		c.mu.Unlock()
		if k <= 0 {
			err = os.ErrDeadlineExceeded
		} else {
			w := 0
			if w, err = conn.Write(b[n : n+k]); w < k { // cut short, by the deadline say: the rest is not in flight
				c.set(func() { *used -= k - w })
			}
			n += w
		}
		if errors.Is(err, os.ErrDeadlineExceeded) {
			c.stalls.Add(1)
		}
	}
	return n, err
}

func (c *tapeConn) SetReadDeadline(d time.Time) error {
	c.set(func() { c.deadline = d })
	return c.Conn.SetReadDeadline(d)
}

func (c *tapeConn) Read(b []byte) (int, error) {
	c.mu.Lock()
	if from := time.Now(); c.held && !c.pumped {
		for c.waiting++; c.held && !c.pumped; {
			c.cond.Wait()
		}
		if c.waiting--; !c.deadline.IsZero() {
			c.deadline = c.deadline.Add(time.Since(from))
			c.Conn.SetReadDeadline(c.deadline)
		}
	}
	stalled, deadline := !c.stalled.IsZero(), c.deadline
	c.mu.Unlock()
	if !stalled {
		n, err := c.Conn.Read(b)
		c.set(func() { c.inResp = max(c.inResp-n, 0) })
		return n, err
	}
	var timeout <-chan time.Time
	if !deadline.IsZero() {
		timeout = time.After(time.Until(deadline))
	}
	select {
	case <-timeout:
		return 0, os.ErrDeadlineExceeded
	case <-c.closed:
		return 0, net.ErrClosed
	}
}

func (c *tapeConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	c.mu.Lock()
	deadline := c.wdeadline
	c.mu.Unlock()
	return c.send(c.Conn, &c.inReq, b, deadline)
}

// Close is called once, by the transport's poisoning, which holds tr.mu and
// has yet to fail what is outstanding.
func (c *tapeConn) Close() error {
	c.outstanding = slices.Clone(c.tr.fifo)
	close(c.closed)
	c.set(func() { c.held, c.narrow = false, 0 })
	return c.Conn.Close()
}

// set changes the conn's state under its lock and wakes its reads.
func (c *tapeConn) set(f func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f()
	c.cond.Broadcast()
}

// agentConn is the agent's end of a TCP link. The agent reads whole frames off
// it, all that have arrived up to one its fault transport fails, which
// agentConn answers StatusBadOp in its place once the agent has answered those
// before it. cut ends the connection inside the next response written.
type agentConn struct {
	net.Conn
	run   *hostRun
	idx   int
	fault *FaultTransport
	host  *tapeConn
	// in is what was read off the socket: ready bytes of frames for the agent,
	// then, if skip is set, a frame of skip bytes it is not to see, then the rest.
	in          []byte
	ready, skip int
	cut         atomic.Bool
}

func (c *agentConn) Read(b []byte) (int, error) {
	for c.ready == 0 {
		if c.skip > 0 { // the agent reads on only once it has written its responses
			c.in = c.in[:copy(c.in, c.in[c.skip:])]
			c.skip = 0
			if err := EncodeResponse(c, &Response{Status: StatusBadOp}); err != nil {
				return 0, err
			}
		}
		if c.vet() {
			continue
		}
		if len(c.in) == cap(c.in) {
			c.in = slices.Grow(c.in, 64<<10)
		}
		n, err := c.Conn.Read(c.in[len(c.in):cap(c.in)])
		c.host.set(func() { c.host.inReq = max(c.host.inReq-n, 0) })
		if c.in = c.in[:len(c.in)+n]; n == 0 && err != nil {
			return 0, err
		}
	}
	n := copy(b, c.in[:c.ready])
	c.in = c.in[:copy(c.in, c.in[n:])]
	c.ready -= n
	return n, nil
}

// vet takes the whole frames after the ready ones, firing the tape's trigger at
// each, until one fails; it reports whether it took any.
func (c *agentConn) vet() (took bool) {
	for c.skip == 0 {
		req, err := DecodeRequest(bytes.NewReader(c.in[c.ready:]))
		if err != nil { // not whole yet
			return took
		}
		took = true
		c.run.fire(c.idx, req.Op, true)
		if _, err := c.fault.Call(&Request{Op: req.Op}); err != nil {
			c.skip = reqHeaderSize + len(req.Payload)
		} else {
			c.ready += reqHeaderSize + len(req.Payload)
		}
	}
	return took
}

func (c *agentConn) Write(b []byte) (int, error) {
	if !c.cut.Load() {
		return c.host.send(c.Conn, &c.host.inResp, b, time.Time{})
	}
	first, _ := DecodeResponse(bytes.NewReader(b)) // b starts with a whole response
	c.Conn.Write(b[:(respHeaderSize+len(first.Payload))/2])
	c.Conn.Close()
	return len(b), nil
}
