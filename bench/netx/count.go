// Package netx holds the benchmark's network instruments: a net.Listener
// whose connections count bytes, Read/Write calls and request→response
// turnarounds, and a delay-line TCP proxy. Both sit outside the library, on
// the sockets the benchmark owns, so the wire and the agent can be measured
// without touching the code under test.
package netx

import (
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Counters is the traffic through a Listener's connections, seen from the
// accepting side: BytesIn arrived (requests), BytesOut left (responses).
type Counters struct {
	BytesIn, BytesOut     int64
	ReadCalls, WriteCalls int64
	// Requests counts request→response turnarounds begun: a Read that
	// follows a Write (or opens the connection) starts a new request.
	Requests int64
}

// Add returns c + o, field by field.
func (c Counters) Add(o Counters) Counters {
	return Counters{
		BytesIn:    c.BytesIn + o.BytesIn,
		BytesOut:   c.BytesOut + o.BytesOut,
		ReadCalls:  c.ReadCalls + o.ReadCalls,
		WriteCalls: c.WriteCalls + o.WriteCalls,
		Requests:   c.Requests + o.Requests,
	}
}

// Sub returns c − o, field by field.
func (c Counters) Sub(o Counters) Counters {
	return Counters{
		BytesIn:    c.BytesIn - o.BytesIn,
		BytesOut:   c.BytesOut - o.BytesOut,
		ReadCalls:  c.ReadCalls - o.ReadCalls,
		WriteCalls: c.WriteCalls - o.WriteCalls,
		Requests:   c.Requests - o.Requests,
	}
}

// Turnaround is one request served on a connection: Start is when the last
// Read of the request returned, End when the last Write of its response
// returned, both in nanoseconds since the Listener's epoch. Seq numbers the
// connection's requests from 0, counted whether or not tracing is on, so
// the k-th turnaround of a stop-and-wait connection is the k-th call of the
// client that dialed it.
type Turnaround struct {
	Seq        int64
	Start, End int64
}

// Listener wraps a net.Listener so that every accepted connection counts
// its traffic. Byte and call counts are always on (atomic adds); the
// timestamped turnaround log is recorded only while tracing is set.
type Listener struct {
	net.Listener
	epoch time.Time

	bytesIn, bytesOut     atomic.Int64
	readCalls, writeCalls atomic.Int64
	requests              atomic.Int64
	tracing               atomic.Bool

	mu    sync.Mutex
	conns []*Conn
}

// Listen wraps l. Turnaround times are measured from epoch.
func Listen(l net.Listener, epoch time.Time) *Listener {
	return &Listener{Listener: l, epoch: epoch}
}

// Accept implements net.Listener.
func (l *Listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := &Conn{Conn: c, l: l}
	l.mu.Lock()
	l.conns = append(l.conns, cc)
	l.mu.Unlock()
	return cc, nil
}

// Close stops accepting and closes every connection accepted so far, so the
// server loops reading from them end too.
func (l *Listener) Close() error {
	err := l.Listener.Close()
	for _, c := range l.Conns() {
		c.Close() // already closed by its server loop when the peer hung up first
	}
	return err
}

// Counters reports a snapshot of the traffic so far.
func (l *Listener) Counters() Counters {
	return Counters{
		BytesIn:    l.bytesIn.Load(),
		BytesOut:   l.bytesOut.Load(),
		ReadCalls:  l.readCalls.Load(),
		WriteCalls: l.writeCalls.Load(),
		Requests:   l.requests.Load(),
	}
}

// SetTracing switches the turnaround log on or off. Switch it only while
// the connections are idle between requests.
func (l *Listener) SetTracing(on bool) { l.tracing.Store(on) }

// Conns reports the connections accepted so far, in accept order.
func (l *Listener) Conns() []*Conn {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]*Conn(nil), l.conns...)
}

// Conn is a counting connection handed out by Listener.Accept. Reads and
// Writes must come from one goroutine at a time (a request/response server
// loop); Turnarounds may be called from any goroutine.
type Conn struct {
	net.Conn
	l *Listener

	mu sync.Mutex
	// responding is set by a Write and cleared by the next Read. A Read
	// with responding set (or the connection's first Read) is the edge where
	// one turnaround ends and the next request begins.
	responding bool
	nextSeq    int64
	cur        Turnaround
	curTraced  bool
	log        []Turnaround
}

// Read implements net.Conn.
func (c *Conn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n == 0 {
		return n, err
	}
	l := c.l
	l.bytesIn.Add(int64(n))
	l.readCalls.Add(1)
	c.mu.Lock()
	if c.nextSeq == 0 || c.responding {
		if c.responding && c.curTraced {
			c.log = append(c.log, c.cur)
		}
		c.responding = false
		c.cur = Turnaround{Seq: c.nextSeq}
		c.nextSeq++
		c.curTraced = l.tracing.Load()
		l.requests.Add(1)
	}
	if c.curTraced {
		c.cur.Start = int64(time.Since(l.epoch))
	}
	c.mu.Unlock()
	return n, err
}

// Write implements net.Conn. The bytes are counted before they leave, so
// that whoever has received a response finds it in the counters already; a
// short write, which comes with an error, is taken back afterwards.
func (c *Conn) Write(p []byte) (int, error) {
	l := c.l
	l.bytesOut.Add(int64(len(p)))
	l.writeCalls.Add(1)
	n, err := c.Conn.Write(p)
	l.bytesOut.Add(int64(n - len(p)))
	c.mu.Lock()
	c.responding = true
	if c.curTraced {
		c.cur.End = int64(time.Since(l.epoch))
	}
	c.mu.Unlock()
	return n, err
}

// Turnarounds reports the traced turnarounds completed so far, including
// the last response written when no later request has arrived yet.
func (c *Conn) Turnarounds() []Turnaround {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := append([]Turnaround(nil), c.log...)
	if c.responding && c.curTraced {
		out = append(out, c.cur)
	}
	return out
}
