package netx

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Proxy is a delay-line TCP proxy: it accepts on a loopback port of its own
// and relays each connection to target. Bytes from the client go through at
// once; every chunk read from the target is stamped with a due time of
// now + delay and handed to a writer that releases it when due. Chunks
// already in the line keep their own due times, so two responses sent
// back-to-back both arrive one delay later — the line delays, it does not
// serialise, which is how propagation delay on a link behaves.
type Proxy struct {
	l      net.Listener
	target string
	delay  atomic.Int64 // nanoseconds

	mu     sync.Mutex
	conns  []net.Conn
	closed bool
	wg     sync.WaitGroup
}

// chunk is one read from the target waiting in the delay line.
type chunk struct {
	data []byte
	due  time.Time
}

// NewProxy starts a proxy in front of target ("host:port").
func NewProxy(target string) (*Proxy, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("netx: proxy listen: %w", err)
	}
	p := &Proxy{l: l, target: target}
	p.wg.Add(1)
	go p.accept()
	return p, nil
}

// Addr reports the address clients dial.
func (p *Proxy) Addr() string { return p.l.Addr().String() }

// SetDelay sets the delay added to every chunk read from the target from
// now on; chunks already in the line keep the due time they were given.
func (p *Proxy) SetDelay(d time.Duration) { p.delay.Store(int64(d)) }

// Close stops accepting, closes every relayed connection and returns once
// all of the proxy's goroutines have exited.
func (p *Proxy) Close() error {
	p.mu.Lock()
	p.closed = true
	conns := p.conns
	p.conns = nil
	p.mu.Unlock()
	err := p.l.Close()
	for _, c := range conns {
		c.Close()
	}
	p.wg.Wait()
	return err
}

// track registers c for Close; it reports false when the proxy is closed.
func (p *Proxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.conns = append(p.conns, c)
	return true
}

func (p *Proxy) accept() {
	defer p.wg.Done()
	for {
		client, err := p.l.Accept()
		if err != nil {
			return // listener closed
		}
		server, err := net.Dial("tcp", p.target)
		if err != nil {
			client.Close()
			continue
		}
		if !p.track(client) || !p.track(server) {
			client.Close()
			server.Close()
			return
		}
		p.wg.Add(3)
		go p.forward(server, client)
		// The line holds chunks read but not yet due. 1024 is far above
		// what a stop-and-wait client can have in flight; a full line only
		// pauses the reader, which is TCP backpressure.
		line := make(chan chunk, 1024)
		go p.readDelayed(server, line)
		go p.writeDue(client, line)
	}
}

// forward copies src to dst undelayed and closes both when src ends, which
// unblocks the goroutines of the opposite direction.
func (p *Proxy) forward(dst, src net.Conn) {
	defer p.wg.Done()
	_, _ = io.Copy(dst, src) // an error here is the peer closing
	dst.Close()
	src.Close()
}

func (p *Proxy) readDelayed(src net.Conn, line chan<- chunk) {
	defer p.wg.Done()
	defer close(line)
	buf := make([]byte, 64<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			due := time.Now().Add(time.Duration(p.delay.Load()))
			line <- chunk{data: append([]byte(nil), buf[:n]...), due: due}
		}
		if err != nil {
			return
		}
	}
}

func (p *Proxy) writeDue(dst net.Conn, line <-chan chunk) {
	defer p.wg.Done()
	failed := false
	for c := range line {
		if failed {
			continue // drain so the reader never blocks on a dead client
		}
		if wait := time.Until(c.due); wait > 0 {
			time.Sleep(wait)
		}
		if _, err := dst.Write(c.data); err != nil {
			failed = true
		}
	}
	dst.Close()
}
