package netx

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"
)

// echoServer accepts on l and, per connection, answers each 4-byte
// little-endian length + body request with the same frame, written as two
// Writes (header, then body) like the wire protocol under test.
func echoServer(t *testing.T, l net.Listener) {
	t.Helper()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				for {
					var hdr [4]byte
					if _, err := io.ReadFull(c, hdr[:]); err != nil {
						return
					}
					body := make([]byte, int(hdr[0])|int(hdr[1])<<8|int(hdr[2])<<16)
					if _, err := io.ReadFull(c, body); err != nil {
						return
					}
					if _, err := c.Write(hdr[:]); err != nil {
						return
					}
					if _, err := c.Write(body); err != nil {
						return
					}
				}
			}()
		}
	}()
}

func frame(body []byte) []byte {
	n := len(body)
	return append([]byte{byte(n), byte(n >> 8), byte(n >> 16), 0}, body...)
}

func listen(t *testing.T) net.Listener {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func TestListenerCountsExactly(t *testing.T) {
	l := Listen(listen(t), time.Now())
	echoServer(t, l)
	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	l.SetTracing(true)
	sizes := []int{1, 100, 4096}
	var sent int64
	for _, n := range sizes {
		req := frame(bytes.Repeat([]byte{byte(n)}, n))
		if _, err := c.Write(req); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(req))
		if _, err := io.ReadFull(c, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, req) {
			t.Fatalf("echo of %d bytes differs", n)
		}
		sent += int64(len(req))
	}
	got := l.Counters()
	if got.BytesIn != sent || got.BytesOut != sent {
		t.Errorf("bytes in/out = %d/%d, want %d/%d", got.BytesIn, got.BytesOut, sent, sent)
	}
	if got.Requests != int64(len(sizes)) {
		t.Errorf("requests = %d, want %d", got.Requests, len(sizes))
	}
	if want := int64(2 * len(sizes)); got.WriteCalls != want {
		t.Errorf("write calls = %d, want %d (header + body per response)", got.WriteCalls, want)
	}
	// Each request takes at least a header Read and a body Read.
	if want := int64(2 * len(sizes)); got.ReadCalls < want {
		t.Errorf("read calls = %d, want >= %d", got.ReadCalls, want)
	}
	if d := got.Sub(got); d != (Counters{}) {
		t.Errorf("Sub of itself = %+v, want zero", d)
	}

	conns := l.Conns()
	if len(conns) != 1 {
		t.Fatalf("%d conns, want 1", len(conns))
	}
	turns := conns[0].Turnarounds()
	if len(turns) != len(sizes) {
		t.Fatalf("%d turnarounds, want %d", len(turns), len(sizes))
	}
	for i, tr := range turns {
		if tr.Seq != int64(i) {
			t.Errorf("turnaround %d has seq %d", i, tr.Seq)
		}
		if tr.Start <= 0 || tr.End < tr.Start {
			t.Errorf("turnaround %d spans %d..%d", i, tr.Start, tr.End)
		}
		if i > 0 && tr.Start < turns[i-1].End {
			t.Errorf("turnaround %d starts before %d ended", i, i-1)
		}
	}
}

func TestListenerSeqCountsUntracedRequests(t *testing.T) {
	l := Listen(listen(t), time.Now())
	echoServer(t, l)
	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	roundTrip := func() {
		t.Helper()
		req := frame([]byte("ping"))
		if _, err := c.Write(req); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(c, make([]byte, len(req))); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip()
	roundTrip()
	l.SetTracing(true)
	roundTrip()
	turns := l.Conns()[0].Turnarounds()
	if len(turns) != 1 || turns[0].Seq != 2 {
		t.Fatalf("turnarounds = %+v, want one with seq 2", turns)
	}
}

// proxied returns a client connection that reaches an echo server through a
// Proxy.
func proxied(t *testing.T) (*Proxy, net.Conn) {
	t.Helper()
	l := listen(t)
	echoServer(t, l)
	p, err := NewProxy(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return p, c
}

func TestProxyPreservesBytesAndOrder(t *testing.T) {
	p, c := proxied(t)
	for _, d := range []time.Duration{0, 2 * time.Millisecond} {
		p.SetDelay(d)
		var want []byte
		for i := 0; i < 20; i++ {
			want = append(want, frame(bytes.Repeat([]byte{byte(i)}, 1+i*700))...)
		}
		go func() {
			if _, err := c.Write(want); err != nil {
				t.Error(err)
			}
		}()
		got := make([]byte, len(want))
		if _, err := io.ReadFull(c, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("delay %v: relayed bytes differ", d)
		}
	}
}

func TestProxyDelaysEachChunk(t *testing.T) {
	const d = 20 * time.Millisecond
	p, c := proxied(t)
	req := frame([]byte("x"))
	rtt := func() time.Duration {
		t.Helper()
		t0 := time.Now()
		if _, err := c.Write(req); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(c, make([]byte, len(req))); err != nil {
			t.Fatal(err)
		}
		return time.Since(t0)
	}
	base := rtt()
	p.SetDelay(d)
	for i := 0; i < 3; i++ {
		if got := rtt(); got < d {
			t.Errorf("round trip %d took %v with a %v delay line", i, got, d)
		}
	}
	p.SetDelay(0)
	if got := rtt(); got > base+d/2 {
		t.Errorf("round trip took %v after the delay was switched off (undelayed: %v)", got, base)
	}
}

// TestProxyDelaysDoNotAdd sends two requests 5 ms apart, each answered at
// once by the echo server: on a delay line both answers arrive one delay
// after they were sent, so the second lands ~5 ms after the first, well
// before the 2·d a store-and-forward queue would take.
func TestProxyDelaysDoNotAdd(t *testing.T) {
	const d = 40 * time.Millisecond
	const gap = 5 * time.Millisecond
	p, c := proxied(t)
	p.SetDelay(d)
	req := frame([]byte("y"))
	t0 := time.Now()
	if _, err := c.Write(req); err != nil {
		t.Fatal(err)
	}
	time.Sleep(gap)
	if _, err := c.Write(req); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(req))
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	first := time.Since(t0)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	second := time.Since(t0)
	if first < d {
		t.Errorf("first answer after %v, want >= %v", first, d)
	}
	if second < d+gap {
		t.Errorf("second answer after %v, want >= %v", second, d+gap)
	}
	if second >= 2*d {
		t.Errorf("second answer after %v: delays added up (2d = %v)", second, 2*d)
	}
}
