package remote

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countedConn counts the Reads and Writes made on a connection and, once
// failAfter is positive, fails the Write that would take the bytes written past
// it — after letting the bytes up to it through, as a connection reset
// mid-frame does.
type countedConn struct {
	net.Conn
	reads     atomic.Int64
	writes    atomic.Int64
	written   atomic.Int64
	failAfter atomic.Int64
	stalls    atomic.Int64 // Writes that timed out: the writeStall rule at work
}

var errCut = errors.New("connection cut mid-train")

func (c *countedConn) Read(b []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(b)
}

func (c *countedConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	if limit := c.failAfter.Load(); limit > 0 && c.written.Load()+int64(len(b)) > limit {
		n, _ := c.Conn.Write(b[:max(limit-c.written.Load(), 0)])
		c.written.Add(int64(n))
		return n, errCut
	}
	n, err := c.Conn.Write(b)
	c.written.Add(int64(n))
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		c.stalls.Add(1)
	}
	return n, err
}

// trainPair is a TCP transport behind a counting connection, dialed to an agent
// that holds stamp(pg) in pages [0, pages) of slab 1; wrap, when not nil,
// shrinks both ends' socket buffers.
func trainPair(t *testing.T, pages int, wrap func(net.Conn) net.Conn) (*TCP, *countedConn) {
	t.Helper()
	conn, err := net.Dial("tcp", serveAgent(t, NewAgent(pages, 0), wrap))
	if err != nil {
		t.Fatal(err)
	}
	if wrap != nil {
		conn = wrap(conn)
	}
	counted := &countedConn{Conn: conn}
	tr := newTCP(counted)
	t.Cleanup(func() { tr.Close() })
	mustCall(t, tr, &Request{Op: OpMapSlab, Slab: 1})
	for pg := 0; pg < pages; pg++ {
		mustCall(t, tr, &Request{Op: OpWrite, Slab: 1, PageOff: uint32(pg), Payload: stamp(pg)})
	}
	return tr, counted
}

// readFrame is an eight-page read batch of slab 1 from page first on.
func readFrame(t testing.TB, first int) *Request {
	t.Helper()
	refs := make([]BatchRef, 8)
	for i := range refs {
		refs[i] = BatchRef{Slab: 1, PageOff: uint32(first + i)}
	}
	req, err := EncodeReadBatch(refs)
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// carries fails the test unless p's response is the eight pages from first on.
func carries(t *testing.T, p Pending, first int) {
	t.Helper()
	resp, err := p.Wait()
	if err != nil {
		t.Errorf("frame of page %d: %v", first, err)
		return
	}
	res, err := DecodeReadBatchResponse(resp)
	if err != nil || len(res) != 8 {
		t.Errorf("frame of page %d: %d results, %v", first, len(res), err)
		return
	}
	for i, r := range res {
		if r.Status != StatusOK || !bytes.Equal(r.Page, stamp(first+i)) {
			t.Errorf("frame of page %d: result %d is another page's", first, i)
			return
		}
	}
}

// TestTrainOnTCP: what the transport promises of a train. Frames started with
// more to follow cost no socket write until the frame that ends the train, and
// then one; responses match pendings in the order the frames were written,
// whoever waits and whoever else starts a frame meanwhile; waiting for a held
// frame sends it; a train whose write fails fails every frame of it with the
// one error; and a train larger than the socket buffers is unstuck by the
// writeStall rule like any frame.
func TestTrainOnTCP(t *testing.T) {
	t.Run("one write", func(t *testing.T) {
		tr, conn := trainPair(t, 64, nil)
		for _, k := range []int{1, 2, 4} {
			writes0, frames0 := tr.doorbells()
			before := conn.writes.Load()
			ps := make([]Pending, k)
			for i := range ps {
				var err error
				if ps[i], err = tr.StartTrain(readFrame(t, 8*i), i < k-1); err != nil {
					t.Fatal(err)
				}
				if got := conn.writes.Load() - before; i < k-1 && got != 0 {
					t.Fatalf("train of %d: %d socket writes with frame %d held", k, got, i)
				}
			}
			if got := conn.writes.Load() - before; got != 1 {
				t.Fatalf("train of %d frames cost %d socket writes, want 1", k, got)
			}
			for i, p := range ps {
				carries(t, p, 8*i)
			}
			if writes, frames := tr.doorbells(); writes-writes0 != 1 || frames-frames0 != int64(k) {
				t.Errorf("train of %d: doorbells count %d writes and %d frames", k, writes-writes0, frames-frames0)
			}
		}
	})

	t.Run("order under waiters and a launch", func(t *testing.T) {
		tr, conn := trainPair(t, 64, nil)
		for round := 0; round < 50; round++ {
			before := conn.writes.Load()
			held := make([]Pending, 3)
			for i := range held {
				var err error
				if held[i], err = tr.StartTrain(readFrame(t, 8*i), true); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			for i, p := range held {
				wg.Add(1)
				go func() {
					defer wg.Done()
					carries(t, p, 8*i)
				}()
			}
			wg.Add(1)
			go func() { // a demand read launched behind the held train
				defer wg.Done()
				resp, err := tr.Call(&Request{Op: OpRead, Slab: 1, PageOff: 40})
				if err != nil || !bytes.Equal(resp.Payload, stamp(40)) {
					t.Errorf("launched read: %v, or another frame's bytes", err)
				}
			}()
			wg.Wait()
			// A waiter sent the train and the read followed, or the read took
			// the train along.
			if got := conn.writes.Load() - before; got < 1 || got > 2 {
				t.Fatalf("round %d: %d socket writes for a held train and a launched read", round, got)
			}
		}
	})

	t.Run("a waiter sends the train", func(t *testing.T) {
		tr, conn := trainPair(t, 64, nil)
		before := conn.writes.Load()
		first, err := tr.StartTrain(readFrame(t, 0), true)
		if err != nil {
			t.Fatal(err)
		}
		second, err := tr.StartTrain(readFrame(t, 8), true)
		if err != nil {
			t.Fatal(err)
		}
		within(t, 5*time.Second, "a wait for a held frame", func() { carries(t, second, 8) })
		carries(t, first, 0)
		if got := conn.writes.Load() - before; got != 1 {
			t.Errorf("%d socket writes, want the one the waiter made", got)
		}
	})

	t.Run("a failed write poisons the train", func(t *testing.T) {
		tr, conn := trainPair(t, 64, nil)
		ok, err := tr.Start(readFrame(t, 0)) // written whole before the cut
		if err != nil {
			t.Fatal(err)
		}
		ps := make([]Pending, 3)
		for i := range ps {
			if ps[i], err = tr.StartTrain(readFrame(t, 8*(i+1)), true); err != nil {
				t.Fatal(err)
			}
		}
		conn.failAfter.Store(conn.written.Load() + 150) // inside the train's second frame
		_, werr := tr.StartTrain(readFrame(t, 32), false)
		if !errors.Is(werr, errCut) {
			t.Fatalf("the frame that ended the train: %v, want the write's error", werr)
		}
		for i, p := range ps {
			resp, err := p.Wait()
			if err != werr || resp != nil {
				t.Errorf("held frame %d: response %v, error %v; want none and %v", i, resp != nil, err, werr)
			}
		}
		if resp, err := ok.Wait(); err != werr || resp != nil {
			t.Errorf("the frame outstanding ahead of the train: response %v, error %v; want none and %v", resp != nil, err, werr)
		}
		if _, err := tr.Start(readFrame(t, 0)); err != werr {
			t.Errorf("a start after the failed train: %v, want %v", err, werr)
		}
	})

	t.Run("writeStall unsticks a train", func(t *testing.T) {
		const bufSize, reads, frames = 32 << 10, 24, 6
		shrink := smallBuffers(bufSize)
		tr, conn := trainPair(t, 64, shrink)
		tr.timeout = time.Minute // only a hang may fail the test
		refs, pages := make([]BatchRef, 8), make([][]byte, 8)
		for i := range refs {
			refs[i], pages[i] = BatchRef{Slab: 1, PageOff: uint32(i)}, stamp(i+500)
		}
		within(t, 20*time.Second, "a train of whole-page write frames over small socket buffers", func() {
			// Read responses nobody reaps fill the way back, and the agent, stuck
			// writing one, stops reading requests.
			var ps []Pending
			for i := 0; i < reads; i++ {
				p, err := tr.Start(readFrame(t, 8*(i%8)))
				if err != nil {
					t.Error(err)
					return
				}
				ps = append(ps, p)
			}
			for i := 0; i < frames; i++ { // 6 x 33 KB through 32 KB buffers
				wb, err := EncodeWriteBatch(refs, pages)
				if err != nil {
					t.Error(err)
					return
				}
				p, err := tr.StartTrain(wb, i < frames-1)
				if err != nil {
					t.Error(err)
					return
				}
				ps = append(ps, p)
			}
			for i, p := range ps {
				if i < reads {
					continue // landed in order below, by whoever gets there
				}
				resp, err := p.Wait()
				if err != nil {
					t.Errorf("write frame %d: %v", i-reads, err)
					return
				}
				if st, err := DecodeWriteBatchResponse(resp); err != nil || len(st) != 8 || st[7] != StatusOK {
					t.Errorf("write frame %d: statuses %v, %v", i-reads, st, err)
				}
			}
			resp, err := tr.Call(&Request{Op: OpRead, Slab: 1, PageOff: 3})
			if err != nil || !bytes.Equal(resp.Payload, stamp(503)) {
				t.Errorf("a read behind the train: %v, or not the bytes the train wrote", err)
			}
		})
		if conn.stalls.Load() == 0 {
			t.Error("the train's write never stalled: the test did not reach the rule")
		}
	})
}
