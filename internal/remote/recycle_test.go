package remote

import (
	"bytes"
	"errors"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"leap/internal/core"
)

// TestResponseBufferNotReusedBeforeLanding is the use-after-release guard of
// the recycled response buffers (every buffer entering a free list is
// poisoned in this package's tests, see poison_test.go). 64 read frames are
// left outstanding on one TCP and their tickets waited for in shuffled order
// from three goroutines, so whoever reads the socket decodes dozens of
// responses that land much later, out of order and on other goroutines, while
// buffers come back to the free list and go out again under them. Mixed in: a
// detached ticket, a second reader coalesced onto a read queued and onto one
// in flight, and a read issued while every holder is hinted slow. Every
// ticket is released after its Wait, so reads, flights and transport pendings
// are recycled under the waiters of the next rounds. Every page must come out
// as its image, every round; and a response fetched by a direct Call, which
// nobody releases, must be left alone throughout.
func TestResponseBufferNotReusedBeforeLanding(t *testing.T) {
	const (
		depth, frames = 8, 64
		pages         = depth * frames
		slowRead      = pages // one more page, read while every holder is slow
	)
	trs := make([]Transport, 2)
	for i := range trs {
		trs[i] = dialAgent(t, serveAgent(t, NewAgent(1024, 0), nil))
	}
	h, err := NewHost(HostConfig{SlabPages: 1024, Replicas: 2, QueueDepth: depth, Seed: 9}, trs)
	if err != nil {
		t.Fatal(err)
	}
	for pg := 0; pg <= pages; pg++ {
		h.WritePageAsync(core.PageID(pg), stamp(pg))
	}
	if err := h.Flush(); err != nil {
		t.Fatal(err)
	}
	// One slab: every read has the same primary, whose connection carries them.
	h.mu.Lock()
	primary := h.readOrder(0, h.rec(0), h.placements[0], nil)
	h.mu.Unlock()
	link := trs[primary].(*TCP)

	// Responses nobody will release: a single page and a batch, by direct Call.
	kept := mustCall(t, link, &Request{Op: OpRead, Slab: 0, PageOff: 3})
	rb, _ := EncodeReadBatch([]BatchRef{{Slab: 0, PageOff: 4}, {Slab: 0, PageOff: 5}})
	keptBatch := mustCall(t, link, rb)

	type read struct {
		pg     int
		buf    []byte
		ticket *Ticket
		detach bool
	}
	sentinel := bytes.Repeat([]byte{0x5A}, PageSize)
	rng := rand.New(rand.NewSource(20))
	for round := 0; round < 3; round++ {
		var reads []*read
		issue := func(pg int) *read {
			r := &read{pg: pg, buf: bytes.Clone(sentinel)}
			r.ticket = h.ReadPageAsync(core.PageID(pg), r.buf)
			reads = append(reads, r)
			return r
		}
		for _, idx := range []int{0, 1} {
			h.SetAgentSlow(idx, true)
		}
		issue(slowRead)
		for _, idx := range []int{0, 1} {
			h.SetAgentSlow(idx, false)
		}
		for pg := 0; pg < pages; pg++ {
			issue(pg)
		}
		issue(17) // coalesced onto a queued read
		if flying, err := h.Submit(); err != nil || !flying {
			t.Fatalf("round %d: Submit left nothing in flight (err %v)", round, err)
		}
		link.mu.Lock()
		outstanding := len(link.fifo)
		link.mu.Unlock()
		if outstanding < frames {
			t.Fatalf("round %d: test premise: %d frames outstanding on the primary's connection, want %d", round, outstanding, frames)
		}
		issue(300) // coalesced onto a read in flight
		for _, pg := range []int{40, 41, 299} {
			reads[1+pg].detach = true
			reads[1+pg].ticket.Detach()
		}
		rng.Shuffle(len(reads), func(i, j int) { reads[i], reads[j] = reads[j], reads[i] })

		var wg sync.WaitGroup
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := g; i < len(reads); i += 3 {
					r := reads[i]
					if err := r.ticket.Wait(); err != nil {
						t.Errorf("round %d page %d: %v", round, r.pg, err)
					}
					want := stamp(r.pg)
					if r.detach {
						want = sentinel
					}
					if !bytes.Equal(r.buf, want) {
						t.Errorf("round %d page %d (detached %v): wrong bytes after Wait", round, r.pg, r.detach)
					}
					r.ticket.Release()
				}
			}()
		}
		within(t, 10*time.Second, "Ticket.Wait from three goroutines", wg.Wait)
	}
	if st := h.Stats(); st.CoalescedReads != 6 {
		t.Errorf("test premise: %d coalesced reads, want 6", st.CoalescedReads)
	}

	if !bytes.Equal(kept.Payload, stamp(3)) {
		t.Error("a response fetched by direct Call was recycled under its holder")
	}
	results, err := DecodeReadBatchResponse(keptBatch)
	if err != nil || !bytes.Equal(results[0].Page, stamp(4)) || !bytes.Equal(results[1].Page, stamp(5)) {
		t.Errorf("a batch response fetched by direct Call was recycled under its holder (%v)", err)
	}
}

// TestLentResponseRevoked: the host's reaper is lent its response out of the
// transport's receive buffer, and while it waits for Host.mu to land it,
// another goroutine holding Host.mu makes a direct Call on the same link, as
// placement does. The Call must not wait for the loan — its holder waits for
// the Call's goroutine — but revoke it: copy the lent bytes out and read on.
// The reaper then lands the right bytes from the copy.
func TestLentResponseRevoked(t *testing.T) {
	const depth = 8
	var gate sync.Mutex // locked: the agent's responses wait
	tr := dialAgent(t, serveAgent(t, NewAgent(64, 0), func(c net.Conn) net.Conn { return gatedConn{c, &gate} }))
	h, err := NewHost(HostConfig{SlabPages: 64, Replicas: 1, QueueDepth: depth, Seed: 1}, []Transport{tr})
	if err != nil {
		t.Fatal(err)
	}
	for pg := 0; pg < 2*depth; pg++ {
		h.WritePageAsync(core.PageID(pg), stamp(pg))
	}
	if err := h.Flush(); err != nil {
		t.Fatal(err)
	}
	bufs, tickets := make([][]byte, depth), make([]*Ticket, depth)
	for pg := range tickets {
		bufs[pg] = make([]byte, PageSize)
		tickets[pg] = h.ReadPageAsync(core.PageID(pg), bufs[pg])
	}
	gate.Lock()
	if flying, err := h.Submit(); err != nil || !flying {
		t.Fatalf("Submit left nothing in flight (err %v)", err)
	}
	landed := make(chan error, 1)
	go func() {
		var err error
		for _, tk := range tickets {
			err = errors.Join(err, tk.Wait())
		}
		landed <- err
	}()

	var resp *Response
	var callErr error
	within(t, 10*time.Second, "a direct Call under Host.mu behind a lent response", func() {
		// Host.mu is taken once the reaper has let go of it for the wait, and
		// only then is the response let through: the loan cannot be pinned.
		for {
			h.mu.Lock()
			if fl := h.links[0].flights; len(fl) > 0 && fl[0].reaping {
				break
			}
			h.mu.Unlock()
			runtime.Gosched()
		}
		defer h.mu.Unlock()
		gate.Unlock()
		for lent := false; !lent; runtime.Gosched() {
			tr.mu.Lock()
			lent = tr.loan != nil && !tr.pinned
			tr.mu.Unlock()
		}
		resp, callErr = tr.Call(&Request{Op: OpRead, Slab: 0, PageOff: depth + 1})
		tr.mu.Lock()
		defer tr.mu.Unlock()
		if tr.loan != nil {
			t.Error("the loan is still out after a Call read past it")
		}
	})
	if callErr != nil || resp.Status != StatusOK || !bytes.Equal(resp.Payload, stamp(depth+1)) {
		t.Errorf("the Call behind the loan: err %v, wrong bytes", callErr)
	}
	within(t, 10*time.Second, "the reaper's landing", func() {
		if err := <-landed; err != nil {
			t.Error(err)
		}
	})
	for pg, buf := range bufs {
		if !bytes.Equal(buf, stamp(pg)) {
			t.Errorf("page %d: wrong bytes landed from a revoked loan", pg)
		}
	}
}

// gatedConn holds each Write until gate is unlocked.
type gatedConn struct {
	net.Conn
	gate *sync.Mutex
}

func (c gatedConn) Write(b []byte) (int, error) {
	c.gate.Lock()
	c.gate.Unlock() //nolint:staticcheck // a turnstile, not a critical section
	return c.Conn.Write(b)
}

// TestReleaseTwicePanics: a read ticket released once more than it was held —
// its own ticket or a second reader's coalesced onto the read — panics, where
// it would otherwise put the read on the host's free list a second time for
// two later reads to share.
func TestReleaseTwicePanics(t *testing.T) {
	h := newHost(t, HostConfig{SlabPages: 8, Replicas: 1, QueueDepth: 4, Seed: 1}, []Transport{NewInProc(NewAgent(8, 0))})
	if err := h.WritePage(0, stamp(0)); err != nil {
		t.Fatal(err)
	}
	for _, stale := range []string{"own", "coalesced"} {
		own := h.ReadPageAsync(0, make([]byte, PageSize))
		second := h.ReadPageAsync(0, make([]byte, PageSize))
		if own.read == nil || second.read != own.read {
			t.Fatal("the second read did not coalesce onto the first")
		}
		if err := errors.Join(own.Wait(), second.Wait()); err != nil {
			t.Fatal(err)
		}
		own.Release()
		second.Release()
		tk := map[string]*Ticket{"own": own, "coalesced": second}[stale]
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s ticket: a second Release did not panic", stale)
				}
			}()
			tk.Release()
		}()
		h.mu.Lock()
		if n := len(h.readFree); n != 1 {
			t.Errorf("%s ticket: %d reads on the free list, want the one", stale, n)
		}
		h.mu.Unlock()
	}
}
