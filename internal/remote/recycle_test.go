package remote

import (
	"bytes"
	"math/rand"
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
// in flight, and a hedged read whose twin rides the other connection. Every
// page must come out as its image, every round; and a response fetched by a
// direct Call, which nobody releases, must be left alone throughout.
func TestResponseBufferNotReusedBeforeLanding(t *testing.T) {
	const (
		depth, frames = 8, 64
		pages         = depth * frames
		hedged        = pages // one more page, read hedged
	)
	trs := make([]Transport, 2)
	for i := range trs {
		trs[i] = dialAgent(t, serveAgent(t, NewAgent(1024, 0), nil))
	}
	h, err := NewHost(HostConfig{SlabPages: 1024, Replicas: 2, QueueDepth: depth, Seed: 9,
		Retry: RetryPolicy{HedgeReads: true}}, trs)
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
		for _, idx := range []int{0, 1} { // every holder slow: the read is hedged
			h.SetAgentSlow(idx, true)
		}
		issue(hedged)
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
				}
			}()
		}
		within(t, 10*time.Second, "Ticket.Wait from three goroutines", wg.Wait)
		if err := h.Flush(); err != nil { // lands the hedge's losing half
			t.Fatal(err)
		}
	}
	if st := h.Stats(); st.HedgedReads != 3 || st.CoalescedReads != 6 {
		t.Errorf("test premise: %d hedged and %d coalesced reads, want 3 and 6", st.HedgedReads, st.CoalescedReads)
	}

	if !bytes.Equal(kept.Payload, stamp(3)) {
		t.Error("a response fetched by direct Call was recycled under its holder")
	}
	results, err := DecodeReadBatchResponse(keptBatch)
	if err != nil || !bytes.Equal(results[0].Page, stamp(4)) || !bytes.Equal(results[1].Page, stamp(5)) {
		t.Errorf("a batch response fetched by direct Call was recycled under its holder (%v)", err)
	}
}
