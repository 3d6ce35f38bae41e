package remote

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"leap/internal/core"
	"leap/internal/sim"
)

// rangeFrame encodes ranges into a request of its own.
func rangeFrame(ranges []writeRange) (*Request, error) {
	return encodeWriteRanges(new(Request), ranges, nil)
}

// TestWriteRangesRoundTrip: ranges of every shape — one byte, a whole page, the
// last byte of a page — survive the codec and the wire, largest frame included.
func TestWriteRangesRoundTrip(t *testing.T) {
	page := stamp(7)
	ranges := []writeRange{
		{BatchRef{Slab: 1, PageOff: 0}, 0, page[:1]},
		{BatchRef{Slab: 1 << 40, PageOff: 9}, 0, page},
		{BatchRef{Slab: 2, PageOff: 3}, PageSize - 1, page[PageSize-1:]},
		{BatchRef{Slab: 2, PageOff: 4}, 100, page[100:164]},
	}
	req, err := rangeFrame(ranges)
	if err != nil {
		t.Fatal(err)
	}
	if got := BatchPages(req); got != len(ranges) {
		t.Errorf("BatchPages = %d, want %d", got, len(ranges))
	}
	var buf bytes.Buffer
	if err := EncodeRequest(&buf, req); err != nil {
		t.Fatal(err)
	}
	wired, err := DecodeRequest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeWriteRanges(wired, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ranges) {
		t.Fatalf("decoded %d ranges, want %d", len(got), len(ranges))
	}
	for i := range ranges {
		if got[i].BatchRef != ranges[i].BatchRef || got[i].Lo != ranges[i].Lo || !bytes.Equal(got[i].Data, ranges[i].Data) {
			t.Errorf("range %d came back as %v [%d,+%d)", i, got[i].BatchRef, got[i].Lo, len(got[i].Data))
		}
	}

	full := make([]writeRange, MaxBatchOps)
	for i := range full {
		full[i] = writeRange{BatchRef{Slab: 1, PageOff: uint32(i)}, 0, page}
	}
	req, err = rangeFrame(full)
	if err != nil {
		t.Fatal(err)
	}
	if len(req.Payload) != maxWirePayload {
		t.Errorf("largest range frame is %d B, maxWirePayload %d", len(req.Payload), maxWirePayload)
	}
	buf.Reset()
	if err := EncodeRequest(&buf, req); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRequest(&buf); err != nil {
		t.Errorf("largest range frame does not pass the request reader: %v", err)
	}

	for name, bad := range map[string][]writeRange{
		"none":      {},
		"empty":     {{BatchRef{}, 5, nil}},
		"past page": {{BatchRef{}, PageSize - 1, page[:2]}},
		"negative":  {{BatchRef{}, -1, page[:2]}},
	} {
		if _, err := rangeFrame(bad); err == nil {
			t.Errorf("%s: encoded", name)
		}
	}
}

// TestAgentRejectsMalformedRanges: a range frame that does not parse — a range
// past its page, a truncated or over-long payload, the compress flag — answers
// StatusBadFrame and leaves every slab as it was, the well-formed entries
// ahead of the bad one included.
func TestAgentRejectsMalformedRanges(t *testing.T) {
	a := NewAgent(4, 0)
	a.Handle(&Request{Op: OpMapSlab, Slab: 1})
	good, err := rangeFrame([]writeRange{
		{BatchRef{Slab: 1, PageOff: 0}, 8, []byte("abcd")},
		{BatchRef{Slab: 1, PageOff: 1}, PageSize - 2, []byte("yz")},
	})
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(p []byte) []byte) []byte { return f(bytes.Clone(good.Payload)) }
	last := 4 + batchRefSize + rangeHeadSize + 4 // the second entry
	for name, payload := range map[string][]byte{
		"past page": mutate(func(p []byte) []byte { p[last+batchRefSize] = 0xff; return p }), // lo = PageSize-2+1
		"truncated": mutate(func(p []byte) []byte { return p[:len(p)-1] }),
		"trailing":  mutate(func(p []byte) []byte { return append(p, 0) }),
		"compress":  mutate(func(p []byte) []byte { p[3] |= 0x80; return p }),
		"no count":  {1, 0},
		"zero ops":  {0, 0, 0, 0},
		"cut head":  good.Payload[:4+batchRefSize+2],
	} {
		if resp := a.Handle(&Request{Op: OpWriteRanges, Payload: payload}); resp.Status != StatusBadFrame {
			t.Errorf("%s: status %d, want StatusBadFrame", name, resp.Status)
		}
	}
	for off := uint32(0); off < 4; off++ {
		if resp := a.Handle(&Request{Op: OpRead, Slab: 1, PageOff: off}); !bytes.Equal(resp.Payload, make([]byte, PageSize)) {
			t.Errorf("page %d was touched by a malformed frame", off)
		}
	}
	if _, writes := a.Ops(); writes != 0 {
		t.Errorf("agent counted %d writes", writes)
	}

	// The frame itself applies, with per-entry statuses like a write batch's: an
	// unmapped slab or a page past the slab fails its entry alone.
	mixed, _ := rangeFrame([]writeRange{
		{BatchRef{Slab: 1, PageOff: 0}, 8, []byte("abcd")},
		{BatchRef{Slab: 2, PageOff: 0}, 0, []byte("x")},
		{BatchRef{Slab: 1, PageOff: 4}, 0, []byte("x")},
		{BatchRef{Slab: 1, PageOff: 3}, PageSize - 2, []byte("yz")},
	})
	statuses, err := DecodeWriteBatchResponse(a.Handle(mixed))
	if err != nil || !slices.Equal(statuses, []uint8{StatusOK, StatusBadSlab, StatusBadBound, StatusOK}) {
		t.Fatalf("statuses %v (%v)", statuses, err)
	}
	want := make([]byte, PageSize)
	copy(want[8:], "abcd")
	if resp := a.Handle(&Request{Op: OpRead, Slab: 1, PageOff: 0}); !bytes.Equal(resp.Payload, want) {
		t.Error("range was not laid over the page")
	}
}

// TestFaultTransportFailsRangeFrames: write-fault injection and the page count
// a virtual-time observer charges cover range frames as they cover batches.
func TestFaultTransportFailsRangeFrames(t *testing.T) {
	a := NewAgent(4, 0)
	ft := NewFaultTransport(0, NewInProc(a), sim.NewRNG(1))
	var seen []CallObservation
	ft.SetObserver(func(o CallObservation) { seen = append(seen, o) })
	ft.SetMode(FaultMode{WriteFailProb: 1})
	req, _ := rangeFrame([]writeRange{
		{BatchRef{Slab: 1, PageOff: 0}, 0, []byte("a")},
		{BatchRef{Slab: 1, PageOff: 1}, 0, []byte("b")},
		{BatchRef{Slab: 1, PageOff: 2}, 0, []byte("c")},
	})
	if _, err := ft.Call(req); err == nil {
		t.Error("range frame passed a transport failing every write")
	}
	if len(seen) != 1 || seen[0].Pages != 3 || !seen[0].Injected {
		t.Errorf("observed %+v, want one injected call of 3 pages", seen)
	}
}

// loggedHost builds a host over n in-process agents whose Call-only links note
// the shape of every write frame an agent is sent: "a1 range 64 4096" is an
// OpWriteRanges to agent 1 of a 64-byte range and a whole page. frames returns,
// and forgets, the write frames sent since it was last called.
func loggedHost(t *testing.T, n int, cfg HostConfig) (h *Host, inner []*FaultTransport, frames func() string) {
	t.Helper()
	var mu sync.Mutex
	var lines []string
	trs := make([]Transport, n)
	inner = make([]*FaultTransport, n)
	for i := range trs {
		inner[i] = NewFaultTransport(i, NewInProc(NewAgent(cfg.SlabPages, 0)), nil)
		trs[i] = NewScriptedLink(inner[i], CallOnly, nil, func(req *Request) Verdict {
			var line string
			switch req.Op {
			case OpWrite:
				line = "page"
			case OpWriteBatch:
				line = fmt.Sprintf("batch x%d", BatchPages(req))
				if payloadCompressed(req.Payload) {
					line += " compressed"
				}
			case OpWriteRanges:
				ranges, err := decodeWriteRanges(req, nil)
				if err != nil {
					line = "range " + err.Error()
				} else {
					line = "range"
					for _, r := range ranges {
						line += fmt.Sprint(" ", len(r.Data))
					}
				}
			}
			if line != "" {
				mu.Lock()
				lines = append(lines, fmt.Sprintf("a%d %s", i, line))
				mu.Unlock()
			}
			return Verdict{}
		}).Transport()
	}
	h = newHost(t, cfg, trs)
	return h, inner, func() string {
		mu.Lock()
		defer mu.Unlock()
		s := strings.Join(lines, "; ")
		lines = nil
		return s
	}
}

// TestBaseImageRule walks the rule frame by frame: an agent is sent a range
// only while it is in the page's ack set, which is to say it holds the image
// the range was measured from.
func TestBaseImageRule(t *testing.T) {
	h, inner, frames := loggedHost(t, 2, HostConfig{SlabPages: 8, Replicas: 2, QueueDepth: 4, Seed: 1})
	img := stamp(1)
	step := func(what, want string) {
		t.Helper()
		if err := h.Flush(); err != nil {
			t.Fatalf("%s: flush: %v", what, err)
		}
		if got := frames(); got != want {
			t.Errorf("%s:\n got  %s\n want %s", what, got, want)
		}
	}
	store := func(page core.PageID, lo, hi int) {
		t.Helper()
		img[lo]++
		if tk, _, _ := h.WritePageRangeAsync(page, img, lo, hi); tk.Err() != nil {
			t.Fatal(tk.Err())
		}
	}

	store(0, 10, 20)
	step("a first write has no base", "a0 page; a1 page")
	store(0, 10, 20)
	step("a range lands on both holders of the base", "a0 range 10; a1 range 10")
	store(0, 0, 1)
	store(0, 100, 164)
	step("superseding in place unions the hulls", "a0 range 164; a1 range 164")
	store(0, 5, 6)
	store(1, 0, PageSize)
	store(2, 7, 9)
	step("a frame with a range in it carries whole pages as ranges", "a0 range 1 4096 4096; a1 range 1 4096 4096")
	store(1, 0, PageSize)
	store(2, 0, PageSize)
	step("a frame of whole pages is the batch it always was", "a0 batch x2; a1 batch x2")

	inner[1].SetMode(FaultMode{Partitioned: true})
	store(0, 30, 40)
	step("one replica down (its frame is noted, and fails)", "a0 range 10; a1 range 10")
	inner[1].SetMode(FaultMode{})
	store(0, 50, 60)
	step("the replica that missed a write is sent the page", "a0 range 10; a1 page")
	store(0, 50, 60)
	step("and ranges again once it has acknowledged one", "a0 range 10; a1 range 10")

	if err := h.WritePage(0, img); err != nil {
		t.Fatal(err)
	}
	step("WritePage ships the page, in placement order", "a1 page; a0 page")

	inner[0].SetMode(FaultMode{Partitioned: true})
	inner[1].SetMode(FaultMode{Partitioned: true})
	img[70]++
	tk, _, _ := h.WritePageRangeAsync(0, img, 70, 71)
	if err := h.Flush(); err == nil || tk.Err() == nil {
		t.Fatal("a write no replica took reported no error")
	}
	inner[0].SetMode(FaultMode{})
	inner[1].SetMode(FaultMode{})
	frames()
	store(0, 70, 71)
	step("after a write lost everywhere nobody's image is known", "a0 page; a1 page")
	store(0, 70, 71)
	step("until one has been acknowledged", "a0 range 1; a1 range 1")

	// A read that every acked holder failed is served by whoever answers, whose
	// image may be an older one: a range measured from those bytes has no base.
	inner[1].SetMode(FaultMode{Partitioned: true})
	store(0, 80, 81) // acked: agent 0 alone
	if err := h.Flush(); err != nil {
		t.Fatal(err)
	}
	inner[1].SetMode(FaultMode{})
	inner[0].SetMode(FaultMode{Partitioned: true})
	stale := make([]byte, PageSize)
	if err := h.ReadPage(0, stale); err != nil {
		t.Fatal(err)
	}
	inner[0].SetMode(FaultMode{})
	frames()
	stale[90]++
	if tk, _, _ := h.WritePageRangeAsync(0, stale, 90, 91); tk.Err() != nil {
		t.Fatal(tk.Err())
	}
	step("a range over bytes read from outside the ack set", "a0 page; a1 page")
	copy(img, stale)

	// An agent that lost its slabs fails a range as it fails a page.
	inner[1].inner.(*InProc).agent.Reset()
	store(0, 1, 2)
	if err := h.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := h.AckedReplicas(0); !slices.Equal(got, []int{0}) {
		t.Errorf("acked %v after a range to an unmapped slab, want [0]", got)
	}
	if st := h.Stats(); st.RangeWrites == 0 || st.WriteWireBytes == 0 {
		t.Errorf("stats %+v count no range traffic", st)
	}
}

// TestWriteBehindStartedWriteGoesWhole: a range queued behind a write of the
// page that is on the wire is measured from an image that write may yet fail to
// leave on a replica, so it travels whole.
func TestWriteBehindStartedWriteGoesWhole(t *testing.T) {
	started := make(chan uint8, 64) // the ops of the frames sent to agent 0
	links, trs := make([]*ScriptedLink, 2), make([]Transport, 2)
	for i := range links {
		links[i] = NewScriptedLink(NewInProc(NewAgent(8, 0)), Split, nil, func(req *Request) Verdict {
			if i == 0 {
				started <- req.Op
			}
			return Verdict{}
		})
		trs[i] = links[i].Transport()
	}
	h := newHost(t, HostConfig{SlabPages: 8, Replicas: 2, QueueDepth: 4, Seed: 5}, trs)
	img := stamp(3)
	if err := h.WritePage(3, img); err != nil {
		t.Fatal(err)
	}
	for len(started) > 0 {
		<-started
	}
	for _, l := range links {
		l.Hold()
	}
	img[0]++
	h.WritePageRangeAsync(3, img, 0, 1)
	flushed := make(chan error, 1)
	go func() { flushed <- h.Flush() }()
	if op := <-started; op != OpWriteRanges {
		t.Fatalf("first write left as op %d, want a range frame", op)
	}
	img[9]++
	h.WritePageRangeAsync(3, img, 9, 10)
	for _, l := range links {
		l.Release()
	}
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
	if err := h.Flush(); err != nil {
		t.Fatal(err)
	}
	// The first write's two ranges and no more: the second went whole, alone in
	// agent 0's next frame and beside the first in agent 1's.
	if st := h.Stats(); st.RangeWrites != 2 {
		t.Errorf("%d range writes, want the first write's 2", st.RangeWrites)
	}
	if op := <-started; op != OpWrite {
		t.Errorf("second write reached agent 0 as op %d, want a page", op)
	}
	for i, l := range links {
		resp, err := l.Inner().Call(&Request{Op: OpRead, Slab: 0, PageOff: 3})
		if err != nil || !bytes.Equal(resp.Payload, img) {
			t.Errorf("agent %d does not hold the newest image", i)
		}
	}
}

// TestCompressedWriteEncodesOnce: under HostConfig.Compress a write's image
// goes through the codec once, for the first batch frame that carries it, and
// the other replica's frame lays out the same encoded bytes (Host.encoded).
// Between the two frames the test swaps each cached encoding for another
// image's, which the second frame must carry; once the writes have landed
// everywhere their encodings are back on the host's free list.
func TestCompressedWriteEncodesOnce(t *testing.T) {
	trs := []Transport{NewInProc(NewAgent(8, 0)), NewInProc(NewAgent(8, 0))}
	h := newHost(t, HostConfig{SlabPages: 8, Replicas: 2, QueueDepth: 4, Seed: 1, Compress: true}, trs)
	for pg := 0; pg < 2; pg++ {
		h.WritePageAsync(core.PageID(pg), stamp(pg))
	}
	h.mu.Lock()
	frame := func(idx int) [][]byte { // what agent idx's frame would carry, decoded
		req, err := h.writeFrame(&flight{idx: idx, batch: slices.Clone(h.links[idx].queue)})
		if err != nil {
			t.Fatal(err)
		}
		_, pages, err := decodeWriteBatch(req, nil, nil)
		if err != nil || !payloadCompressed(req.Payload) {
			t.Fatalf("agent %d: a compressed batch of 2 was wanted (%v)", idx, err)
		}
		return pages
	}
	first, swap := frame(0), stamp(7)
	for _, e := range h.links[0].queue {
		e.write.enc = h.comp.Compress(nil, swap)
	}
	second := frame(1)
	for _, e := range h.links[0].queue {
		e.write.enc = nil // the frames that go out encode afresh
	}
	h.mu.Unlock()
	for pg := range first {
		if !bytes.Equal(first[pg], stamp(pg)) {
			t.Errorf("page %d: the first replica's frame does not carry its image", pg)
		}
		if !bytes.Equal(second[pg], swap) {
			t.Errorf("page %d: the second replica's frame ran the image through the codec again", pg)
		}
	}
	if err := h.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, tr := range trs {
		for pg := 0; pg < 2; pg++ {
			if resp := mustCall(t, tr, &Request{Op: OpRead, Slab: 0, PageOff: uint32(pg)}); !bytes.Equal(resp.Payload, stamp(pg)) {
				t.Errorf("agent %d does not hold page %d", i, pg)
			}
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if n := len(h.encFree); n != 2 {
		t.Errorf("%d encodings on the free list once both writes landed, want 2", n)
	}
}

// TestCompressedHostShipsWholePages: HostConfig.Compress frames are whole
// pages through the codec, whatever range the caller names.
func TestCompressedHostShipsWholePages(t *testing.T) {
	h, _, frames := loggedHost(t, 2, HostConfig{SlabPages: 8, Replicas: 2, QueueDepth: 4, Seed: 1, Compress: true})
	img := stamp(1)
	for round := 0; round < 2; round++ {
		for pg := core.PageID(0); pg < 2; pg++ {
			img[5]++
			h.WritePageRangeAsync(pg, img, 5, 6)
		}
		if err := h.Flush(); err != nil {
			t.Fatal(err)
		}
		if got, want := frames(), "a0 batch x2 compressed; a1 batch x2 compressed"; got != want {
			t.Errorf("round %d: %s, want %s", round, got, want)
		}
	}
	if st := h.Stats(); st.RangeWrites != 0 {
		t.Errorf("a compressing host sent %d ranges", st.RangeWrites)
	}
}
