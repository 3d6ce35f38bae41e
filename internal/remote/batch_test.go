package remote

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"leap/internal/core"
	"leap/internal/rdma"
	"leap/internal/sim"
)

// TestBatchReadRoundTrip: refs → request frame → wire → decode must be
// lossless, including through the generic EncodeRequest/DecodeRequest
// framing the TCP transport uses.
func TestBatchReadRoundTrip(t *testing.T) {
	refs := []BatchRef{{Slab: 7, PageOff: 3}, {Slab: 7, PageOff: 9}, {Slab: 1 << 40, PageOff: 0}}
	req, err := EncodeReadBatch(refs)
	if err != nil {
		t.Fatal(err)
	}
	var wire bytes.Buffer
	if err := EncodeRequest(&wire, req); err != nil {
		t.Fatal(err)
	}
	again, err := DecodeRequest(&wire)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeReadBatch(again)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, refs) {
		t.Fatalf("read batch round trip: got %v want %v", got, refs)
	}
}

// TestBatchWriteRoundTrip mirrors TestBatchReadRoundTrip for write frames.
func TestBatchWriteRoundTrip(t *testing.T) {
	refs := []BatchRef{{Slab: 2, PageOff: 1}, {Slab: 3, PageOff: 0}}
	pages := [][]byte{pageOf(0xAA), pageOf(0x55)}
	req, err := EncodeWriteBatch(refs, pages)
	if err != nil {
		t.Fatal(err)
	}
	var wire bytes.Buffer
	if err := EncodeRequest(&wire, req); err != nil {
		t.Fatal(err)
	}
	again, err := DecodeRequest(&wire)
	if err != nil {
		t.Fatal(err)
	}
	gotRefs, gotPages, err := DecodeWriteBatch(again)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotRefs, refs) {
		t.Fatalf("refs: got %v want %v", gotRefs, refs)
	}
	for i := range pages {
		if !bytes.Equal(gotPages[i], pages[i]) {
			t.Fatalf("page %d corrupted in transit", i)
		}
	}
}

// TestBatchResponseRoundTrips covers both response framings, including a
// mixed-status read response whose failed entries carry no page bytes.
func TestBatchResponseRoundTrips(t *testing.T) {
	results := []BatchReadResult{
		{Status: StatusOK, Page: pageOf(1)},
		{Status: StatusBadSlab},
		{Status: StatusOK, Page: pageOf(2)},
	}
	resp, err := EncodeReadBatchResponse(results)
	if err != nil {
		t.Fatal(err)
	}
	var wire bytes.Buffer
	if err := EncodeResponse(&wire, resp); err != nil {
		t.Fatal(err)
	}
	again, err := DecodeResponse(&wire)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeReadBatchResponse(again)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[1].Status != StatusBadSlab || got[1].Page != nil {
		t.Fatalf("read response round trip: %+v", got)
	}
	if !bytes.Equal(got[0].Page, results[0].Page) || !bytes.Equal(got[2].Page, results[2].Page) {
		t.Fatal("read response pages corrupted")
	}

	statuses := []uint8{StatusOK, StatusBadBound, StatusOK}
	wresp, err := EncodeWriteBatchResponse(statuses)
	if err != nil {
		t.Fatal(err)
	}
	gotSt, err := DecodeWriteBatchResponse(wresp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotSt, statuses) {
		t.Fatalf("write response statuses: got %v want %v", gotSt, statuses)
	}
}

// TestBatchRejectsMalformed: counts out of range, truncated entries, and
// size mismatches must error, never panic.
func TestBatchRejectsMalformed(t *testing.T) {
	if _, err := EncodeReadBatch(nil); err == nil {
		t.Error("empty read batch accepted")
	}
	if _, err := EncodeReadBatch(make([]BatchRef, MaxBatchOps+1)); err == nil {
		t.Error("oversized read batch accepted")
	}
	if _, err := DecodeReadBatch(&Request{Op: OpReadBatch, Payload: []byte{1, 0}}); err == nil {
		t.Error("truncated count accepted")
	}
	if _, err := DecodeReadBatch(&Request{Op: OpReadBatch, Payload: []byte{2, 0, 0, 0, 1, 2, 3}}); err == nil {
		t.Error("truncated refs accepted")
	}
	if _, _, err := DecodeWriteBatch(&Request{Op: OpWriteBatch, Payload: []byte{1, 0, 0, 0}}); err == nil {
		t.Error("write batch with no page bytes accepted")
	}
	if _, err := DecodeReadBatch(&Request{Op: OpRead}); err == nil {
		t.Error("DecodeReadBatch on a non-batch op accepted")
	}
}

// TestAgentBatchOpsMatchSingleOps: a batch against the agent must return
// exactly what the equivalent single-op sequence returns, per entry,
// including per-entry failures.
func TestAgentBatchOpsMatchSingleOps(t *testing.T) {
	a := NewAgent(8, 0)
	a.Handle(&Request{Op: OpMapSlab, Slab: 1})

	refs := []BatchRef{
		{Slab: 1, PageOff: 0},
		{Slab: 1, PageOff: 7},
		{Slab: 99, PageOff: 0}, // unmapped
		{Slab: 1, PageOff: 64}, // out of bounds
	}
	pages := [][]byte{pageOf(1), pageOf(2), pageOf(3), pageOf(4)}
	wreq, err := EncodeWriteBatch(refs, pages)
	if err != nil {
		t.Fatal(err)
	}
	statuses, err := DecodeWriteBatchResponse(a.Handle(wreq))
	if err != nil {
		t.Fatal(err)
	}
	want := []uint8{StatusOK, StatusOK, StatusBadSlab, StatusBadBound}
	if !reflect.DeepEqual(statuses, want) {
		t.Fatalf("write statuses %v, want %v", statuses, want)
	}

	rreq, err := EncodeReadBatch(refs)
	if err != nil {
		t.Fatal(err)
	}
	results, err := DecodeReadBatchResponse(a.Handle(rreq))
	if err != nil {
		t.Fatal(err)
	}
	for i, ref := range refs {
		single := a.Handle(&Request{Op: OpRead, Slab: ref.Slab, PageOff: ref.PageOff})
		if results[i].Status != single.Status {
			t.Fatalf("entry %d: batch status %d, single status %d", i, results[i].Status, single.Status)
		}
		if single.Status == StatusOK && !bytes.Equal(results[i].Page, single.Payload) {
			t.Fatalf("entry %d: batch bytes differ from single-op bytes", i)
		}
	}
}

// obsAccountant captures the transport call multiset and charges every call
// to a deterministic (σ=0) fabric on a chaos-style serial cursor, so two
// hosts issuing the same calls accumulate exactly the same virtual time.
type obsAccountant struct {
	fabric *rdma.Fabric
	cursor sim.Time
	buf    []sim.Time
	// perAgentOp[agent][op] counts calls.
	perAgentOp map[int]map[uint8]int
	calls      int
}

func newObsAccountant() *obsAccountant {
	return &obsAccountant{
		fabric: rdma.New(rdma.Config{
			OpLatency: sim.Normal{Mu: 4300, Sigma: 0, Floor: 4300},
		}, sim.NewRNG(1)),
		perAgentOp: make(map[int]map[uint8]int),
	}
}

func (r *obsAccountant) observe(o CallObservation) {
	r.calls++
	if r.perAgentOp[o.Agent] == nil {
		r.perAgentOp[o.Agent] = make(map[uint8]int)
	}
	r.perAgentOp[o.Agent][o.Op]++
	r.buf = r.fabric.SubmitBatch(o.Agent, o.Pages, r.cursor, r.buf)
	r.cursor = r.buf[len(r.buf)-1]
}

// TestDepthOneAsyncMatchesSync is the queue-depth-1 parity gate: the async
// engine at depth 1 must issue exactly the same wire calls as the
// synchronous path — same per-agent op counts, all single-page unbatched
// frames (the engine only reorders a write's replica fan-out) — return
// identical bytes, and accumulate an identical simulated total on a
// deterministic fabric accountant.
func TestDepthOneAsyncMatchesSync(t *testing.T) {
	build := func() (*Host, *obsAccountant) {
		rec := newObsAccountant()
		trs := make([]Transport, 3)
		for i := range trs {
			ft := NewFaultTransport(i, NewInProc(NewAgent(8, 0)), nil)
			ft.SetObserver(rec.observe)
			trs[i] = ft
		}
		h, err := NewHost(HostConfig{SlabPages: 8, Replicas: 2, QueueDepth: 1, Seed: 77}, trs)
		if err != nil {
			t.Fatal(err)
		}
		return h, rec
	}

	syncHost, syncRec := build()
	asyncHost, asyncRec := build()

	const pages = 48
	for p := core.PageID(0); p < pages; p++ {
		if err := syncHost.WritePage(p, pageOf(byte(p))); err != nil {
			t.Fatal(err)
		}
		if err := asyncHost.WritePageAsync(p, pageOf(byte(p))).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	syncBuf := make([]byte, PageSize)
	asyncBuf := make([]byte, PageSize)
	for p := core.PageID(0); p < pages; p++ {
		if err := syncHost.ReadPage(p, syncBuf); err != nil {
			t.Fatal(err)
		}
		if err := asyncHost.ReadPageAsync(p, asyncBuf).Wait(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(syncBuf, asyncBuf) {
			t.Fatalf("page %d: async bytes differ from sync bytes", p)
		}
	}
	if syncRec.calls != asyncRec.calls {
		t.Fatalf("call counts diverged at depth 1: sync %d, async %d", syncRec.calls, asyncRec.calls)
	}
	if !reflect.DeepEqual(syncRec.perAgentOp, asyncRec.perAgentOp) {
		t.Fatalf("per-agent op counts diverged at depth 1:\nsync:  %v\nasync: %v",
			syncRec.perAgentOp, asyncRec.perAgentOp)
	}
	if syncRec.cursor != asyncRec.cursor {
		t.Fatalf("simulated totals diverged at depth 1: sync %v, async %v",
			syncRec.cursor, asyncRec.cursor)
	}
	for agent := range asyncRec.perAgentOp {
		for op := range asyncRec.perAgentOp[agent] {
			if op == OpReadBatch || op == OpWriteBatch {
				t.Fatalf("depth-1 engine issued a batched frame (op %d)", op)
			}
		}
	}
}

// TestCoalescedAndDirtyReads exercises the engine's two local-completion
// paths directly.
func TestCoalescedAndDirtyReads(t *testing.T) {
	trs := []Transport{NewInProc(NewAgent(8, 0)), NewInProc(NewAgent(8, 0))}
	h, err := NewHost(HostConfig{SlabPages: 8, Replicas: 2, QueueDepth: 4, Seed: 9}, trs)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.WritePage(3, pageOf(0x11)); err != nil {
		t.Fatal(err)
	}
	// Two async reads of the same page: one wire request, both buffers
	// filled.
	b1, b2 := make([]byte, PageSize), make([]byte, PageSize)
	t1 := h.ReadPageAsync(3, b1)
	t2 := h.ReadPageAsync(3, b2)
	if err := h.Flush(); err != nil {
		t.Fatal(err)
	}
	if t1.Err() != nil || t2.Err() != nil {
		t.Fatal(t1.Err(), t2.Err())
	}
	if b1[0] != 0x11 || b2[0] != 0x11 {
		t.Fatal("coalesced read returned wrong bytes")
	}
	if st := h.Stats(); st.CoalescedReads != 1 {
		t.Fatalf("CoalescedReads = %d, want 1", st.CoalescedReads)
	}

	// A read behind an unflushed write sees the write's bytes immediately.
	h.WritePageAsync(3, pageOf(0x22))
	b3 := make([]byte, PageSize)
	t3 := h.ReadPageAsync(3, b3)
	if !t3.Done() || t3.Err() != nil {
		t.Fatal("dirty read did not complete immediately")
	}
	if b3[0] != 0x22 {
		t.Fatalf("dirty read returned %#x, want 0x22", b3[0])
	}
	if st := h.Stats(); st.DirtyReads != 1 {
		t.Fatalf("DirtyReads = %d, want 1", st.DirtyReads)
	}
	if err := h.Flush(); err != nil {
		t.Fatal(err)
	}
	// The sync path also sees dirty bytes (read-your-writes) before flush.
	h.WritePageAsync(3, pageOf(0x33))
	b4 := make([]byte, PageSize)
	if err := h.ReadPage(3, b4); err != nil {
		t.Fatal(err)
	}
	if b4[0] != 0x33 {
		t.Fatalf("sync read of dirty page returned %#x, want 0x33", b4[0])
	}
	if err := h.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncFailover: a crashed primary mid-queue must fail reads over to
// the replica during the flush, like the sync path does.
func TestAsyncFailover(t *testing.T) {
	faults := []*FaultTransport{NewFaultTransport(0, NewInProc(NewAgent(8, 0)), nil), NewFaultTransport(1, NewInProc(NewAgent(8, 0)), nil)}
	h, err := NewHost(HostConfig{SlabPages: 8, Replicas: 2, QueueDepth: 4, Seed: 13},
		[]Transport{faults[0], faults[1]})
	if err != nil {
		t.Fatal(err)
	}
	for p := core.PageID(0); p < 16; p++ {
		if err := h.WritePage(p, pageOf(byte(p))); err != nil {
			t.Fatal(err)
		}
	}
	faults[0].SetMode(FaultMode{Partitioned: true})
	bufs := make([][]byte, 16)
	tickets := make([]*Ticket, 16)
	for p := range bufs {
		bufs[p] = make([]byte, PageSize)
		tickets[p] = h.ReadPageAsync(core.PageID(p), bufs[p])
	}
	if err := h.Flush(); err != nil {
		t.Fatal(err)
	}
	for p := range tickets {
		if err := tickets[p].Err(); err != nil {
			t.Fatalf("read %d failed despite a live replica: %v", p, err)
		}
		if bufs[p][0] != byte(p) {
			t.Fatalf("read %d returned wrong bytes after failover", p)
		}
	}
	if h.Stats().Failovers == 0 {
		t.Fatal("no failovers recorded — agent 0 held no primaries?")
	}
	// Both replicas dead: tickets must carry errors, not hang or panic.
	faults[1].SetMode(FaultMode{Partitioned: true})
	buf := make([]byte, PageSize)
	tk := h.ReadPageAsync(5, buf)
	if err := tk.Wait(); err == nil {
		t.Fatal("read succeeded with every replica dead")
	}
}

// TestWritePageAsyncPlacementFailureErrors: when no agent can map the
// slab (capacity exhausted), the ticket must complete with an error — the
// enqueue path completes it under the host lock it already holds, so this
// must neither hang nor panic.
func TestWritePageAsyncPlacementFailureErrors(t *testing.T) {
	h, err := NewHost(HostConfig{SlabPages: 8, Replicas: 1, QueueDepth: 4, Seed: 1},
		[]Transport{NewInProc(NewAgent(8, 1))}) // capacity: one slab
	if err != nil {
		t.Fatal(err)
	}
	if err := h.WritePage(0, pageOf(1)); err != nil {
		t.Fatal(err) // fills the only slab slot
	}
	done := make(chan error, 1)
	go func() {
		tk := h.WritePageAsync(100, pageOf(2)) // slab 12: no agent can map it
		done <- tk.Wait()
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("write to an unplaceable slab reported success")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WritePageAsync hung on placement failure")
	}
	// The host must still be usable afterwards.
	buf := make([]byte, PageSize)
	if err := h.ReadPage(0, buf); err != nil {
		t.Fatalf("host wedged after placement failure: %v", err)
	}
}

// TestRebalanceMovesOnlyTheShare: adding an agent and rebalancing must move
// roughly 1/(n+1) of the slabs — the rendezvous minimal-disruption property
// — and every page must remain readable with correct bytes afterwards.
func TestRebalanceMovesOnlyTheShare(t *testing.T) {
	agents := []*Agent{NewAgent(4, 0), NewAgent(4, 0), NewAgent(4, 0), NewAgent(4, 0)}
	trs := make([]Transport, 3)
	for i := 0; i < 3; i++ {
		trs[i] = NewInProc(agents[i])
	}
	h, err := NewHost(HostConfig{SlabPages: 4, Replicas: 2, Seed: 31}, trs)
	if err != nil {
		t.Fatal(err)
	}
	const pages = 400 // 100 slabs
	for p := core.PageID(0); p < pages; p++ {
		data := pageOf(byte(p))
		data[77] = byte(p >> 8)
		if err := h.WritePage(p, data); err != nil {
			t.Fatal(err)
		}
	}
	slabs := int(h.Stats().SlabsMapped)

	idx := h.AddAgent(NewInProc(agents[3]))
	if idx != 3 {
		t.Fatalf("AddAgent index = %d, want 3", idx)
	}
	moved, err := h.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	// The newcomer should win ≈ replicas/n of the slab-replica pairs; with
	// 2 replicas over 4 agents that's half the slabs expected to move.
	// Accept a generous band around it, but reject "moved everything".
	if moved == 0 || moved > slabs*3/4 {
		t.Fatalf("Rebalance moved %d of %d slabs", moved, slabs)
	}
	if load := h.SlabLoad(); load[3] == 0 {
		t.Fatal("new agent received nothing")
	}
	// A second rebalance must be a no-op: the placement converged.
	again, err := h.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if again != 0 {
		t.Fatalf("second Rebalance moved %d slabs", again)
	}
	buf := make([]byte, PageSize)
	for p := core.PageID(0); p < pages; p++ {
		if err := h.ReadPage(p, buf); err != nil {
			t.Fatalf("read %d after rebalance: %v", p, err)
		}
		if buf[0] != byte(p) || buf[77] != byte(p>>8) {
			t.Fatalf("page %d corrupted by rebalance", p)
		}
	}
}

// TestRebalanceAfterFailureRestoresPlacement: MarkFailed + Rebalance is the
// remove-an-agent path; the failed agent's share must migrate to survivors
// and reads keep working with the failed agent dark.
func TestRebalanceAfterFailureRestoresPlacement(t *testing.T) {
	faults := make([]*FaultTransport, 4)
	trs := make([]Transport, 4)
	for i := range trs {
		faults[i] = NewFaultTransport(i, NewInProc(NewAgent(4, 0)), nil)
		trs[i] = faults[i]
	}
	h, err := NewHost(HostConfig{SlabPages: 4, Replicas: 2, Seed: 17}, trs)
	if err != nil {
		t.Fatal(err)
	}
	for p := core.PageID(0); p < 200; p++ {
		if err := h.WritePage(p, pageOf(byte(p))); err != nil {
			t.Fatal(err)
		}
	}
	faults[1].SetMode(FaultMode{Partitioned: true})
	if err := h.MarkFailed(1); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Rebalance(); err != nil {
		t.Fatal(err)
	}
	if h.UnderReplicated() != 0 {
		t.Fatalf("%d slabs under-replicated after rebalance", h.UnderReplicated())
	}
	buf := make([]byte, PageSize)
	for p := core.PageID(0); p < 200; p++ {
		if err := h.ReadPage(p, buf); err != nil {
			t.Fatalf("read %d: %v", p, err)
		}
		if buf[0] != byte(p) {
			t.Fatalf("page %d corrupted", p)
		}
	}
}
