package remote

import (
	"bytes"
	"slices"
	"testing"

	"leap/internal/core"
)

// TestDropHotRestoresCertification: when every acked copy of a page is a hot
// holder (the placement replicas all missed the last write), DropHot must
// copy the page back onto the placement before demoting — or refuse — so the
// last acked write is never silently dropped from certification.
func TestDropHotRestoresCertification(t *testing.T) {
	const slabPages, pages = 8, 64
	const page = core.PageID(5)
	h, inprocs := buildCluster(t, 4, slabPages, 11)
	v1, v2 := pageOf(1), pageOf(2)
	for p := core.PageID(0); p < pages; p++ {
		if err := h.WritePage(p, pageOf(byte(p))); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.WritePage(page, v1); err != nil {
		t.Fatal(err)
	}
	if added, err := h.ReplicateHot(page, 1); err != nil || added != 1 {
		t.Fatalf("ReplicateHot: added=%d err=%v", added, err)
	}
	holder := h.HotHolders(page)[0]

	// The placement replicas miss the next write: only the hot holder acks.
	slab, off := h.locate(page)
	h.mu.Lock()
	replicas := slices.Clone(h.placements[slab])
	h.mu.Unlock()
	for _, idx := range replicas {
		inprocs[idx].SetFailed(true)
	}
	if err := h.WritePage(page, v2); err != nil {
		t.Fatalf("degraded write: %v", err)
	}
	if acked := h.AckedReplicas(page); len(acked) != 1 || acked[0] != holder {
		t.Fatalf("acked = %v, want only hot holder %d", acked, holder)
	}

	// With the placement replicas still unreachable there is nowhere to put
	// the only certified copy: the demotion must be refused, and reads must
	// keep serving the acked bytes.
	if h.DropHot(page) {
		t.Fatal("DropHot demoted the only certified copy with placement unreachable")
	}
	if got := h.HotPages(); len(got) != 1 || got[0] != page {
		t.Fatalf("HotPages = %v after refused drop, want [%d]", got, page)
	}
	// Sync or async, such a read counts as served by a hot holder.
	buf := make([]byte, PageSize)
	for i, read := range []func() error{
		func() error { return h.ReadPage(page, buf) },
		func() error { return h.ReadPageAsync(page, buf).Wait() },
	} {
		clear(buf)
		hotReads := h.Stats().HotReads
		if err := read(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, v2) {
			t.Fatalf("read %d after refused drop returned stale bytes", i)
		}
		if got := h.Stats().HotReads - hotReads; got != 1 {
			t.Fatalf("read %d served by the hot holder: HotReads grew by %d, want 1", i, got)
		}
	}

	// Placement heals: the drop now copies the bytes back, re-certifies the
	// placement replicas, and demotes cleanly.
	for _, idx := range replicas {
		inprocs[idx].SetFailed(false)
	}
	if !h.DropHot(page) {
		t.Fatal("DropHot refused with placement reachable")
	}
	if got := h.HotPages(); len(got) != 0 {
		t.Fatalf("HotPages = %v after drop, want none", got)
	}
	acked := h.AckedReplicas(page)
	slices.Sort(acked)
	want := slices.Clone(replicas)
	slices.Sort(want)
	if !slices.Equal(acked, want) {
		t.Fatalf("acked = %v after drop, want placement %v", acked, want)
	}
	if n := h.DegradedPages(); n != 0 {
		t.Fatalf("DegradedPages = %d after restoring full certification", n)
	}
	for _, idx := range replicas {
		h.mu.Lock()
		tr := h.transports[idx]
		h.mu.Unlock()
		resp, err := tr.Call(&Request{Op: OpRead, Slab: slab, PageOff: off})
		if err != nil || resp.Status != StatusOK {
			t.Fatalf("replica %d unreadable: %v", idx, err)
		}
		if !bytes.Equal(resp.Payload, v2) {
			t.Fatalf("replica %d holds stale bytes after copy-back", idx)
		}
	}
	if err := h.ReadPage(page, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, v2) {
		t.Fatal("read after drop returned stale bytes")
	}
}

// TestDropHotPartialRestoreStaysDegraded: if the copy-back reaches only some
// placement replicas, the page must stay flagged degraded so RepairSlabs
// finishes the job.
func TestDropHotPartialRestoreStaysDegraded(t *testing.T) {
	const slabPages, pages = 8, 64
	const page = core.PageID(5)
	h, inprocs := buildCluster(t, 4, slabPages, 11)
	v2 := pageOf(2)
	for p := core.PageID(0); p < pages; p++ {
		if err := h.WritePage(p, pageOf(byte(p))); err != nil {
			t.Fatal(err)
		}
	}
	if added, err := h.ReplicateHot(page, 1); err != nil || added != 1 {
		t.Fatalf("ReplicateHot: added=%d err=%v", added, err)
	}
	slab, _ := h.locate(page)
	h.mu.Lock()
	replicas := slices.Clone(h.placements[slab])
	h.mu.Unlock()
	for _, idx := range replicas {
		inprocs[idx].SetFailed(true)
	}
	if err := h.WritePage(page, v2); err != nil {
		t.Fatalf("degraded write: %v", err)
	}
	// Only one placement replica comes back: the drop restores what it can.
	inprocs[replicas[0]].SetFailed(false)
	if !h.DropHot(page) {
		t.Fatal("DropHot refused with a reachable placement replica")
	}
	if acked := h.AckedReplicas(page); len(acked) != 1 || acked[0] != replicas[0] {
		t.Fatalf("acked = %v, want [%d]", acked, replicas[0])
	}
	if n := h.DegradedPages(); n != 1 {
		t.Fatalf("DegradedPages = %d after partial restore, want 1", n)
	}
	// Repair finishes the re-push once the other replica heals.
	inprocs[replicas[1]].SetFailed(false)
	if _, err := h.RepairSlabs(); err != nil {
		t.Fatal(err)
	}
	if n := h.DegradedPages(); n != 0 {
		t.Fatalf("DegradedPages = %d after repair", n)
	}
	buf := make([]byte, PageSize)
	if err := h.ReadPage(page, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, v2) {
		t.Fatal("read after repair returned stale bytes")
	}
}

// TestHedgeWinIsNotAFailover: a hedged read whose slow primary fails while
// the twin completes is the hedge doing its job — it must count as a
// HedgeWin, not a Failover, so the two stats stay distinguishable.
func TestHedgeWinIsNotAFailover(t *testing.T) {
	const slabPages, pages = 8, 64
	inprocs := make([]*InProc, 3)
	trs := make([]Transport, 3)
	for i := range inprocs {
		inprocs[i] = NewInProc(NewAgent(slabPages, 0))
		trs[i] = inprocs[i]
	}
	h := newHost(t, HostConfig{SlabPages: slabPages, Replicas: 2, Seed: 11,
		Retry: RetryPolicy{HedgeReads: true}}, trs)
	for p := core.PageID(0); p < pages; p++ {
		if err := h.WritePage(p, pageOf(byte(p))); err != nil {
			t.Fatal(err)
		}
	}
	// Pick a page whose primary holder has the lower agent index, so the
	// drain (agent-index order) issues the failing primary before the twin
	// — the exact interleaving that used to double-count as a failover.
	page := core.PageID(-1)
	var order []int
	for p := core.PageID(0); p < pages; p++ {
		slab, _ := h.locate(p)
		h.mu.Lock()
		cand := h.readCandidates(p, h.placements[slab])
		h.mu.Unlock()
		if len(cand) >= 2 && cand[0] < cand[1] {
			page, order = p, cand
			break
		}
	}
	if page < 0 {
		t.Fatal("no page with ascending holder order")
	}
	primary, twin := order[0], order[1]

	// Both acked holders are hinted slow (otherwise the read would simply
	// order away from the slow one) and the primary is down.
	for _, idx := range []int{primary, twin} {
		if err := h.SetAgentSlow(idx, true); err != nil {
			t.Fatal(err)
		}
	}
	inprocs[primary].SetFailed(true)

	buf := make([]byte, PageSize)
	if err := h.ReadPageAsync(page, buf).Wait(); err != nil {
		t.Fatalf("hedged read: %v", err)
	}
	if !bytes.Equal(buf, pageOf(byte(page))) {
		t.Fatal("hedged read returned stale bytes")
	}
	st := h.Stats()
	if st.HedgedReads != 1 || st.HedgeWins != 1 {
		t.Fatalf("HedgedReads=%d HedgeWins=%d, want 1/1", st.HedgedReads, st.HedgeWins)
	}
	if st.Failovers != 0 {
		t.Fatalf("Failovers = %d for a loss inside the hedge pair, want 0", st.Failovers)
	}
	if st.Retries != 0 {
		t.Fatalf("Retries = %d, want 0 (the twin was already queued)", st.Retries)
	}
}

// TestHedgeNeverTargetsUnackedHolder: a degraded page (one replica missed
// the last write) with its only acked holder hinted slow must not hedge onto
// the stale replica — a winning hedge there would return stale bytes as
// fresh.
func TestHedgeNeverTargetsUnackedHolder(t *testing.T) {
	const slabPages, pages = 8, 64
	inprocs := make([]*InProc, 3)
	trs := make([]Transport, 3)
	for i := range inprocs {
		inprocs[i] = NewInProc(NewAgent(slabPages, 0))
		trs[i] = inprocs[i]
	}
	h := newHost(t, HostConfig{SlabPages: slabPages, Replicas: 2, Seed: 11,
		Retry: RetryPolicy{HedgeReads: true}}, trs)
	v1, v2 := pageOf(1), pageOf(2)
	const page = core.PageID(3)
	if err := h.WritePage(page, v1); err != nil {
		t.Fatal(err)
	}
	slab, _ := h.locate(page)
	h.mu.Lock()
	replicas := slices.Clone(h.placements[slab])
	h.mu.Unlock()

	// replicas[1] misses the second write: it still holds v1.
	inprocs[replicas[1]].SetFailed(true)
	if err := h.WritePage(page, v2); err != nil {
		t.Fatalf("degraded write: %v", err)
	}
	inprocs[replicas[1]].SetFailed(false)
	if err := h.SetAgentSlow(replicas[0], true); err != nil {
		t.Fatal(err)
	}

	buf := make([]byte, PageSize)
	if err := h.ReadPageAsync(page, buf).Wait(); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(buf, v2) {
		t.Fatal("read of a degraded page returned stale bytes")
	}
	if st := h.Stats(); st.HedgedReads != 0 {
		t.Fatalf("HedgedReads = %d onto an unacked holder, want 0", st.HedgedReads)
	}
}
