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
	h, faults := buildCluster(t, 4, slabPages, 11)
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
		faults[idx].SetMode(FaultMode{Partitioned: true})
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
		faults[idx].SetMode(FaultMode{})
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
		tr := h.links[idx].tr
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
	h, faults := buildCluster(t, 4, slabPages, 11)
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
		faults[idx].SetMode(FaultMode{Partitioned: true})
	}
	if err := h.WritePage(page, v2); err != nil {
		t.Fatalf("degraded write: %v", err)
	}
	// Only one placement replica comes back: the drop restores what it can.
	faults[replicas[0]].SetMode(FaultMode{})
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
	faults[replicas[1]].SetMode(FaultMode{})
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

// TestSlowFailedPrimaryCostsOneFailover: a read whose slow primary fails walks
// on to the next acked holder, slow too, and returns its fresh bytes. A read is
// in one flight at a time, so the lost primary costs exactly one retry and
// counts as one failover.
func TestSlowFailedPrimaryCostsOneFailover(t *testing.T) {
	const slabPages, page = 8, core.PageID(3)
	faults := make([]*FaultTransport, 3)
	trs := make([]Transport, 3)
	for i := range faults {
		faults[i] = NewFaultTransport(i, NewInProc(NewAgent(slabPages, 0)), nil)
		trs[i] = faults[i]
	}
	h := newHost(t, HostConfig{SlabPages: slabPages, Replicas: 2, Seed: 11}, trs)
	if err := h.WritePage(page, pageOf(7)); err != nil {
		t.Fatal(err)
	}
	slab, _ := h.locate(page)
	h.mu.Lock()
	order := h.readCandidates(page, h.placements[slab])
	h.mu.Unlock()
	if len(order) < 2 {
		t.Fatalf("read candidates %v, want two holders", order)
	}
	primary, second := order[0], order[1]

	// Both acked holders are hinted slow (otherwise the read would simply
	// order away from the slow one) and the primary is down.
	for _, idx := range []int{primary, second} {
		if err := h.SetAgentSlow(idx, true); err != nil {
			t.Fatal(err)
		}
	}
	faults[primary].SetMode(FaultMode{Partitioned: true})

	buf := make([]byte, PageSize)
	if err := h.ReadPageAsync(page, buf).Wait(); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(buf, pageOf(7)) {
		t.Fatal("read returned stale bytes")
	}
	if st := h.Stats(); st.Failovers != 1 || st.Retries != 1 {
		t.Fatalf("Failovers=%d Retries=%d, want 1/1", st.Failovers, st.Retries)
	}
}

// TestSlowHintNeverReadsUnackedHolder: a degraded page (one replica missed
// the last write) with its only acked holder hinted slow is still read from
// that holder, at the first attempt: slowness never routes a read to a stale
// replica, which would return its old bytes as fresh.
func TestSlowHintNeverReadsUnackedHolder(t *testing.T) {
	const slabPages, pages = 8, 64
	faults := make([]*FaultTransport, 3)
	trs := make([]Transport, 3)
	for i := range faults {
		faults[i] = NewFaultTransport(i, NewInProc(NewAgent(slabPages, 0)), nil)
		trs[i] = faults[i]
	}
	h := newHost(t, HostConfig{SlabPages: slabPages, Replicas: 2, Seed: 11}, trs)
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
	faults[replicas[1]].SetMode(FaultMode{Partitioned: true})
	if err := h.WritePage(page, v2); err != nil {
		t.Fatalf("degraded write: %v", err)
	}
	faults[replicas[1]].SetMode(FaultMode{})
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
	if st := h.Stats(); st.Retries != 0 {
		t.Fatalf("Retries = %d, want 0: the slow acked holder serves the first attempt", st.Retries)
	}
}
