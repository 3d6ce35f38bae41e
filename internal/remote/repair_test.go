package remote

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"

	"leap/internal/core"
)

func buildCluster(t testing.TB, n, slabPages int, seed uint64) (*Host, []*InProc) {
	t.Helper()
	inprocs := make([]*InProc, n)
	trs := make([]Transport, n)
	for i := 0; i < n; i++ {
		inprocs[i] = NewInProc(NewAgent(slabPages, 0))
		trs[i] = inprocs[i]
	}
	h := newHost(t, HostConfig{SlabPages: slabPages, Replicas: 2, Seed: seed}, trs)
	return h, inprocs
}

func TestRepairRestoresReplication(t *testing.T) {
	h, inprocs := buildCluster(t, 4, 16, 11)
	// Write 8 slabs' worth of pages.
	for p := core.PageID(0); p < 128; p++ {
		if err := h.WritePage(p, pageOf(byte(p))); err != nil {
			t.Fatal(err)
		}
	}

	// Kill agent 0 for good.
	inprocs[0].SetFailed(true)
	if err := h.MarkFailed(0); err != nil {
		t.Fatal(err)
	}
	if got := h.FailedAgents(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("FailedAgents = %v", got)
	}

	repaired, err := h.RepairSlabs()
	if err != nil {
		t.Fatal(err)
	}
	if repaired == 0 {
		t.Fatal("nothing repaired despite a dead agent holding replicas")
	}
	if h.Stats().Repairs != int64(repaired) {
		t.Fatalf("Repairs stat %d != repaired %d", h.Stats().Repairs, repaired)
	}

	// Now kill EVERY original placement by failing one more agent at a
	// time and verifying data stays readable: with repair done, each slab
	// again has two live replicas, so any single additional failure is
	// survivable.
	inprocs[1].SetFailed(true)
	buf := make([]byte, PageSize)
	for p := core.PageID(0); p < 128; p++ {
		if err := h.ReadPage(p, buf); err != nil {
			t.Fatalf("read %d after repair + second failure: %v", p, err)
		}
		if buf[0] != byte(p) {
			t.Fatalf("page %d corrupted after repair", p)
		}
	}
}

func TestRepairCopiesContentExactly(t *testing.T) {
	h, inprocs := buildCluster(t, 3, 8, 13)
	want := make(map[core.PageID][]byte)
	for p := core.PageID(0); p < 32; p++ {
		data := pageOf(byte(p * 7))
		data[100] = byte(p)
		want[p] = append([]byte(nil), data...)
		if err := h.WritePage(p, data); err != nil {
			t.Fatal(err)
		}
	}
	inprocs[2].SetFailed(true)
	if err := h.MarkFailed(2); err != nil {
		t.Fatal(err)
	}
	if _, err := h.RepairSlabs(); err != nil {
		t.Fatal(err)
	}
	// All remaining agents dead except repaired copies' hosts: verify by
	// reading everything back.
	buf := make([]byte, PageSize)
	for p, data := range want {
		if err := h.ReadPage(p, buf); err != nil {
			t.Fatalf("read %d: %v", p, err)
		}
		if !bytes.Equal(buf, data) {
			t.Fatalf("page %d content mismatch after repair", p)
		}
	}
}

func TestRepairNoHealthyAgent(t *testing.T) {
	h, inprocs := buildCluster(t, 2, 8, 17)
	if err := h.WritePage(0, pageOf(1)); err != nil {
		t.Fatal(err)
	}
	inprocs[0].SetFailed(true)
	if err := h.MarkFailed(0); err != nil {
		t.Fatal(err)
	}
	// Only one agent left and it already holds the slab: repair must fail
	// loudly, not silently under-replicate.
	if _, err := h.RepairSlabs(); err == nil {
		t.Fatal("repair succeeded with no spare agent")
	}
}

func TestMarkFailedValidation(t *testing.T) {
	h, _ := buildCluster(t, 2, 8, 19)
	if err := h.MarkFailed(99); err == nil {
		t.Fatal("out-of-range MarkFailed accepted")
	}
}

func TestFailedAgentExcludedFromNewPlacements(t *testing.T) {
	h, inprocs := buildCluster(t, 3, 8, 23)
	inprocs[0].SetFailed(true)
	if err := h.MarkFailed(0); err != nil {
		t.Fatal(err)
	}
	// New slabs must avoid the dead agent entirely.
	for p := core.PageID(0); p < 80; p++ {
		if err := h.WritePage(p, pageOf(byte(p))); err != nil {
			t.Fatal(err)
		}
	}
	if load := h.SlabLoad(); load[0] != 0 {
		t.Fatalf("dead agent received %d new slabs", load[0])
	}
}

func TestFlakyTransportWritesSurvive(t *testing.T) {
	// Transient faults on one replica: writes succeed via the other; reads
	// fail over. No data is lost as long as one call path works.
	agents := []*Agent{NewAgent(16, 0), NewAgent(16, 0)}
	calls := 0 // every 3rd call fails
	flaky := NewScriptedLink(NewInProc(agents[0]), CallOnly, nil, func(*Request) Verdict {
		if calls++; calls%3 == 0 {
			return Verdict{Err: errors.New("remote: transient fault (injected)")}
		}
		return Verdict{}
	})
	trs := []Transport{flaky.Transport(), NewInProc(agents[1])}
	h := newHost(t, HostConfig{SlabPages: 16, Replicas: 2, Seed: 29}, trs)
	for p := core.PageID(0); p < 64; p++ {
		if err := h.WritePage(p, pageOf(byte(p))); err != nil {
			t.Fatalf("write %d under flaky transport: %v", p, err)
		}
	}
	buf := make([]byte, PageSize)
	for p := core.PageID(0); p < 64; p++ {
		if err := h.ReadPage(p, buf); err != nil {
			t.Fatalf("read %d under flaky transport: %v", p, err)
		}
		if buf[0] != byte(p) {
			t.Fatalf("page %d corrupted under flaky transport", p)
		}
	}
}

func TestPurgeAgentClearsOrphanedDegradedFlag(t *testing.T) {
	// A page whose ONLY acked holder is purged loses its last fresh copy:
	// the degraded flag must go with the acked entry, or the page wedges
	// every future repair barrier with un-actionable re-push work.
	agents := []*Agent{NewAgent(8, 0), NewAgent(8, 0)}
	inprocs := []*InProc{NewInProc(agents[0]), NewInProc(agents[1])}
	h := newHost(t, HostConfig{SlabPages: 8, Replicas: 2, Seed: 3},
		[]Transport{inprocs[0], inprocs[1]})
	if err := h.WritePage(1, pageOf(1)); err != nil {
		t.Fatal(err)
	}
	// Fail one replica transiently so the rewrite is acked by a single agent.
	acked := h.AckedReplicas(1)
	if len(acked) != 2 {
		t.Fatalf("setup: acked = %v", acked)
	}
	down := acked[1]
	inprocs[down].SetFailed(true)
	if err := h.WritePage(1, pageOf(2)); err != nil {
		t.Fatal(err)
	}
	if h.DegradedPages() != 1 {
		t.Fatalf("DegradedPages = %d, want 1", h.DegradedPages())
	}
	sole := h.AckedReplicas(1)
	if len(sole) != 1 {
		t.Fatalf("acked after partial write = %v", sole)
	}
	// Crash the sole holder and purge it: the write is lost, and the
	// degraded flag must not survive as permanent un-repairable backlog.
	inprocs[down].SetFailed(false)
	if _, err := h.PurgeAgent(sole[0]); err != nil {
		t.Fatal(err)
	}
	if got := h.DegradedPages(); got != 0 {
		t.Fatalf("DegradedPages = %d after purging the only acked holder, want 0", got)
	}
	if got := h.AckedReplicas(1); len(got) != 0 {
		t.Fatalf("acked survived purge: %v", got)
	}
}

func TestMarkRecoveredAndPurgeValidation(t *testing.T) {
	h, _ := buildCluster(t, 2, 8, 19)
	if err := h.MarkRecovered(99); err == nil {
		t.Fatal("out-of-range MarkRecovered accepted")
	}
	if _, err := h.PurgeAgent(-1); err == nil {
		t.Fatal("out-of-range PurgeAgent accepted")
	}
	if err := h.MarkFailed(0); err != nil {
		t.Fatal(err)
	}
	if err := h.MarkRecovered(0); err != nil {
		t.Fatal(err)
	}
	if got := h.FailedAgents(); len(got) != 0 {
		t.Fatalf("FailedAgents after recover = %v", got)
	}
}

func TestSlabOfConsistentWithWrites(t *testing.T) {
	h, _ := buildCluster(t, 2, 8, 31)
	if h.SlabOf(0) != h.SlabOf(7) {
		t.Fatal("pages 0 and 7 should share a slab at SlabPages=8")
	}
	if h.SlabOf(7) == h.SlabOf(8) {
		t.Fatal("pages 7 and 8 should be in different slabs")
	}
	if h.PageCount(0) != 8 {
		t.Fatalf("PageCount = %d", h.PageCount(0))
	}
}

// TestRepushLeavesPageToWriteInFlight: RepairSlabs runs with writes of degraded
// pages in the air on split-phase links. One was started before the repair,
// which lands it first and finds the page healed. The other starts between the
// repush's read of its source and the push — the copy in hand is the older
// image, and the write's frame is already at the replica it would go to. The
// repush must leave that page to its write: afterwards every agent in its ack
// set, read directly, holds the newest bytes.
func TestRepushLeavesPageToWriteInFlight(t *testing.T) {
	const early, racing = core.PageID(1), core.PageID(2)
	agents := []*Agent{NewAgent(8, 0), NewAgent(8, 0)}
	faults := make([]*FaultTransport, len(agents))
	trs := make([]Transport, len(agents))
	var armed atomic.Bool
	var h *Host
	var inAir *Ticket
	for i, a := range agents {
		faults[i] = NewFaultTransport(i, NewInProc(a), nil)
		trs[i] = NewScriptedLink(faults[i], Split, nil, func(req *Request) Verdict {
			if req.Op != OpRead || !armed.CompareAndSwap(true, false) {
				return Verdict{}
			}
			return Verdict{Then: func(*Response, error) {
				inAir = h.WritePageAsync(racing, pageOf(3))
				if flying, err := h.Submit(); err != nil || !flying {
					t.Errorf("Submit inside the repush = flying %v, %v", flying, err)
				}
			}}
		}).Transport()
	}
	h = newHost(t, HostConfig{SlabPages: 8, Replicas: 2, Seed: 3}, trs)
	for _, pg := range []core.PageID{early, racing} {
		if err := h.WritePage(pg, pageOf(1)); err != nil {
			t.Fatal(err)
		}
	}
	// Both pages are rewritten while one replica is away: acked by one agent.
	away := h.AckedReplicas(racing)[1]
	faults[away].SetMode(FaultMode{Partitioned: true})
	for _, pg := range []core.PageID{early, racing} {
		if err := h.WritePage(pg, pageOf(2)); err != nil {
			t.Fatal(err)
		}
	}
	faults[away].SetMode(FaultMode{})
	if got := h.DegradedPages(); got != 2 {
		t.Fatalf("DegradedPages = %d, want 2", got)
	}

	wt := h.WritePageAsync(early, pageOf(3))
	if flying, err := h.Submit(); err != nil || !flying {
		t.Fatalf("Submit = flying %v, %v; want the write in the air", flying, err)
	}
	armed.Store(true)
	if _, err := h.RepairSlabs(); err != nil {
		t.Fatal(err)
	}
	if armed.Load() || inAir == nil {
		t.Fatal("the repush never read a source; the race was not exercised")
	}
	if !wt.Done() || wt.Err() != nil {
		t.Fatalf("RepairSlabs left the write started before it in the air (done %v, err %v)", wt.Done(), wt.Err())
	}
	if inAir.Done() {
		t.Fatal("the write started inside the repush landed with nobody waiting for it")
	}
	if err := h.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := h.DegradedPages(); got != 0 {
		t.Errorf("DegradedPages = %d once both writes have landed, want 0", got)
	}
	for _, pg := range []core.PageID{early, racing} {
		acked := h.AckedReplicas(pg)
		if len(acked) != 2 {
			t.Errorf("page %d acked by %v, want both replicas", pg, acked)
		}
		for _, idx := range acked {
			resp := agents[idx].Handle(&Request{Op: OpRead, Slab: 0, PageOff: uint32(pg)})
			if resp.Status != StatusOK || !bytes.Equal(resp.Payload, pageOf(3)) {
				t.Errorf("page %d: acked agent %d does not hold the newest write", pg, idx)
			}
		}
	}
}
