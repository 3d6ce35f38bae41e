package remote

import (
	"testing"

	"leap/internal/core"
)

func buildCluster(t testing.TB, n, slabPages int, seed uint64) (*Host, []*FaultTransport) {
	t.Helper()
	faults := make([]*FaultTransport, n)
	trs := make([]Transport, n)
	for i := 0; i < n; i++ {
		faults[i] = NewFaultTransport(i, NewInProc(NewAgent(slabPages, 0)), nil)
		trs[i] = faults[i]
	}
	h := newHost(t, HostConfig{SlabPages: slabPages, Replicas: 2, Seed: seed}, trs)
	return h, faults
}

func TestRepairRestoresReplication(t *testing.T) {
	h, faults := buildCluster(t, 4, 16, 11)
	// Write 8 slabs' worth of pages.
	for p := core.PageID(0); p < 128; p++ {
		if err := h.WritePage(p, pageOf(byte(p))); err != nil {
			t.Fatal(err)
		}
	}

	// Kill agent 0 for good.
	faults[0].SetMode(FaultMode{Partitioned: true})
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
	faults[1].SetMode(FaultMode{Partitioned: true})
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

func TestRepairNoHealthyAgent(t *testing.T) {
	h, faults := buildCluster(t, 2, 8, 17)
	if err := h.WritePage(0, pageOf(1)); err != nil {
		t.Fatal(err)
	}
	faults[0].SetMode(FaultMode{Partitioned: true})
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
	h, faults := buildCluster(t, 3, 8, 23)
	faults[0].SetMode(FaultMode{Partitioned: true})
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

func TestPurgeAgentClearsOrphanedDegradedFlag(t *testing.T) {
	// A page whose ONLY acked holder is purged loses its last fresh copy:
	// the degraded flag must go with the acked entry, or the page wedges
	// every future repair barrier with un-actionable re-push work.
	agents := []*Agent{NewAgent(8, 0), NewAgent(8, 0)}
	faults := []*FaultTransport{NewFaultTransport(0, NewInProc(agents[0]), nil), NewFaultTransport(1, NewInProc(agents[1]), nil)}
	h := newHost(t, HostConfig{SlabPages: 8, Replicas: 2, Seed: 3},
		[]Transport{faults[0], faults[1]})
	if err := h.WritePage(1, pageOf(1)); err != nil {
		t.Fatal(err)
	}
	// Fail one replica transiently so the rewrite is acked by a single agent.
	acked := h.AckedReplicas(1)
	if len(acked) != 2 {
		t.Fatalf("setup: acked = %v", acked)
	}
	down := acked[1]
	faults[down].SetMode(FaultMode{Partitioned: true})
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
	faults[down].SetMode(FaultMode{})
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
}
