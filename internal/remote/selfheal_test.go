package remote

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"leap/internal/core"
	"leap/internal/sim"
)

// checkFresh asserts every page in [0, pages) reads back want(p) through the
// host, and that every agent in the page's ack set actually serves those
// bytes when read directly — an acked index pointing at a stale or wiped
// copy is a bookkeeping lie waiting to become a wrong read.
func checkFresh(t *testing.T, h *Host, pages int, want func(p core.PageID) []byte) {
	t.Helper()
	buf := make([]byte, PageSize)
	for p := core.PageID(0); p < core.PageID(pages); p++ {
		if err := h.ReadPage(p, buf); err != nil {
			t.Fatalf("page %d: read: %v", p, err)
		}
		if !bytes.Equal(buf, want(p)) {
			t.Fatalf("page %d: host read returned stale bytes", p)
		}
		slab, off := h.locate(p)
		h.mu.Lock()
		acked := append([]int(nil), h.rec(p).acked()...)
		trs := make([]Transport, len(acked))
		for i, idx := range acked {
			trs[i] = h.links[idx].tr
		}
		h.mu.Unlock()
		for i, tr := range trs {
			resp, err := tr.Call(&Request{Op: OpRead, Slab: slab, PageOff: off})
			if err != nil || resp.Status != StatusOK {
				t.Fatalf("page %d: acked agent %d unreadable: %v", p, acked[i], err)
			}
			if !bytes.Equal(resp.Payload, want(p)) {
				t.Fatalf("page %d: acked agent %d holds stale bytes", p, acked[i])
			}
		}
	}
}

// TestRebalanceMidMigrationFailure: a copy failure partway through a
// Rebalance must leave placement and ack bookkeeping consistent — migrated
// slabs stay migrated, the half-copied slab keeps its old placement, no
// acked set points at a partial copy — and rerunning Rebalance after the
// link heals converges.
func TestRebalanceMidMigrationFailure(t *testing.T) {
	const slabPages, pages = 8, 64
	h, _ := buildCluster(t, 3, slabPages, 11)
	latest := func(p core.PageID) []byte { return pageOf(byte(p)) }
	for p := core.PageID(0); p < pages; p++ {
		if err := h.WritePage(p, latest(p)); err != nil {
			t.Fatal(err)
		}
	}

	// A fourth agent joins behind a link that dies after 15 calls: one full
	// slab copy (map + 8 page writes) lands, the second dies mid-slab.
	var calls atomic.Int64
	var healed atomic.Bool
	newIdx := h.AddAgent(NewScriptedLink(NewInProc(NewAgent(slabPages, 0)), CallOnly, nil, func(*Request) Verdict {
		if calls.Add(1) > 15 && !healed.Load() {
			return Verdict{Err: errors.New("remote: link down (injected)")}
		}
		return Verdict{}
	}).Transport())

	moved, err := h.Rebalance()
	if err == nil {
		t.Fatal("rebalance over a dead link reported success")
	}
	if moved < 1 {
		t.Fatalf("no slab migrated before the failure (moved=%d); the mid-migration case was not exercised", moved)
	}

	// Consistency with the newcomer unreachable: every page still reads
	// fresh, and nothing acked points at the half-copied slab on the
	// newcomer (its index may appear only for fully-migrated slabs).
	buf := make([]byte, PageSize)
	for p := core.PageID(0); p < pages; p++ {
		if err := h.ReadPage(p, buf); err != nil {
			t.Fatalf("page %d unreadable after failed rebalance: %v", p, err)
		}
		if !bytes.Equal(buf, latest(p)) {
			t.Fatalf("page %d stale after failed rebalance", p)
		}
	}
	h.mu.Lock()
	for slab, replicas := range h.placements {
		for _, idx := range replicas {
			if idx < 0 || idx > newIdx {
				h.mu.Unlock()
				t.Fatalf("slab %d placement %v references unknown agent", slab, replicas)
			}
		}
	}
	h.mu.Unlock()

	// Heal and rerun: the remaining share migrates, a further run is a
	// no-op, and every acked copy — including those on the newcomer — is
	// byte-fresh.
	healed.Store(true)
	if _, err := h.Rebalance(); err != nil {
		t.Fatalf("rebalance after heal: %v", err)
	}
	if again, err := h.Rebalance(); err != nil || again != 0 {
		t.Fatalf("rebalance did not converge: moved=%d err=%v", again, err)
	}
	if load := h.SlabLoad()[newIdx]; load == 0 {
		t.Fatal("converged rebalance left the new agent empty")
	}
	checkFresh(t, h, pages, latest)
}

// TestTicketFailureContexts pins the uniform failure shape of the async
// ticket engine: every error is an *OpError carrying the operation, the
// page, the last agent index involved and the attempts consumed, with the
// cause reachable through errors.Is.
func TestTicketFailureContexts(t *testing.T) {
	const page = core.PageID(3)
	latest := pageOf(1)

	// holders reports the page's placement replicas in read order.
	holders := func(h *Host) []int {
		h.mu.Lock()
		defer h.mu.Unlock()
		slab, _ := h.locate(page)
		return append([]int(nil), h.readCandidates(page, h.placements[slab])...)
	}

	cases := []struct {
		name string
		run  func(t *testing.T, h *Host, faults []*FaultTransport) error

		wantErr      bool
		wantCause    error
		wantOp       uint8
		wantAgent    int // -1 = pre-dispatch failure, -2 = any valid index
		wantAttempts int // -1 = don't check
	}{
		{
			name: "read-never-written",
			run: func(t *testing.T, h *Host, _ []*FaultTransport) error {
				return h.ReadPageAsync(page, make([]byte, PageSize)).Wait()
			},
			wantErr: true, wantCause: ErrNeverWritten,
			wantOp: OpRead, wantAgent: -1, wantAttempts: 0,
		},
		{
			name: "read-bad-buffer",
			run: func(t *testing.T, h *Host, _ []*FaultTransport) error {
				return h.ReadPageAsync(page, make([]byte, 8)).Wait()
			},
			wantErr: true,
			wantOp:  OpRead, wantAgent: -1, wantAttempts: 0,
		},
		{
			name: "read-all-holders-down",
			run: func(t *testing.T, h *Host, faults []*FaultTransport) error {
				if err := h.WritePage(page, latest); err != nil {
					t.Fatal(err)
				}
				for _, p := range faults {
					p.SetMode(FaultMode{Partitioned: true})
				}
				return h.ReadPageAsync(page, make([]byte, PageSize)).Wait()
			},
			wantErr: true, wantCause: ErrAllReplicasFailed,
			wantOp: OpRead, wantAgent: -2, wantAttempts: 2,
		},
		{
			name: "read-requeue-after-failover",
			run: func(t *testing.T, h *Host, faults []*FaultTransport) error {
				if err := h.WritePage(page, latest); err != nil {
					t.Fatal(err)
				}
				faults[holders(h)[0]].SetMode(FaultMode{Partitioned: true})
				buf := make([]byte, PageSize)
				if err := h.ReadPageAsync(page, buf).Wait(); err != nil {
					return err
				}
				if !bytes.Equal(buf, latest) {
					t.Fatal("failover read returned stale bytes")
				}
				st := h.Stats()
				if st.Retries == 0 || st.Failovers == 0 {
					t.Fatalf("failover not requeued: retries=%d failovers=%d", st.Retries, st.Failovers)
				}
				return nil
			},
		},
		{
			name: "write-all-replicas-down",
			run: func(t *testing.T, h *Host, faults []*FaultTransport) error {
				if err := h.WritePage(page, latest); err != nil {
					t.Fatal(err)
				}
				for _, p := range faults {
					p.SetMode(FaultMode{Partitioned: true})
				}
				return h.WritePageAsync(page, pageOf(9)).Wait()
			},
			wantErr: true, wantCause: ErrAllReplicasFailed,
			wantOp: OpWrite, wantAgent: -2, wantAttempts: 2,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			faults := make([]*FaultTransport, 3)
			trs := make([]Transport, 3)
			for i := range faults {
				faults[i] = NewFaultTransport(i, NewInProc(NewAgent(8, 0)), nil)
				trs[i] = faults[i]
			}
			h := newHost(t, HostConfig{SlabPages: 8, Replicas: 2, Seed: 11}, trs)
			err := tc.run(t, h, faults)
			if !tc.wantErr {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			var oe *OpError
			if !errors.As(err, &oe) {
				t.Fatalf("error is not an *OpError: %v", err)
			}
			if tc.wantCause != nil && !errors.Is(err, tc.wantCause) {
				t.Fatalf("cause %v not reachable in %v", tc.wantCause, err)
			}
			if oe.Op != tc.wantOp {
				t.Fatalf("Op = %d, want %d (%v)", oe.Op, tc.wantOp, err)
			}
			if oe.Page != page {
				t.Fatalf("Page = %d, want %d (%v)", oe.Page, page, err)
			}
			switch tc.wantAgent {
			case -1:
				if oe.Agent != -1 {
					t.Fatalf("Agent = %d, want -1 (%v)", oe.Agent, err)
				}
			case -2:
				if oe.Agent < 0 || oe.Agent >= 3 {
					t.Fatalf("Agent = %d, want a valid index (%v)", oe.Agent, err)
				}
			}
			if tc.wantAttempts >= 0 && oe.Attempts != tc.wantAttempts {
				t.Fatalf("Attempts = %d, want %d (%v)", oe.Attempts, tc.wantAttempts, err)
			}
			if !strings.Contains(err.Error(), fmt.Sprintf("page %d", page)) {
				t.Fatalf("rendered error lost the page context: %v", err)
			}
		})
	}
}

// TestTicketFailureKeepsTransportCause: an operation refused by every replica
// fails with ErrAllReplicasFailed and still answers errors.Is for what the
// transport reported, on the async and the sync calls alike.
func TestTicketFailureKeepsTransportCause(t *testing.T) {
	const page = core.PageID(3)
	faults := make([]*FaultTransport, 3)
	trs := make([]Transport, len(faults))
	for i := range faults {
		faults[i] = NewFaultTransport(i, NewInProc(NewAgent(8, 0)), sim.NewRNG(uint64(i)+1))
		trs[i] = faults[i]
	}
	h := newHost(t, HostConfig{SlabPages: 8, Replicas: 2, Seed: 11}, trs)
	if err := h.WritePage(page, pageOf(1)); err != nil {
		t.Fatal(err)
	}
	for _, f := range faults {
		f.SetMode(FaultMode{Crashed: true})
	}
	buf := make([]byte, PageSize)
	for name, err := range map[string]error{
		"ReadPageAsync":  h.ReadPageAsync(page, buf).Wait(),
		"ReadPage":       h.ReadPage(page, buf),
		"WritePageAsync": h.WritePageAsync(page, pageOf(2)).Wait(),
		"WritePage":      h.WritePage(page, pageOf(3)),
	} {
		if !errors.Is(err, ErrAllReplicasFailed) || !errors.Is(err, ErrInjected) {
			t.Errorf("%s with every agent crashed: %v, want ErrAllReplicasFailed wrapping ErrInjected", name, err)
		}
	}
}

// TestRecoverPurgeEdgeOrdering: double MarkRecovered, double PurgeAgent and
// recovering a never-failed agent are all harmless no-ops, in any order,
// and the cluster converges afterwards.
func TestRecoverPurgeEdgeOrdering(t *testing.T) {
	const slabPages, pages = 8, 64
	h, faults := buildCluster(t, 4, slabPages, 11)
	latest := func(p core.PageID) []byte { return pageOf(byte(p)) }
	for p := core.PageID(0); p < pages; p++ {
		if err := h.WritePage(p, latest(p)); err != nil {
			t.Fatal(err)
		}
	}

	faults[2].SetMode(FaultMode{Partitioned: true})
	if err := h.MarkFailed(2); err != nil {
		t.Fatal(err)
	}
	if dropped, err := h.PurgeAgent(2); err != nil || dropped == 0 {
		t.Fatalf("first purge: dropped=%d err=%v", dropped, err)
	}
	if dropped, err := h.PurgeAgent(2); err != nil || dropped != 0 {
		t.Fatalf("double purge not a no-op: dropped=%d err=%v", dropped, err)
	}

	faults[2].SetMode(FaultMode{})
	if err := h.MarkRecovered(2); err != nil {
		t.Fatal(err)
	}
	if err := h.MarkRecovered(2); err != nil {
		t.Fatalf("double recover: %v", err)
	}
	if err := h.MarkRecovered(3); err != nil {
		t.Fatalf("recovering a healthy agent: %v", err)
	}
	if got := h.FailedAgents(); len(got) != 0 {
		t.Fatalf("FailedAgents = %v", got)
	}

	// Purge removed agent 2 from every placement; repair restores the
	// replication factor and rebalance hands agent 2 its share back with
	// fresh copies (its old memory is never referenced again).
	if _, err := h.RepairSlabs(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Rebalance(); err != nil {
		t.Fatal(err)
	}
	if again, err := h.Rebalance(); err != nil || again != 0 {
		t.Fatalf("rebalance did not converge: moved=%d err=%v", again, err)
	}
	if n := h.UnderReplicated(); n != 0 {
		t.Fatalf("%d slabs under-replicated", n)
	}
	checkFresh(t, h, pages, latest)
}
