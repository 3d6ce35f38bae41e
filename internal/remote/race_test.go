package remote

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"leap/internal/core"
)

// TestHostConcurrentReadWrite hammers one Host from many goroutines —
// writers, readers, a failure-toggling saboteur and a repair loop — and is
// meant to run under -race (CI does). Each writer owns a disjoint page
// range. The saboteur and the repair loop together form TWO concurrent
// fault domains, under which strict read-your-writes is not promised (the
// disciplined single-fault schedules in internal/chaos assert that); what
// must hold even here is integrity: a read returns some value that was
// actually written to the page — never fabricated bytes — and nothing
// panics, races or deadlocks.
func TestHostConcurrentReadWrite(t *testing.T) {
	const (
		agents       = 4
		writers      = 4
		pagesPerGor  = 24
		opsPerWriter = 300
	)
	faults := make([]*FaultTransport, agents)
	trs := make([]Transport, agents)
	for i := range trs {
		faults[i] = NewFaultTransport(i, NewInProc(NewAgent(8, 0)), nil)
		trs[i] = faults[i]
	}
	h, err := NewHost(HostConfig{SlabPages: 8, Replicas: 2, Seed: 99}, trs)
	if err != nil {
		t.Fatal(err)
	}

	// Pre-write every page once so placements exist before the churn.
	for p := core.PageID(0); p < writers*pagesPerGor; p++ {
		if err := h.WritePage(p, pageOf(byte(p))); err != nil {
			t.Fatal(err)
		}
	}

	var stop atomic.Bool
	var background, wg sync.WaitGroup
	errs := make(chan error, writers+2)

	// Saboteur: flap agent 3 (transient transport failure, no MarkFailed —
	// reads and writes must ride it out via the other replica).
	background.Add(1)
	go func() {
		defer background.Done()
		for i := 0; !stop.Load(); i++ {
			faults[3].SetMode(FaultMode{Partitioned: i%2 == 0})
		}
		faults[3].SetMode(FaultMode{})
	}()

	// Repair loop: exercises MarkFailed/RepairSlabs/MarkRecovered
	// concurrently with traffic. Errors are expected (repair may race with
	// the saboteur); panics and data races are not.
	background.Add(1)
	go func() {
		defer background.Done()
		for i := 0; !stop.Load(); i++ {
			idx := i % agents
			if idx == 3 {
				continue // leave the saboteur's agent alone
			}
			_ = h.MarkFailed(idx)
			_, _ = h.RepairSlabs()
			_ = h.MarkRecovered(idx)
			_ = h.FailedAgents()
			_ = h.UnderReplicated()
			_ = h.DegradedPages()
		}
	}()

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lo := core.PageID(w * pagesPerGor)
			buf := make([]byte, PageSize)
			written := make(map[core.PageID]map[byte]bool)
			for i := 0; i < opsPerWriter; i++ {
				p := lo + core.PageID(i%pagesPerGor)
				if written[p] == nil {
					written[p] = map[byte]bool{byte(p): true} // the pre-write value
				}
				v := byte(w*31 + i)
				if err := h.WritePage(p, pageOf(v)); err != nil {
					continue // all replicas down at this instant
				}
				written[p][v] = true
				if err := h.ReadPage(p, buf); err != nil {
					continue // replicas flapped between write and read
				}
				if !written[p][buf[0]] {
					errs <- fmt.Errorf("fabricated read: page %d got %#x, never written", p, buf[0])
					return
				}
			}
		}(w)
	}

	wg.Wait()
	stop.Store(true)
	background.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
