package runtime

import (
	"testing"

	"leap/internal/core"
	"leap/internal/remote"
)

// TestWillNeedStaysWithinBudget: a WillNeed over far more pages than the
// budget takes no more frames than the budget — the rest of the range would be
// reclaimed before anyone read it — and what it warmed, the head of the range,
// is there to be read without a miss.
func TestWillNeedStaysWithinBudget(t *testing.T) {
	for _, shards := range []int{1, 4} {
		const budget, pages = 64, 4096
		m, err := Open(WithCacheCapacity(budget), WithShards(shards), WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		for pg := core.PageID(0); pg < pages; pg++ {
			if _, err := m.WriteAt(image(pg), int64(pg)*remote.PageSize); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Flush(); err != nil {
			t.Fatal(err)
		}
		frames := func() (n int) {
			for _, s := range m.shards {
				s.mu.Lock()
				n += s.frames.Len()
				s.mu.Unlock()
			}
			return n
		}
		held, before := frames(), m.Stats()
		if err := m.Client(0).Advise(AdviseWillNeed, 0, pages); err != nil {
			t.Fatal(err)
		}
		st := m.Stats()
		if took, issued := frames()-held, st.PrefetchIssued-before.PrefetchIssued; took > budget || issued != budget {
			t.Errorf("%d shards: WillNeed over %d pages took %d frames and issued %d pages at a budget of %d",
				shards, pages, took, issued, budget)
		}
		for pg := core.PageID(0); pg < budget/2; pg++ {
			checkPage(t, m, pg)
		}
		if misses := m.Stats().Misses - st.Misses; misses != 0 {
			t.Errorf("%d shards: %d misses over the warmed head of the range", shards, misses)
		}
		if err := m.CheckShardInvariants(pages); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReadvisedRangeKeepsOneHint: a client that declares its region anew every
// phase leaves one declaration behind, not one per call for every later fault
// to walk past.
func TestReadvisedRangeKeepsOneHint(t *testing.T) {
	m, err := Open(WithCacheCapacity(64), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	c := m.Client(3)
	if err := c.Advise(AdviseRandom, 8, 16); err != nil { // inside the range: covered
		t.Fatal(err)
	}
	if err := c.Advise(AdviseRandom, 100, 64); err != nil { // overlaps its end: stays
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		if err := c.Advise([]Advice{AdviseSequential, AdviseNormal}[i%2], 0, 128); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range m.shards {
		s.mu.Lock()
		got := append([]hintRange(nil), s.hints[c.pid]...)
		s.mu.Unlock()
		want := []hintRange{{100, 164, AdviseRandom}, {0, 128, AdviseNormal}}
		if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
			t.Errorf("shard %d: %d hints, ending %+v; want %+v", s.idx, len(got), got[max(0, len(got)-2):], want)
		}
	}
}
