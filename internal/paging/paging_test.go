package paging

import (
	"testing"

	"leap/internal/core"
	"leap/internal/prefetch"
	"leap/internal/sim"
)

// stubPrefetcher returns a scripted candidate window on every miss.
type stubPrefetcher struct {
	window []core.PageID
	hits   int
}

func (s *stubPrefetcher) Name() string { return "stub" }
func (s *stubPrefetcher) OnAccess(_ prefetch.PID, _ core.PageID, miss bool, dst []core.PageID) []core.PageID {
	if !miss {
		return dst
	}
	return append(dst, s.window...)
}
func (s *stubPrefetcher) OnPrefetchHit(prefetch.PID) { s.hits++ }
func (s *stubPrefetcher) Reset()                     { s.hits = 0 }

func newTestEngine(pf prefetch.Prefetcher) *Engine[int] {
	return New[int](Config{Prefetcher: pf, Seed: 7})
}

func TestResidentTouchLRUOrder(t *testing.T) {
	e := newTestEngine(nil)
	r := NewResident(8)
	r.Limit = 16
	now := sim.Time(0)
	for pg := core.PageID(0); pg < 16; pg++ {
		e.MapIn(0, r, 0, pg, now)
	}
	if r.Len() != 16 {
		t.Fatalf("len = %d, want 16 (at budget, no eviction yet)", r.Len())
	}
	// Touch page 0: page 1 becomes the LRU tail.
	if !r.Touch(0) {
		t.Fatal("page 0 missing")
	}
	var evicted []core.PageID
	e.OnEvict = func(_ int, pg core.PageID) bool { evicted = append(evicted, pg); return true }
	e.MapIn(0, r, 0, 100, now) // 17 resident > budget 16: one eviction
	if len(evicted) != 1 {
		t.Fatalf("evictions = %v, want exactly one", evicted)
	}
	if evicted[0] != 1 {
		t.Fatalf("evicted %d, want LRU tail 1 (page 0 was touched)", evicted[0])
	}
	if r.Contains(evicted[0]) {
		t.Fatal("victim still resident")
	}
	if !r.Contains(0) || !r.Contains(100) {
		t.Fatal("touched/just-mapped pages must survive")
	}
}

func TestFaultPathsAndCounters(t *testing.T) {
	pf := &stubPrefetcher{window: []core.PageID{10, 11, 12}}
	e := newTestEngine(pf)
	r := NewResident(8)
	r.Limit = 64
	e.OnInsert = func(int) { r.Charged++ }

	// Miss on page 1: issues the window.
	lat, miss := e.Fault(0, 0, 1, 0)
	if !miss || lat <= 0 {
		t.Fatalf("first access: lat=%v miss=%v", lat, miss)
	}
	e.OnAccess(0, r, 0, 0, 1, miss, 0, HintNone, 0)
	e.MapIn(0, r, 0, 1, 0)
	if got := e.Counters.PrefetchIssued; got != 3 {
		t.Fatalf("prefetch_issued = %d, want 3", got)
	}

	// Access page 10 immediately: still in flight → inflight hit.
	lat2, miss2 := e.Fault(0, 0, 10, 0)
	if miss2 {
		t.Fatal("in-flight page misclassified as miss")
	}
	if lat2 <= 0 {
		t.Fatal("in-flight hit paid no wait")
	}
	if e.Counters.InflightHits != 1 || pf.hits != 1 {
		t.Fatalf("inflight_hits=%d pf hits=%d", e.Counters.InflightHits, pf.hits)
	}
	e.OnAccess(0, r, 0, 0, 10, miss2, sim.Time(lat2), HintNone, 0)
	e.MapIn(0, r, 0, 10, sim.Time(lat2))

	// Let the remaining prefetches land, then hit the cache.
	far := sim.Time(1 * sim.Second)
	e.FlushArrivals(far)
	if r.Charged != 2 {
		t.Fatalf("charged = %d, want 2 landed prefetches", r.Charged)
	}
	_, miss3 := e.Fault(0, 0, 11, far)
	if miss3 {
		t.Fatal("landed prefetch misclassified as miss")
	}
	if e.Counters.CacheHits != 1 {
		t.Fatalf("cache_hits = %d, want 1", e.Counters.CacheHits)
	}
}

// TestOnIssueDedupes: a window loses its resident and in-flight pages and a
// page it lists twice, whether it goes out page by page or in batches.
func TestOnIssueDedupes(t *testing.T) {
	for _, qdepth := range []int{1, 8} {
		pf := &stubPrefetcher{window: []core.PageID{5, 6, 7, 5}}
		e := New[int](Config{Prefetcher: pf, Seed: 7, QueueDepth: qdepth})
		r := NewResident(8)
		r.Limit = 64
		var issued [][]core.PageID
		e.OnIssue = func(_ int, pages []core.PageID) {
			cp := make([]core.PageID, len(pages))
			copy(cp, pages)
			issued = append(issued, cp)
		}
		e.MapIn(0, r, 0, 6, 0) // 6 already resident
		e.OnAccess(0, r, 0, 0, 1, true, 0, HintNone, 0)
		if len(issued) != 1 || len(issued[0]) != 2 || e.Counters.PrefetchIssued != 2 {
			t.Fatalf("depth %d: issued = %v, want one batch of {5,7}", qdepth, issued)
		}
		// Same window again: everything is in flight now — no hook call.
		e.OnAccess(0, r, 0, 0, 2, true, 0, HintNone, 0)
		if len(issued) != 1 {
			t.Fatalf("depth %d: in-flight pages re-issued: %v", qdepth, issued)
		}
	}
}

func TestCancelPrefetchDropsArrival(t *testing.T) {
	pf := &stubPrefetcher{window: []core.PageID{42}}
	e := newTestEngine(pf)
	r := NewResident(8)
	r.Limit = 64
	e.OnAccess(0, r, 0, 0, 1, true, 0, HintNone, 0)
	if !e.CancelPrefetch(42) {
		t.Fatal("42 was not in flight")
	}
	if e.CancelPrefetch(42) {
		t.Fatal("double cancel succeeded")
	}
	e.FlushArrivals(sim.Time(1 * sim.Second))
	if e.Cache().Contains(42) {
		t.Fatal("cancelled prefetch still landed in the cache")
	}
	// A later access is a clean full miss.
	_, miss := e.Fault(0, 0, 42, sim.Time(2*sim.Second))
	if !miss {
		t.Fatal("cancelled page served from nowhere")
	}
}

// TestEngineDeterminism replays one access script twice and compares every
// counter and the latency histogram sum.
func TestEngineDeterminism(t *testing.T) {
	run := func() (Counters, sim.Duration) {
		e := newTestEngine(prefetch.NewLeap(core.Config{}))
		r := NewResident(64)
		r.Limit = 64
		e.OnInsert = func(int) { r.Charged++ }
		e.Cache().OnEvict = func(core.PageID) { r.Charged-- }
		var total sim.Duration
		now := sim.Time(0)
		for i := 0; i < 3000; i++ {
			pg := core.PageID(i % 500)
			e.FlushArrivals(now)
			if r.Touch(pg) {
				continue
			}
			lat, miss := e.Fault(0, 0, pg, now)
			total += lat
			now = now.Add(lat)
			e.OnAccess(0, r, 0, 0, pg, miss, now, HintNone, 0)
			e.MapIn(0, r, 0, pg, now)
		}
		return e.Counters, total
	}
	c1, t1 := run()
	c2, t2 := run()
	if c1 != c2 || t1 != t2 {
		t.Fatalf("replay diverged:\n%+v (%v)\n%+v (%v)", c1, t1, c2, t2)
	}
	if c1 == (Counters{}) {
		t.Fatal("no counters recorded")
	}
}

// aheadStub is a stubPrefetcher that also runs ahead: on every Ahead call it
// offers the frame pages after page.
type aheadStub struct{ stubPrefetcher }

func (s *aheadStub) Ahead(_ prefetch.PID, page core.PageID, frame, _, limit, room int, dst []core.PageID) []core.PageID {
	for k := 1; k <= min(frame, limit, room); k++ {
		dst = append(dst, page+core.PageID(k))
	}
	return dst
}

// TestAheadIssuesThroughThePrefetchPath: what the prefetcher offers on a hit
// goes through the same dedup as a window, hints steer it (Sequential clamps
// to the range, Random suppresses), and a prefetcher without the hit-side
// half issues nothing.
func TestAheadIssuesThroughThePrefetchPath(t *testing.T) {
	e := newTestEngine(&aheadStub{})
	r := NewResident(8)
	r.Limit = 64
	var issued []core.PageID
	e.OnIssue = func(_ int, pages []core.PageID) { issued = append(issued[:0], pages...) }
	e.MapIn(0, r, 0, 103, 0) // resident: deduplicated
	if n := e.Ahead(0, r, 0, 0, 100, 8, 8, 56, 56, 0, HintNone, 0); n != 7 || len(issued) != 7 {
		t.Fatalf("issued %d pages (%v), want the 7 of 101..108 that are not resident", n, issued)
	}
	if n := e.Ahead(0, r, 0, 0, 100, 8, 8, 56, 56, 0, HintNone, 0); n != 0 {
		t.Fatalf("issued %d pages already in flight", n)
	}
	if n := e.Ahead(0, r, 0, 0, 200, 8, 8, 56, 56, 0, HintSequential, 204); n != 3 || issued[2] != 203 {
		t.Fatalf("issued %d pages (%v) under a sequential hint ending at 204, want 201..203", n, issued)
	}
	if n := e.Ahead(0, r, 0, 0, 300, 8, 8, 56, 56, 0, HintRandom, 0); n != 0 {
		t.Fatalf("issued %d pages under a random hint", n)
	}
	if got := e.Counters.PrefetchIssued; got != 10 {
		t.Fatalf("prefetch_issued = %d, want 10", got)
	}
	plain := newTestEngine(&stubPrefetcher{window: []core.PageID{1}})
	if n := plain.Ahead(0, r, 0, 0, 400, 8, 8, 56, 56, 0, HintNone, 0); n != 0 {
		t.Fatalf("a prefetcher that cannot run ahead issued %d pages", n)
	}
}
