package pagecache

import (
	"testing"
	"testing/quick"

	"leap/internal/sim"
)

func TestPolicyString(t *testing.T) {
	if EvictLazy.String() != "lazy" || EvictEager.String() != "eager" {
		t.Fatal("Policy.String broken")
	}
	if Policy(9).String() != "Policy(9)" {
		t.Fatal("unknown policy string")
	}
}

func TestLookupMissThenHit(t *testing.T) {
	c := New(Config{Capacity: 10, Policy: EvictLazy})
	if hit, _ := c.Lookup(5, 0); hit {
		t.Fatal("hit on empty cache")
	}
	c.Insert(5, false, 0)
	hit, pre := c.Lookup(5, 10)
	if !hit || pre {
		t.Fatalf("Lookup = (%v,%v), want (true,false)", hit, pre)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Adds != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPrefetchHitAccounting(t *testing.T) {
	c := New(Config{Capacity: 10, Policy: EvictLazy})
	c.Insert(7, true, 100)
	hit, pre := c.Lookup(7, 600)
	if !hit || !pre {
		t.Fatalf("Lookup = (%v,%v), want (true,true)", hit, pre)
	}
	st := c.Stats()
	if st.PrefetchHits != 1 || st.PrefetchAdds != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if c.Timeliness.Count() != 1 || c.Timeliness.Max() != 500 {
		t.Fatalf("timeliness hist: count=%d max=%d", c.Timeliness.Count(), c.Timeliness.Max())
	}
}

func TestEagerFreesOnHit(t *testing.T) {
	c := New(Config{Capacity: 10, Policy: EvictEager})
	c.Insert(7, true, 0)
	if c.Len() != 1 {
		t.Fatal("insert failed")
	}
	c.Lookup(7, 50)
	if c.Len() != 0 {
		t.Fatal("eager policy did not free the consumed prefetch page")
	}
	st := c.Stats()
	if st.EagerFrees != 1 || st.Evictions != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Wait time is zero by construction.
	if c.WaitTime.Max() != 0 {
		t.Fatalf("eager wait time max = %d, want 0", c.WaitTime.Max())
	}
	// A second lookup misses: the page now belongs to the process.
	if hit, _ := c.Lookup(7, 60); hit {
		t.Fatal("freed page still resident")
	}
}

func TestEagerKeepsDemandEntries(t *testing.T) {
	c := New(Config{Capacity: 10, Policy: EvictEager})
	c.Insert(3, false, 0) // demand-filled, not prefetched
	c.Lookup(3, 10)
	if c.Len() != 1 {
		t.Fatal("eager policy must not instantly free demand-filled entries")
	}
}

func TestLazyKeepsConsumedUntilScan(t *testing.T) {
	c := New(Config{Policy: EvictLazy, ScanInterval: 1 * sim.Second})
	c.Insert(1, true, 0)
	c.Lookup(1, 1000) // consumed at t=1µs
	if c.Len() != 1 {
		t.Fatal("lazy policy freed a page before any scan")
	}
	// Scans before the interval elapse do nothing.
	c.Tick(sim.Time(sim.Millisecond))
	if c.Len() != 1 {
		t.Fatal("scan ran before interval")
	}
	// After the interval, the consumed page is reclaimed and the wait time
	// recorded.
	c.Tick(sim.Time(2 * sim.Second))
	if c.Len() != 0 {
		t.Fatal("scan did not reclaim the consumed page")
	}
	if c.WaitTime.Count() != 1 {
		t.Fatal("wait time not recorded")
	}
	if w := c.WaitTime.Max(); w < sim.Duration(sim.Second) {
		t.Fatalf("recorded wait %v, want >= 1s", w)
	}
}

func TestLazyScanLeavesUnconsumed(t *testing.T) {
	c := New(Config{Policy: EvictLazy, ScanInterval: sim.Duration(sim.Second)})
	c.Insert(1, true, 0)
	c.Tick(sim.Time(5 * sim.Second))
	if c.Len() != 1 {
		t.Fatal("periodic scan must not evict never-consumed pages absent pressure")
	}
}

func TestCapacityEvictionLRU(t *testing.T) {
	c := New(Config{Capacity: 3, Policy: EvictLazy})
	c.Insert(1, false, 0)
	c.Insert(2, false, 1)
	c.Insert(3, false, 2)
	c.Lookup(1, 3) // 1 is now MRU; LRU order: 2, 3, 1
	c.Insert(4, false, 4)
	if c.Contains(2) {
		t.Fatal("LRU victim should have been page 2")
	}
	for _, p := range []PageID{1, 3, 4} {
		if !c.Contains(p) {
			t.Fatalf("page %d unexpectedly evicted", p)
		}
	}
}

func TestEagerCapacityEvictsPrefetchFIFOFirst(t *testing.T) {
	c := New(Config{Capacity: 3, Policy: EvictEager})
	c.Insert(1, false, 0) // demand entry
	c.Insert(2, true, 1)  // oldest prefetch
	c.Insert(3, true, 2)
	c.Insert(4, true, 3) // over capacity: FIFO head (2) must go
	if c.Contains(2) {
		t.Fatal("FIFO eviction should remove the oldest prefetched page")
	}
	if !c.Contains(1) {
		t.Fatal("demand entry evicted while prefetched pages remain")
	}
	if c.Stats().Pollution != 1 {
		t.Fatalf("pollution = %d, want 1", c.Stats().Pollution)
	}
}

func TestPollutionCountsOnlyUnconsumed(t *testing.T) {
	c := New(Config{Capacity: 2, Policy: EvictLazy})
	c.Insert(1, true, 0)
	c.Lookup(1, 1) // consumed
	c.Insert(2, true, 2)
	c.Insert(3, true, 3) // evicts LRU = 1 (consumed) — not pollution
	if got := c.Stats().Pollution; got != 0 {
		t.Fatalf("pollution = %d, want 0", got)
	}
	c.Insert(4, true, 4) // evicts 2 (never consumed) — pollution
	if got := c.Stats().Pollution; got != 1 {
		t.Fatalf("pollution = %d, want 1", got)
	}
}

func TestInsertExistingRefreshesLRU(t *testing.T) {
	c := New(Config{Capacity: 2, Policy: EvictLazy})
	c.Insert(1, false, 0)
	c.Insert(2, false, 1)
	c.Insert(1, false, 2) // refresh, no new add
	if c.Stats().Adds != 2 {
		t.Fatalf("Adds = %d, want 2", c.Stats().Adds)
	}
	c.Insert(3, false, 3) // evicts 2 (LRU), not 1
	if !c.Contains(1) || c.Contains(2) {
		t.Fatal("refresh did not update LRU order")
	}
}

func TestWatermarkScan(t *testing.T) {
	c := New(Config{Capacity: 100, Policy: EvictLazy, HighWatermark: 0.9, LowWatermark: 0.5})
	for i := 0; i < 95; i++ {
		c.Insert(PageID(i), true, sim.Time(i))
	}
	c.Tick(1000)
	if got := c.Len(); got != 50 {
		t.Fatalf("after watermark scan Len = %d, want 50", got)
	}
	// Below the high watermark the scan is idle.
	c.Tick(2000)
	if got := c.Len(); got != 50 {
		t.Fatalf("scan ran below watermark: %d", got)
	}
}

func TestDropRemovesWithoutEvictionCount(t *testing.T) {
	c := New(Config{Capacity: 10, Policy: EvictLazy})
	c.Insert(1, true, 0)
	c.Drop(1)
	if c.Contains(1) || c.Stats().Evictions != 0 {
		t.Fatal("Drop must remove silently")
	}
	c.Drop(99) // absent: no-op
}

func TestStaleCountAndAllocLatency(t *testing.T) {
	c := New(Config{Policy: EvictLazy})
	base := c.AllocLatency()
	for i := 0; i < 100; i++ {
		c.Insert(PageID(i), true, 0)
	}
	if c.StaleCount() != 0 {
		t.Fatal("no page consumed yet")
	}
	allocClean := c.AllocLatency()
	for i := 0; i < 100; i++ {
		c.Lookup(PageID(i), 1)
	}
	if c.StaleCount() != 100 {
		t.Fatalf("StaleCount = %d, want 100", c.StaleCount())
	}
	allocStale := c.AllocLatency()
	if !(allocStale > allocClean && allocClean >= base) {
		t.Fatalf("alloc latency ordering broken: base=%v clean=%v stale=%v", base, allocClean, allocStale)
	}
	// Fully stale lazy cache pays base+750ns (the paper's 36% overhead).
	if allocStale-base != 750*sim.Nanosecond {
		t.Fatalf("stale alloc overhead = %v, want 750ns", allocStale-base)
	}
}

func TestEagerAllocStaysBase(t *testing.T) {
	c := New(Config{Policy: EvictEager})
	for i := 0; i < 100; i++ {
		c.Insert(PageID(i), true, 0)
		c.Lookup(PageID(i), 1)
	}
	// Eager: consumed prefetches are gone, nothing stale accumulates.
	if c.StaleCount() != 0 {
		t.Fatalf("StaleCount = %d, want 0 under eager policy", c.StaleCount())
	}
}

func TestCapacityNeverExceededProperty(t *testing.T) {
	f := func(ops []uint16, eager bool) bool {
		pol := EvictLazy
		if eager {
			pol = EvictEager
		}
		c := New(Config{Capacity: 8, Policy: pol})
		for i, op := range ops {
			page := PageID(op % 64)
			switch op % 3 {
			case 0:
				c.Insert(page, op%2 == 0, sim.Time(i))
			case 1:
				c.Lookup(page, sim.Time(i))
			case 2:
				c.Tick(sim.Time(i))
			}
			if c.Len() > 8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestListIntegrityProperty(t *testing.T) {
	// Property: after arbitrary operations, the LRU list contains exactly
	// the entries in the map, with consistent back-links.
	f := func(ops []uint16) bool {
		c := New(Config{Capacity: 16, Policy: EvictEager})
		for i, op := range ops {
			page := PageID(op % 32)
			if op%2 == 0 {
				c.Insert(page, op%4 == 0, sim.Time(i))
			} else {
				c.Lookup(page, sim.Time(i))
			}
		}
		// Walk forward, count, verify membership and back-links.
		n := 0
		var prev *entry
		for e := c.lruHead; e != nil; e = e.lruNext {
			if got, _ := c.entries.Get(e.page); got != e {
				return false
			}
			if e.lruPrev != prev {
				return false
			}
			prev = e
			n++
			if n > c.entries.Len() {
				return false // cycle
			}
		}
		if n != c.entries.Len() || c.lruTail != prev {
			return false
		}
		// FIFO list only holds prefetched, unconsumed, resident entries.
		m := 0
		for e := c.fifoHead; e != nil; e = e.fifoNext {
			if !e.prefetched || e.consumed {
				return false
			}
			if got, _ := c.entries.Get(e.page); got != e {
				return false
			}
			m++
			if m > c.entries.Len() {
				return false
			}
		}
		return m == c.fifoLen
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAddsEqualsEvictionsPlusResident(t *testing.T) {
	// Conservation: every added page is either resident or was evicted
	// (Drop not used here).
	c := New(Config{Capacity: 32, Policy: EvictLazy})
	for i := 0; i < 1000; i++ {
		c.Insert(PageID(i%200), i%2 == 0, sim.Time(i))
		if i%3 == 0 {
			c.Lookup(PageID(i%200), sim.Time(i))
		}
		c.Tick(sim.Time(i))
	}
	st := c.Stats()
	if st.Adds != st.Evictions+int64(c.Len()) {
		t.Fatalf("conservation violated: adds=%d evictions=%d resident=%d",
			st.Adds, st.Evictions, c.Len())
	}
}

func TestReclaimAgedHonorsGrace(t *testing.T) {
	c := New(Config{Policy: EvictEager})
	c.Insert(1, true, 0)                           // old, unconsumed
	c.Insert(2, true, sim.Time(5*sim.Millisecond)) // fresh, unconsumed
	now := sim.Time(6 * sim.Millisecond)
	freed := c.ReclaimAged(10, 2*sim.Millisecond, now)
	if freed != 1 {
		t.Fatalf("freed = %d, want 1 (only the aged entry)", freed)
	}
	if c.Contains(1) || !c.Contains(2) {
		t.Fatal("wrong victim: grace must protect fresh prefetches")
	}
}

func TestReclaimAgedTakesConsumedImmediately(t *testing.T) {
	c := New(Config{Policy: EvictLazy})
	c.Insert(1, true, 0)
	c.Lookup(1, 1) // consumed: reclaimable regardless of age
	freed := c.ReclaimAged(10, sim.Duration(sim.Second), 2)
	if freed != 1 || c.Contains(1) {
		t.Fatalf("consumed entry not reclaimed (freed=%d)", freed)
	}
}

func TestReclaimAgedBounded(t *testing.T) {
	c := New(Config{Policy: EvictLazy})
	for i := 0; i < 10; i++ {
		c.Insert(PageID(i), true, 0)
	}
	now := sim.Time(sim.Second)
	if freed := c.ReclaimAged(3, 0, now); freed != 3 {
		t.Fatalf("freed = %d, want exactly 3", freed)
	}
	if c.Len() != 7 {
		t.Fatalf("Len = %d, want 7", c.Len())
	}
}

func TestOnEvictCallback(t *testing.T) {
	c := New(Config{Capacity: 2, Policy: EvictLazy})
	var evicted []PageID
	c.OnEvict = func(p PageID) { evicted = append(evicted, p) }
	c.Insert(1, true, 0)
	c.Insert(2, true, 1)
	c.Insert(3, true, 2) // evicts 1
	c.Drop(2)            // drop also fires the callback
	if len(evicted) != 2 || evicted[0] != 1 || evicted[1] != 2 {
		t.Fatalf("OnEvict calls = %v, want [1 2]", evicted)
	}
}

func TestInsertEvictSteadyStateDoesNotAllocate(t *testing.T) {
	// A bounded cache under constant insert pressure recycles entries from
	// the free list; the steady-state fault path must not allocate.
	c := New(Config{Capacity: 64, Policy: EvictEager})
	next := PageID(0)
	for i := 0; i < 256; i++ { // warm the map and the free list
		c.Insert(next, true, sim.Time(i))
		next++
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			c.Insert(next, true, 0)
			c.Lookup(next, 0) // eager policy frees the entry on consumption
			next++
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state insert/evict allocated %.1f times per run, want 0", allocs)
	}
}

func TestPooledEntriesResetState(t *testing.T) {
	// A recycled entry must not leak the previous occupant's flags: insert a
	// consumed prefetched page, evict it, and reuse the node for a demand
	// page — which must neither count as a prefetch hit nor join the FIFO.
	c := New(Config{Policy: EvictEager})
	c.Insert(1, true, 0)
	c.Lookup(1, 5) // consumed; eager policy frees the entry to the pool
	c.Insert(2, false, 10)
	if hit, wasPre := c.Lookup(2, 11); !hit || wasPre {
		t.Fatalf("recycled entry kept stale state: hit=%v wasPrefetched=%v", hit, wasPre)
	}
	st := c.Stats()
	if st.PrefetchHits != 1 {
		t.Fatalf("PrefetchHits = %d, want 1 (only the genuine prefetched page)", st.PrefetchHits)
	}
}
