// Package pagecache simulates the kernel page cache ("swap cache") that sits
// between the fault handler and the remote backing store, together with the
// two eviction policies the paper compares:
//
//   - Lazy (Linux): pages stay cached after they are consumed, waiting for a
//     kswapd-style background scan that only runs above a memory-pressure
//     watermark. Consumed pages therefore waste cache capacity for a long
//     time (the paper's Figure 4), and every new page allocation pays extra
//     scan time when the LRU list is polluted.
//
//   - Eager (Leap, §4.3): a prefetched page is freed the instant it is
//     consumed, via the PrefetchFifoLruList. Unconsumed prefetched pages are
//     reclaimed FIFO among themselves under pressure; demand-fetched entries
//     follow the usual LRU.
//
// The cache also keeps the statistics the evaluation is built on: cache adds
// (Fig. 9a), prefetch hits/misses, pollution (prefetched-but-never-used
// evictions), consumed-to-freed wait time (Fig. 4), and prefetch-to-first-hit
// timeliness (Fig. 10b).
package pagecache

import (
	"fmt"

	"leap/internal/core"
	"leap/internal/metrics"
	"leap/internal/pagemap"
	"leap/internal/sim"
)

// PageID aliases core.PageID.
type PageID = core.PageID

// Policy selects the eviction policy.
type Policy int

// Available eviction policies.
const (
	// EvictLazy models Linux: consumed pages linger until a background scan.
	EvictLazy Policy = iota
	// EvictEager models Leap: consumed prefetched pages are freed instantly.
	EvictEager
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case EvictLazy:
		return "lazy"
	case EvictEager:
		return "eager"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Config parameterizes a Cache.
type Config struct {
	// Capacity is the maximum number of resident entries; 0 means unlimited.
	Capacity int
	// Policy selects lazy or eager reclamation.
	Policy Policy
	// HighWatermark and LowWatermark bound the lazy background scan: the
	// scan starts when occupancy exceeds HighWatermark×Capacity and stops at
	// LowWatermark×Capacity. Defaults: 0.9 and 0.8. Ignored when Capacity
	// is unlimited (the scan then runs on ScanInterval to model kswapd's
	// periodic pass).
	HighWatermark, LowWatermark float64
	// ScanInterval is the period of the background scan when the cache is
	// unbounded. Default 1s of virtual time.
	ScanInterval sim.Duration
}

func (c Config) withDefaults() Config {
	if c.HighWatermark == 0 {
		c.HighWatermark = 0.9
	}
	if c.LowWatermark == 0 {
		c.LowWatermark = 0.8
	}
	if c.ScanInterval == 0 {
		c.ScanInterval = 1 * sim.Second
	}
	return c
}

// Stats aggregates cache accounting. All counts are cumulative.
type Stats struct {
	// Adds is every page inserted (the paper's "Cache Add", Fig. 9a).
	Adds int64
	// PrefetchAdds is the subset of Adds inserted by the prefetcher.
	PrefetchAdds int64
	// Hits and Misses count Lookup outcomes; PrefetchHits is the subset of
	// hits that landed on prefetched entries (coverage numerator).
	Hits, Misses, PrefetchHits int64
	// Evictions counts all removals by policy; Pollution is the subset that
	// were prefetched and never consumed — wasted fetch and cache space.
	Evictions, Pollution int64
	// EagerFrees counts instant frees under the eager policy.
	EagerFrees int64
}

// entry is one cached page. Entries participate in up to two intrusive
// lists: the global LRU (all entries) and the prefetch FIFO (prefetched,
// unconsumed entries) — mirroring how a kernel page sits in multiple lists.
type entry struct {
	page       PageID
	prefetched bool
	consumed   bool
	insertedAt sim.Time
	consumedAt sim.Time

	lruPrev, lruNext   *entry
	fifoPrev, fifoNext *entry
	inFifo             bool
}

// Cache is the simulated page cache. It is not safe for concurrent use.
type Cache struct {
	// OnEvict, when set, is called with the page of every entry removed
	// from the cache (evictions, eager frees, and Drops). The VMM layer
	// uses it to keep per-cgroup charge accounting in sync.
	OnEvict func(PageID)

	cfg     Config
	entries *pagemap.Map[*entry]

	// Global LRU: head = most recent, tail = eviction candidate.
	lruHead, lruTail *entry
	// Leap's PrefetchFifoLruList: head = oldest prefetched page.
	fifoHead, fifoTail *entry
	fifoLen            int

	// free is a free list of entry nodes (linked through lruNext): the
	// insert/evict churn of a paging workload recycles entries instead of
	// allocating one per Insert and leaving the GC to sweep the corpses.
	free *entry

	// staleLen counts resident consumed entries, kept in step with the
	// consumed flag so AllocLatency can price the allocator's scan without
	// re-walking the LRU list.
	staleLen int
	// minInserted is a lower bound on every resident entry's insertedAt
	// (tightened whenever a reclaim walk covers the whole list). With
	// staleLen it lets ReclaimAged prove "nothing is reclaimable" without
	// walking: if even the oldest possible entry is within the grace period,
	// so is everything else.
	minInserted sim.Time

	lastScan sim.Time
	stats    Stats

	// WaitTime is the consumed→freed delay distribution (Fig. 4).
	WaitTime metrics.Histogram
	// Timeliness is the prefetch→first-hit delay distribution (Fig. 10b).
	Timeliness metrics.Histogram
}

// New returns an empty cache.
func New(cfg Config) *Cache {
	return &Cache{cfg: cfg.withDefaults(), entries: pagemap.New[*entry](0)}
}

// Config reports the effective configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats reports a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// Len reports the number of resident entries.
func (c *Cache) Len() int { return c.entries.Len() }

// Pages calls yield for every cached page until yield returns false.
func (c *Cache) Pages(yield func(PageID) bool) { c.entries.Keys(yield) }

// Contains reports whether page is resident without touching LRU state.
func (c *Cache) Contains(page PageID) bool {
	return c.entries.Contains(page)
}

// Lookup consults the cache for page at virtual time now. On a hit the entry
// is marked consumed and moved to the LRU head; under the eager policy a
// prefetched entry is freed immediately (§4.3). It reports whether the page
// was present and whether the hit landed on a prefetched entry.
func (c *Cache) Lookup(page PageID, now sim.Time) (hit, wasPrefetched bool) {
	e, ok := c.entries.Get(page)
	if !ok {
		c.stats.Misses++
		return false, false
	}
	c.stats.Hits++
	wasPrefetched = e.prefetched
	if e.prefetched {
		c.stats.PrefetchHits++
		if !e.consumed {
			c.Timeliness.Observe(now.Sub(e.insertedAt))
		}
	}
	if !e.consumed {
		e.consumed = true
		e.consumedAt = now
		c.staleLen++
	}
	if c.cfg.Policy == EvictEager && e.prefetched {
		// Eager eviction: the page table now owns the page; release the
		// cache entry at once. Wait time is by construction ~0.
		c.WaitTime.Observe(0)
		c.stats.EagerFrees++
		c.remove(e)
		c.stats.Evictions++
		return true, wasPrefetched
	}
	c.lruMoveFront(e)
	return true, wasPrefetched
}

// Insert adds page at time now and reports whether a new entry was created.
// The prefetched flag marks prefetcher-driven inserts (demand fills pass
// false). Inserting an already-resident page refreshes its LRU position
// only. If the cache is over capacity, victims are reclaimed immediately
// according to the policy.
func (c *Cache) Insert(page PageID, prefetched bool, now sim.Time) bool {
	if e, ok := c.entries.Get(page); ok {
		c.lruMoveFront(e)
		return false
	}
	e := c.newEntry(page, prefetched, now)
	if c.entries.Len() == 0 || now < c.minInserted {
		c.minInserted = now
	}
	c.entries.Put(page, e)
	c.lruPushFront(e)
	if prefetched {
		c.fifoPushBack(e)
	}
	c.stats.Adds++
	if prefetched {
		c.stats.PrefetchAdds++
	}
	c.enforceCapacity(now)
	return true
}

// Drop removes page if resident, without counting an eviction (used when the
// owning process exits).
func (c *Cache) Drop(page PageID) {
	if e, ok := c.entries.Get(page); ok {
		c.remove(e)
	}
}

// enforceCapacity reclaims entries when the cache exceeds its capacity.
func (c *Cache) enforceCapacity(now sim.Time) {
	if c.cfg.Capacity <= 0 {
		return
	}
	for c.entries.Len() > c.cfg.Capacity {
		c.evictOne(now)
	}
}

// evictOne removes a single victim according to the policy.
func (c *Cache) evictOne(now sim.Time) {
	var victim *entry
	if c.cfg.Policy == EvictEager && c.fifoHead != nil {
		// Among prefetched pages, FIFO order (§4.3: no access history to
		// rank them, oldest prefetch goes first).
		victim = c.fifoHead
	} else {
		victim = c.lruTail
	}
	if victim == nil {
		return
	}
	c.evict(victim, now)
}

func (c *Cache) evict(e *entry, now sim.Time) {
	if e.prefetched && !e.consumed {
		c.stats.Pollution++
	}
	if e.consumed {
		c.WaitTime.Observe(now.Sub(e.consumedAt))
	}
	c.remove(e)
	c.stats.Evictions++
}

// Tick drives the lazy background reclaimer and must be called periodically
// with the advancing virtual time (the fault path does this). Under the
// eager policy it is a no-op. With bounded capacity the scan runs above the
// high watermark and reclaims down to the low watermark; unbounded caches
// scan on ScanInterval, freeing consumed entries only — kswapd has no reason
// to touch untouched pages absent pressure.
func (c *Cache) Tick(now sim.Time) {
	if c.cfg.Policy != EvictLazy {
		return
	}
	if c.cfg.Capacity > 0 {
		high := int(float64(c.cfg.Capacity) * c.cfg.HighWatermark)
		low := int(float64(c.cfg.Capacity) * c.cfg.LowWatermark)
		if c.entries.Len() <= high {
			return
		}
		for c.entries.Len() > low && c.lruTail != nil {
			c.evict(c.lruTail, now)
		}
		return
	}
	if now.Sub(c.lastScan) < c.cfg.ScanInterval {
		return
	}
	c.lastScan = now
	// Periodic pass: free consumed entries (they are reclaimable at no
	// cost); leave unconsumed ones — they may still get hit.
	for e := c.lruTail; e != nil; {
		prev := e.lruPrev
		if e.consumed {
			c.evict(e, now)
		}
		e = prev
	}
}

// ReclaimAged evicts up to n pressure-eligible entries: consumed pages
// (immediately reclaimable) and unconsumed pages older than minAge — the
// one-trip-through-the-inactive-list grace real reclaim gives freshly
// faulted pages. Fresh prefetched pages survive so that pressure cannot
// cancel a prefetch that is about to be used; a flooding prefetcher's
// stale junk does not. Returns the number reclaimed.
func (c *Cache) ReclaimAged(n int, minAge sim.Duration, now sim.Time) int {
	// Nothing consumed and even the oldest entry still within the grace
	// period: the walk below cannot free anything — skip it. This is the
	// common case when a well-behaved prefetcher keeps only fresh pages.
	if c.staleLen == 0 && now.Sub(c.minInserted) <= minAge {
		return 0
	}
	freed := 0
	walkedAll := true
	oldest := now
	e := c.lruTail
	for e != nil {
		if freed >= n {
			walkedAll = false
			break
		}
		prev := e.lruPrev
		if e.consumed || now.Sub(e.insertedAt) > minAge {
			c.evict(e, now)
			freed++
		} else if e.insertedAt < oldest {
			oldest = e.insertedAt
		}
		e = prev
	}
	if walkedAll {
		// Every survivor was visited, so the bound is now exact.
		c.minInserted = oldest
	}
	return freed
}

// StaleCount reports the number of consumed entries still occupying the
// cache — the population the allocator must scan past (Fig. 4's wasted
// area).
func (c *Cache) StaleCount() int { return c.staleLen }

// AllocLatency models the page-allocation delay a fetch pays before data
// can land: a base cost plus scan time proportional to the stale fraction
// of the LRU list. The paper measures eager eviction cutting this wait by
// ~750ns (36%, §4.3); with the default parameters a fully stale lazy cache
// pays ~2.08µs while an eager cache pays the ~1.33µs base.
func (c *Cache) AllocLatency() sim.Duration {
	const (
		base      = 1330 * sim.Nanosecond
		scanSpan  = 750 * sim.Nanosecond
		sampleCap = 4096 // bound the scan-cost estimate work
	)
	n := c.entries.Len()
	if n == 0 {
		return base
	}
	// Estimate the stale fraction the allocator scans past. When the whole
	// list fits in the sample the running staleLen gives the same count a
	// tail walk would; only oversized caches pay the bounded walk.
	scanned, stale := n, c.staleLen
	if n > sampleCap {
		scanned, stale = 0, 0
		for e := c.lruTail; e != nil && scanned < sampleCap; e = e.lruPrev {
			scanned++
			if e.consumed {
				stale++
			}
		}
	}
	frac := float64(stale) / float64(scanned)
	return base + sim.Duration(float64(scanSpan)*frac)
}

// newEntry takes a node off the free list, or allocates when it is empty.
func (c *Cache) newEntry(page PageID, prefetched bool, now sim.Time) *entry {
	e := c.free
	if e == nil {
		return &entry{page: page, prefetched: prefetched, insertedAt: now}
	}
	c.free = e.lruNext
	*e = entry{page: page, prefetched: prefetched, insertedAt: now}
	return e
}

// freeEntry returns a fully unlinked node to the free list.
func (c *Cache) freeEntry(e *entry) {
	e.lruNext = c.free
	c.free = e
}

// --- intrusive list plumbing ---

func (c *Cache) lruPushFront(e *entry) {
	e.lruPrev = nil
	e.lruNext = c.lruHead
	if c.lruHead != nil {
		c.lruHead.lruPrev = e
	}
	c.lruHead = e
	if c.lruTail == nil {
		c.lruTail = e
	}
}

func (c *Cache) lruUnlink(e *entry) {
	if e.lruPrev != nil {
		e.lruPrev.lruNext = e.lruNext
	} else {
		c.lruHead = e.lruNext
	}
	if e.lruNext != nil {
		e.lruNext.lruPrev = e.lruPrev
	} else {
		c.lruTail = e.lruPrev
	}
	e.lruPrev, e.lruNext = nil, nil
}

func (c *Cache) lruMoveFront(e *entry) {
	if c.lruHead == e {
		return
	}
	c.lruUnlink(e)
	c.lruPushFront(e)
}

func (c *Cache) fifoPushBack(e *entry) {
	e.inFifo = true
	e.fifoPrev = c.fifoTail
	e.fifoNext = nil
	if c.fifoTail != nil {
		c.fifoTail.fifoNext = e
	}
	c.fifoTail = e
	if c.fifoHead == nil {
		c.fifoHead = e
	}
	c.fifoLen++
}

func (c *Cache) fifoUnlink(e *entry) {
	if !e.inFifo {
		return
	}
	if e.fifoPrev != nil {
		e.fifoPrev.fifoNext = e.fifoNext
	} else {
		c.fifoHead = e.fifoNext
	}
	if e.fifoNext != nil {
		e.fifoNext.fifoPrev = e.fifoPrev
	} else {
		c.fifoTail = e.fifoPrev
	}
	e.fifoPrev, e.fifoNext = nil, nil
	e.inFifo = false
	c.fifoLen--
}

func (c *Cache) remove(e *entry) {
	c.lruUnlink(e)
	c.fifoUnlink(e)
	if e.consumed {
		c.staleLen--
	}
	c.entries.Delete(e.page)
	if c.OnEvict != nil {
		c.OnEvict(e.page)
	}
	c.freeEntry(e)
}
