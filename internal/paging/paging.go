// Package paging is the shared fault-path engine of the repository: the
// piece of the paging data path that sits between a residency check and the
// backing store. One access flows through it as
//
//	FlushArrivals → (resident? caller's business) → Fault → OnAccess → MapIn
//
// covering the page-cache lookup, the in-flight-prefetch wait, the full-miss
// trip through the data path + device, prefetch-candidate generation and
// deduplicated (optionally doorbell-batched) issue, and the residency map-in
// with cgroup-style reclaim and eviction writeback.
//
// All three consumers of the fault path run on this engine:
//
//   - internal/vmm, the discrete-event simulator, instantiates Engine[*proc]
//     — every process shares one engine, exactly as processes share a kernel;
//   - internal/vfs, the file-access (D-VFS) simulator, instantiates
//     Engine[struct{}] over an empty residency set: every read is a fault;
//   - leap.Memory, the byte-addressable runtime over the real remote-memory
//     substrate, instantiates the engine with itself as owner and moves
//     actual page images through the hooks.
//
// The engine is deliberately byte-for-byte the code that used to live inside
// vmm.Machine: counter order, RNG draw order and heap tie-breaking are part
// of its contract, because every figure of the paper reproduction replays
// bit-identically from a seed through this path.
//
// The type parameter O is the owner handed back through hooks and arrivals
// (a simulated process, a Memory runtime); the engine never inspects it, so
// hot paths stay free of boxing and allocation.
package paging

import (
	"slices"

	"leap/internal/core"
	"leap/internal/datapath"
	"leap/internal/eventq"
	"leap/internal/metrics"
	"leap/internal/pagecache"
	"leap/internal/pagemap"
	"leap/internal/prefetch"
	"leap/internal/rdma"
	"leap/internal/sim"
	"leap/internal/storage"
)

// PageID aliases core.PageID.
type PageID = core.PageID

// Config parameterizes an Engine. The zero value of every field selects the
// remote-memory defaults the simulator uses.
type Config struct {
	// Path selects the data path (legacy block layer vs Leap's lean path).
	Path datapath.Config
	// CachePolicy picks lazy (Linux) or eager (Leap) prefetch-cache
	// reclamation; CacheCapacity bounds the prefetch cache in pages
	// (0 = coupled to the owner's residency budget). CacheScanInterval is
	// the lazy background scan period (0 = pagecache default).
	CachePolicy       pagecache.Policy
	CacheCapacity     int
	CacheScanInterval sim.Duration
	// Prefetcher is consulted on every swap-in; nil means none.
	Prefetcher prefetch.Prefetcher
	// Device is the backing store's latency model; nil defaults to remote
	// memory over a fresh default fabric.
	Device storage.Device
	// QueueDepth, when > 1, fans prefetch candidates out in doorbell-style
	// batches of up to this many pages and batches eviction writebacks
	// behind a dirty backlog of the same bound — provided the device
	// supports batched submission (storage.BatchDevice; remote memory
	// does). At 1 (or on non-batching devices) every page is submitted
	// individually, byte-identical to the unbatched engine.
	QueueDepth int
	// Seed drives all stochastic latency models.
	Seed uint64
}

// arrival is a prefetched page in flight. It carries the issuing owner so
// landing it needs no lookup.
type arrival[O any] struct {
	page core.PageID
	at   sim.Time
	who  O
}

// arrivalLess orders arrivals by completion time (eventq preserves
// container/heap's tie order, so the landing sequence of same-time arrivals
// — and with it cache LRU order — is stable).
func arrivalLess[O any](a, b arrival[O]) bool { return a.at < b.at }

// Engine is the shared fault-path core. It is not safe for concurrent use;
// the owning scheduler (the simulator's event loop, a Memory runtime)
// serializes calls.
type Engine[O any] struct {
	path  *datapath.Path
	cache *pagecache.Cache
	dev   storage.Device
	pf    prefetch.Prefetcher
	ahead prefetch.RunAhead // pf's hit-side half, nil when it has none

	inflight  *pagemap.Map[sim.Time]
	inflights *eventq.Heap[arrival[O]]

	// blocked holds pages a concurrent owner is demand-fetching outside its
	// serializing lock (the runtime's single-flight window): candidate
	// generation must not re-issue them as prefetches, or the landed
	// prefetch would collide with the demand page's map-in. Empty — and
	// free — for single-threaded owners like the simulator.
	blocked *pagemap.Map[struct{}]

	// Batched submission (QueueDepth > 1 on a BatchDevice): prefetch
	// fan-out goes through batchDev in chunks of qdepth, and evicted pages
	// accumulate in the writeback backlog until it reaches qdepth. Without
	// it batchPages/batchDists/batchDone still hold a window's deduplicated
	// pages, submitted one by one.
	batchDev   storage.BatchDevice
	qdepth     int
	batchPages []core.PageID
	batchDists []int64
	batchDone  []sim.Time
	wbPages    []core.PageID
	wbDists    []int64

	// resFree is a free list of resEntry nodes (linked through next), so the
	// map-in/evict churn of the fault path stops allocating.
	resFree *resEntry

	lastDevPage core.PageID // device head/locality tracker
	candBuf     []core.PageID

	recording bool

	// OnInsert, when set, is called with the issuing owner whenever a
	// landed prefetch enters the cache (the simulator charges the owning
	// cgroup; the runtime charges itself).
	OnInsert func(O)
	// OnIssue, when set, receives the deduplicated prefetch pages actually
	// submitted by one OnAccess call — the hook a byte-moving runtime uses
	// to fetch real page images alongside the latency model. The slice is
	// reused; callers must not retain it.
	OnIssue func(O, []core.PageID)
	// OnEvict, when set, is called for every resident page evicted by
	// MapIn, before its writeback is priced — the hook a byte-moving
	// runtime uses to write real dirty page images back. It reports
	// whether the victim still travels to the backing store: false means
	// the owner absorbed it locally (sealed it into a compressed victim
	// tier), so MapIn skips the modeled writeback. Returning true
	// everywhere reproduces the legacy pricing exactly.
	OnEvict func(O, core.PageID) bool
	// Owns, when set, restricts prefetch issue to pages the filter accepts.
	// The sharded runtime runs one engine per PageID stripe: the Leap
	// predictor's trend candidates stay in-stripe by construction (trend
	// deltas between in-stripe faults are multiples of the stripe count),
	// but its cold-start neighbor fallback — and baseline prefetchers like
	// readahead — emit adjacent pages that belong to other stripes, and
	// fetching those here would violate the one-owner-per-page invariant.
	// Nil (every single-engine owner) keeps all candidates: byte-identical
	// to the unfiltered engine.
	Owns func(core.PageID) bool

	// ztier, set via EnableZtier, reports pages sealed in the owner's
	// compressed victim tier; ztierLatency is the decompress charge a
	// fault pays to unseal one. Nil keeps the engine byte-identical to the
	// tierless fault path.
	ztier        func(core.PageID) bool
	ztierLatency sim.Duration

	// LastFaultZtier reports whether the most recent Fault landed in the
	// compressed victim tier (EnableZtier): miss stays false — no remote
	// fetch — but the caller must unseal the page's bytes itself.
	LastFaultZtier bool

	// LastFaultSerial is the CPU-serial share of the most recent Fault's
	// latency: the part spent traversing the data path and cache under the
	// owner's lock (lookup cost, request overhead, page allocation), as
	// opposed to waitable device/wire time that concurrent faults overlap.
	// The closed-loop concurrency model (internal/load) reads it per op.
	LastFaultSerial sim.Duration

	// Global metrics.
	FaultLatency metrics.Histogram // all swap-in faults, all owners
	AllocLatency metrics.Histogram // page-allocation cost paid per miss
	Counters     Counters
}

// Counters counts the fault path's events while recording is on. The engine
// increments the fault-side fields; the owner increments the ones its
// residency check decides (Accesses, ResidentHits, Faults, DemandWaits).
type Counters struct {
	// Accesses is every access (the runtime counts it; the simulator keeps
	// per-process counts instead), ResidentHits the accesses the residency
	// check served and Faults the ones that entered the fault path.
	// DemandWaits is the runtime's faults that slept on another goroutine's
	// fault of the same page.
	Accesses, ResidentHits, Faults, DemandWaits int64
	// CacheHits, InflightHits, ZtierHits and CacheMisses split the faults by
	// where Fault found the page: in the page cache, on the wire, sealed in
	// the compressed tier, or nowhere.
	CacheHits, InflightHits, ZtierHits, CacheMisses int64
	// InflightAdds counts in-flight consumptions as prefetch successes,
	// PrefetchIssued the prefetched pages submitted and Swapouts the
	// resident pages MapIn evicted.
	InflightAdds, PrefetchIssued, Swapouts int64
}

// New builds an engine. The RNG fork order (device first when defaulted,
// then path) is part of the determinism contract with the simulator.
func New[O any](cfg Config) *Engine[O] {
	rng := sim.NewRNG(cfg.Seed)
	dev := cfg.Device
	if dev == nil {
		dev = storage.NewRemote(rdma.New(rdma.Config{}, rng.Fork(1)))
	}
	pf := cfg.Prefetcher
	if pf == nil {
		pf = prefetch.None{}
	}
	e := &Engine[O]{
		path: datapath.New(cfg.Path, rng.Fork(2)),
		cache: pagecache.New(pagecache.Config{
			Capacity:     cfg.CacheCapacity,
			Policy:       cfg.CachePolicy,
			ScanInterval: cfg.CacheScanInterval,
		}),
		dev:       dev,
		pf:        pf,
		inflight:  pagemap.New[sim.Time](0),
		inflights: eventq.New(arrivalLess[O]),
		blocked:   pagemap.New[struct{}](0),
		recording: true,
	}
	e.ahead, _ = pf.(prefetch.RunAhead)
	if cfg.QueueDepth > 1 {
		if bd, ok := dev.(storage.BatchDevice); ok {
			e.batchDev = bd
			e.qdepth = cfg.QueueDepth
		}
	}
	return e
}

// Cache exposes the page cache for policy wiring and accounting.
func (e *Engine[O]) Cache() *pagecache.Cache { return e.cache }

// Path exposes the data path for stage histograms.
func (e *Engine[O]) Path() *datapath.Path { return e.path }

// Device exposes the backing store.
func (e *Engine[O]) Device() storage.Device { return e.dev }

// Prefetcher exposes the configured prefetcher.
func (e *Engine[O]) Prefetcher() prefetch.Prefetcher { return e.pf }

// EnableZtier attaches a compressed victim tier to the fault path: contains
// reports sealed pages, and a fault landing on one charges the data path's
// hit cost plus latency (the decompress charge) instead of a fabric round
// trip — miss stays false, LastFaultZtier is set, and the caller unseals the
// bytes itself. Prefetch candidate generation skips sealed pages: a sealed
// dirty page's only fresh image is local, so fetching its stale remote copy
// would break read-your-writes.
func (e *Engine[O]) EnableZtier(contains func(core.PageID) bool, latency sim.Duration) {
	e.ztier = contains
	e.ztierLatency = latency
}

// SetRecording toggles metric collection; warmup runs with recording off.
func (e *Engine[O]) SetRecording(on bool) { e.recording = on }

// Recording reports whether metric collection is on.
func (e *Engine[O]) Recording() bool { return e.recording }

// FlushArrivals lands every in-flight prefetch that has completed by now and
// ticks the cache's background reclaimer.
func (e *Engine[O]) FlushArrivals(now sim.Time) {
	for e.inflights.Len() > 0 && e.inflights.Peek().at <= now {
		a := e.inflights.Pop()
		if at, ok := e.inflight.Get(a.page); ok && at == a.at {
			e.inflight.Delete(a.page)
			if e.cache.Insert(a.page, true, a.at) && e.OnInsert != nil {
				e.OnInsert(a.who)
			}
		}
	}
	e.cache.Tick(now)
}

// Fault serves one swap-in of a non-resident page at virtual time now and
// returns the latency paid plus whether the page was a full miss (neither
// cached nor in flight — the caller must fetch its bytes, and the
// prefetcher's candidate generation will run). pid is the faulting process
// for prefetch feedback; cpu identifies the faulting core for multi-queue
// devices (the simulator uses the PID for both, the runtime a single core).
func (e *Engine[O]) Fault(pid prefetch.PID, cpu int, page core.PageID, now sim.Time) (latency sim.Duration, miss bool) {
	e.LastFaultZtier = false
	if hit, wasPre := e.cache.Lookup(page, now); hit {
		latency = e.path.HitLatency()
		e.LastFaultSerial = latency
		if wasPre {
			e.pf.OnPrefetchHit(pid)
		}
		if e.recording {
			e.Counters.CacheHits++
		}
	} else if at, ok := e.inflight.Get(page); ok {
		// The prefetch is on the wire: pay only the remaining time.
		e.inflight.Delete(page)
		wait := at.Sub(now)
		if wait < 0 {
			wait = 0
		}
		hit := e.path.HitLatency()
		latency = hit + wait
		e.LastFaultSerial = hit
		e.pf.OnPrefetchHit(pid)
		if e.recording {
			e.Counters.InflightHits++
			// An in-flight consumption is still a prefetch success for
			// accuracy accounting (it was added and used).
			e.Counters.InflightAdds++
		}
	} else if e.ztier != nil && e.ztier(page) {
		// Sealed in the compressed victim tier: the page decompresses
		// locally — all CPU-serial, no fabric round trip, no device-model
		// draw.
		e.LastFaultZtier = true
		latency = e.path.HitLatency() + e.ztierLatency
		e.LastFaultSerial = latency
		if e.recording {
			e.Counters.ZtierHits++
		}
	} else {
		// Full miss: data path overhead + device + page allocation.
		miss = true
		b := e.path.RequestOverhead()
		dist := int64(page - e.lastDevPage)
		e.lastDevPage = page
		submit := now.Add(b.Total())
		done := e.dev.Read(cpu, submit, page, dist)
		alloc := e.cache.AllocLatency()
		latency = b.Total() + done.Sub(submit) + alloc
		e.LastFaultSerial = b.Total() + alloc
		if e.recording {
			e.Counters.CacheMisses++
			e.AllocLatency.Observe(alloc)
		}
	}
	if e.recording {
		e.FaultLatency.Observe(latency)
	}
	return latency, miss
}

// Hint is an madvise-style access-pattern declaration threaded into the
// fault path per access (see OnAccess). HintNone is the zero value
// and leaves candidate generation untouched.
type Hint uint8

// Hint values. Sequential replaces the predictor's window with a
// straight-line one; Random suppresses issue entirely.
const (
	HintNone Hint = iota
	HintSequential
	HintRandom
)

// SequentialHintWindow is the straight-line window a HintSequential access
// issues: the next N pages after the fault, clamped to the hinted range
// (matches the paper's PW_size_max default of 8).
const SequentialHintWindow = 8

// OnAccess records the access with the prefetcher and, on a miss, collects
// and issues the prefetch window. The prefetcher sees every swap-in (§4.1:
// cache look-ups are monitored, resident pages are not); candidate
// generation sits on the miss path like swapin_readahead. hint is the
// madvise-style declaration covering this access: the prefetcher always
// records the access — hints steer issue, not learning — but HintSequential
// discards its candidates for a straight-line window of up to
// SequentialHintWindow pages after the fault, clamped below hintEnd
// (exclusive), and HintRandom discards them and issues nothing. HintNone
// issues what the prefetcher returned.
func (e *Engine[O]) OnAccess(o O, res *Resident, pid prefetch.PID, cpu int, page core.PageID, miss bool, now sim.Time, hint Hint, hintEnd core.PageID) {
	e.candBuf = e.pf.OnAccess(pid, page, miss, e.candBuf[:0])
	switch hint {
	case HintRandom:
		e.candBuf = e.candBuf[:0]
	case HintSequential:
		e.candBuf = e.candBuf[:0]
		if miss {
			for c := page + 1; c < hintEnd && c <= page+SequentialHintWindow; c++ {
				e.candBuf = append(e.candBuf, c)
			}
		}
	}
	e.issuePrefetches(o, res, cpu, e.candBuf, now)
}

// Prefetch issues the given pages through the normal prefetch path — the
// same dedup (resident, cached, in flight, blocked, sealed, foreign-stripe)
// and the same device model as predictor-driven windows — without
// consulting the prefetcher. It is the engine half of an madvise(WILLNEED):
// the owner warms pages it knows it will touch. The slice is not retained. It
// returns how many pages were issued.
func (e *Engine[O]) Prefetch(o O, res *Resident, cpu int, pages []core.PageID, now sim.Time) int {
	return e.issuePrefetches(o, res, cpu, pages, now)
}

// Ahead is the hit-side issue point, for an owner whose fetches take long
// enough that windows issued at misses arrive late: called after OnAccess for
// an access by pid that consumed a prefetched page, it asks the prefetcher
// (when it is a prefetch.RunAhead) for the frames, of frame pages and room
// pages at most together, train pages at a time, that keep up to limit pages in
// flight ahead of pid's stream, and issues them through Prefetch. Hints steer it like OnAccess:
// HintRandom issues nothing, HintSequential stops at hintEnd. It returns how
// many pages were issued.
func (e *Engine[O]) Ahead(o O, res *Resident, pid prefetch.PID, cpu int, page core.PageID, frame, train, limit, room int, now sim.Time, hint Hint, hintEnd core.PageID) int {
	if e.ahead == nil || hint == HintRandom {
		return 0
	}
	cands := e.ahead.Ahead(pid, page, frame, train, limit, room, e.candBuf[:0])
	e.candBuf = cands
	if hint == HintSequential {
		cands = slices.DeleteFunc(cands, func(c core.PageID) bool { return c >= hintEnd })
	}
	return e.Prefetch(o, res, cpu, cands, now)
}

// issuePrefetches fetches candidate pages into the cache asynchronously.
// Prefetch I/O rides the same device model as demand fetches — occupying
// queues and bandwidth — but nobody blocks on it. Linux batches read-ahead
// pages onto the demand request's trip through the block layer, so no
// per-page block-layer overhead is charged on either path; each page pays
// only dispatch + device time. On a batching device the deduplicated
// candidates go out in chunks of up to qdepth pages, so a window costs one
// submission (and one fabric round-trip draw) per chunk instead of one per
// page — the fan-out overlap the async remote engine exists for.
func (e *Engine[O]) issuePrefetches(o O, res *Resident, cpu int, cands []core.PageID, now sim.Time) int {
	e.batchPages = e.batchPages[:0]
	e.batchDists = e.batchDists[:0]
	for _, c := range cands {
		if res.Contains(c) || e.cache.Contains(c) || e.inflight.Contains(c) {
			continue
		}
		if e.blocked.Len() > 0 && e.blocked.Contains(c) {
			continue
		}
		if e.ztier != nil && e.ztier(c) {
			continue
		}
		if e.Owns != nil && !e.Owns(c) {
			continue
		}
		if slices.Contains(e.batchPages, c) {
			continue // listed twice: issued once
		}
		e.batchPages = append(e.batchPages, c)
		e.batchDists = append(e.batchDists, int64(c-e.lastDevPage))
		e.lastDevPage = c
	}
	for lo, hi := 0, 0; lo < len(e.batchPages); lo = hi {
		if e.batchDev != nil {
			hi = min(lo+e.qdepth, len(e.batchPages))
			e.batchDone = e.batchDev.ReadBatch(cpu, now,
				e.batchPages[lo:hi], e.batchDists[lo:hi], e.batchDone)
		} else {
			hi = lo + 1
			e.batchDone = append(e.batchDone[:0], e.dev.Read(cpu, now, e.batchPages[lo], e.batchDists[lo]))
		}
		for i, c := range e.batchPages[lo:hi] {
			done := e.batchDone[i]
			e.inflight.Put(c, done)
			e.inflights.Push(arrival[O]{page: c, at: done, who: o})
			if e.recording {
				e.Counters.PrefetchIssued++
			}
		}
	}
	if e.OnIssue != nil && len(e.batchPages) > 0 {
		e.OnIssue(o, e.batchPages)
	}
	return len(e.batchPages)
}

// BlockPrefetch marks page as being demand-fetched outside the owner's
// serializing lock: until UnblockPrefetch, candidate generation skips it, so
// a concurrent fault cannot race a prefetch of the same page against the
// demand fetch's map-in. Single-threaded owners never populate the set, so
// the dedup fast path is unaffected.
func (e *Engine[O]) BlockPrefetch(page core.PageID) { e.blocked.Put(page, struct{}{}) }

// UnblockPrefetch ends a BlockPrefetch window.
func (e *Engine[O]) UnblockPrefetch(page core.PageID) { e.blocked.Delete(page) }

// CancelPrefetch forgets an in-flight prefetch of page (its heap entry
// becomes a stale no-op), so a byte-moving runtime can abandon a prefetch
// whose real fetch failed. It reports whether the page was in flight.
func (e *Engine[O]) CancelPrefetch(page core.PageID) bool {
	if !e.inflight.Contains(page) {
		return false
	}
	e.inflight.Delete(page)
	return true
}

// MapIn maps a freshly swapped-in page into res, evicting (and swapping
// out) LRU pages if the budget is exceeded. The page must not already be
// resident — callers only reach here after the residency check missed.
//
// The cgroup charge covers both mapped pages and the owner's share of the
// page cache. Under pressure, reclaim targets the page cache first (kswapd
// prefers cold cache pages over mapped ones) — consumed ghosts and stale
// unconsumed prefetches, which is where a flooding prefetcher churns its own
// pages — then falls back to evicting the owner's LRU pages. Fresh
// prefetches get a 2ms grace so pressure cannot cancel a prefetch that is
// about to be consumed. Cache charges squeeze the resident set down to
// min(16, Limit) pages, never below, so it never outgrows Limit.
func (e *Engine[O]) MapIn(o O, res *Resident, cpu int, page core.PageID, now sim.Time) {
	en := e.newResEntry(page)
	res.m.Put(page, en)
	en.next = res.head
	if res.head != nil {
		res.head.prev = en
	}
	res.head = en
	if res.tail == nil {
		res.tail = en
	}
	if over := int64(res.m.Len()) + res.Charged - res.Limit; over > 0 {
		e.cache.ReclaimAged(int(over), 2*sim.Millisecond, now)
	}
	budget := res.Limit - res.Charged
	if floor := min(16, res.Limit); budget < floor {
		budget = floor
	}
	for int64(res.m.Len()) > budget && res.tail != nil {
		victim := res.tail
		res.tail = victim.prev
		if res.tail != nil {
			res.tail.next = nil
		} else {
			res.head = nil
		}
		res.m.Delete(victim.page)
		writeback := true
		if e.OnEvict != nil {
			writeback = e.OnEvict(o, victim.page)
		}
		// Write-back to the backing store (asynchronous: occupies the
		// device/fabric but nobody waits). Swap-out is slot-clustered, so
		// it neither pays nor causes read-head seeks. On a batching device
		// the victim joins the bounded dirty backlog instead of paying a
		// submission per page. A victim the owner absorbed locally (sealed
		// into the compressed tier) skips the charge — no bytes traveled.
		if writeback {
			e.QueueWriteback(cpu, victim.page, now)
		}
		e.freeResEntry(victim)
		if e.recording {
			e.Counters.Swapouts++
		}
	}
}

// QueueWriteback prices one asynchronous page writeback on the modeled
// device — the charge MapIn applies to every evicted victim — without any
// residency bookkeeping: on a batching device the page joins the bounded
// dirty backlog, otherwise it pays an individual submission. The compressed
// tier uses it when a sealed victim overflows to the backing store for
// real.
func (e *Engine[O]) QueueWriteback(cpu int, page core.PageID, now sim.Time) {
	if e.batchDev != nil {
		e.wbPages = append(e.wbPages, page)
		e.wbDists = append(e.wbDists, 1)
		if len(e.wbPages) >= e.qdepth {
			e.FlushWriteback(cpu, now)
		}
	} else {
		e.dev.Write(cpu, now, page, 1)
	}
}

// WriteThrough prices a write of page submitted at now: a file write leaves
// for the device at once and, unlike a swap-out, moves the device head the
// way a read does.
func (e *Engine[O]) WriteThrough(cpu int, page core.PageID, now sim.Time) {
	dist := int64(page - e.lastDevPage)
	e.lastDevPage = page
	e.dev.Write(cpu, now, page, dist)
}

// FlushWriteback drains the eviction backlog as one doorbell. It is a no-op
// when the backlog is empty or the engine is unbatched.
func (e *Engine[O]) FlushWriteback(cpu int, now sim.Time) {
	if len(e.wbPages) == 0 {
		return
	}
	e.batchDone = e.batchDev.WriteBatch(cpu, now, e.wbPages, e.wbDists, e.batchDone)
	e.wbPages = e.wbPages[:0]
	e.wbDists = e.wbDists[:0]
}

// newResEntry takes a node off the free list, or allocates when it is empty.
func (e *Engine[O]) newResEntry(page core.PageID) *resEntry {
	en := e.resFree
	if en == nil {
		return &resEntry{page: page}
	}
	e.resFree = en.next
	en.page = page
	en.prev, en.next = nil, nil
	return en
}

// freeResEntry returns an unlinked node to the free list.
func (e *Engine[O]) freeResEntry(en *resEntry) {
	en.prev = nil
	en.next = e.resFree
	e.resFree = en
}
