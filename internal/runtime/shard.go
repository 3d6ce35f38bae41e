package runtime

import (
	"fmt"
	"sync"
	"time"

	"leap/internal/core"
	"leap/internal/pagecache"
	"leap/internal/pagemap"
	"leap/internal/paging"
	"leap/internal/prefetch"
	"leap/internal/remote"
	"leap/internal/sim"
	"leap/internal/ztier"
)

// shard is one PageID stripe of the fault path: its own engine (predictor,
// page cache, latency models), residency LRU, frame table and written/faulting
// sets, all guarded by its own mutex. Page pg belongs to shard pg & m.mask
// (round-robin striping, so hot contiguous ranges spread across stripes), and
// a page's bytes, cache entry and residency charge only ever live in its
// owning shard — the single-owner invariant CheckShardInvariants verifies. Cross-shard state (virtual clock,
// error latch, control-plane cadence) lives on Memory as atomics, so a hit
// takes exactly one lock: its shard's.
//
// Lock order: shard.mu → plane.mu → host.mu. A fault path holds at most its
// own shard's lock (never two shards), may observe the plane (plane.mu) and
// ring the host's doorbell (host.mu) under it; control ticks run with no
// shard lock held, entering at plane.mu. Neither host.mu nor shard.mu is ever
// held across a wait for the wire.
type shard struct {
	m   *Memory
	idx int

	// mu serializes this stripe's fault path: engine, residency, frame
	// table. It is dropped across the waits of a demand fetch and of a
	// prefetch fill (see page) and never held across a Client-visible
	// return.
	mu sync.Mutex

	eng *paging.Engine[*shard]
	res *paging.Resident

	// ens is this stripe's ensemble selector when WithEnsemble is on — the
	// same object as eng.Prefetcher(), kept typed for stats and selection-
	// history reads under mu. Nil otherwise.
	ens *prefetch.Ensemble

	// hints holds madvise-style access hints per client, newest last (see
	// Client.Advise). Nil until the first range hint, so unhinted runtimes
	// pay a single nil check per fault. Every stripe stores the full
	// ranges: stripe pages interleave, and keeping a full copy under each
	// stripe's own lock adds no cross-shard lock edges.
	hints map[prefetch.PID][]hintRange

	// ztier is this stripe's compressed victim tier (nil without
	// WithCompressedTier): evicted pages with a useful image are sealed
	// into it instead of paying a remote round trip, and the fault path
	// unseals on a hit. Guarded by mu like everything else in the stripe.
	ztier *ztier.Pool

	// frames holds the real bytes of every local page of this stripe:
	// resident pages plus prefetched pages parked in the cache and in
	// flight.
	frames    *pagemap.Map[*frame]
	frameFree *frame
	// written tracks stripe pages with a remote image (including writes
	// still queued in the host's dirty buffer): only those are fetched from
	// the host; everything else reads as zeros without touching the wire.
	written *pagemap.Map[struct{}]
	// faulting is the set of stripe pages currently traversing the fault
	// path: the eager cache policy frees their cache entries mid-fault (the
	// page table takes ownership), and the eviction callback must not drop
	// their frames. It is the single-flight state as well: a demand read runs
	// with the lock dropped, and a fault that finds its page here waits for
	// the owner instead of fetching again. More than one entry only under
	// concurrent faults.
	faulting *pagemap.Map[struct{}]
	// faulted (over mu) wakes the faults that found their page in faulting:
	// the owner broadcasts once the page is mapped in, or the fault unwound.
	faulted sync.Cond

	// fills and fillPages are fetchPrefetches' scratch: the window's frames
	// that requested a remote image, and their pages.
	fills     []*frame
	fillPages []core.PageID

	// cacheStats0 snapshots cache counters at measurement start, so
	// accuracy/coverage cover only the recorded phase (mirrors the
	// simulator's warmup handling).
	cacheStats0 pagecache.Stats

	// nEvictions counts residency evictions reaching evictResident;
	// nWritebacks counts page images actually pushed to the host (eviction
	// or compressed-tier overflow); nAhead counts prefetch pages issued from
	// a hit (issueAhead); nLate counts prefetch hits that had to wait for
	// their page's response and lateWait the time they waited (reapFill).
	// Recording-gated, read under mu.
	nEvictions  int64
	nWritebacks int64
	nAhead      int64
	nLate       int64
	lateWait    time.Duration
}

// hintRange is one Advise declaration: advice applies to pages
// [start, end). Later declarations override earlier ones (newest-first
// resolution in hintFor), so AdviseNormal un-hints a range by shadowing it.
type hintRange struct {
	start, end core.PageID
	advice     Advice
}

// hintFor resolves the newest hint covering pg for client pid into the
// engine's per-access hint form. Runs under s.mu on the fault path; the
// range list holds no declaration a later one covers (see Client.Advise), so
// it stays as short as the regions are many however often they are re-advised.
func (s *shard) hintFor(pid prefetch.PID, pg core.PageID) (paging.Hint, core.PageID) {
	rs := s.hints[pid]
	for i := len(rs) - 1; i >= 0; i-- {
		r := rs[i]
		if pg < r.start || pg >= r.end {
			continue
		}
		switch r.advice {
		case AdviseSequential:
			return paging.HintSequential, r.end
		case AdviseRandom:
			return paging.HintRandom, 0
		}
		// AdviseNormal: the newest declaration wins — predictor-driven.
		return paging.HintNone, 0
	}
	return paging.HintNone, 0
}

// shardFor routes a page to its owning stripe. Negative pages land on an
// arbitrary shard; page() rejects them before touching any state.
func (m *Memory) shardFor(pg core.PageID) *shard { return m.shards[uint64(pg)&m.mask] }

// Shards reports how many PageID stripes the fault path runs (1 without
// WithShards).
func (m *Memory) Shards() int { return len(m.shards) }

// newFrame takes a frame off the shard's free list, or allocates one.
func (s *shard) newFrame() *frame {
	f := s.frameFree
	if f == nil {
		return &frame{data: make([]byte, remote.PageSize)}
	}
	s.frameFree = f.next
	f.next = nil
	f.clean()
	return f
}

// freeFrame returns a frame to the shard's pool. A fill still outstanding is
// detached first: its response, whenever it arrives, no longer has a buffer
// to land in (the fill invariant, see frame).
func (s *shard) freeFrame(f *frame) {
	if f.fill != nil {
		f.fill.Detach()
		f.fill = nil
	}
	f.next = s.frameFree
	s.frameFree = f
}

// cacheEvicted keeps the cgroup charge and the frame table in step with the
// page cache: a cache entry leaving uncharges it, and its frame is released
// unless the page is (or is becoming) resident.
func (s *shard) cacheEvicted(page core.PageID) {
	s.res.Charged--
	if s.faulting.Contains(page) || s.res.Contains(page) {
		return
	}
	if f, ok := s.frames.Get(page); ok {
		s.frames.Delete(page)
		s.freeFrame(f)
	}
}

// evictResident is the engine's residency-eviction hook. With a compressed
// tier attached, a victim whose image is worth keeping — dirty, or clean
// with a remote copy a later fault would otherwise fetch — is sealed into
// the stripe's pool instead of traveling: the hook returns false so the
// engine skips the modeled writeback (no bytes moved), and the pool's own
// overflow handles any eventual real writeback. Without a tier (or when the
// page cache still references the page, which owns the bytes then) the
// legacy path runs: dirty bytes go to the remote host through the async
// ticket engine behind the bounded dirty backlog, and the hook returns true
// so the engine prices the writeback. The host keeps the image until the
// replicas have answered: a frame about to be freed hands it its buffer
// uncopied and takes a spare one back (remote.Host.HandOffPageRange), and a
// frame the page cache still holds has its bytes copied. A clean page that was
// never written is dropped either way — it re-materializes as zeros for free.
func (s *shard) evictResident(page core.PageID) bool {
	f, ok := s.frames.Get(page)
	if !ok {
		return true
	}
	if s.eng.Recording() {
		s.nEvictions++
	}
	cached := s.eng.Cache().Contains(page)
	if s.ztier != nil && !cached && (f.dirty || s.written.Contains(page)) {
		s.ztier.Put(page, f.data, f.dirty)
		f.dirty = false
		s.frames.Delete(page)
		s.freeFrame(f)
		return false
	}
	if f.dirty {
		s.written.Put(page, struct{}{})
		f.data = s.writeBack(page, f.data, int(f.lo), int(f.hi), !cached)
		f.clean() // the image queued is the page's remote one now
	}
	if !cached {
		s.frames.Delete(page)
		s.freeFrame(f)
	}
	return true
}

// ztierEvicted is the compressed pool's overflow callback: a sealed page
// pushed out by the byte budget. A dirty victim carries the only fresh copy
// of its bytes, so it goes to the host through the async ticket engine —
// exactly the write an uncompressed eviction would have issued — and is
// priced on the modeled device, which an absorbed seal skipped. Clean
// victims just vanish: their remote image is current. Runs under the shard
// lock, synchronously inside Pool.Put.
func (s *shard) ztierEvicted(page core.PageID, raw []byte, dirty bool) {
	if !dirty {
		return
	}
	s.written.Put(page, struct{}{})
	s.writeBack(page, raw, 0, remote.PageSize, false) // the tier keeps no hull
	s.eng.QueueWriteback(0, page, s.m.clock.Now())
}

// writeBack hands the host page's image, dirty within [lo,hi), through the
// async ticket engine: data itself with give, for the spare buffer returned in
// its place, or else a copy, and data is returned. Once the dirty backlog has
// reached the queue depth and does not ride a stream's next doorbell — no
// stream is running, or the backlog fills the unacked window — it rings the
// eviction doorbell: the queued writebacks leave as frames and the evicting
// access goes on without waiting for the replicas (§4.3), the host holding a
// writer up only at its unacked window. A writeback that failed on every
// replica, landed since the last doorbell by whoever came across its frame, is
// reported there.
func (s *shard) writeBack(page core.PageID, data []byte, lo, hi int, give bool) []byte {
	host := s.m.host
	var backlog int
	var rides bool
	if give {
		data, backlog, rides = host.HandOffPageRange(page, data, lo, hi)
	} else {
		_, backlog, rides = host.WritePageRangeAsync(page, data, lo, hi)
	}
	if s.eng.Recording() {
		s.nWritebacks++
	}
	if backlog >= s.m.qdepth && !rides {
		_, err := host.Submit()
		s.m.latchWriteback(err)
	}
	return data
}

// fetchPrefetches is the engine's prefetch-issue hook: the window's pages
// get frames and their real bytes are requested from the host through the
// async ticket engine — one doorbell (Submit) for the whole window, which
// puts the read frames on the wire and returns without waiting: each frame
// keeps its ticket as its pending fill, reaped by the first access that
// needs the page. Pages with no remote image materialize as zeros without
// touching the wire. Over transports that finish what they start the tickets
// are complete on return, and a page whose fetch failed is abandoned here (see
// abandonPrefetch); with a frame still flying there is nothing to collect yet,
// and a failure surfaces when the fill is reaped.
func (s *shard) fetchPrefetches(pages []core.PageID) {
	m := s.m
	s.fills = s.fills[:0]
	s.fillPages = s.fillPages[:0]
	for _, page := range pages {
		f := s.newFrame()
		s.frames.Put(page, f)
		if s.written.Contains(page) {
			f.fill = m.host.ReadPageAsync(page, f.data)
			s.fills = append(s.fills, f)
			s.fillPages = append(s.fillPages, page)
		} else {
			zeroFrame(f)
		}
	}
	if len(s.fills) == 0 {
		return
	}
	// Read outcomes are per-ticket. Submit also pushes queued eviction
	// writebacks — from every shard; the host is shared — and only a
	// write-op failure (acked application data no replica accepted) may
	// poison the Memory.
	flying, err := m.host.Submit()
	m.latchWriteback(err)
	if flying {
		return
	}
	for i, f := range s.fills {
		t := f.fill
		if !t.Done() {
			continue
		}
		f.fill = nil
		if t.Err() != nil {
			s.abandonPrefetch(s.fillPages[i])
		}
	}
}

// issueAhead keeps a stream's prefetches ahead of the wire. A predictor that
// speaks only on misses stalls a scan once per window: the window is consumed
// faster than the next one's round trip. So when pid's access to pg landed on
// a prefetched page whose bytes were still in flight — fetches outlast
// windows, which over a transport that finishes what it starts never happens,
// and this is never reached — the engine asks the client's predictor to run
// ahead (core.Predictor.AheadInto): whole frames beyond the stream's frontier,
// through the same dedup and the same fetchPrefetches as a miss's window — one
// doorbell, so the frames leave as a train and the queued writebacks with
// them. The depth is what the host measured the link to need (ahead, reported
// when the hit collected its page: remote.Headroom) and at most half the
// stripe's residency budget — or the one frame a miss's window may take
// whatever the budget: prefetched pages are charged to the stripe as they
// land, and MapIn reclaims cache pages past their grace before resident ones,
// so a stream let have the whole budget would reclaim its own prefetches.
// While the host's pipeline is full it reports no room and the stream skips its
// turn: waiting for a flight to land is for accesses that need the page.
func (s *shard) issueAhead(pid prefetch.PID, pg core.PageID, ahead remote.Headroom, now sim.Time, hint paging.Hint, hintEnd core.PageID) {
	limit := min(ahead.Depth, max(int(s.res.Limit)/2, ahead.Frame))
	n := s.eng.Ahead(s, s.res, pid, 0, pg, ahead.Frame, ahead.Train, limit, ahead.Room, now, hint, hintEnd)
	if s.eng.Recording() {
		s.nAhead += int64(n)
	}
}

// abandonPrefetch gives up a prefetched page whose real fetch failed: its
// frame is dropped and the engine forgets the prefetch, wherever the model
// has it (still in flight, or landed in the cache). No synchronous retry
// happens here, because a wire round trip with the shard lock held would
// head-of-line-block every client of the stripe behind one slow replica. A
// later demand access refetches the page with the lock released, where a slow
// replica delays only its own faulter.
func (s *shard) abandonPrefetch(page core.PageID) {
	s.eng.CancelPrefetch(page)
	s.eng.Cache().Drop(page) // its evict hook uncharges and frees the frame
	if f, ok := s.frames.Get(page); ok {
		s.frames.Delete(page)
		s.freeFrame(f)
	}
}

// reapFill completes the outstanding fill of f, the prefetched frame of pg,
// before the fault path consumes the page. It reports how long the access was
// blocked on the wire for it — 0 when the response had arrived, however long
// ago the fill was issued — what the host lets the stream issue ahead now, and
// whether the stripe lock was held throughout: it is released for a response
// that has not arrived, and the caller must then re-check everything — the
// frame may have been evicted and recycled meanwhile. A failed fill abandons
// the prefetch, so the access falls through to a demand miss on its own
// failover budget. A hit whose page has arrived visits the host once.
func (s *shard) reapFill(pg core.PageID, f *frame) (blocked time.Duration, ahead remote.Headroom, held bool) {
	t := f.fill
	ahead, done, err := t.Landed()
	if !done {
		s.mu.Unlock()
		blocked, _ = t.Collect()
		s.mu.Lock()
		return blocked, ahead, false
	}
	f.fill = nil
	if err != nil {
		s.abandonPrefetch(pg)
	}
	return 0, ahead, true
}

// collectDemand waits for pg's demand read with the stripe lock released and
// lets the prefetch dedup see pg again. The ticket is always collected here,
// whoever landed it: the window's own Submit, or another goroutine's doorbell,
// may have completed a read that a failover had requeued.
func (s *shard) collectDemand(pg core.PageID, demand *remote.Ticket) error {
	s.mu.Unlock()
	err := demand.Wait()
	s.mu.Lock()
	s.eng.UnblockPrefetch(pg)
	return err
}

// page runs one access by client pid to pg through the stripe's fault path
// and returns its frame. This is the runtime counterpart of the simulator's
// step: flush landed prefetches, check residency, fault through
// cache/in-flight/miss, consult the client's predictor, map the page in.
// Callers hold s.mu; the returned frame is valid only until the lock is
// released.
//
// The real I/O of a miss is split-phase (§4.2: the prefetch window is issued
// off the demand fetch's critical path): the demand read is started, the
// predictor runs and puts its window on the wire behind it, and only then is
// the demand page waited for, so the two share one round trip. The stripe
// lock is released while the read is started and while it is waited for, so
// faults on other pages — same stripe or not — proceed meanwhile; pg stays in
// s.faulting throughout, which is what a concurrent fault on pg waits on
// (single-flight) and what keeps the engine's prefetch dedup off pg
// (BlockPrefetch). The engine calls and their virtual-time arguments are
// those of the serial order Fault → fetch → Advance → OnAccess → MapIn; over
// a transport that finishes what it starts, so is the order of the transport
// calls.
func (s *shard) page(pid prefetch.PID, pg core.PageID) (*frame, error) {
	m := s.m
	if err := m.loadErr(); err != nil {
		return nil, err
	}
	if pg < 0 {
		return nil, fmt.Errorf("leap: negative page %d", pg)
	}
	recording := s.eng.Recording()
	if recording {
		s.eng.Counters.Accesses++
	}
	first := true
	// unreaped records that nobody had collected pg's prefetch when the access
	// arrived: fetches outlast the windows that issue them here, which is what
	// run-ahead is for (issueAhead). blocked is how long the access then
	// waited for the response — the prefetch was late only if it did.
	unreaped := false
	var blocked time.Duration
	var ahead remote.Headroom
	var now sim.Time
	for {
		now = m.clock.Now()
		s.eng.FlushArrivals(now)

		// Resident: no fault.
		if s.res.Touch(pg) {
			if recording && first {
				s.eng.Counters.ResidentHits++
			}
			// Store-on-transition: a hit zeroes the last-fault snapshot, but
			// atomic stores are full barriers and this is the hottest line in
			// the runtime — skip the store when the snapshot is already zero
			// (every hit after the first).
			if m.lastLatency.Load() != 0 {
				m.lastLatency.Store(0)
			}
			if m.lastSerial.Load() != 0 {
				m.lastSerial.Store(0)
			}
			f, _ := s.frames.Get(pg)
			return f, nil
		}
		if first {
			if recording {
				s.eng.Counters.Faults++
			}
			first = false
		}

		// Single-flight: pg is mid-fault on another goroutine, which only a
		// demand read with the lock released lets anyone see. Sleep until that
		// fault has mapped the page in (or unwound) and retry from the
		// residency check. The waited access is accounted as a hit (it pays
		// no full miss of its own) and is not re-recorded with the predictor.
		if s.faulting.Contains(pg) {
			if recording {
				s.eng.Counters.DemandWaits++
			}
			for s.faulting.Contains(pg) {
				s.faulted.Wait()
			}
			if err := m.loadErr(); err != nil {
				return nil, err
			}
			continue
		}

		// A prefetched frame whose bytes are still on the wire: reap the
		// fill before the fault consumes the page (a failed fill turns the
		// access into a demand miss, before the engine has seen it).
		if f, ok := s.frames.Get(pg); ok && f.fill != nil {
			unreaped = true
			waited, room, held := s.reapFill(pg, f)
			blocked, ahead = blocked+waited, room
			if !held {
				if err := m.loadErr(); err != nil {
					return nil, err
				}
				continue
			}
		}
		break
	}

	s.faulting.Put(pg, struct{}{})
	latency, miss := s.eng.Fault(pid, 0, pg, now)
	m.lastLatency.Store(int64(latency))
	m.lastSerial.Store(int64(s.eng.LastFaultSerial))
	// demand is the read of pg's real image on a full miss of a page that
	// has one, started here and collected after the predictor has run, the
	// stripe lock released around both.
	var demand *remote.Ticket
	var demandFrame *frame
	if miss {
		// Full miss: fetch the real bytes (zeros when the page has no
		// remote image — memory never written reads as zero).
		f := s.newFrame()
		if s.written.Contains(pg) {
			if m.plane != nil {
				// Remotely served faults are the plane's hot-page frequency
				// feed: natural hotspots drive ReplicateHot.
				m.plane.ObserveRead(pg)
			}
			s.eng.BlockPrefetch(pg)
			s.mu.Unlock()
			demand, demandFrame = m.host.StartRead(pg, f.data), f
			s.mu.Lock()
			if demand.Done() {
				// A transport that finishes what it starts: the serial order,
				// in which a failure unwinds before the predictor sees the
				// access.
				if err := s.collectDemand(pg, demand); err != nil {
					return nil, s.unwindDemand(pg, f, latency, err)
				}
				demand = nil
			}
		} else {
			zeroFrame(f)
		}
		s.frames.Put(pg, f)
	} else if s.eng.LastFaultZtier {
		// The fault landed in the compressed tier: unseal into a fresh
		// frame. Take is exclusive — the entry leaves the pool (zswap's
		// load semantics), so the budget never double-charges a page on
		// its way back to residency — and the dirty mark survives, so a
		// sealed dirty page writes back (or reseals) on its next eviction:
		// read-your-writes holds across evict→seal→fault cycles.
		f := s.newFrame()
		raw, dirty, ok := s.ztier.Take(pg, f.data[:0])
		if !ok || len(raw) != remote.PageSize {
			// Unreachable by construction: the engine consulted the pool
			// under this shard's lock, and seals are whole pages.
			s.freeFrame(f)
			s.faulting.Delete(pg)
			m.clock.Advance(latency)
			return nil, fmt.Errorf("leap: page %d lost its compressed image", pg)
		}
		if f.dirty = dirty; dirty {
			f.whole()
		}
		s.frames.Put(pg, f)
	}
	m.clock.Advance(latency)
	now = m.clock.Now()
	hint, hintEnd := paging.HintNone, core.PageID(0)
	if s.hints != nil {
		hint, hintEnd = s.hintFor(pid, pg)
	}
	s.eng.OnAccess(s, s.res, pid, 0, pg, miss, now, hint, hintEnd)
	if unreaped && !miss {
		if blocked > 0 && recording {
			s.nLate++
			s.lateWait += blocked
		}
		s.issueAhead(pid, pg, ahead, now, hint, hintEnd)
	}
	if demand != nil {
		// The clock has been advanced and the window issued; on a failure
		// only the map-in is left to skip.
		if err := s.collectDemand(pg, demand); err != nil {
			return nil, s.unwindDemand(pg, demandFrame, 0, err)
		}
	}
	s.eng.MapIn(s, s.res, 0, pg, now)
	s.faulting.Delete(pg)
	if demandFrame != nil {
		s.faulted.Broadcast() // the lock was released: pg may have waiters
	}
	f, ok := s.frames.Get(pg)
	if !ok {
		// Unreachable by construction: every path above installed a frame.
		return nil, fmt.Errorf("leap: page %d lost its frame", pg)
	}
	return f, m.loadErr()
}

// unwindDemand backs a fault out of a demand fetch that failed with err,
// leaving pg non-resident so that a retry after the outage heals faults
// through cleanly. The engine has already recorded the miss and charged the
// device model, so the clock still advances by the fault's latency (passed
// as advance unless it already has) — device queue occupancy and the latency
// histogram stay truthful. Faults waiting for pg wake to fetch it themselves.
func (s *shard) unwindDemand(pg core.PageID, f *frame, advance sim.Duration, err error) error {
	s.frames.Delete(pg) // if the fault got as far as installing f
	s.freeFrame(f)
	s.faulting.Delete(pg)
	s.faulted.Broadcast()
	s.m.clock.Advance(advance)
	return fmt.Errorf("leap: page %d unreachable: %w", pg, err)
}

// CheckShardInvariants verifies that every stripe's resident set is within
// its budget — so the whole set is within WithCacheCapacity — and the
// single-owner contract of the sharded fault path over every page in
// [0, span): a page may appear in a shard's residency set, page cache, frame
// table, written set, faulting set or compressed tier only if that shard owns
// the page's stripe — which implies no page is resident (or cached, or sealed)
// in two shards at once. Within the owning stripe it additionally verifies
// exclusivity between the compressed tier and the live fault path: a sealed
// page must not simultaneously be resident, cached or hold a frame (Take is
// exclusive, seal happens only after the frame is dropped). It walks what each
// stripe holds, not the span. It is a test hook: call it only while no
// operations are in flight. The first violation found is returned; nil means
// the invariants hold across the span.
func (m *Memory) CheckShardInvariants(span core.PageID) error {
	for _, s := range m.shards {
		s.mu.Lock()
		err := s.checkInvariants(span)
		s.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// checkInvariants is CheckShardInvariants for one stripe. Callers hold s.mu.
func (s *shard) checkInvariants(span core.PageID) error {
	if n := s.res.Len(); int64(n) > s.res.Limit {
		return fmt.Errorf("leap: shard %d holds %d resident pages over its budget of %d", s.idx, n, s.res.Limit)
	}
	type set struct {
		where string
		pages func(func(core.PageID) bool)
	}
	sets := []set{{"residency set", s.res.Pages}, {"page cache", s.eng.Cache().Pages}, {"frame table", s.frames.Keys},
		{"written set", s.written.Keys}, {"faulting set", s.faulting.Keys}}
	if s.ztier != nil {
		sets = append(sets, set{"compressed tier", s.ztier.Pages})
	}
	for _, set := range sets {
		for pg := range set.pages {
			if pg < span && s.m.shardFor(pg) != s {
				return fmt.Errorf("leap: page %d found in shard %d's %s (owner is shard %d of %d)",
					pg, s.idx, set.where, uint64(pg)&s.m.mask, len(s.m.shards))
			}
		}
	}
	if s.ztier != nil {
		for pg := range s.ztier.Pages {
			if pg < span && (s.res.Contains(pg) || s.eng.Cache().Contains(pg) || s.frames.Contains(pg)) {
				return fmt.Errorf("leap: page %d is sealed in shard %d's compressed tier while also live in its fault path",
					pg, s.idx)
			}
		}
	}
	return nil
}
