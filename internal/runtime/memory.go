// Package runtime implements the leap.Memory runtime — the byte-addressable
// paged memory that fuses the predictor, prefetchers, page cache and the
// real remote-memory substrate behind one fault path (internal/paging). The
// root package leap re-exports it; use leap.Open.
package runtime

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"leap/internal/control"
	"leap/internal/core"
	"leap/internal/datapath"
	"leap/internal/metrics"
	"leap/internal/pagecache"
	"leap/internal/pagemap"
	"leap/internal/paging"
	"leap/internal/prefetch"
	"leap/internal/remote"
	"leap/internal/sim"
	"leap/internal/ztier"
)

// Memory is the byte-addressable remote-memory runtime: the paper's full
// stack fused into one object. Local memory is a bounded set of page
// frames (the cgroup budget); everything beyond it lives on the remote
// substrate (RemoteHost: rendezvous-placed, replicated slabs reached over
// in-process or TCP transports). An access to a non-local page takes the
// same fault path as the simulator — the internal/paging engine shared with
// Simulate — so the majority-trend predictor watches the fault stream,
// prefetch windows go out to the real host through the async ticket engine
// (doorbell-batched wire frames), and the adaptive page cache decides
// eviction, while real page images move underneath.
//
// Time is virtual: every fault charges the modeled data-path + fabric
// latency to the runtime's clock, so hit ratios, latency percentiles and
// prefetch accuracy are reproducible bit-for-bit from the options — while
// the bytes, placement, replication and failover are real.
//
// Memory is safe for concurrent use: ReadAt, WriteAt, Get, Flush and Stats
// may be called from arbitrary goroutines. The fault path is sharded by
// PageID stripe (WithShards): each stripe owns its engine, predictor state,
// page cache, residency budget and frame table behind its own mutex, so a
// page-cache hit takes exactly one shard lock and hits on different stripes
// scale across cores. Cross-shard concerns — the virtual clock, the error
// latch and the control-plane tick cadence — are atomics on the Memory
// coordinator; the documented lock order is shard.mu → plane.mu → host.mu,
// with at most one shard lock held at a time. Within a shard, a full miss
// drops the lock for the remote fetch: concurrent faults on the same page
// wait for that one fetch (single-flight) while faults on other pages
// proceed in parallel. The fetch is split-phase: the demand read
// is started, the prefetch window goes on the wire behind it, and only then
// is the demand page waited for; a prefetched page's bytes are waited for by
// the first access that needs them. The default WithShards(1) runs one
// stripe — bit-identical to the pre-sharding serialized runtime.
//
// The paper's multi-process deployment (§4.1) maps onto Client handles:
// each logical client id gets its own predictor over its own fault stream
// (per stripe), while all clients share the page caches, the residency
// budget and the remote host. One caveat: the slice returned by Memory.Get
// aliases the live frame table and is safe only for single-goroutine use
// (Client.Get copies instead).
type Memory struct {
	// shards are the PageID stripes of the fault path; page pg belongs to
	// shards[uint64(pg)&mask]. len(shards) is a power of two.
	shards []*shard
	mask   uint64

	host *remote.Host
	// ownHost marks a self-built in-process host (closed by Close; a host
	// supplied via WithRemoteHost is the caller's to close).
	ownHost bool
	clock   *sim.Clock
	qdepth  int

	// err latches the first unrecoverable store failure (a writeback no
	// replica accepted); every subsequent operation reports it. An atomic
	// CAS keeps the latch first-wins across shards without a coordinator
	// lock.
	err atomic.Pointer[error]

	// plane is the attached control plane (nil without WithControlPlane).
	// planeEvery is the virtual-time tick cadence and planeNext the next due
	// tick (atomic: the cadence check runs lock-free on every operation, and
	// a CAS elects exactly one goroutine to run each due tick — lock order
	// is shard.mu → plane.mu → host.mu, and the tick path runs with no
	// shard lock held, entering at plane.mu, so plane actions may mutate the
	// host freely).
	plane      *control.Plane
	planeEvery sim.Duration
	planeNext  atomic.Int64
	// planeTicks / planeActs count ticks run and successful actions by kind.
	// Atomics: Stats must not order shard locks against the plane's locks.
	planeTicks atomic.Int64
	planeActs  [8]atomic.Int64
	// slabPages sizes agents the plane provisions on the private cluster.
	slabPages int

	// lastLatency/lastSerial snapshot the most recent fault's total and
	// CPU-serial latency for the closed-loop concurrency model (LastFault);
	// meaningful only when one goroutine drives the Memory.
	lastLatency atomic.Int64
	lastSerial  atomic.Int64
}

// frame is one 4KB local page frame. Frames are pooled per shard; data
// stays at PageSize.
//
// The fill invariant: fill is the ticket of the prefetch read still filling
// data, nil once the bytes are in (or the page needed none). A frame is
// handed to an accessor, mapped resident or given to the compressed tier
// only with fill nil — the fault path reaps the fill first — and is recycled
// only through freeFrame, which detaches data from an unfinished fill so a
// late response is dropped instead of landing in the frame's next page. The
// frame holds fill (remote.Ticket) until it drops it: a hit that finds the
// read landed (reapFill), fetchPrefetches when it landed at once, or
// freeFrame releases it, and the host recycles the read.
//
// The hull: [lo,hi) covers every byte of data that differs from the page's
// remote image (the one the host gave, or took at the last writeback), and an
// eviction writes back no more than that. A frame whose page has no remote
// image yet, or came back dirty from the compressed tier, which keeps no hull,
// carries the whole page; lo == hi is a frame nothing was stored to.
type frame struct {
	data   []byte
	dirty  bool
	lo, hi uint16
	fill   *remote.Ticket
	next   *frame // free list
}

// whole widens f's hull to the page: its image stands on no remote one.
func (f *frame) whole() { f.lo, f.hi = 0, remote.PageSize }

// clean empties f's hull: its image is the page's remote one.
func (f *frame) clean() { f.dirty, f.lo, f.hi = false, 0, 0 }

// memOptions collects Open's functional options.
type memOptions struct {
	pfFactory  func() prefetch.Prefetcher
	host       *remote.Host
	capacity   int
	queueDepth int
	shards     int
	seed       uint64
	agents     int
	slabPages  int
	planeCfg   *control.Config
	planeEvery sim.Duration
	ztierBytes int64
}

// Option configures Open.
type Option func(*memOptions)

// WithPrefetcherFactory selects the prefetching policy consulted on every
// fault (default: the Leap majority-trend predictor; build baselines with
// NewPrefetcher("readahead"), NewPrefetcher("none"), etc.): every PageID
// stripe calls f once and owns the returned instance under its own lock, so
// any policy runs sharded. The factory must return independent instances
// (stripe state is never shared); at WithShards(1) it is called exactly once,
// so a closure over one instance the caller keeps for its statistics is fine
// there. The online selector is one more such policy
// (NewPrefetcher("ensemble")); read its accounting off the instances f built.
func WithPrefetcherFactory(f func() prefetch.Prefetcher) Option {
	return func(o *memOptions) { o.pfFactory = f }
}

// WithRemoteHost runs the Memory over an existing host — typically one
// dialed to TCP agents (cmd/leapagent). The caller keeps ownership: Close
// flushes but does not close it. Without this option Open builds a private
// three-agent in-process cluster with two-way replication. Batched frames
// travel compressed when the host's config sets Compress.
func WithRemoteHost(h *remote.Host) Option { return func(o *memOptions) { o.host = h } }

// WithCacheCapacity sets the local memory budget in pages — the cgroup
// limit resident frames plus the prefetch cache are charged against
// (default 1024 pages = 4MB). With WithShards the budget is striped
// statically: each shard gets capacity/shards pages (the remainder goes to
// the low shards), so the global budget is exact while every shard admits
// and evicts under only its own lock. The resident frames never outgrow
// it (paging.Engine.MapIn; CheckShardInvariants holds each stripe to its
// share).
func WithCacheCapacity(pages int) Option { return func(o *memOptions) { o.capacity = pages } }

// WithQueueDepth bounds the async ticket engine's doorbell batches: up to
// this many page operations ride one wire frame per agent, and eviction
// writebacks accumulate behind a dirty backlog of the same bound (default
// 8; 1 degenerates to one synchronous round trip per page).
func WithQueueDepth(depth int) Option { return func(o *memOptions) { o.queueDepth = depth } }

// WithShards splits the fault path into n PageID stripes, each with its own
// lock, engine, predictor, page cache and residency budget, so operations
// on different stripes proceed in parallel and page-cache hits take exactly
// one shard lock (default 1; values are rounded up to the next power of
// two). Page pg lands on stripe pg mod n — round-robin striping, so a hot
// contiguous range spreads across all stripes. Each stripe's Leap predictor
// sees only its own fault stream; a sequential sweep's in-stripe deltas are
// uniform, so trend detection survives striping, and cross-stripe prefetch
// candidates are filtered out rather than issued blind. WithShards(1) is
// bit-identical to the pre-sharding serialized runtime. WithCacheCapacity
// must provide at least one page per shard.
func WithShards(n int) Option { return func(o *memOptions) { o.shards = n } }

// DefaultDecompressLatency is the virtual-time charge of unsealing one page
// from the compressed victim tier (WithCompressedTier): roughly an LZ4-class
// 4KB decompression — microseconds, well under the modeled fabric round
// trip, which is the whole point of the tier.
const DefaultDecompressLatency = 1500 * sim.Nanosecond

// WithCompressedTier interposes a zswap-style compressed victim tier of the
// given byte budget between the residency LRU and the remote host (default
// 0: no tier). Evicted pages with a useful image are sealed — compressed
// with a deterministic LZ-style codec, incompressible pages capped at ~4KB
// plus a header — into per-stripe pools charged against the budget; a fault
// on a sealed page decompresses locally, charging DefaultDecompressLatency
// on the virtual clock instead of a fabric round trip. Pools overflow
// oldest-first: dirty victims write back through the async ticket engine.
// With WithShards the budget is striped like WithCacheCapacity — each
// stripe's pool lives under its own shard lock, so no new cross-shard locks
// appear. Zero keeps the fault path bit-identical to the tierless runtime.
func WithCompressedTier(bytes int64) Option { return func(o *memOptions) { o.ztierBytes = bytes } }

// WithSeed seeds the latency models (fabric jitter, data-path stage draws).
// Equal seeds and equal access sequences replay bit-identically.
func WithSeed(seed uint64) Option { return func(o *memOptions) { o.seed = seed } }

// shardSeed derives the latency-model seed for stripe idx. Stripe 0 keeps
// the user seed exactly — WithShards(1) must replay the unsharded runtime
// bit-for-bit — and higher stripes decorrelate through a splitmix64 step.
func shardSeed(seed uint64, idx int) uint64 {
	if idx == 0 {
		return seed
	}
	z := seed + uint64(idx)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ z>>31
}

// Open builds a Memory runtime. With no options it is the full Leap stack
// of the paper over a private in-process remote-memory cluster: lean data
// path, eager cache eviction, majority-trend prefetching, async
// doorbell-batched remote I/O.
func Open(opts ...Option) (*Memory, error) {
	o := memOptions{
		capacity:   1024,
		queueDepth: remote.DefaultQueueDepth,
		seed:       42,
		agents:     3,
		slabPages:  1024,
	}
	for _, opt := range opts {
		opt(&o)
	}
	if o.capacity <= 0 {
		return nil, fmt.Errorf("leap: cache capacity %d, need > 0", o.capacity)
	}
	if o.queueDepth <= 0 {
		o.queueDepth = 1
	}
	nshards := 1
	for nshards < o.shards {
		nshards <<= 1
	}
	if o.capacity < nshards {
		return nil, fmt.Errorf("leap: cache capacity %d pages < %d shards, need at least one page per shard", o.capacity, nshards)
	}
	if o.ztierBytes < 0 {
		return nil, fmt.Errorf("leap: compressed tier budget %d bytes, need >= 0", o.ztierBytes)
	}
	m := &Memory{
		clock:     &sim.Clock{},
		qdepth:    o.queueDepth,
		slabPages: o.slabPages,
		mask:      uint64(nshards - 1),
	}
	m.host = o.host
	if m.host == nil {
		transports := make([]remote.Transport, o.agents)
		for i := range transports {
			tr := remote.Transport(remote.NewInProc(remote.NewAgent(o.slabPages, 0)))
			if o.planeCfg != nil {
				// With a plane attached the private cluster's transports get
				// fault-injection wrappers: pass-through while healthy (bit-
				// identical to the bare transport), observable by the plane,
				// and reachable via Host.Transports for chaos tests.
				tr = remote.NewFaultTransport(i, tr, nil)
			}
			transports[i] = tr
		}
		h, err := remote.NewHost(remote.HostConfig{
			SlabPages:  o.slabPages,
			Replicas:   2,
			QueueDepth: o.queueDepth,
			Seed:       o.seed,
		}, transports)
		if err != nil {
			return nil, err
		}
		m.host = h
		m.ownHost = true
	}
	// Resolve one prefetcher per stripe up front, so a factory's
	// misconfiguration surfaces as an Open error rather than mid-fault.
	pfs := make([]prefetch.Prefetcher, nshards)
	for i := range pfs {
		if o.pfFactory == nil {
			pfs[i] = prefetch.NewLeap(core.Config{})
		} else if pfs[i] = o.pfFactory(); pfs[i] == nil {
			return nil, fmt.Errorf("leap: WithPrefetcherFactory returned nil for stripe %d", i)
		}
	}
	m.shards = make([]*shard, nshards)
	for i := range m.shards {
		m.shards[i] = m.newShard(i, nshards, &o, pfs[i])
	}
	if o.planeCfg != nil {
		m.attachPlane(*o.planeCfg, o.planeEvery)
	}
	return m, nil
}

// newShard builds stripe idx of nshards: its own engine (latency models
// seeded per stripe, stripe 0 keeping the user seed), the stripe's
// prefetcher pf (resolved by Open — default Leap, or one factory-built
// instance per stripe), cache, residency budget and frame
// pool. The global capacity is striped statically — capacity/nshards pages
// each, remainder to the low stripes.
func (m *Memory) newShard(idx, nshards int, o *memOptions, pf prefetch.Prefetcher) *shard {
	capacity := o.capacity / nshards
	if idx < o.capacity%nshards {
		capacity++
	}
	s := &shard{
		m:        m,
		idx:      idx,
		frames:   pagemap.New[*frame](capacity),
		written:  pagemap.New[struct{}](0),
		faulting: pagemap.New[struct{}](0),
	}
	s.faulted.L = &s.mu
	// The full Leap stack of §4: lean data path, eager cache eviction, and
	// (unless overridden) majority-trend prefetching — the same
	// configuration Simulate's SystemDVMMLeap preset builds, so a Memory
	// run and a simulator run over one trace make identical decisions.
	s.eng = paging.New[*shard](paging.Config{
		Path:        datapath.Config{Kind: datapath.Lean},
		CachePolicy: pagecache.EvictEager,
		Prefetcher:  pf,
		QueueDepth:  o.queueDepth,
		Seed:        shardSeed(o.seed, idx),
	})
	if nshards > 1 {
		// Prefetch candidates outside this stripe belong to a sibling's
		// engine: filter them instead of issuing blind (a foreign-page frame
		// here would break the single-owner invariant). The predictor's
		// in-stripe trends produce in-stripe candidates, so for Leap this
		// only trims the cold-start neighbor fallback; baseline readahead
		// loses the cross-stripe tail by design. Nil at one shard: the
		// unfiltered, bit-identical engine.
		own := uint64(idx)
		s.eng.Owns = func(pg core.PageID) bool { return uint64(pg)&m.mask == own }
	}
	s.res = paging.NewResident(capacity)
	s.res.Limit = int64(capacity)
	s.eng.OnInsert = func(ss *shard) { ss.res.Charged++ }
	s.eng.OnIssue = (*shard).fetchPrefetches
	s.eng.OnEvict = (*shard).evictResident
	s.eng.Cache().OnEvict = s.cacheEvicted
	if o.ztierBytes > 0 {
		// The compressed tier's byte budget is striped exactly like the
		// frame budget: bytes/nshards each, remainder to the low stripes.
		// Each pool lives under its stripe's lock — no cross-shard locks.
		zb := o.ztierBytes / int64(nshards)
		if int64(idx) < o.ztierBytes%int64(nshards) {
			zb++
		}
		s.ztier = ztier.NewPool(zb, remote.PageSize)
		s.ztier.OnEvict = s.ztierEvicted
		s.eng.EnableZtier(s.ztier.Contains, DefaultDecompressLatency)
	}
	return s
}

// Now reports the runtime's virtual time.
func (m *Memory) Now() sim.Time { return m.clock.Now() }

// LastFault reports the virtual-time latency of the most recent fault —
// total, and the CPU-serial share that cannot overlap other goroutines'
// faults (data-path traversal, cache work; the rest is waitable wire time).
// A resident hit reports (0, 0). Meaningful only while a single goroutine
// drives the Memory: the closed-loop concurrency model (internal/load)
// reads it per operation.
func (m *Memory) LastFault() (total, serial sim.Duration) {
	return sim.Duration(m.lastLatency.Load()), sim.Duration(m.lastSerial.Load())
}

// SetRecording toggles metric collection — populate/warmup phases run with
// recording off, exactly like the simulator's warmup. Turning recording on
// snapshots cache counters so Stats covers only the measured phase. Bytes
// always move; only accounting pauses. Shards toggle one by one: call only
// while no operations are in flight.
func (m *Memory) SetRecording(on bool) {
	for _, s := range m.shards {
		s.mu.Lock()
		if on && !s.eng.Recording() {
			s.cacheStats0 = s.eng.Cache().Stats()
		}
		s.eng.SetRecording(on)
		s.mu.Unlock()
	}
}

// Host exposes the remote substrate (stats, repair, rebalance hooks). The
// Host is itself safe for concurrent use.
func (m *Memory) Host() *remote.Host { return m.host }

// Prefetcher exposes the configured prefetcher (e.g. to read per-client
// predictor statistics off a *prefetch.Leap). With WithShards beyond 1
// every stripe owns a separate predictor and this returns stripe 0's; use
// Client.PredictorStats for the cross-stripe aggregate. Prefetcher state is
// guarded by its stripe's fault-path lock: inspect it only while no
// operations are in flight.
func (m *Memory) Prefetcher() prefetch.Prefetcher { return m.shards[0].eng.Prefetcher() }

// zeroFrame clears a recycled frame's bytes: the image of a page that has no
// remote one.
func zeroFrame(f *frame) {
	clear(f.data)
	f.whole()
}

// loadErr reports the latched unrecoverable failure, or nil.
func (m *Memory) loadErr() error {
	if p := m.err.Load(); p != nil {
		return *p
	}
	return nil
}

// latchErr records err as the Memory's permanent failure; the first latch
// wins (CAS — shards race here without a coordinator lock).
func (m *Memory) latchErr(err error) {
	m.err.CompareAndSwap(nil, &err)
}

// latchWriteback records err as the Memory's permanent store failure —
// unless it is a read-op failure surfaced through Flush. Flush drains read
// and write tickets alike, and a failed prefetch read is handled per-ticket
// (the prefetch is abandoned, a later demand access refetches): only a
// writeback no replica accepted means acked application data is gone.
func (m *Memory) latchWriteback(err error) {
	if err == nil || m.err.Load() != nil || isReadFailure(err) {
		return
	}
	m.latchErr(fmt.Errorf("leap: writeback failed: %w", err))
}

// isReadFailure reports whether err is a ticket-engine read failure.
func isReadFailure(err error) bool {
	var oe *remote.OpError
	return errors.As(err, &oe) && oe.Op == remote.OpRead
}

// Get faults page pg in (prefetching around it) and returns its 4KB frame.
// The returned slice is a read-only view into the owning shard's frame
// table, valid until the next Memory operation — which makes it safe only
// when one goroutine drives the Memory. Concurrent callers should use
// Client.Get (which copies) or ReadAt; use WriteAt to mutate pages.
func (m *Memory) Get(pg core.PageID) ([]byte, error) {
	s := m.shardFor(pg)
	s.mu.Lock()
	f, err := s.page(0, pg)
	var data []byte
	if err == nil {
		data = f.data
	}
	s.mu.Unlock()
	if m.plane != nil {
		if now, due := m.planeDue(); due {
			m.tickPlane(now)
		}
	}
	if err != nil {
		return nil, err
	}
	return data, nil
}

// getInto faults pg in on behalf of pid and copies its frame into dst while
// the shard lock is held — the concurrency-safe form of Get.
func (m *Memory) getInto(pid prefetch.PID, pg core.PageID, dst []byte) error {
	s := m.shardFor(pg)
	s.mu.Lock()
	f, err := s.page(pid, pg)
	if err == nil {
		copy(dst, f.data)
	}
	s.mu.Unlock()
	if m.plane != nil {
		if now, due := m.planeDue(); due {
			m.tickPlane(now)
		}
	}
	return err
}

// ReadAt implements io.ReaderAt over the paged address space: it fills p
// from offset off, faulting (and prefetching) page by page. Never-written
// memory reads as zeros; there is no EOF. Safe for concurrent use; each
// page is read atomically, a multi-page span is not.
func (m *Memory) ReadAt(p []byte, off int64) (int, error) { return m.readAt(0, p, off) }

// readAt is ReadAt on behalf of client pid. Bytes are copied out while the
// owning shard's lock is held, page by page.
func (m *Memory) readAt(pid prefetch.PID, p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("leap: negative offset %d", off)
	}
	n := 0
	for n < len(p) {
		pg := core.PageID(off / remote.PageSize)
		s := m.shardFor(pg)
		s.mu.Lock()
		f, err := s.page(pid, pg)
		if err != nil {
			s.mu.Unlock()
			return n, err
		}
		c := copy(p[n:], f.data[off%remote.PageSize:])
		s.mu.Unlock()
		if m.plane != nil {
			if now, due := m.planeDue(); due {
				m.tickPlane(now)
			}
		}
		n += c
		off += int64(c)
	}
	return n, nil
}

// WriteAt implements io.WriterAt: it copies p into the paged address space
// at offset off. Partially covered pages fault in first (read-modify-write);
// dirty frames are written back to the remote host on eviction through the
// async ticket engine. Safe for concurrent use; each page is written
// atomically, a multi-page span is not.
func (m *Memory) WriteAt(p []byte, off int64) (int, error) { return m.writeAt(0, p, off) }

// writeAt is WriteAt on behalf of client pid.
func (m *Memory) writeAt(pid prefetch.PID, p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("leap: negative offset %d", off)
	}
	n := 0
	for n < len(p) {
		pg := core.PageID(off / remote.PageSize)
		s := m.shardFor(pg)
		s.mu.Lock()
		f, err := s.page(pid, pg)
		if err != nil {
			s.mu.Unlock()
			return n, err
		}
		at := int(off % remote.PageSize)
		c := copy(f.data[at:], p[n:])
		if f.lo == f.hi {
			f.lo, f.hi = uint16(at), uint16(at+c)
		} else {
			f.lo, f.hi = min(f.lo, uint16(at)), max(f.hi, uint16(at+c))
		}
		f.dirty = true
		s.mu.Unlock()
		if m.plane != nil {
			if now, due := m.planeDue(); due {
				m.tickPlane(now)
			}
		}
		n += c
		off += int64(c)
	}
	return n, nil
}

// Flush drains every queued asynchronous remote operation (each shard's
// writeback backlog, then the host's ticket queues) and reports the first
// store failure, if any. Resident dirty frames stay local — they are
// memory, not a write-through cache — and reach the host on eviction.
func (m *Memory) Flush() error {
	err := m.flushAll()
	if m.plane != nil {
		if now, due := m.planeDue(); due {
			m.tickPlane(now)
		}
	}
	return err
}

// flushAll drains per-shard writeback backlogs (one shard lock at a time)
// and then the shared host, latching any store failure.
func (m *Memory) flushAll() error {
	for _, s := range m.shards {
		s.mu.Lock()
		s.eng.FlushWriteback(0, m.clock.Now())
		s.mu.Unlock()
	}
	if err := m.host.Flush(); err != nil && m.err.Load() == nil && !isReadFailure(err) {
		m.latchErr(fmt.Errorf("leap: flush failed: %w", err))
	}
	return m.loadErr()
}

// Close flushes queued remote operations and, when the runtime owns its
// in-process cluster, closes the host. A host supplied via WithRemoteHost
// is left open for its owner.
func (m *Memory) Close() error {
	err := m.flushAll()
	if m.ownHost {
		if cerr := m.host.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// Stats aggregates the runtime's fault-path accounting. Counts are
// cumulative since Open.
type Stats struct {
	// Accesses is every page touch; ResidentHits paid no fault.
	Accesses, ResidentHits int64
	// Faults is every non-resident access; CacheHits landed on a completed
	// prefetch, InflightHits on one still in flight, Misses went to the
	// host (or materialized a zero page).
	Faults, CacheHits, InflightHits, Misses int64
	// DemandWaits counts faults that waited on another goroutine's
	// in-flight demand fetch of the same page instead of re-issuing it —
	// the single-flight dedup at work. Always 0 single-threaded.
	DemandWaits int64
	// PrefetchIssued counts pages the prefetcher requested; Swapouts counts
	// resident evictions.
	PrefetchIssued, Swapouts int64
	// PrefetchAheadPages counts those of PrefetchIssued that were issued from
	// a prefetch hit, ahead of the stream, rather than from a miss. Always 0
	// over transports that finish what they start.
	PrefetchAheadPages int64
	// PrefetchLate counts prefetch hits that had to wait for their page to
	// arrive, and PrefetchLateWait is the wall time they waited: the prefetch
	// was accurate and still not timely (§3.1). The host's depth estimator
	// runs on the same measurement. Both 0 over transports that finish what
	// they start.
	PrefetchLate     int64
	PrefetchLateWait time.Duration
	// Evictions counts residency evictions that reached the byte-moving
	// eviction hook; WritebackPages counts page images actually pushed to
	// the host by eviction or compressed-tier overflow. Both are
	// recording-gated like every counter here.
	Evictions, WritebackPages int64
	// HitRatio is the fraction of accesses that did not pay a full miss.
	HitRatio float64
	// Accuracy is prefetch hits / prefetch issued; Coverage is prefetch
	// hits / faults (§3.1 definitions).
	Accuracy, Coverage float64
	// Latency summarizes the virtual-time fault latency distribution,
	// merged across shards.
	Latency metrics.Summary
	// Host is the remote substrate's accounting (wire frames, failovers,
	// repairs).
	Host remote.HostStats
	// Control is the attached control plane's view of the cluster and the
	// actions it has taken (zero-valued without WithControlPlane).
	Control ControlStats
	// Ztier is the compressed victim tier's accounting (zero-valued
	// without WithCompressedTier).
	Ztier ZtierStats
}

// ZtierStats is the compressed victim tier's accounting, summed across
// stripes. The zero value (Enabled false) means no tier is attached; every
// field is a plain comparable scalar, so Stats stays comparable with == —
// the discipline the replay-determinism tests rely on (see ControlStats).
type ZtierStats struct {
	// Enabled reports whether WithCompressedTier attached a tier.
	Enabled bool
	// BudgetBytes is the configured byte budget; UsedBytes and Pages are
	// the current occupancy (compressed bytes plus per-entry overhead).
	BudgetBytes, UsedBytes int64
	Pages                  int
	// Hits counts faults served by local decompression instead of a remote
	// read (recording-gated). Seals counts pages compressed in and Takes
	// exclusive removals on a hit — cumulative since Open, warmup included.
	Hits, Seals, Takes int64
	// OverflowEvictions counts sealed pages pushed out by the byte budget;
	// OverflowWritebacks of those were dirty and went to the host.
	OverflowEvictions, OverflowWritebacks int64
	// RawBytes and CompressedBytes are cumulative sealed input and output
	// sizes; Ratio is their quotient — the realized compression ratio (0
	// with nothing sealed yet).
	RawBytes, CompressedBytes int64
	Ratio                     float64
}

// Stats reports the runtime's cumulative accounting, summed across shards.
// Safe to call concurrently with operations; each shard's contribution is
// internally consistent (shards are visited one lock at a time, so under
// concurrent load the cross-shard snapshot is per-stripe, not global — with
// WithShards(1), or while no operations are in flight, it is exact).
func (m *Memory) Stats() Stats {
	var s Stats
	var lat metrics.Histogram
	var prefetchHits int64
	for _, sh := range m.shards {
		sh.mu.Lock()
		c := &sh.eng.Counters
		cs := sh.eng.Cache().Stats()
		s.Accesses += c.Accesses
		s.ResidentHits += c.ResidentHits
		s.Faults += c.Faults
		s.CacheHits += c.CacheHits
		s.InflightHits += c.InflightHits
		s.Misses += c.CacheMisses
		s.DemandWaits += c.DemandWaits
		s.PrefetchIssued += c.PrefetchIssued
		s.Swapouts += c.Swapouts
		s.Evictions += sh.nEvictions
		s.WritebackPages += sh.nWritebacks
		s.PrefetchAheadPages += sh.nAhead
		s.PrefetchLate += sh.nLate
		s.PrefetchLateWait += sh.lateWait
		s.Ztier.Hits += c.ZtierHits
		if sh.ztier != nil {
			zs := sh.ztier.Stats()
			s.Ztier.Enabled = true
			s.Ztier.BudgetBytes += sh.ztier.Budget()
			s.Ztier.UsedBytes += zs.UsedBytes
			s.Ztier.Pages += zs.Pages
			s.Ztier.Seals += zs.Seals
			s.Ztier.Takes += zs.Takes
			s.Ztier.OverflowEvictions += zs.OverflowEvictions
			s.Ztier.OverflowWritebacks += zs.OverflowDirty
			s.Ztier.RawBytes += zs.RawBytes
			s.Ztier.CompressedBytes += zs.CompressedBytes
		}
		lat.Merge(&sh.eng.FaultLatency)
		prefetchHits += cs.PrefetchHits - sh.cacheStats0.PrefetchHits
		sh.mu.Unlock()
	}
	s.Latency = lat.Summarize()
	// The host and plane keep their own locks; reading them with no shard
	// lock held keeps the lock order acyclic.
	s.Host = m.host.Stats()
	s.Control = m.controlStats()
	if s.Accesses > 0 {
		s.HitRatio = 1 - float64(s.Misses)/float64(s.Accesses)
	}
	prefetchHits += s.InflightHits
	if s.PrefetchIssued > 0 {
		s.Accuracy = float64(prefetchHits) / float64(s.PrefetchIssued)
	}
	if s.Faults > 0 {
		s.Coverage = float64(prefetchHits) / float64(s.Faults)
	}
	if s.Ztier.CompressedBytes > 0 {
		s.Ztier.Ratio = float64(s.Ztier.RawBytes) / float64(s.Ztier.CompressedBytes)
	}
	return s
}
