package remote

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"leap/internal/core"
	"leap/internal/pagemap"
	"leap/internal/ztier"
)

// HostConfig parameterizes a Host.
type HostConfig struct {
	// SlabPages is the slab granularity in pages (default DefaultSlabPages).
	SlabPages int
	// Replicas is the number of copies per slab (default 2, the paper's
	// remote in-memory replication).
	Replicas int
	// QueueDepth caps how many queued page operations the async engine
	// packs into one doorbell-style batched frame per agent (default
	// DefaultQueueDepth). Depth 1 degenerates to one wire frame per page,
	// like ReadPage and WritePage.
	QueueDepth int
	// Seed salts the rendezvous placement hash, so distinct hosts sharing
	// agents spread slabs independently.
	Seed uint64
	// Compress ships the async engine's batched doorbell frames with page
	// images run through the deterministic ztier block codec: write batches
	// go out compressed, and read batches ask the agent for compressed
	// responses. Single-op frames stay raw. The savings show up in the
	// WireRawBytes/WireCompressedBytes stats, not in the latency model —
	// fabric cost models charge per page, and the codec is deterministic, so
	// enabling compression never perturbs simulated timings.
	Compress bool
}

// DefaultQueueDepth is the default per-agent batch limit of the async
// engine.
const DefaultQueueDepth = 8

func (c HostConfig) withDefaults() HostConfig {
	if c.SlabPages <= 0 {
		c.SlabPages = DefaultSlabPages
	}
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.QueueDepth > MaxBatchOps {
		c.QueueDepth = MaxBatchOps
	}
	return c
}

// HostStats counts host-side remote-memory activity.
type HostStats struct {
	// Reads and Writes count page operations (one per page, whether issued
	// synchronously or through the async engine).
	Reads, Writes int64
	// Failovers counts reads served by a replica after the primary failed.
	Failovers int64
	// SlabsMapped counts slab placements performed.
	SlabsMapped int64
	// Repairs counts slabs re-replicated after agent failures.
	Repairs int64
	// SlabsMoved counts slabs migrated by Rebalance.
	SlabsMoved int64
	// AsyncReads / AsyncWrites count operations issued through the ticket
	// API; CoalescedReads counts async reads that piggybacked on an
	// already-queued read of the same page, and DirtyReads counts reads
	// served from a not-yet-flushed write's buffer (read-your-writes).
	AsyncReads, AsyncWrites, CoalescedReads, DirtyReads int64
	// BatchCalls counts wire frames carrying more than one page;
	// BatchedPages is the total pages those frames carried.
	BatchCalls, BatchedPages int64
	// Retries counts reads requeued on another holder after a failed attempt.
	Retries int64
	// HotCopies counts hot-page replica installs (ReplicateHot); HotReads
	// counts reads served by a hot holder outside the slab placement.
	HotCopies, HotReads int64
	// CompressedFrames counts batched frames that traveled compressed
	// (HostConfig.Compress); WireRawBytes is what those frames' payloads
	// would have cost raw, WireCompressedBytes what they actually cost.
	CompressedFrames, WireRawBytes, WireCompressedBytes int64
	// RangeWrites counts per-replica write operations that traveled as the
	// dirty range of their page instead of its image (WritePageRangeAsync);
	// WriteWireBytes is the payload bytes of every write frame the engine
	// built, whatever its encoding — over the bytes the application stored,
	// the write amplification.
	RangeWrites, WriteWireBytes int64
}

// Host is the machine-local agent of §4.4: it maps the swap address space
// onto remote slabs, placing each slab on its rendezvous-hashed agents and
// replicating it for fault tolerance. Every page moves through the ticket
// engine (queue.go, its per-link part in link.go): queued and batched into
// doorbell-style frames (ReadPageAsync/WritePageAsync/Flush), or as a single-op
// frame launched at once (ReadPage/StartRead/WritePage, one round trip per page
// and replica).
// Safe for concurrent use.
type Host struct {
	cfg HostConfig

	mu sync.Mutex
	// links holds each agent's record, by agent index (link.go).
	links      []*link
	placements map[SlabID][]int // slab → agent indices, primary first
	// records holds the host's state of each page it has read or written.
	records *pagemap.Map[*record]
	// degraded tracks pages whose most recent write was acknowledged by
	// fewer than Replicas agents; RepairSlabs re-pushes them.
	degraded map[core.PageID]bool
	// hot maps a page to extra read replicas beyond its slab placement —
	// the control plane's top-K fault-frequency pages (ReplicateHot).
	hot map[core.PageID][]int
	// wholeNext marks pages whose next write must go out whole, whatever range
	// its caller names (distrust): nil until a write fails everywhere or a read
	// is served by a holder outside the ack set.
	wholeNext map[core.PageID]struct{}

	// queued counts the pending writes not yet started on any replica, the
	// backlog a doorbell clears (the queues themselves are the links').
	queued int
	// trains is set once some link moves trains (its transport is a TrainStarter).
	trains bool
	// The free lists: page buffers and encoded images (pendingWrite.enc) of
	// writes that have landed everywhere, handed-off pendingWrites of such
	// writes, done reads no hold is left on (recycleRead), landed flights.
	bufFree    [][]byte
	encFree    [][]byte
	writeFree  []*pendingWrite
	readFree   []*pendingRead
	flightFree []*flight
	// landed (on mu) wakes goroutines waiting for another's landing of a
	// flight; the flights themselves are on their links' FIFOs (link.flights).
	landed *sync.Cond
	// The depth estimator's books (depth.go), beside those it keeps per link:
	// the pages readers may keep in flight ahead of themselves; the pages of read
	// frames in the air, the most of them since depth last moved, and those
	// landed so far; the pages landed without a wait since depth last moved,
	// and the pages in flight when a reader last found the pipeline short;
	// and the time some reaper has spent waiting for a read frame. clock is
	// time.Now (a field so tests can play the link's time themselves); it is
	// read only for read frames left in flight, which a transport that
	// finishes what it starts never has.
	depth       int
	flying      int
	peak        int
	landedPages int64
	unblocked   int
	short       int
	waiters     int
	waitSince   time.Time
	waited      time.Duration
	clock       func() time.Time
	// unreported is a write failure landed by a caller that could only report
	// its own operation (Ticket.Wait, a reader landing an older write frame in
	// passing); the next Flush or Submit returns it.
	unreported error

	// comp is the wire codec state for HostConfig.Compress (used under mu).
	comp ztier.Compressor
	// Batch-frame scratch, consumed under h.mu. wire holds the encoded request:
	// h.mu is held from frame to start, and a transport is done with a request
	// when Start or Call returns. refs, pages, ranges: encoder input. results:
	// decoded.
	wire    []byte
	refs    []BatchRef
	pages   [][]byte
	ranges  []writeRange
	results []BatchReadResult

	stats HostStats
}

// NewHost returns a host over the given agent transports. At least
// max(1, Replicas) transports are required.
func NewHost(cfg HostConfig, transports []Transport) (*Host, error) {
	cfg = cfg.withDefaults()
	if len(transports) == 0 {
		return nil, fmt.Errorf("remote: host needs at least one agent")
	}
	if cfg.Replicas > len(transports) {
		cfg.Replicas = len(transports)
	}
	h := &Host{
		cfg:        cfg,
		placements: make(map[SlabID][]int),
		records:    pagemap.New[*record](0),
		degraded:   make(map[core.PageID]bool),
		depth:      maxUnreaped / PageSize,
		clock:      time.Now,
	}
	for _, tr := range transports {
		h.addLink(tr)
	}
	h.landed = sync.NewCond(&h.mu)
	return h, nil
}

// record is the host's state of one page, found with one lookup: the page's
// newest write, whose image the host keeps until every replica has answered
// (reads of the page are served from it, and a later write supersedes it or
// queues behind it); the read a read of the page may coalesce onto; the agents
// that acknowledged its most recent write — a transiently failed replica write
// leaves that copy stale, so reads prefer acked replicas and a range goes to
// them alone (writeFrame); and gen, its completed writes. copyPage, the one path
// that copies a page between agents, snapshots gen with its source read; a bump
// by the copy's write means a write raced in and the copy is stale: it is not
// certified into the ack set, and not written at all on a holder of the page's
// writes. A record no write has completed on goes with its last read (retireRead).
type record struct {
	write *pendingWrite
	read  *pendingRead
	acks  []int
	gen   uint64
}

// rec returns page's record, nil when the host keeps none. Callers hold h.mu.
func (h *Host) rec(page core.PageID) *record {
	r, _ := h.records.Get(page)
	return r
}

// newRecord makes page's record, for a page with none. Callers hold h.mu.
func (h *Host) newRecord(page core.PageID) *record {
	r := &record{}
	h.records.Put(page, r)
	return r
}

// acked returns the agents that acknowledged the page's most recent write, nil
// when there are none or r is nil.
func (r *record) acked() []int {
	if r == nil || len(r.acks) == 0 {
		return nil
	}
	return r.acks
}

// dirty returns the page's pending write — queued, or started and not yet
// answered by every replica — nil when there is none or r is nil.
func (r *record) dirty() *pendingWrite {
	if r == nil {
		return nil
	}
	return r.write
}

// generation returns the page's completed writes, 0 when r is nil.
func (r *record) generation() uint64 {
	if r == nil {
		return 0
	}
	return r.gen
}

// Stats reports a copy of the counters.
func (h *Host) Stats() HostStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.stats
}

// SlabLoad reports slabs placed per agent (for balance inspection).
func (h *Host) SlabLoad() []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]int, len(h.links))
	for i, l := range h.links {
		out[i] = l.slabs
	}
	return out
}

// locate maps a page to its slab and intra-slab offset.
func (h *Host) locate(page core.PageID) (SlabID, uint32) {
	return SlabID(int64(page) / int64(h.cfg.SlabPages)),
		uint32(int64(page) % int64(h.cfg.SlabPages))
}

// placement returns (mapping if needed) the replica set for slab: the
// rendezvous-ranked live agents, walked in score order until Replicas of
// them accept the slab (an agent at capacity or unreachable is skipped, so
// placement degrades gracefully under pressure). Callers hold h.mu.
func (h *Host) placement(slab SlabID) ([]int, error) {
	if p, ok := h.placements[slab]; ok {
		return p, nil
	}
	replicas := make([]int, 0, h.cfg.Replicas)
	for _, idx := range h.rendezvousRank(slab, nil) {
		if len(replicas) == h.cfg.Replicas {
			break
		}
		resp, err := h.links[idx].tr.Call(&Request{Op: OpMapSlab, Slab: slab})
		if err == nil && resp.Status == StatusOK {
			replicas = append(replicas, idx)
			h.links[idx].slabs++
		}
	}
	if len(replicas) == 0 {
		return nil, fmt.Errorf("remote: no agent could map slab %d", slab)
	}
	h.placements[slab] = replicas
	h.stats.SlabsMapped++
	return replicas, nil
}

// WritePage stores one page (len(data) must be PageSize) on every replica and
// returns once each has answered. It fails only when no replica accepts the
// write. It is WritePageAsync and a wait for the ticket: with an unflushed
// write to the page queued it supersedes those bytes (or queues behind them,
// once they are on the wire) and flushes; otherwise its single-op frames skip
// the queues and go out at once, one replica after the other in placement
// order.
func (h *Host) WritePage(page core.PageID, data []byte) error {
	if len(data) != PageSize {
		return fmt.Errorf("remote: WritePage with %d bytes, want %d", len(data), PageSize)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.rec(page).dirty() != nil {
		t, _ := h.writeAsyncLocked(page, data, 0, PageSize, false)
		h.keepFor(t, h.drain(true))
		return t.err
	}
	t, pw, _ := h.newWrite(page, data, 0, PageSize, false)
	if pw != nil {
		for _, idx := range pw.replicas {
			_, err := h.reap(h.launch(idx, queueEntry{write: pw}))
			h.keepFor(t, err) // an older write frame's, landed in passing
		}
	}
	return t.err
}

// AckedReplicas reports (a copy of) the agent indices that acknowledged
// page's most recent write — the replicas known to hold its latest bytes.
// Repair extends the set as it re-propagates fresh copies.
func (h *Host) AckedReplicas(page core.PageID) []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return slices.Clone(h.rec(page).acked())
}

// DegradedPages reports how many pages are currently under-acknowledged:
// their latest write reached fewer than Replicas agents and has not been
// re-pushed by RepairSlabs yet.
func (h *Host) DegradedPages() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.degraded)
}

// UnderReplicated reports how many placed slabs currently have fewer than
// Replicas live (not-failed) replicas — the repair backlog of §4.5.
func (h *Host) UnderReplicated() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, replicas := range h.placements {
		alive := 0
		for _, idx := range replicas {
			if !h.links[idx].failed {
				alive++
			}
		}
		if alive < h.cfg.Replicas {
			n++
		}
	}
	return n
}

// ReadPage fetches one page into buf (len PageSize), trying the preferred
// holder first and failing over to the others, each once.
func (h *Host) ReadPage(page core.PageID, buf []byte) error {
	t := h.StartRead(page, buf)
	err := t.Wait()
	t.Release()
	return err
}

// StartRead is ReadPage in split-phase form, for a caller with work to
// overlap with the round trip: it is ReadPageAsync whose single-op frame goes
// out at once, ahead of whatever is queued, and the ticket's Wait collects the
// page. Over a transport that cannot start without finishing, the whole read
// — failover included — runs here and the ticket is already Done.
func (h *Host) StartRead(page core.PageID, buf []byte) *Ticket {
	h.mu.Lock()
	defer h.mu.Unlock()
	t, pr := h.newRead(page, buf)
	if pr == nil {
		return t
	}
	f := h.launch(pr.primary, queueEntry{read: pr})
	if _, inline := f.pend.(*completed); inline {
		h.await(t)
	}
	return t
}

// Close flushes any queued asynchronous operations (best effort) and closes
// all transports.
func (h *Host) Close() error {
	h.mu.Lock()
	h.drain(true)
	h.mu.Unlock()
	var first error
	for _, l := range h.links {
		if err := l.tr.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
