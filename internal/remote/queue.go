package remote

import (
	"fmt"
	"slices"
	"time"

	"leap/internal/core"
)

// The ticket engine is the one way a page reaches the wire; what it does on one
// agent's link is in link.go. ReadPageAsync and WritePageAsync enqueue page
// operations onto per-agent request queues and return tickets; Flush, Submit or
// Ticket.Wait ring the doorbell, cutting each queue into batched wire frames of
// up to HostConfig.QueueDepth operations. A doorbell moves a train: the frames
// it starts on one link leave in one socket write where the transport can hold
// a frame for the next (a TrainStarter), which is why run-ahead issues several
// frames to a doorbell (depth.go) and queued writebacks wait for a stream's
// next one (WritePageRangeAsync). The synchronous calls are the same operations
// with their single-op frames launched at once instead of queued (StartRead,
// ReadPage, WritePage). The engine coalesces duplicate pending reads (a second
// read of a queued or in-flight page rides the same wire request, unless a
// write to the page has completed in between — see finishWrite), serves reads
// of not-yet-flushed writes from the dirty buffer (read-your-writes), and fails
// reads over across replicas, each holder once (retryRead).
//
// The engine is split-phase: a frame is started on its agent's transport and
// becomes a flight; landing the flight — applying its response to the
// tickets it carries — happens when somebody waits for it, with h.mu
// released for the wait. Read and write frames alike are left in flight: a
// read window shares its round trip with the demand read started ahead of it
// and with the frames of other agents, and a writeback costs its sender a
// frame, not a wait — the page's record keeps the image, as its dirty write,
// until every replica has answered. Two rules bound what is in the air and
// collect it. A link carries at most unackedFrames write frames, two trains'
// worth: the writer that would start one more lands the oldest first
// (unackedFull, from startNext). And landing a flight first lands every older
// flight of its link (reap): the connection answers in order, so their
// responses have arrived by then, and that is how acks, and read frames nobody
// came for, are collected in passing. On a transport
// that cannot start without finishing (anything that is not a Starter) every
// frame lands the moment it is started, under h.mu, which makes the engine
// deterministic there: agents are visited in index order, queues are FIFO,
// so a single-threaded caller over in-process transports replays
// bit-identically, call for call.
//
// Durability semantics: a write is acknowledged — visible to AckedReplicas,
// counted for replication invariants — only once its frames have landed and
// at least one replica accepted. A write queued or in the air when a crash
// takes it was never acked, so the chaos harness's "no acked-write loss"
// invariant is unaffected by in-flight batches.

// Ticket is the completion handle of one asynchronous page operation. A
// ticket completes when the flight carrying its operation lands; Err is
// meaningful only once Done reports true.
//
// A read ticket is a hold on its read: the host recycles a read once it has
// landed and every hold on it is released. A caller that Releases its ticket
// lets the read go back to the host's free list; one that never does leaves it
// to the garbage collector. Every method may be called until Release and none
// after it. A goroutine that waits for a ticket another goroutine may release
// meanwhile takes a hold of its own (Hold) before the two can race, and
// releases it when its wait is over.
type Ticket struct {
	host *Host
	done bool
	err  error
	// read and slot locate a read ticket's buffer in its pendingRead; write
	// is a write ticket's operation (both nil for tickets completed at
	// enqueue time).
	read  *pendingRead
	slot  int
	write *pendingWrite
}

// Done reports whether the operation has completed.
func (t *Ticket) Done() bool {
	t.host.mu.Lock()
	defer t.host.mu.Unlock()
	return t.done
}

// Err returns the operation's outcome: nil for success, the failure
// otherwise. It is meaningful only after the ticket completed.
func (t *Ticket) Err() error {
	t.host.mu.Lock()
	defer t.host.mu.Unlock()
	return t.err
}

// Wait blocks until the ticket completes and returns its outcome: it lands
// the flight carrying the operation or, while the operation is still queued
// (never submitted, or requeued by a failover), rings the doorbell first.
// Host.mu is not held while it waits for the wire.
func (t *Ticket) Wait() error {
	_, err := t.Collect()
	return err
}

// Collect is Wait for a caller that wants to know what the wait cost: blocked
// is how long it was held up by read frames whose responses had yet to arrive
// (see touchDown), 0 when every response it needed was there for the taking —
// and over a transport that finishes what it starts, where no clock is read.
func (t *Ticket) Collect() (blocked time.Duration, err error) {
	t.host.mu.Lock()
	defer t.host.mu.Unlock()
	return t.host.await(t), t.err
}

// Landed is a prefetch hit's one visit to the host: the stream's headroom at
// this moment, whether t has completed, and its outcome if it has. A completed
// t is released with the visit (Release), and the caller must not use it
// again.
func (t *Ticket) Landed() (ahead Headroom, done bool, err error) {
	h := t.host
	h.mu.Lock()
	defer h.mu.Unlock()
	if done, err = t.done, t.err; done {
		h.letGo(t)
	}
	return h.ahead(), done, err
}

// Hold takes one more hold on t, for a wait by a goroutine other than the one
// that will release t: t stays valid until Release is called once for the
// ticket and once for each Hold.
func (t *Ticket) Hold() {
	t.host.mu.Lock()
	defer t.host.mu.Unlock()
	if t.read != nil {
		t.read.holds++
	}
}

// Release gives up a hold on t: the caller will not use t again, nor look at
// its buffer for the read's bytes if t has not completed — Detach first where
// the buffer is to be reused before then. A read is recycled once it has
// landed and its last hold is released; a Release beyond the holds taken
// panics. Releasing a write ticket does nothing.
func (t *Ticket) Release() {
	t.host.mu.Lock()
	defer t.host.mu.Unlock()
	t.host.letGo(t)
}

// letGo is Release for callers that hold h.mu. A release beyond the holds
// taken would put the read on the free list twice, for two later reads to
// share: it panics instead.
func (h *Host) letGo(t *Ticket) {
	if pr := t.read; pr != nil {
		if pr.holds == 0 {
			panic("remote: ticket released more times than it was held")
		}
		pr.holds--
		h.recycleRead(pr)
	}
}

// await blocks until t completes and returns how long read frames in flight
// held it up. Callers hold h.mu, which is released whenever it waits for the
// wire.
func (h *Host) await(t *Ticket) (blocked time.Duration) {
	for !t.done {
		// An operation that is not done is in a flight, in a queue, or both (a
		// write fans out; a failed read is requeued), so one of the two makes
		// progress: landing a flight, or starting what is queued.
		if f := t.flight(); f != nil {
			waited, err := h.reap(f)
			blocked += waited
			h.keepFor(t, err)
		} else {
			h.keepFor(t, h.drain(false))
		}
	}
	return blocked
}

// flight returns a frame in the air that carries t's operation, or nil when
// there is none. Callers hold h.mu.
func (t *Ticket) flight() *flight {
	switch {
	case t.read != nil:
		return t.read.flight
	case t.write != nil && len(t.write.flights) > 0:
		return t.write.flights[0]
	}
	return nil
}

// keepFor takes the write error of a drain or landing done on behalf of
// ticket t, whose caller learns only t's own outcome: another write's failure
// flushed out along the way is kept for the next Flush or Submit to report.
// Callers hold h.mu.
func (h *Host) keepFor(t *Ticket, err error) {
	if err != t.err {
		h.keep(err)
	}
}

// keep holds on to a write error landed by a caller with nobody to report it
// to, for the next Flush or Submit. Callers hold h.mu.
func (h *Host) keep(err error) {
	if err != nil && h.unreported == nil {
		h.unreported = err
	}
}

// Detach withdraws a read ticket's buffer: once Detach returns, the engine
// will not write into the buffer passed to ReadPageAsync, whenever the read's
// response arrives, so the caller may reuse it. The read itself still
// completes. Detaching a completed ticket is a no-op.
func (t *Ticket) Detach() {
	t.host.mu.Lock()
	defer t.host.mu.Unlock()
	if t.read != nil && !t.done {
		t.read.bufs[t.slot] = nil
	}
}

// pendingRead is one queued page read, possibly serving several coalesced
// tickets. It is on one agent's queue or in one flight at a time: a failed
// attempt requeues it on the next untried holder (retryRead).
type pendingRead struct {
	page core.PageID
	slab SlabID
	off  uint32

	bufs    [][]byte
	tickets []*Ticket
	tried   []int // agents already attempted (failover history)
	// flight is the frame in the air with this read in it, nil while the read
	// is queued or done: the landing drops it (clearBatch).
	flight *flight
	// holds counts the holds of its tickets' holders not yet released (Ticket):
	// a read done with none left goes back to the host's free list.
	holds int
	// The usual read has one buffer and one ticket: own is that ticket and the
	// arrays back the two slices above, so that the read is one allocation, or
	// none off the free list.
	own     Ticket
	buf0    [1][]byte
	ticket0 [1]*Ticket

	// attempts counts transport attempts consumed, for the failure's op
	// context; primary is the agent the read is first queued on.
	attempts int
	primary  int
}

// pendingWrite is one queued page write, fanned out to every replica of its
// slab.
type pendingWrite struct {
	page core.PageID
	slab SlabID
	off  uint32

	data     []byte // the host's own copy of the page image
	replicas []int  // replica set at enqueue time (placement + hot holders)
	// [lo,hi) is the hull of the bytes in which data differs from the image the
	// agents in the page's ack set hold (the base-image rule, see writeFrame):
	// such an agent can be sent the hull alone. [0,PageSize) claims nothing.
	lo, hi int
	// started is set once any replica's sub-operation has been cut into a
	// frame (begin): the bytes are (about to be) on the wire, so a later write
	// to the page must queue behind this one instead of superseding it in
	// place. From then until finishWrite the write is unacked.
	started bool
	// enc is data through the wire codec, under HostConfig.Compress: encoded
	// for the first batch frame that carries the write and reused by the other
	// replicas' (writeFrame), nil until then.
	enc []byte
	// flights are the frames in the air with a sub-operation of this write in
	// them, oldest first: a landing drops its own (clearBatch).
	flights  []*flight
	resolved int // replica sub-operations completed (ok or failed)
	acked    []int
	lastErr  error
	lastIdx  int // agent behind lastErr, for the failure's op context
	// ticket completes with the write's outcome; nil for a handed-off write
	// (HandOffPageRange) that no ticketed write has superseded, which nobody
	// waits for and which goes back to the host's free list once it has landed
	// everywhere (clearBatch).
	ticket *Ticket
	// superseded holds tickets of earlier writes to the same page that this
	// write replaced before the flush; they complete with its outcome.
	superseded []*Ticket
	// The usual write goes to two replicas, in a frame each: own is its ticket
	// and the arrays back replicas, acked and flights, so that the write is one
	// allocation, or none off the free list.
	own      Ticket
	replica0 [2]int
	acked0   [2]int
	flight0  [2]*flight
}

// queueEntry is one slot in a per-agent queue: exactly one of read/write is
// set.
type queueEntry struct {
	read  *pendingRead
	write *pendingWrite
}

// flight is one wire frame started on agent idx's transport and not yet
// landed: a run of same-kind queue entries and the pending of the request
// that carries them. A landed flight goes back to the host's free list.
type flight struct {
	idx   int
	batch []queueEntry
	pend  Pending
	// reaping marks a goroutine starting or waiting on pend with h.mu
	// released; gen counts the landings of this struct, h.landed broadcast at
	// each. Whoever keeps a flight across a release of h.mu — it may land and
	// go out again as another frame meanwhile — knows it landed by a gen moved
	// on from the one it saw (reap, collect).
	reaping bool
	gen     uint32
	// entries backs a batch of up to DefaultQueueDepth operations, req is the
	// frame's request (a batch's lies in the host's wire), and done the pending
	// of a frame whose outcome was known when it started (start): none of them
	// is allocated apart.
	entries [DefaultQueueDepth]queueEntry
	req     Request
	done    completed
	// The depth estimator's record of a read frame left in the air (takeOff;
	// pages is 0 for every other flight): its pages, when it started, the
	// host's landedPages and waitedBy then, the pages in flight ahead of it
	// on its link, and those in flight with it across the host.
	pages   int
	started time.Time
	landed0 int64
	waited0 time.Duration
	ahead   int
	level   int
}

// isWrite reports whether f is a write frame (a frame's entries are of one kind).
func (f *flight) isWrite() bool { return f.batch[0].write != nil }

// ReadPageAsync enqueues a read of page into buf (len PageSize) and returns
// its ticket. The data lands in buf when the ticket completes. Reads of
// pages with a queued, unflushed write complete immediately from the dirty
// buffer; duplicate reads of a page coalesce onto one wire request, queued or
// in flight, as long as no write to the page has completed since it was
// enqueued.
func (h *Host) ReadPageAsync(page core.PageID, buf []byte) *Ticket {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.stats.AsyncReads++
	t, pr := h.newRead(page, buf)
	if pr != nil {
		l := h.links[pr.primary]
		l.queue = append(l.queue, queueEntry{read: pr})
	}
	return t
}

// newRead opens a read of page into buf and returns its ticket: complete
// already when the dirty buffer serves it or it cannot be attempted, riding
// another read's wire request when one is pending for the page. Otherwise the
// read needs a request of its own, and newRead also returns the pendingRead
// for the caller to queue on, or launch at, agent pr.primary. Callers hold
// h.mu.
func (h *Host) newRead(page core.PageID, buf []byte) (*Ticket, *pendingRead) {
	fail := func(cause error) (*Ticket, *pendingRead) {
		return &Ticket{host: h, done: true, err: opError(OpRead, -1, page, 0, cause)}, nil
	}
	if len(buf) != PageSize {
		return fail(fmt.Errorf("buffer is %d bytes, want %d", len(buf), PageSize))
	}
	r := h.rec(page)
	if pw := r.dirty(); pw != nil {
		// Read-your-writes: the freshest bytes are the queued write's.
		copy(buf, pw.data)
		h.stats.DirtyReads++
		h.stats.Reads++
		return &Ticket{host: h, done: true}, nil
	}
	if r != nil && r.read != nil {
		pr := r.read
		t := &Ticket{host: h, read: pr, slot: len(pr.bufs)}
		pr.bufs = append(pr.bufs, buf)
		pr.tickets = append(pr.tickets, t)
		pr.holds++
		h.stats.CoalescedReads++
		h.stats.Reads++
		return t, nil
	}
	slab, off := h.locate(page)
	replicas, ok := h.placements[slab]
	if !ok {
		return fail(ErrNeverWritten)
	}
	target := h.readOrder(page, r, replicas, nil)
	if target < 0 {
		return fail(ErrNoReplica)
	}
	pr := h.freshRead()
	pr.page, pr.slab, pr.off, pr.primary, pr.holds = page, slab, off, target, 1
	t := &pr.own
	t.host, t.read = h, pr
	pr.bufs, pr.tickets = append(pr.buf0[:0], buf), append(pr.ticket0[:0], t)
	if r == nil {
		r = h.newRecord(page)
	}
	r.read = pr
	h.stats.Reads++
	return t, pr
}

// WritePageAsync enqueues a write of data (len PageSize) to page and
// returns its ticket. The engine keeps its own copy of data, so the caller
// may reuse the buffer immediately. A second write to the same page before
// the flush supersedes the first (last writer wins — both tickets complete
// with the final outcome). The write is durable — acknowledged, visible to
// reads from other hosts' perspectives — only once flushed.
func (h *Host) WritePageAsync(page core.PageID, data []byte) *Ticket {
	t, _, _ := h.WritePageRangeAsync(page, data, 0, PageSize)
	return t
}

// WritePageRangeAsync is WritePageAsync from a caller that knows what it
// changed: data is the whole image all the same, and [lo,hi) covers every byte
// in which it differs from the image the host last gave out or took in for the
// page (a read's bytes, the previous write's). Replicas known to hold that
// image are sent the range alone (see writeFrame); [0,PageSize) claims nothing
// and is WritePageAsync. It also reports the dirty backlog the write leaves —
// the count of writes queued and not yet started on any replica — which an
// eviction pipeline bounds before ringing the doorbell, and whether that
// backlog rides, needing no doorbell of its own: read frames are in the air
// over links that move trains, so a stream is running whose next doorbell takes
// the queued writes along in the same socket write per link, and they are
// fewer than the unacked window holds.
func (h *Host) WritePageRangeAsync(page core.PageID, data []byte, lo, hi int) (t *Ticket, backlog int, rides bool) {
	if err := checkWrite(data, lo, hi); err != nil {
		return &Ticket{host: h, done: true, err: err}, 0, false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.stats.AsyncWrites++
	t, _ = h.writeAsyncLocked(page, data, lo, hi, false)
	return t, h.queued, h.rides()
}

// HandOffPageRange is WritePageRangeAsync from a caller that is done with data,
// such as an eviction freeing the page's frame: the host keeps data itself as
// the write's image instead of a copy and gives back spare, a page buffer of
// its own, for the caller to use in data's place. (A write that supersedes a
// queued one in place is copied into that one's image, and spare is data.)
// There is no ticket: a write that fails on every replica is reported by the
// next Submit or Flush.
func (h *Host) HandOffPageRange(page core.PageID, data []byte, lo, hi int) (spare []byte, backlog int, rides bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := checkWrite(data, lo, hi); err != nil {
		h.keep(err)
		return data, h.queued, h.rides()
	}
	h.stats.AsyncWrites++
	t, spare := h.writeAsyncLocked(page, data, lo, hi, true)
	if t != nil { // the write failed before it was queued
		h.keep(t.err)
	}
	return spare, h.queued, h.rides()
}

// checkWrite validates an asynchronous write's image and range.
func checkWrite(data []byte, lo, hi int) error {
	if len(data) != PageSize || lo < 0 || lo >= hi || hi > PageSize {
		return fmt.Errorf("remote: asynchronous write with %d bytes, range [%d,%d), want %d and a range within them",
			len(data), lo, hi, PageSize)
	}
	return nil
}

// rides reports whether the write backlog leaves with a running stream's next
// doorbell (WritePageRangeAsync). Callers hold h.mu.
func (h *Host) rides() bool {
	return h.flying > 0 && h.queued < unackedFrames*h.cfg.QueueDepth && h.trains
}

// writeAsyncLocked enqueues a write of data (len PageSize) to page, changed
// within [lo,hi): a copy of data, with a ticket, or data itself, handed off,
// for the spare it returns. Callers hold h.mu.
func (h *Host) writeAsyncLocked(page core.PageID, data []byte, lo, hi int, handoff bool) (*Ticket, []byte) {
	t, pw, spare := h.newWrite(page, data, lo, hi, handoff)
	if pw != nil {
		for _, idx := range pw.replicas {
			l := h.links[idx]
			l.queue = append(l.queue, queueEntry{write: pw})
		}
	}
	return t, spare
}

// newWrite opens a write of data (len PageSize) to page, changed within
// [lo,hi), and returns its ticket. A write that needs frames of its own comes
// back as a pendingWrite too, already the page's dirty entry, for the caller to
// queue on, or launch at, each of pw.replicas. A handoff keeps data as the
// write's image and takes no ticket, and spare is the buffer its caller gets in
// data's place: data itself where the write was copied after all (it superseded
// a queued one in place, or failed before it was queued, with a ticket that
// says why). Callers hold h.mu.
func (h *Host) newWrite(page core.PageID, data []byte, lo, hi int, handoff bool) (t *Ticket, pw *pendingWrite, spare []byte) {
	r := h.rec(page)
	prev := r.dirty()
	if _, ok := h.wholeNext[page]; ok || (prev != nil && prev.started) {
		// The hull is measured from an image no replica is known to hold: the
		// host cannot vouch for what the replicas have, or an earlier write is
		// on the wire and may yet miss any of them.
		lo, hi = 0, PageSize
	}
	if prev != nil && !prev.started {
		// Supersede in place: the queued sub-operations will carry the new
		// bytes (last writer wins); the earlier write's ticket completes
		// with the same flush outcome. Its hull was measured from what the
		// replicas hold and this one's from its image, so the union covers
		// both. A write already cut into a frame cannot take new bytes — the
		// new write queues behind it below.
		copy(prev.data, data)
		prev.lo, prev.hi = min(prev.lo, lo), max(prev.hi, hi)
		if handoff {
			return nil, nil, data
		}
		if prev.ticket != nil {
			prev.superseded = append(prev.superseded, prev.ticket)
		}
		prev.ticket = &Ticket{host: h, write: prev}
		return prev.ticket, nil, nil
	}
	slab, off := h.locate(page)
	replicas, err := h.placement(slab)
	if err != nil {
		return &Ticket{host: h, done: true, err: opError(OpWrite, -1, page, 0, err)}, nil, data
	}
	pw = h.freshWrite()
	pw.page, pw.slab, pw.off, pw.lo, pw.hi, pw.lastIdx = page, slab, off, lo, hi, -1
	pw.replicas = append(pw.replica0[:0], h.writeTargets(page, replicas)...)
	pw.acked, pw.flights = pw.acked0[:0], pw.flight0[:0]
	if handoff {
		pw.data, spare = data, h.pageBuf()
	} else {
		pw.data, pw.ticket = h.pageBuf(), &pw.own
		pw.own.host, pw.own.write = h, pw
		copy(pw.data, data)
	}
	if r == nil {
		r = h.newRecord(page)
	}
	r.write = pw
	h.queued++
	h.stats.Writes++
	return pw.ticket, pw, spare
}

// freshRead takes a zeroed pendingRead off the free list, or allocates one.
// Callers hold h.mu.
func (h *Host) freshRead() *pendingRead {
	n := len(h.readFree)
	if n == 0 {
		return &pendingRead{}
	}
	pr := h.readFree[n-1]
	h.readFree = h.readFree[:n-1]
	*pr = pendingRead{}
	return pr
}

// recycleRead takes pr back to the free list once nothing reaches it any
// more: it is done — so no record, queue or flight has it (its landing
// retired it, and clearBatch follows every landing under the same h.mu) —
// and no hold on its tickets is left. While PoisonReleased is on, its ticket
// reads as failed with errReleased, and one more Release of it panics, until
// it goes out again. Callers hold h.mu.
func (h *Host) recycleRead(pr *pendingRead) {
	if pr.holds > 0 || !pr.own.done {
		return
	}
	*pr = pendingRead{}
	if poisoning.Load() {
		pr.own = Ticket{host: h, done: true, err: errReleased, read: pr}
	}
	h.readFree = append(h.readFree, pr)
}

// freshWrite takes a zeroed pendingWrite off the free list, or allocates one.
// Callers hold h.mu.
func (h *Host) freshWrite() *pendingWrite {
	n := len(h.writeFree)
	if n == 0 {
		return &pendingWrite{}
	}
	pw := h.writeFree[n-1]
	h.writeFree = h.writeFree[:n-1]
	return pw
}

// begin marks pw started, the first time a sub-operation of it is cut into a
// frame: it leaves the backlog and is unacked until finishWrite. Callers hold
// h.mu.
func (h *Host) begin(pw *pendingWrite) {
	if !pw.started {
		pw.started = true
		h.queued--
	}
}

// Flush is the engine's barrier: per-agent batches of up to QueueDepth
// operations go out as doorbell frames (single-op frames when only one
// operation is queued), every agent's next read frame starting before any is
// waited for; read failures retry on the next replica; and it returns once
// the queues are empty and every flight — its own and those already in the
// air — has landed, so every ticket issued before the call has completed. It
// returns the first write ticket error observed, if any (read outcomes are
// per-ticket).
func (h *Host) Flush() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.drain(true)
}

// Submit is the non-blocking doorbell: it starts every queued frame like
// Flush but leaves them in flight, reads and writes alike, to be landed by
// the Ticket.Wait or Flush that needs them, or in passing by whoever lands a
// later flight of the same link. It waits only where a link's unacked window
// is full (startNext). The write failures it reports are those landed since
// the last doorbell, by anyone. Over transports that cannot start without
// finishing it is Flush, and flying is false: every ticket issued before the
// call has completed. With flying true some frame is still in the air and a
// caller has nothing to gain from polling its tickets.
func (h *Host) Submit() (flying bool, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	err = h.drain(false)
	for _, l := range h.links {
		flying = flying || len(l.flights) > 0
	}
	return flying, err
}

// pageBuf takes a PageSize buffer off the free list.
func (h *Host) pageBuf() []byte {
	if n := len(h.bufFree); n > 0 {
		buf := h.bufFree[n-1]
		h.bufFree = h.bufFree[:n-1]
		return buf
	}
	return make([]byte, PageSize)
}

// drain runs the engine until it is idle: each pass starts the next frame of
// every agent with queued work, a barrier drain (Flush) then lands every
// flight, link by link, and the passes repeat until nothing is queued and, for
// a barrier, nothing is in flight. It returns the first write error observed,
// starting with one landed earlier by a caller that could not report it.
// Callers hold h.mu, which is released whenever the drain waits for the wire.
func (h *Host) drain(barrier bool) error {
	firstErr := h.unreported
	h.unreported = nil
	note := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	for active := true; active; {
		active = false
		for idx := range h.links {
			if len(h.links[idx].queue) > 0 {
				active = true
				note(h.startNext(idx))
			}
		}
		for idx := 0; barrier && idx < len(h.links); idx++ {
			for l := h.links[idx]; len(l.flights) > 0; {
				active = true
				_, err := h.reap(l.flights[0])
				note(err)
			}
		}
	}
	return firstErr
}

// freshFlight takes a flight to agent idx off the free list, or allocates one.
// A recycled flight keeps its gen, which tells its past holders that it
// landed. Callers hold h.mu.
func (h *Host) freshFlight(idx int) *flight {
	n := len(h.flightFree)
	if n == 0 {
		return &flight{idx: idx}
	}
	f := h.flightFree[n-1]
	h.flightFree = h.flightFree[:n-1]
	*f = flight{idx: idx, gen: f.gen}
	return f
}

// clearBatch lets go of a landed flight's operations and drops their pointers
// to it, then takes back to the free lists each read it finished that no hold
// is left on (recycleRead), and each handed-off write it was the last to
// carry: nothing reaches such a write any more — no ticket was handed out for
// it, its record has moved on (finishWrite), and every other flight that
// carried it has landed and been cleared before this one. Callers hold h.mu.
func (h *Host) clearBatch(f *flight) {
	for _, e := range f.batch {
		if pr := e.read; pr != nil {
			if pr.flight == f {
				pr.flight = nil
			}
			h.recycleRead(pr)
			continue
		}
		pw := e.write
		if i := slices.Index(pw.flights, f); i >= 0 {
			pw.flights = slices.Delete(pw.flights, i, i+1)
		}
		if pw.ticket == nil && pw.resolved == len(pw.replicas) {
			*pw = pendingWrite{}
			h.writeFree = append(h.writeFree, pw)
		}
	}
	clear(f.batch)
	f.batch = nil
}

// land applies the outcome of f's round trip to the operations it carried.
// Callers hold h.mu.
func (h *Host) land(f *flight, resp *Response, err error) error {
	if f.batch[0].read != nil {
		h.landReads(f.idx, f.batch, resp, err)
		return nil
	}
	return h.landWrites(f, resp, err)
}

// frame builds the request that carries f's batch. Callers hold h.mu.
func (h *Host) frame(f *flight) (*Request, error) {
	if f.batch[0].read != nil {
		return h.readFrame(f)
	}
	return h.writeFrame(f)
}

// readFrame builds the request for f's read batch: a plain OpRead for a
// single operation, a batch frame otherwise. Callers hold h.mu.
func (h *Host) readFrame(f *flight) (*Request, error) {
	idx, batch := f.idx, f.batch
	if len(batch) == 1 {
		pr := batch[0].read
		pr.attempts++
		f.req = Request{Op: OpRead, Slab: pr.slab, PageOff: pr.off}
		return &f.req, nil
	}
	h.refs = sized(h.refs, len(batch))
	for i, e := range batch {
		e.read.attempts++
		h.refs[i] = BatchRef{Slab: e.read.slab, PageOff: e.read.off}
	}
	req, err := encodeReadBatch(&f.req, h.refs, h.cfg.Compress, h.wire)
	if err != nil {
		// Wrap as a read OpError: Flush's return value is attributed by op
		// kind (a read failure must never be mistaken for lost acked data).
		return nil, opError(OpRead, idx, batch[0].read.page, 0, err)
	}
	h.wire = req.frame
	h.stats.BatchCalls++
	h.stats.BatchedPages += int64(len(batch))
	return req, nil
}

// landReads lands a read frame's outcome: completed pages fill their
// buffers, failed ones fail over (retryRead). Callers hold h.mu.
func (h *Host) landReads(idx int, batch []queueEntry, resp *Response, err error) {
	var one [1]BatchReadResult
	var results []BatchReadResult
	switch {
	case err != nil:
	case len(batch) == 1:
		one[0] = BatchReadResult{Status: resp.Status, Page: resp.Payload}
		results = one[:]
	default:
		h.results, err = decodeReadBatchResponse(resp, h.results)
		results = h.results
		if err == nil && len(results) != len(batch) {
			err = fmt.Errorf("remote: read batch response carried %d results for %d ops",
				len(results), len(batch))
		}
		if err == nil && payloadCompressed(resp.Payload) {
			raw := 4
			for _, r := range results {
				raw++
				if r.Status == StatusOK {
					raw += PageSize
				}
			}
			h.stats.CompressedFrames++
			h.stats.WireRawBytes += int64(raw)
			h.stats.WireCompressedBytes += int64(len(resp.Payload))
		}
	}
	for i, e := range batch {
		pr := e.read
		switch {
		case err != nil:
			h.retryRead(pr, idx, err, StatusOK)
		case results[i].Status != StatusOK:
			h.retryRead(pr, idx, nil, results[i].Status)
		default:
			h.completeRead(pr, idx, results[i].Page)
		}
	}
}

// completeRead copies data into every coalesced buffer and completes the
// tickets. Callers hold h.mu.
func (h *Host) completeRead(pr *pendingRead, idx int, data []byte) {
	for _, buf := range pr.bufs {
		copy(buf, data)
	}
	if len(pr.tried) > 0 {
		h.stats.Failovers++
	}
	if len(h.hot) > 0 && !slices.Contains(h.placements[pr.slab], idx) {
		h.stats.HotReads++
	}
	if len(pr.tried) > 0 { // only a failover leaves the ack set while it has members
		if acked := h.rec(pr.page).acked(); len(acked) > 0 && !slices.Contains(acked, idx) {
			h.distrust(pr.page) // every acked holder failed: these bytes may be an older image
		}
	}
	h.retireRead(pr)
	for _, t := range pr.tickets {
		t.done = true
	}
}

// distrust records that the image the caller has of page may be none the
// acked replicas hold, so that a hull measured from it means nothing: the
// page's next write goes out whole, and clears the mark once a replica has
// acknowledged it. Callers hold h.mu.
func (h *Host) distrust(page core.PageID) {
	if h.wholeNext == nil {
		h.wholeNext = make(map[core.PageID]struct{})
	}
	h.wholeNext[page] = struct{}{}
}

// retireRead closes pr to coalescing and lets go of a record left holding
// nothing. Callers hold h.mu.
func (h *Host) retireRead(pr *pendingRead) {
	r := h.rec(pr.page)
	if r.read != pr { // a write finished since, see finishWrite
		return
	}
	r.read = nil
	if r.write == nil && r.gen == 0 {
		h.records.Delete(pr.page)
	}
}

// retryRead handles a failed read attempt: it requeues the read on the next
// untried holder, or, with none left, fails the tickets with a uniform OpError
// carrying the last agent and the cause. Callers hold h.mu.
func (h *Host) retryRead(pr *pendingRead, idx int, err error, status uint8) {
	pr.tried = append(pr.tried, idx)
	if next := h.readOrder(pr.page, h.rec(pr.page), h.placements[pr.slab], pr.tried); next >= 0 {
		h.stats.Retries++
		l := h.links[next]
		l.queue = append(l.queue, queueEntry{read: pr})
		return
	}
	if err == nil {
		err = statusError(OpRead, status)
	}
	h.retireRead(pr)
	ferr := opError(OpRead, idx, pr.page, pr.attempts, fmt.Errorf("%w: %w", ErrAllReplicasFailed, err))
	for _, t := range pr.tickets {
		t.done = true
		t.err = ferr
	}
}

// writeFrame builds the request for f's write batch. The base-image rule
// decides, entry by entry, what agent f.idx is sent: the hull alone when it is
// shorter than a page and the agent is in the page's ack set — it holds the image
// the hull was measured from, because it acknowledged the page's last write (or
// was certified a copy of it) and no write of the page has started since — and
// the whole image otherwise, out of the same buffer. A frame with a range in
// it is an OpWriteRanges, whole pages riding as [0,PageSize); one without is
// what it always was, a plain OpWrite for a single operation and an
// OpWriteBatch otherwise, compressed under HostConfig.Compress, which ships
// whole pages only. Callers hold h.mu.
func (h *Host) writeFrame(f *flight) (req *Request, err error) {
	idx, batch := f.idx, f.batch
	ranged := 0
	h.ranges = sized(h.ranges, len(batch))
	for i, e := range batch {
		pw := e.write
		lo, hi := 0, PageSize
		if !h.cfg.Compress && pw.hi-pw.lo < PageSize && slices.Contains(h.rec(pw.page).acked(), idx) {
			lo, hi = pw.lo, pw.hi
			ranged++
		}
		h.ranges[i] = writeRange{BatchRef: BatchRef{Slab: pw.slab, PageOff: pw.off}, Lo: lo, Data: pw.data[lo:hi]}
	}
	switch {
	case ranged > 0:
		req, err = encodeWriteRanges(&f.req, h.ranges, h.wire)
	case len(batch) == 1:
		pw := batch[0].write
		f.req = Request{Op: OpWrite, Slab: pw.slab, PageOff: pw.off, Payload: pw.data}
		h.stats.WriteWireBytes += PageSize
		return &f.req, nil
	default:
		h.refs, h.pages = sized(h.refs, len(batch)), sized(h.pages, len(batch))
		for i, r := range h.ranges {
			h.refs[i], h.pages[i] = r.BatchRef, r.Data
		}
		if h.cfg.Compress {
			for i, e := range batch {
				h.pages[i] = h.encoded(e.write)
			}
			req, err = encodeWriteBatchCompressed(&f.req, h.refs, h.pages, h.wire)
		} else {
			req, err = encodeWriteBatch(&f.req, h.refs, h.pages, h.wire)
		}
	}
	if err != nil {
		return nil, opError(OpWrite, idx, batch[0].write.page, 0, err)
	}
	h.wire = req.frame
	if h.cfg.Compress {
		h.stats.CompressedFrames++
		h.stats.WireRawBytes += int64(4 + len(batch)*(batchRefSize+PageSize))
		h.stats.WireCompressedBytes += int64(len(req.Payload))
	}
	if len(batch) > 1 {
		h.stats.BatchCalls++
		h.stats.BatchedPages += int64(len(batch))
	}
	h.stats.RangeWrites += int64(ranged)
	h.stats.WriteWireBytes += int64(len(req.Payload))
	return req, nil
}

// encoded returns pw's image through the wire codec, encoding it for the
// first frame that asks: every replica is sent the same bytes. Callers hold
// h.mu.
func (h *Host) encoded(pw *pendingWrite) []byte {
	if pw.enc == nil {
		var buf []byte
		if n := len(h.encFree); n > 0 {
			buf, h.encFree = h.encFree[n-1], h.encFree[:n-1]
		}
		pw.enc = h.comp.Compress(buf, pw.data)
	}
	return pw.enc
}

// landWrites resolves the per-replica sub-operations a write frame to agent
// idx carried and returns the first error of a write it thereby finished on
// every replica with no acceptance. Callers hold h.mu.
func (h *Host) landWrites(f *flight, resp *Response, err error) error {
	idx, batch := f.idx, f.batch
	var firstErr error
	resolve := func(pw *pendingWrite, err error) {
		pw.resolved++
		if err == nil {
			pw.acked = append(pw.acked, idx)
		} else {
			pw.lastErr = err
			pw.lastIdx = idx
		}
		if pw.resolved == len(pw.replicas) {
			if ferr := h.finishWrite(pw); ferr != nil && firstErr == nil {
				firstErr = ferr
			}
		}
	}
	var statuses []uint8
	switch {
	case err != nil:
	case f.req.Op == OpWrite:
		statuses = []uint8{resp.Status}
	default:
		statuses, err = decodeWriteBatchResponse(resp)
		if err == nil && len(statuses) != len(batch) {
			err = fmt.Errorf("remote: write batch response carried %d statuses for %d ops",
				len(statuses), len(batch))
		}
	}
	for i, e := range batch {
		switch {
		case err != nil:
			resolve(e.write, err)
		case statuses[i] != StatusOK:
			resolve(e.write, statusError(OpWrite, statuses[i]))
		default:
			resolve(e.write, nil)
		}
	}
	return firstErr
}

// finishWrite finalizes a fully-resolved pending write, queued or launched:
// it is where a write's ack and degraded bookkeeping is kept. It also closes
// the page's pending read to coalescing: that read may have left for its agent
// ahead of the write, and a read issued from now on must not share its (older)
// bytes; the read itself completes as before. Callers hold h.mu. It returns the
// write's error, if the write failed on every replica.
func (h *Host) finishWrite(pw *pendingWrite) error {
	r := h.rec(pw.page)
	if r.write == pw { // else a newer write queued behind this one
		r.write = nil
	}
	r.gen++
	r.read = nil
	var err error
	if len(pw.acked) == 0 {
		err = opError(OpWrite, pw.lastIdx, pw.page, len(pw.replicas),
			fmt.Errorf("%w: %w", ErrAllReplicasFailed, pw.lastErr))
		h.distrust(pw.page) // a replica whose answer was lost may hold either image
	} else {
		delete(h.wholeNext, pw.page)
		r.acks = append(r.acks[:0], pw.acked...)
		if h.placedAcks(pw.page, pw.acked) < h.cfg.Replicas {
			h.degraded[pw.page] = true
		} else {
			delete(h.degraded, pw.page)
		}
	}
	poison(pw.data)
	h.bufFree = append(h.bufFree, pw.data)
	pw.data = nil
	if pw.enc != nil {
		poison(pw.enc)
		h.encFree = append(h.encFree, pw.enc[:0])
		pw.enc = nil
	}
	if pw.ticket != nil {
		pw.ticket.done = true
		pw.ticket.err = err
	}
	for _, t := range pw.superseded {
		t.done = true
		t.err = err
	}
	return err
}
