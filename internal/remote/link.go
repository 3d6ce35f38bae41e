package remote

import (
	"fmt"
	"slices"
	"time"
)

// link is the host's one record of an agent (Host.links, by agent index): its
// transport, with the class that drives it resolved once, when the link is
// made; the operations queued for it; the frames in the air on it; the depth
// estimator's books of it; the slabs placed on it; and its standing with the
// control plane. AddAgent appends records and never moves one, so a *link
// stays valid across a release of h.mu. Fields are guarded by h.mu.
type link struct {
	tr Transport
	// starter is tr's split phase and trains its trains, nil where tr has
	// neither: a link with no starter finishes what it starts (start).
	starter Starter
	trains  TrainStarter
	// queue is the FIFO of operations waiting for a frame to the agent.
	queue []queueEntry
	// flights are the frames started on the link and not yet landed, reads and
	// writes, in start order — the order the connection answers in, and the
	// order they land in (reap). writes counts the write frames among them:
	// the link's unacked window, unackedFrames at most (unackedFull).
	flights []*flight
	writes  int
	// latency is the least fetch latency measured since the link was last
	// probed, 0 until a blocked wait on the empty link gives the first, and
	// taken is when it was last set. need is latency x rate in pages as of the
	// link's last sample, less what has leaked since.
	latency time.Duration
	taken   time.Time
	need    int
	// doubts counts the waits longer than latency since a sample last fell
	// within depthGain of it. probing: the pipeline drains, and the next
	// flight started with nothing ahead of it on the link is the estimate.
	doubts  int
	probing bool
	// flying is the pages of the read frames in the air on this link.
	flying int
	// slabs counts the slabs placed on the agent.
	slabs int
	// failed: marked dead (MarkFailed), so out of placement and no copy
	// source. retired: draining (Retire), so out of the rendezvous ranking but
	// a live copy source and read target. slow: hinted lagging
	// (SetAgentSlow), so reads order away from it.
	failed, retired, slow bool
}

// addLink makes agent tr's record, at the next agent index. Callers hold h.mu
// or own h.
func (h *Host) addLink(tr Transport) int {
	l := &link{tr: tr}
	l.starter, _ = tr.(Starter)
	l.trains, _ = tr.(TrainStarter)
	h.links = append(h.links, l)
	h.trains = h.trains || l.trains != nil
	return len(h.links) - 1
}

// start begins req on the link; more says that the caller's next frame for it
// follows at once. A split-phase transport returns with the request
// outstanding; any other transport runs the whole round trip right here and
// yields the completed pending c, filled in, so code written against start
// executes a Call-only transport's calls in exactly the order it would have
// made them with Call. A start that fails outright yields c too.
func (l *link) start(req *Request, more bool, c *completed) Pending {
	var p Pending
	var err error
	switch {
	case l.trains != nil:
		p, err = l.trains.StartTrain(req, more)
	case l.starter != nil:
		p, err = l.starter.Start(req)
	default:
		c.resp, c.err = l.tr.Call(req)
		return c
	}
	if err != nil {
		c.err = err
		return c
	}
	return p
}

// agent returns agent idx's link for the exported call op, or the error that
// names idx out of range. Callers hold h.mu.
func (h *Host) agent(op string, idx int) (*link, error) {
	if idx < 0 || idx >= len(h.links) {
		return nil, fmt.Errorf("remote: %s(%d) out of range", op, idx)
	}
	return h.links[idx], nil
}

// setStanding has set change agent idx's standing, for the exported call op.
func (h *Host) setStanding(op string, idx int, set func(*link)) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	l, err := h.agent(op, idx)
	if err == nil {
		set(l)
	}
	return err
}

// agentsWhere reports, in index order, the agents whose link satisfies is.
func (h *Host) agentsWhere(is func(*link) bool) []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := []int{}
	for i, l := range h.links {
		if is(l) {
			out = append(out, i)
		}
	}
	return out
}

// startNext cuts one batch (a contiguous run of same-kind entries, up to
// QueueDepth) off agent idx's queue, starts its frame and leaves it in flight;
// a frame on a transport that finishes what it starts is landed on the spot.
// It returns any write error of a landing it performed. Callers hold h.mu.
func (h *Host) startNext(idx int) (werr error) {
	note := func(err error) {
		if werr == nil {
			werr = err
		}
	}
	// Make room first: landing a flight releases h.mu, and the queue must not
	// change between cutting a batch and starting it (two writes of one page
	// would reach the agent in the wrong order).
	l := h.links[idx]
	for {
		f := h.inTheWay()
		if f == nil {
			f = l.unackedFull()
		}
		if f == nil {
			break
		}
		_, err := h.reap(f)
		note(err)
	}

	q := l.queue
	f := h.freshFlight(idx)
	batch := f.entries[:0]
	if n := min(len(q), h.cfg.QueueDepth); n > len(f.entries) {
		batch = make([]queueEntry, 0, n)
	}
	isRead := false
	consumed := 0
	for consumed < len(q) {
		e := q[consumed]
		if len(batch) == 0 {
			isRead = e.read != nil
		} else if (e.read != nil) != isRead || len(batch) == h.cfg.QueueDepth {
			break
		}
		if e.write != nil {
			h.begin(e.write)
		}
		batch = append(batch, e)
		consumed++
	}
	// The rest is copied down and the array kept, unless a burst grew it past
	// the unacked window, which a backlog riding a stream may fill (rides).
	rest := copy(q, q[consumed:])
	clear(q[rest:])
	l.queue = q[:rest]
	if rest == 0 && cap(q) > (unackedFrames+trainFrames)*h.cfg.QueueDepth {
		l.queue = nil
	}
	if len(batch) == 0 { // another goroutine cut the queue while this one made room
		h.flightFree = append(h.flightFree, f)
		return werr
	}

	f.batch = batch
	req, err := h.frame(f)
	if err != nil {
		note(err)
		return werr
	}
	// A doorbell moves a train: while the queue holds another frame for this
	// link the transport may keep this one back, and the link's last frame of
	// the drain takes them out together.
	f.pend = l.start(req, len(l.queue) > 0, &f.done)
	if c, ok := f.pend.(*completed); ok {
		note(h.land(f, c.resp, c.err))
		c.resp.release()
		h.clearBatch(f)
		h.flightFree = append(h.flightFree, f)
		return werr
	}
	if isRead {
		h.takeOff(f)
	}
	h.fly(f)
	return werr
}

// inTheWay returns a flight to land before the next frame starts, or nil: the
// oldest of the link with the most pages in the air, while those in the air
// leave no room under maxUnreaped for one more frame. Callers hold h.mu.
func (h *Host) inTheWay() *flight {
	if (h.flying+h.cfg.QueueDepth)*PageSize <= maxUnreaped {
		return nil
	}
	most := h.links[0]
	for _, l := range h.links {
		if l.flying > most.flying {
			most = l
		}
	}
	return most.flights[0]
}

// unackedFull returns the oldest write frame in the air on l when the next
// frame there is a write and l already carries unackedFrames of them — the
// unacked window, which is what a writer waits for — and nil otherwise.
func (l *link) unackedFull() *flight {
	if l.writes < unackedFrames || len(l.queue) == 0 || l.queue[0].write == nil {
		return nil
	}
	return l.oldestWrite()
}

// oldestWrite returns the oldest write frame in the air on l, or nil.
func (l *link) oldestWrite() *flight {
	for _, f := range l.flights {
		if f.isWrite() {
			return f
		}
	}
	return nil
}

// fly records f as in the air: at the tail of its link's FIFO, for the
// barriers and the bounds, and on each operation it carries, for Ticket.Wait
// to find. Callers hold h.mu.
func (h *Host) fly(f *flight) {
	l := h.links[f.idx]
	l.flights = append(l.flights, f)
	if f.isWrite() {
		l.writes++
	}
	for _, e := range f.batch {
		if e.read != nil {
			e.read.flight = f
		} else {
			e.write.flights = append(e.write.flights, f)
		}
	}
}

// launch starts e as a single-op frame to agent idx at once, ahead of whatever
// is queued there, and returns its flight, in the air. h.mu is released for
// the start — over a transport that finishes what it starts that is the whole
// round trip, and concurrent demand reads must not take turns under the lock —
// with the flight marked reaping meanwhile, so that nobody else waits on a
// pending it does not have yet. Callers hold h.mu.
func (h *Host) launch(idx int, e queueEntry) *flight {
	f := h.freshFlight(idx)
	f.reaping, f.batch = true, append(f.entries[:0], e)
	if e.write != nil {
		h.begin(e.write)
	}
	req, _ := h.frame(f) // a single-op frame has nothing to encode
	h.fly(f)
	l := h.links[idx]
	h.mu.Unlock()
	f.pend = l.start(req, false, &f.done)
	h.mu.Lock()
	f.reaping = false
	h.landed.Broadcast()
	return f
}

// reap lands f, and first every older flight of its link: the connection
// answers in order, so by the time f's response can be had theirs have
// arrived, and taking them costs no wait of its own. This is the one rule
// that collects what nobody waits for — write acks, read frames issued ahead
// and never consumed — and it keeps a link's landings in the order of its
// FIFO. (A transport that finishes what it starts has no order to keep: its
// only flights are launched ones, inside Call with h.mu released, and each is
// landed alone, so that one stuck call holds up nobody else's.) It returns
// what collect does, summed, and the first write error. Callers hold h.mu.
func (h *Host) reap(f *flight) (blocked time.Duration, werr error) {
	l := h.links[f.idx]
	for gen := f.gen; f.gen == gen; {
		next := f
		if l.starter != nil {
			next = l.flights[0]
		}
		waited, err := h.collect(l, next)
		blocked += waited
		if werr == nil {
			werr = err
		}
	}
	return blocked, werr
}

// collect waits for f's response and lands it, releasing h.mu for the wait —
// Host.mu is never held across a blocking receive. f, its link's head (reap),
// borrows its response where the transport lends it (TCP), so the pages land
// straight out of the receive buffer; the loan is pinned before anything reads
// it and given back by the release after landing. When another goroutine is
// already waiting on f, it waits for that goroutine's landing instead. The
// landing's write error, if any, goes to the goroutine that performed it, and
// so does blocked: how long a read frame of the pipeline kept it waiting for
// a response that had not arrived (touchDown). Callers hold h.mu and go
// through reap, with f in the air on l.
func (h *Host) collect(l *link, f *flight) (blocked time.Duration, werr error) {
	gen := f.gen
	for f.reaping && f.gen == gen {
		h.landed.Wait()
	}
	if f.gen != gen {
		return 0, nil
	}
	f.reaping = true
	var waitFrom time.Time
	if f.pages > 0 {
		waitFrom = h.waitFor()
	}
	wait := f.pend.Wait
	if p, ok := f.pend.(*tcpPending); ok {
		wait = p.borrow
	}
	h.mu.Unlock()
	resp, err := wait()
	h.mu.Lock()
	resp.pin()
	f.reaping = false
	if i := slices.Index(l.flights, f); i >= 0 { // the head, on a link that answers in order
		l.flights = slices.Delete(l.flights, i, i+1)
		if f.isWrite() {
			l.writes--
		}
	}
	if f.pages > 0 {
		blocked = h.touchDown(f, waitFrom, err == nil)
	}
	werr = h.land(f, resp, err)
	resp.release()
	f.gen++
	h.clearBatch(f)
	h.flightFree = append(h.flightFree, f)
	h.landed.Broadcast()
	return blocked, werr
}
