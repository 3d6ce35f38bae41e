package remote

import "time"

// The depth estimator sizes the read pipeline from the link. Pages in flight
// must cover fetch latency x consumption rate or an accurate prefetch is still
// a late one; more than that only has agents run further ahead of the readers
// while responses pile up unread. Neither factor is a constant of the host — a
// link's latency changes under it, the rate is the application's — so both are
// measured, on the read frames the engine leaves in flight, and
//
//	depth = depthGain x latency x rate + depthQuanta frames
//
// is what readers keep in the air before they issue again, for the link that
// needs the most. It is how BBR sizes a congestion window: cwnd_gain x min_rtt x
// rate, plus a few of the quanta the sender moves in. And like BBR's sender,
// issue moves in quanta of more than a frame, a train (trainFrames): a doorbell
// costs a socket write per link whatever it carries. The train is not carved
// out of depth: held until the pages in flight have fallen to the product, a
// scan reads 20 % faster over loopback TCP and half as fast over a link with
// jitter, waiting whenever a response is later than the least ever seen — what
// the headroom is for (EXPERIMENTS.md). So issue resumes where it always has,
// with a frame of depth free, and the rest of the train runs over depth. A
// reader whose own cap binds below depth is never held by the host, and moves
// trains all the same: it issues when a train fits under its cap, so it keeps
// between its cap and a train less in flight.
//
// Latency is start -> response available, and nothing reads a socket until
// somebody reaps: a flight's land - start is its latency only if its reaper
// had to wait for it; a response that sat in the kernel's buffer gives an
// upper bound. So only blocked waits are samples, and a link's estimate is the
// least of them (BBR's min_rtt), the first one taken on the empty link.
// Queueing at a busy agent inflates the samples of deep flights, not the
// minimum, which is why a link whose agent is the bottleneck keeps a shallow
// pipeline: latency x rate is small there, however often the readers wait,
// where a rule that deepens on every wait climbs to the bound. Rate is what
// the readers consume when the pipeline does not hold them up: the pages
// landed during a flight's life over the part of that life nobody spent
// waiting for a response. (Pages over the whole life is what the pipeline
// delivered, which while it is too shallow is only its own depth over the
// round trip: the estimate would confirm itself.) A rate says nothing about
// depths far from those it was measured at — one taken over a few microseconds
// of busy time least of all — so no sample asks for more than was in flight
// since the last: depth at most doubles per sample.
//
// A minimum has to be given up when it stops being true, and only a flight
// started on an empty link, with no queue to sit in, can replace it: the link
// is probed — depth falls to one frame, the pipeline runs empty, the first
// flight started with nothing ahead of it is the new estimate (waited for or
// not: nothing else ends a probe of a link that makes nobody wait). Two things
// bring that on. Readers waiting longer for one response than the link is
// thought to take for the whole round trip, which no queue explains —
// responses leave a busy agent one service time apart, so however many are
// queued no wait for the next exceeds that time, only the flight's age does —
// doubtAfter times with no sample in between that the headroom covers: the
// link got several times slower. And age: an estimate staleAfter of its own
// round trips old is measured again whatever the samples say, which catches
// what the headroom hides (a link up to depthGain times slower costs nothing,
// one a little slower than that makes waits too short to tell from a queue's).
//
// A link that got faster shows as nothing at all: the pipeline is too deep, no
// reap blocks. So depth leaks, once for every depth's worth of pages landed
// without a wait, until a reap blocks — an exact sample of the link as it now
// is — and the product is taken afresh, or until only the quanta are left; the
// same leak hands depth back when the readers slow down. (A wait with the
// link's whole product in flight is a queue's, and neither counts nor stops
// it.) It is a search: the pages in flight when a reader last found the
// pipeline short are remembered, each leak goes halfway there, a frame at
// least, and only when a depth's worth of pages has passed at that level
// without a wait is it forgotten and a quarter of everything taken.
const (
	// depthGain is the headroom over latency x rate, BBR's cwnd_gain: the
	// product is what a pipeline needs when nothing jitters, and a reader that
	// finds it short pays a round trip. A sample within it of the estimate
	// bears the estimate out: the depth allowed covers it.
	depthGain = 2
	// depthQuanta is what the pipeline holds on top of that because issue
	// moves in whole frames, BBR's quantization budget of three send quanta:
	// the frame the reader is about to issue (ahead admits one only if all of
	// it fits), the one an agent is serving, and one queued behind that so the
	// agent does not idle between frames. With no product to speak of it is
	// the whole pipeline, and where the leak stops.
	depthQuanta = 3
	// doubtAfter is how many waits no queue explains must count against a
	// link's estimate, with none for it, before the link is probed: one is a
	// scheduling hiccup.
	doubtAfter = 8
	// staleAfter is the age, in round trips of its own, at which a link's
	// estimate is measured again. A probe stalls the readers for about two
	// round trips, so this is what probing costs: a fifth of a percent.
	staleAfter = 1024
	// maxUnreaped bounds, in bytes, the read responses the host leaves unread
	// at once, across its agents: what they hold in socket buffers, and how
	// far issue may run ahead of all readers together. A read frame that must
	// start at the bound (a miss's window) lands the oldest flight first; one
	// that need not (a frame issued ahead) is not offered, because ahead
	// reports no room. It bounds memory, not the pipeline: 1024 pages cover a
	// 1 ms link at a million pages a second, and it is all a host that has
	// measured nothing goes by. What keeps a pipelined connection from
	// deadlocking, at any depth, is the transport's writeStall rule, not this
	// bound.
	maxUnreaped = 4 << 20
	// trainFrames is the frames issue moves in, one doorbell for all: as many
	// as the quanta. A fourth would save a twelfth of a doorbell a frame, for
	// eight more pages over depth and as many more images unacked a link.
	trainFrames = depthQuanta
	// unackedFrames is the unacked window: the write frames a link carries
	// before a writer waits for the oldest, two trains' worth, so that a writer
	// waits for the train before the last and not for the one just gone.
	// Writebacks leave in a stream's trains, a frame to a link for each read
	// frame — a page in evicts a page — and their backlog rides the stream's
	// doorbells until it would fill the window (WritePageRangeAsync).
	unackedFrames = 2 * trainFrames
)

// Pipeline reports the read pipeline as the depth estimator has it: the pages
// it lets readers keep in flight ahead of themselves, the pages of read frames
// in flight now, and the bound on both that maxUnreaped sets.
func (h *Host) Pipeline() (depth, flying, bound int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.depth, h.flying, maxUnreaped / PageSize
}

// Doorbells reports what the host's doorbells carried: the socket writes its
// transports made for requests, and the frames those moved (TCP counts both;
// a transport with no socket adds nothing).
func (h *Host) Doorbells() (writes, frames int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, l := range h.links {
		if c, ok := l.tr.(interface{ doorbells() (int64, int64) }); ok {
			w, f := c.doorbells()
			writes, frames = writes+w, frames+f
		}
	}
	return writes, frames
}

// FetchLatency reports, per agent link, the fetch latency the depth estimator
// goes by, 0 while the link is unmeasured.
func (h *Host) FetchLatency() []time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	latency := make([]time.Duration, len(h.links))
	for i, l := range h.links {
		latency[i] = l.latency
	}
	return latency
}

// Headroom is what a reader's stream may keep in flight ahead of itself over a
// host, every reader's pages in flight counted together: frames of Frame pages
// (QueueDepth, one wire frame), Train pages to a doorbell, reaching at most
// Depth pages past the stream, of which Room may be issued now. Room is 0 until
// a frame of the depth the estimator has measured is free, and then that frame
// — or, over transports that move trains, a train of trainFrames, the rest of
// it over depth, which Depth allows for; a caller whose own cap is below Depth
// moves Train pages at a time under it too. A caller issuing ahead skips its
// turn at 0 and asks again at its next access (Ticket.Landed): waiting for a
// flight to land is for accesses that need the page.
type Headroom struct {
	Frame, Train, Depth, Room int
}

// ahead reports the headroom now. Callers hold h.mu.
func (h *Host) ahead() Headroom {
	frame := h.cfg.QueueDepth
	a := Headroom{Frame: frame, Train: frame, Depth: h.depth}
	if h.trains {
		a.Train = min(trainFrames*frame, maxUnreaped/PageSize-h.depth+frame)
		a.Depth += a.Train
	}
	if h.flying+frame <= h.depth {
		a.Room = h.depth - frame + a.Train - h.flying
	}
	return a
}

// waitedBy reports the time up to now during which some reaper was waiting
// for a read frame's response. Callers hold h.mu.
func (h *Host) waitedBy(now time.Time) time.Duration {
	if h.waiters > 0 {
		return h.waited + now.Sub(h.waitSince)
	}
	return h.waited
}

// takeOff enters read frame f, about to be left in the air, into the
// estimator's books. Callers hold h.mu.
func (h *Host) takeOff(f *flight) {
	l := h.links[f.idx]
	f.pages = len(f.batch)
	f.started = h.clock()
	f.landed0 = h.landedPages
	f.waited0 = h.waitedBy(f.started)
	f.ahead = l.flying
	l.flying += f.pages
	h.flying += f.pages
	f.level = h.flying
	h.peak = max(h.peak, h.flying)
}

// waitFor opens a reaper's wait for a read frame's response and returns when
// it began. Callers hold h.mu.
func (h *Host) waitFor() time.Time {
	now := h.clock()
	if h.waiters == 0 {
		h.waitSince = now
	}
	h.waiters++
	return now
}

// touchDown closes the wait for read frame f begun at waitFrom, with its
// response (ok) or without, takes f out of the books and lets the estimator
// learn from it. It returns how long the reaper was blocked on the wire, 0 when
// the response was there for the taking. Callers hold h.mu.
func (h *Host) touchDown(f *flight, waitFrom time.Time, ok bool) (blocked time.Duration) {
	now := h.clock()
	if h.waiters--; h.waiters == 0 {
		h.waited += now.Sub(h.waitSince)
	}
	l := h.links[f.idx]
	l.flying -= f.pages
	h.flying -= f.pages
	consumed := h.landedPages - f.landed0
	h.landedPages += int64(f.pages)
	if !ok {
		return 0
	}
	age, waited := now.Sub(f.started), now.Sub(waitFrom)
	// While f was in the air the readers got through consumed pages in busy,
	// the part of its life none of them spent waiting.
	busy := age - (h.waitedBy(now) - f.waited0)
	// Blocked: the wait took at least half the time the readers take to get
	// through the pages it brought (or, with nothing to tell their pace by,
	// half the flight's life). Taking a response that was there is a read and
	// a decode, no fixed cost; a wait for the wire that short is not told from
	// it, and costs as little.
	pace := age
	if consumed > 0 {
		pace = time.Duration(int64(busy) * int64(f.pages) / consumed)
	}
	if waited > 0 && 2*waited >= pace {
		blocked = waited
	}
	switch {
	case l.probing && f.ahead == 0, l.latency == 0 && f.ahead == 0 && blocked > 0:
		// Nothing ahead of it: the empty link (a probe's, waited for or not).
		l.latency, l.taken, l.probing = age, now, false
		h.unblocked = 0
		h.sized(l, consumed, busy)
		return blocked
	case l.latency == 0 && blocked > 0:
		// A link never measured, and a reader waits behind a queue on it.
		l.probing = true
		h.depth = h.cfg.QueueDepth
		return blocked
	case l.probing:
		return blocked
	}
	if blocked == 0 {
		h.leak(f.pages)
		return 0
	}
	switch {
	case age <= l.latency:
		l.latency, l.taken, l.doubts = age, now, 0
	case age <= depthGain*l.latency:
		l.doubts = 0
	case waited > l.latency:
		l.doubts++
	}
	if l.doubts == doubtAfter || now.Sub(l.taken) > staleAfter*l.latency {
		l.probing, l.doubts = true, 0
		h.depth, h.unblocked = h.cfg.QueueDepth, 0
		return blocked
	}
	h.sized(l, consumed, busy)
	// With as much in flight when f started as its link's product asks for,
	// the wait was a queue's doing, which depth does not shorten: only a wait
	// with less says the pipeline was short, and where, and stops the leak.
	if f.level < depthGain*l.need+depthQuanta*h.cfg.QueueDepth {
		h.unblocked, h.short = 0, f.level
	}
	return blocked
}

// sized takes l's product afresh, from its latency and the consumed pages the
// readers got through in busy, and depth from the link that needs the most —
// once no link being probed has flights left in the air.
func (h *Host) sized(l *link, consumed int64, busy time.Duration) {
	l.need = h.peak
	if consumed > 0 && busy > 0 {
		l.need = int(min(int64(l.need), int64(l.latency)*consumed/int64(busy)))
	}
	h.peak = h.flying
	need := 0
	for _, l := range h.links {
		if l.probing && l.flying > 0 {
			h.depth = h.cfg.QueueDepth // the pipeline is draining for it
			return
		}
		need = max(need, l.need)
	}
	h.depth = min(depthGain*need+depthQuanta*h.cfg.QueueDepth, maxUnreaped/PageSize)
}

// leak counts pages landed without a wait and, a depth's worth of them on,
// gives some of the depth back: half of what lies above the pages in flight
// when a reader last found the pipeline short, or, with that level passed and
// forgotten, a quarter of everything; a frame at least, and never the quanta.
func (h *Host) leak(pages int) {
	frame := h.cfg.QueueDepth
	quanta := depthQuanta * frame
	h.unblocked += pages
	if h.unblocked < h.depth || h.depth <= quanta {
		return
	}
	if h.depth <= h.short {
		h.short = 0 // a depth's worth of pages at it, and nobody waited
	}
	step := h.depth / 4
	if h.short > 0 {
		step = (h.depth - h.short) / 2
	}
	h.depth = max(h.depth-max(step, frame), quanta)
	h.peak, h.unblocked = h.flying, 0
	for _, l := range h.links {
		l.need = min(l.need, (h.depth-quanta)/depthGain)
	}
}
