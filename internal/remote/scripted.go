package remote

import (
	"bytes"
	"slices"
	"sync"
	"time"
)

// FakeClock is a wall clock that only its owner and the ScriptedLinks that play
// their time on it move. A host it drives (Drive) measures such a link's
// delays exactly, however long the test takes to play them, and a clock nobody
// moves stands still.
type FakeClock struct {
	mu  sync.Mutex
	now time.Time
}

// NewFakeClock returns a clock standing one second past the Unix epoch.
func NewFakeClock() *FakeClock { return &FakeClock{now: time.Unix(1, 0)} }

// Now returns the clock's time.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock d forward.
func (c *FakeClock) Advance(d time.Duration) { c.advance(time.Time{}, d) }

// advance moves the clock to t, if t is ahead of it, and then d forward.
func (c *FakeClock) advance(t time.Time, d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.After(c.now) {
		c.now = t
	}
	c.now = c.now.Add(d)
}

// Drive has h's depth estimator read c instead of time.Now. Call it before h
// is used.
func (c *FakeClock) Drive(h *Host) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.clock = c.Now
}

// Mode is the method set of a ScriptedLink's Transport, which decides how a
// host drives it.
type Mode int

const (
	// CallOnly is a Transport alone: every frame is a round trip.
	CallOnly Mode = iota
	// Split adds Starter: frames are started and waited for apart.
	Split
	// Trains adds TrainStarter: a frame started with more to follow is held,
	// a copy, until its train leaves — with the next frame started without
	// more, with a Call, or at the first Wait for a frame of it.
	Trains
)

// Verdict is a link's script's word on one frame, given as the frame reaches
// the inner transport.
type Verdict struct {
	// Err drops the frame before the inner transport sees it: its Wait fails
	// with Err.
	Err error
	// Hold holds the frame's response back until Release or Pump lets it go.
	Hold bool
	// Then, when set, is handed the frame's outcome once the inner transport
	// has answered it, or once it was dropped.
	Then func(*Response, error)
}

// ScriptedLink is a transport for tests to play a link with: it hands every
// frame, in the order it is started, to an inner transport's Call, and
// decides as it does — through a script, a hold on responses and a clock —
// when and how the answer reaches the host.
//
// A frame's response is due max(now, free) + service + delay, where now is
// read when the frame is started and free is when the link's agent finished
// the frames before it. Wait returns at the due time: on a FakeClock it moves
// the clock there, and take on (what reading a response costs); on the wall
// clock it sleeps. The script runs outside the link's locks, so it may block
// or re-enter the host — in Trains mode with the sender lock held, so it must
// not start frames on its own link there.
type ScriptedLink struct {
	mode    Mode
	clock   *FakeClock // nil: the wall clock
	now     func() time.Time
	script  func(*Request) Verdict
	sending sync.Mutex // keeps a train's frames, and the trains, in start order

	mu                   sync.Mutex
	cond                 *sync.Cond // a response let go, or a waiter parked on one
	inner                Transport
	delay, service, take time.Duration
	free                 time.Time          // when the agent is done with what it has been given
	train                []*scriptedPending // frames started with more, not yet sent
	holding              bool
	held                 []*scriptedPending // frames whose response is held back, oldest first
	waiting              int                // goroutines in Wait on a held response
	// issued numbers the started frames sent, and every one below waited has
	// been waited for; skipped counts the Waits that passed over an older one.
	issued, waited, skipped int
	writes, frames, wire    int64
}

// NewScriptedLink returns a link of mode over inner, its time played on clock
// (nil for the wall clock), every frame shown to script (nil for none).
func NewScriptedLink(inner Transport, mode Mode, clock *FakeClock, script func(*Request) Verdict) *ScriptedLink {
	l := &ScriptedLink{mode: mode, clock: clock, now: time.Now, script: script, inner: inner}
	if clock != nil {
		l.now = clock.Now
	}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// Transport returns the link as its mode's transport: a Transport, a Starter
// or a TrainStarter.
func (l *ScriptedLink) Transport() Transport {
	switch l.mode {
	case Split:
		return splitLink{callLink{l}}
	case Trains:
		return trainLink{splitLink{callLink{l}}}
	}
	return callLink{l}
}

type callLink struct{ l *ScriptedLink }

func (t callLink) Call(req *Request) (*Response, error) { return t.l.call(req) }

func (t callLink) Close() error { return t.l.Inner().Close() }

type splitLink struct{ callLink }

func (t splitLink) Start(req *Request) (Pending, error) { return t.l.start(req, false), nil }

type trainLink struct{ splitLink }

func (t trainLink) StartTrain(req *Request, more bool) (Pending, error) {
	return t.l.start(req, more), nil
}

// SetTiming sets the link's delay, its agent's service time a frame, and the
// take of a response.
func (l *ScriptedLink) SetTiming(delay, service, take time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.delay, l.service, l.take = delay, service, take
}

// SetInner has the frames sent from now on go to inner.
func (l *ScriptedLink) SetInner(inner Transport) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.inner = inner
}

// Inner returns the transport frames are sent to.
func (l *ScriptedLink) Inner() Transport {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inner
}

// Hold holds back the response of every frame sent from now on, until
// Release.
func (l *ScriptedLink) Hold() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.holding = true
}

// Release lets every held response through and ends Hold.
func (l *ScriptedLink) Release() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.holding = false
	for len(l.held) > 0 {
		l.letGo(0)
	}
}

// Pump plays the link while responses are held: whenever a goroutine waits
// for a held response it lets one through — the pick(n)-th oldest of the n
// held, so a constant 0 is a FIFO link and a seeded draw delivers in any order
// — after telling observe how many were held. The returned stop ends the pump
// and releases the link.
func (l *ScriptedLink) Pump(pick func(n int) int, observe func(held int)) (stop func()) {
	stopped, done := false, make(chan struct{})
	go func() {
		defer close(done)
		l.mu.Lock()
		defer l.mu.Unlock()
		for {
			for !stopped && (l.waiting == 0 || len(l.held) == 0) {
				l.cond.Wait()
			}
			if stopped {
				return
			}
			observe(len(l.held))
			l.letGo(pick(len(l.held)))
		}
	}()
	return func() {
		l.mu.Lock()
		stopped = true
		l.cond.Broadcast()
		l.mu.Unlock()
		<-done
		l.Release()
	}
}

// AwaitWaiters returns once n goroutines are waiting for held responses.
func (l *ScriptedLink) AwaitWaiters(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.waiting < n {
		l.cond.Wait()
	}
}

// OutOfOrder reports how many Waits passed over an older started frame: a link
// answers in order, and a host is to land a link's flights in the order it
// started them.
func (l *ScriptedLink) OutOfOrder() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.skipped
}

// Traffic reports the socket writes the link's frames would have taken (one a
// frame, or in Trains mode one a train), the frames, and the bytes on a socket
// both ways, headers included, of those the inner transport answered.
func (l *ScriptedLink) Traffic() (writes, frames, wire int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.writes, l.frames, l.wire
}

// letGo lets the i-th oldest held response through. Callers hold l.mu.
func (l *ScriptedLink) letGo(i int) {
	p := l.held[i]
	l.held = slices.Delete(l.held, i, i+1)
	p.held = false
	l.waiting -= p.waiters
	l.cond.Broadcast()
}

// scriptedPending is a frame's completion handle. held and waiters, and req
// while the frame waits in a train, are guarded by l.mu.
type scriptedPending struct {
	l       *ScriptedLink
	req     *Request  // the copy of a frame waiting in its train
	seq     int       // its number among the started frames; -1 for a Call's
	at, due time.Time // when it was started, and its response due
	take    time.Duration
	resp    *Response
	err     error
	held    bool
	waiters int
}

// start begins req: sent at once or, in Trains mode with more to follow, held
// in the train as a copy — the host encodes its next frame over req.
func (l *ScriptedLink) start(req *Request, more bool) Pending {
	p := &scriptedPending{l: l, at: l.now()}
	if l.mode != Trains {
		l.send(p, req)
		return p
	}
	p.req = &Request{Op: req.Op, Slab: req.Slab, PageOff: req.PageOff, Payload: bytes.Clone(req.Payload)}
	l.mu.Lock()
	l.train = append(l.train, p)
	l.mu.Unlock()
	if !more {
		l.sendTrain()
	}
	return p
}

// call is a round trip outside the order of the started frames, after what is
// in the train.
func (l *ScriptedLink) call(req *Request) (*Response, error) {
	if l.mode == Trains {
		l.sendTrain()
	}
	p := &scriptedPending{l: l, seq: -1, at: l.now()}
	l.send(p, req)
	return p.Wait()
}

// sendTrain sends the frames in the train, in order, as one write.
func (l *ScriptedLink) sendTrain() {
	l.sending.Lock()
	defer l.sending.Unlock()
	l.mu.Lock()
	train := l.train
	l.train = nil
	if len(train) > 0 {
		l.writes++
	}
	l.mu.Unlock()
	for _, p := range train {
		l.send(p, p.req)
	}
}

// send hands req to the inner transport for p, as the script says, and books
// p's number, due time and hold.
func (l *ScriptedLink) send(p *scriptedPending, req *Request) {
	var v Verdict
	if l.script != nil {
		v = l.script(req)
	}
	if p.err = v.Err; p.err == nil {
		p.resp, p.err = l.Inner().Call(req)
	}
	if v.Then != nil {
		v.Then(p.resp, p.err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if p.seq >= 0 {
		p.seq = l.issued
		l.issued++
	}
	if p.req == nil { // not a train's: a write of its own
		l.writes++
	}
	l.frames++
	if p.err == nil {
		l.wire += int64(reqHeaderSize + len(req.Payload) + respHeaderSize + len(p.resp.Payload))
	}
	if p.at.After(l.free) {
		l.free = p.at
	}
	l.free = l.free.Add(l.service)
	p.due, p.take, p.req = l.free.Add(l.delay), l.take, nil
	if p.held = l.holding || v.Hold; p.held {
		l.held = append(l.held, p)
	}
}

// Wait implements Pending: it sends the frame's train if the frame is still in
// it, notes the order it is waited for in, waits while its response is held,
// and then for its due time.
func (p *scriptedPending) Wait() (*Response, error) {
	l := p.l
	l.mu.Lock()
	if p.req != nil {
		l.mu.Unlock()
		l.sendTrain()
		l.mu.Lock()
	}
	switch {
	case p.seq == l.waited:
		l.waited++
	case p.seq > l.waited:
		l.skipped++
	}
	if p.held {
		p.waiters++
		l.waiting++
		l.cond.Broadcast()
		for p.held {
			l.cond.Wait()
		}
	}
	l.mu.Unlock()
	if l.clock != nil {
		l.clock.advance(p.due, p.take)
	} else {
		time.Sleep(time.Until(p.due))
	}
	return p.resp, p.err
}
