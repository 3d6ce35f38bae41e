// Package layers holds the parts of the benchmark that must name the
// library's internal packages: the span-recording transport wrapper (its
// Call method takes the wire protocol's request type) and the stand-alone
// per-layer probes. It uses only exported entry points; the end-to-end
// driver itself stays on package leap and the standard library.
package layers

import (
	"sync"
	"sync/atomic"
	"time"

	"leap/internal/remote"
)

// CallSpan is one transport.call span: a round trip to one agent. Seq
// numbers the transport's calls from 0 in the order they reach the wire,
// counted whether or not tracing is on, matching the turnaround numbering of
// the agent-side counting connection. A call belongs to the application
// access whose span contains it.
type CallSpan struct {
	Seq        int64
	Start, End int64 // nanoseconds since the tracer's epoch
	Pages      int32 // remote.BatchPages of the request
}

// Tracer is the state the benchmark's spans share: the epoch all span
// times are measured from and the tracing switch.
type Tracer struct {
	Epoch time.Time
	on    atomic.Bool
}

// NewTracer returns a tracer, switched off, with its epoch at now.
func NewTracer() *Tracer { return &Tracer{Epoch: time.Now()} }

// Now reports nanoseconds since the epoch.
func (t *Tracer) Now() int64 { return int64(time.Since(t.Epoch)) }

// SetOn switches span recording. Switch only while no access is in flight.
func (t *Tracer) SetOn(on bool) { t.on.Store(on) }

// Transport wraps one dialed transport and records a CallSpan per round
// trip while its tracer is on.
type Transport struct {
	inner  remote.Transport
	tracer *Tracer

	// call is held across a round trip, so that sequence numbers are handed
	// out in the order requests reach the connection. The dialed transport
	// is stop-and-wait behind a lock of its own; taking this one first adds
	// no serialisation, it only makes the order known.
	call sync.Mutex
	seq  int64

	mu    sync.Mutex
	spans []CallSpan
}

// Wrap returns inner wrapped for span recording.
func (t *Tracer) Wrap(inner remote.Transport) *Transport {
	return &Transport{inner: inner, tracer: t}
}

// Call implements remote.Transport. The span starts before the lock is
// taken: waiting for the connection is part of the call.
func (t *Transport) Call(req *remote.Request) (*remote.Response, error) {
	start := t.tracer.Now()
	t.call.Lock()
	seq := t.seq
	t.seq++
	resp, err := t.inner.Call(req)
	end := t.tracer.Now()
	t.call.Unlock()
	if t.tracer.on.Load() {
		span := CallSpan{
			Seq:   seq,
			Start: start,
			End:   end,
			Pages: int32(remote.BatchPages(req)),
		}
		t.mu.Lock()
		t.spans = append(t.spans, span)
		t.mu.Unlock()
	}
	return resp, err
}

// Close implements remote.Transport.
func (t *Transport) Close() error { return t.inner.Close() }

// Spans reports the spans recorded so far.
func (t *Transport) Spans() []CallSpan {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]CallSpan(nil), t.spans...)
}
