package remote

import (
	"errors"
	"fmt"
	"sync"

	"leap/internal/sim"
)

// ErrInjected marks a transport error produced by fault injection rather
// than a real I/O failure; errors.Is distinguishes chaos from accidents.
var ErrInjected = errors.New("injected fault")

// FaultMode is the switchable failure state of one FaultTransport.
type FaultMode struct {
	// Crashed fails every call: the agent process is gone (its memory is
	// gone too — pair with Agent.Reset on restart).
	Crashed bool
	// Partitioned fails every call like Crashed, but models a network
	// split: the agent keeps its memory and rejoins with old contents.
	Partitioned bool
	// WriteFailProb fails each write frame independently with this probability,
	// producing stale-replica divergence (the write lands on the other
	// replicas only).
	WriteFailProb float64
	// ExtraLatency is added virtual time per call for a slow/lagging agent.
	// It never fails the call; it is reported to the observer for timing.
	ExtraLatency sim.Duration
}

// CallObservation is what a FaultTransport reports per call, letting a
// deterministic harness charge virtual time without touching the data path.
type CallObservation struct {
	Agent    int
	Op       uint8
	Pages    int          // page ops the frame carries (>1 for batch frames)
	Injected bool         // the call was failed by fault injection
	Extra    sim.Duration // slow-agent latency to charge (0 when healthy)
}

// FaultTransport decorates a Transport with deterministic fault injection:
// hard crashes, network partitions, transient per-write failures and added
// latency. All probabilistic decisions come from the sim.RNG supplied at
// construction, so a single-threaded caller replays bit-identically from a
// seed. Safe for concurrent use, though concurrent callers naturally race
// for positions in the RNG stream.
type FaultTransport struct {
	agent int
	inner Transport

	mu       sync.Mutex
	mode     FaultMode
	rng      *sim.RNG
	observer func(CallObservation)
	calls    int64
	injected int64
}

// NewFaultTransport wraps inner as agent index agent, drawing write-failure
// decisions from rng.
func NewFaultTransport(agent int, inner Transport, rng *sim.RNG) *FaultTransport {
	return &FaultTransport{agent: agent, inner: inner, rng: rng}
}

// Agent reports the agent index this transport fronts.
func (t *FaultTransport) Agent() int { return t.agent }

// SetMode replaces the fault state.
func (t *FaultTransport) SetMode(mode FaultMode) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.mode = mode
}

// Mode reports the current fault state.
func (t *FaultTransport) Mode() FaultMode {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.mode
}

// Reachable reports whether calls currently go through at all (reads always
// succeed on a reachable transport; writes may still flake).
func (t *FaultTransport) Reachable() bool {
	m := t.Mode()
	return !m.Crashed && !m.Partitioned
}

// SetObserver installs f, called once per Call (before the inner call, with
// the injection decision already made). Pass nil to remove.
func (t *FaultTransport) SetObserver(f func(CallObservation)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.observer = f
}

// Observer reports the currently installed per-call observer (nil when
// none). A harness that must keep an existing observer alive — the runtime
// chaining a control-plane feed onto a chaos harness's accounting hook —
// reads it before SetObserver and calls it from the replacement.
func (t *FaultTransport) Observer() func(CallObservation) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.observer
}

// Stats reports (total calls, calls failed by injection).
func (t *FaultTransport) Stats() (calls, injected int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.calls, t.injected
}

// Call implements Transport.
func (t *FaultTransport) Call(req *Request) (*Response, error) {
	t.mu.Lock()
	mode := t.mode
	var cause string
	switch {
	case mode.Crashed:
		cause = "agent crashed"
	case mode.Partitioned:
		cause = "network partition"
	case mode.WriteFailProb > 0 && (req.Op == OpWrite || req.Op == OpWriteBatch || req.Op == OpWriteRanges) &&
		t.rng != nil && t.rng.Float64() < mode.WriteFailProb:
		cause = "transient write failure"
	}
	t.calls++
	if cause != "" {
		t.injected++
	}
	obs := t.observer
	t.mu.Unlock()

	if obs != nil {
		obs(CallObservation{
			Agent:    t.agent,
			Op:       req.Op,
			Pages:    BatchPages(req),
			Injected: cause != "",
			Extra:    mode.ExtraLatency,
		})
	}
	if cause != "" {
		return nil, fmt.Errorf("remote: agent %d: %s: %w", t.agent, cause, ErrInjected)
	}
	return t.inner.Call(req)
}

// Close implements Transport.
func (t *FaultTransport) Close() error { return t.inner.Close() }
