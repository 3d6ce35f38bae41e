package remote

import (
	"errors"
	"fmt"
	"slices"

	"leap/internal/core"
	"leap/internal/sim"
)

// RetryPolicy bounds how hard the ticket engine fights for a page operation
// before giving up, and whether reads targeting agents hinted slow are
// hedged. It covers every read — ReadPage and StartRead as much as
// ReadPageAsync. The zero value reproduces the legacy behavior exactly: reads
// fail over across every replica with no attempt budget, no deadline, no
// backoff pacing and no hedging — so existing hosts replay bit-identically.
//
// The policy is the datapath half of the self-healing control plane (the
// 3PO observation that tail latency, not mean, decides whether far memory is
// usable): a health monitor marks an agent slow (SetAgentSlow) once its p99
// crosses a threshold, after which reads route around it and duplicate onto
// the next acked holder, so a lagging agent costs one hedge rather than a
// stall.
type RetryPolicy struct {
	// MaxAttempts caps the total transport attempts one read ticket may
	// consume across all replicas, retries included. 0 means unlimited (one
	// attempt per distinct replica, the legacy failover walk).
	MaxAttempts int
	// Deadline is the per-ticket virtual-time budget measured from enqueue.
	// A retry past the deadline fails the ticket with ErrDeadlineExceeded.
	// It requires a time source (Host.SetTimeSource); 0 disables it.
	Deadline sim.Duration
	// BackoffBase is the pacing charged before the first read retry; each
	// further retry doubles it, capped at BackoffCap, with ±25% deterministic
	// jitter derived from (JitterSeed, page, attempt). The charge is
	// delivered through Host.SetBackoffObserver so a virtual-time harness
	// can account for it; 0 disables backoff pacing.
	BackoffBase sim.Duration
	// BackoffCap bounds the exponential backoff (default 16×BackoffBase).
	BackoffCap sim.Duration
	// JitterSeed salts the deterministic backoff jitter.
	JitterSeed uint64
	// HedgeReads duplicates a read whose chosen target is hinted slow onto
	// the next acked holder in the same doorbell; the first completion wins
	// and the loser is discarded at drain time.
	HedgeReads bool
}

// withDefaults fills the derived fields without disturbing the zero-value
// legacy semantics.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.BackoffBase > 0 && p.BackoffCap <= 0 {
		p.BackoffCap = 16 * p.BackoffBase
	}
	return p
}

// backoffFor computes the pacing charged before retry number attempt
// (1-based) of a read of page: capped exponential growth with ±25%
// deterministic jitter. It is a pure function of (policy, page, attempt), so
// replays and reorderings cannot perturb it.
func (p RetryPolicy) backoffFor(page core.PageID, attempt int) sim.Duration {
	if p.BackoffBase <= 0 || attempt <= 0 {
		return 0
	}
	d := p.BackoffBase
	for i := 1; i < attempt && d < p.BackoffCap; i++ {
		d *= 2
	}
	if d > p.BackoffCap {
		d = p.BackoffCap
	}
	// ±25% jitter from a splitmix-style hash; the low 16 bits give a
	// uniform fraction in [0, 1).
	x := p.JitterSeed ^ uint64(page)*0x9E3779B97F4A7C15 ^ uint64(attempt)*0xD1B54A32D192ED03
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	frac := float64(x&0xFFFF) / float64(1<<16) // [0,1)
	return d + sim.Duration(float64(d)/2*(frac-0.5))
}

// Sentinel causes carried by ticket failures; match with errors.Is.
var (
	// ErrDeadlineExceeded marks a ticket that ran out of its per-ticket
	// virtual-time budget before any replica served it.
	ErrDeadlineExceeded = errors.New("deadline exceeded")
	// ErrAttemptsExhausted marks a ticket that consumed its MaxAttempts
	// transport-attempt budget.
	ErrAttemptsExhausted = errors.New("retry attempts exhausted")
	// ErrAllReplicasFailed marks an operation that failed on every holder it
	// could reach.
	ErrAllReplicasFailed = errors.New("failed on all replicas")
	// ErrNoReplica marks an operation with no live holder to try at all.
	ErrNoReplica = errors.New("no replica available")
	// ErrNeverWritten marks a read of a page no write ever placed.
	ErrNeverWritten = errors.New("page never written")
)

// OpError is the uniform failure type of the ticket engine: every
// ticket that completes with an error carries the operation kind, the page,
// and the last agent index involved (-1 when the failure happened before any
// agent was contacted). Unwrap exposes the underlying cause, so
// errors.Is(err, ErrDeadlineExceeded) etc. work through it.
type OpError struct {
	// Op is the wire operation (OpRead or OpWrite).
	Op uint8
	// Agent is the last agent index attempted, or -1 if none was.
	Agent int
	// Page is the page the operation targeted.
	Page core.PageID
	// Attempts is the number of transport attempts consumed.
	Attempts int
	// Err is the underlying cause.
	Err error
}

// Error renders the failure with its full op context.
func (e *OpError) Error() string {
	op := "op"
	switch e.Op {
	case OpRead:
		op = "read"
	case OpWrite:
		op = "write"
	}
	if e.Agent < 0 {
		return fmt.Sprintf("remote: %s page %d (attempts=%d): %v", op, e.Page, e.Attempts, e.Err)
	}
	return fmt.Sprintf("remote: %s page %d (agent %d, attempts=%d): %v", op, e.Page, e.Agent, e.Attempts, e.Err)
}

// Unwrap exposes the cause for errors.Is/As.
func (e *OpError) Unwrap() error { return e.Err }

// opError builds the uniform ticket failure.
func opError(op uint8, agent int, page core.PageID, attempts int, err error) *OpError {
	return &OpError{Op: op, Agent: agent, Page: page, Attempts: attempts, Err: err}
}

// SetTimeSource installs the virtual-time source the engine consults for
// per-ticket deadlines (and nothing else). Pass nil to remove; with no time
// source, RetryPolicy.Deadline is inert.
func (h *Host) SetTimeSource(now func() sim.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.now = now
}

// SetBackoffObserver installs f, called with (agent, pause) whenever the
// engine charges retry backoff before requeuing a failed read — the hook a
// virtual-time harness uses to account for pacing. Pass nil to remove.
func (h *Host) SetBackoffObserver(f func(agent int, d sim.Duration)) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.onBackoff = f
}

// SetAgentSlow records (or clears) the control plane's hint that agent idx
// is lagging: reads order away from slow agents whenever a fresh alternative
// exists, and — with RetryPolicy.HedgeReads — a read that must target a slow
// agent is duplicated onto the next acked holder. Hints are advisory: they
// never exclude an agent from placement (that is MarkFailed's job).
func (h *Host) SetAgentSlow(idx int, slow bool) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if idx < 0 || idx >= len(h.transports) {
		return fmt.Errorf("remote: SetAgentSlow(%d) out of range", idx)
	}
	if slow {
		if h.slow == nil {
			h.slow = make(map[int]bool)
		}
		h.slow[idx] = true
	} else {
		delete(h.slow, idx)
	}
	return nil
}

// SlowAgents reports the currently slow-hinted agent indices, sorted.
func (h *Host) SlowAgents() []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]int, 0, len(h.slow))
	for i := range h.slow {
		out = append(out, i)
	}
	slices.Sort(out)
	return out
}
