package remote

import (
	"errors"
	"fmt"

	"leap/internal/core"
)

// Sentinel causes carried by ticket failures; match with errors.Is.
var (
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
// errors.Is(err, ErrAllReplicasFailed) etc. work through it.
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

// SetAgentSlow records (or clears) the control plane's hint that agent idx
// is lagging: reads order away from slow agents whenever a fresh alternative
// exists, but never to a replica that missed the page's last write. Hints are
// advisory: they never exclude an agent from placement (that is MarkFailed's
// job).
func (h *Host) SetAgentSlow(idx int, slow bool) error {
	return h.setStanding("SetAgentSlow", idx, func(l *link) { l.slow = slow })
}

// SlowAgents reports the currently slow-hinted agent indices, sorted.
func (h *Host) SlowAgents() []int {
	return h.agentsWhere(func(l *link) bool { return l.slow })
}
