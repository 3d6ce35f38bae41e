// Package rdma models the RDMA fabric that carries remote-memory traffic: a
// set of per-core dispatch queues (the paper's multi-queue I/O design, §4.4)
// in front of a network with the paper's measured 4.3µs average 4KB-op
// latency.
//
// Each queue serializes the wire occupancy of its operations, so a burst of
// prefetches delays the demand fetch that shares the queue — the congestion
// effect behind the paper's observation that Leap's adaptive throttling
// "helps the most by not congesting the RDMA" (§5.3.3). Queues are chosen
// per submitting core, mirroring the per-CPU-core RDMA connections of the
// real system.
package rdma

import (
	"leap/internal/metrics"
	"leap/internal/sim"
)

// Config parameterizes the fabric.
type Config struct {
	// Queues is the number of per-core dispatch queues (default 8).
	Queues int
	// OpLatency is the unloaded one-op completion latency (default: normal
	// around the paper's 4.3µs with modest jitter).
	OpLatency sim.Dist
	// ServiceTime is the per-op wire/NIC occupancy that serializes a queue
	// (default 1µs ≈ a 4KB transfer plus doorbell/WQE setup on 56Gbps
	// InfiniBand).
	ServiceTime sim.Duration
	// StreamTime is the occupancy of each op after the first within one
	// doorbell batch (default 600ns ≈ the bare 4KB wire time): posting n
	// work requests with a single doorbell pays the setup once, so batched
	// ops stream at wire rate while individually-submitted ops pay the full
	// ServiceTime each. Only SubmitBatch uses it.
	StreamTime sim.Duration
}

func (c Config) withDefaults() Config {
	if c.Queues <= 0 {
		c.Queues = 8
	}
	if c.OpLatency == nil {
		c.OpLatency = sim.Normal{Mu: 4300, Sigma: 600, Floor: 2500}
	}
	if c.ServiceTime <= 0 {
		c.ServiceTime = 1 * sim.Microsecond
	}
	if c.StreamTime <= 0 || c.StreamTime > c.ServiceTime {
		c.StreamTime = 600 * sim.Nanosecond
		if c.StreamTime > c.ServiceTime {
			c.StreamTime = c.ServiceTime
		}
	}
	return c
}

// Fabric is the simulated RDMA network. Not safe for concurrent use.
type Fabric struct {
	cfg    Config
	rng    *sim.RNG
	freeAt []sim.Time // per-queue: when the queue next drains

	// QueueDelay records time spent waiting for the dispatch queue — the
	// congestion signal.
	QueueDelay metrics.Histogram
	ops        int64
}

// New returns a Fabric seeded deterministically.
func New(cfg Config, rng *sim.RNG) *Fabric {
	cfg = cfg.withDefaults()
	return &Fabric{cfg: cfg, rng: rng, freeAt: make([]sim.Time, cfg.Queues)}
}

// Ops reports the total operations carried.
func (f *Fabric) Ops() int64 { return f.ops }

// Queues reports the configured queue count.
func (f *Fabric) Queues() int { return f.cfg.Queues }

// Submit enqueues one 4KB operation on core's dispatch queue at time now and
// returns the completion time. The op waits for the queue to drain, occupies
// it for the service time, and completes after the network latency.
func (f *Fabric) Submit(core int, now sim.Time) (done sim.Time) {
	q := core % len(f.freeAt)
	start := now
	if f.freeAt[q] > start {
		start = f.freeAt[q]
	}
	f.QueueDelay.Observe(start.Sub(now))
	f.freeAt[q] = start.Add(f.cfg.ServiceTime)
	f.ops++
	return start.Add(f.cfg.OpLatency.Sample(f.rng))
}

// SubmitBatch enqueues n 4KB operations as one doorbell on core's dispatch
// queue: the batch waits for the queue once, pays the per-op setup
// (ServiceTime) once, streams the remaining ops at wire rate (StreamTime),
// and pays one round-trip latency — completion of op i is
// start + latency + i×StreamTime. done is filled with the n completion
// times (allocated when nil or short) and returned. A batch of 1 is exactly
// Submit: same queue accounting, same single latency draw, so depth-1
// callers replay bit-identically against the unbatched path.
func (f *Fabric) SubmitBatch(core, n int, now sim.Time, done []sim.Time) []sim.Time {
	if cap(done) < n {
		done = make([]sim.Time, n)
	}
	done = done[:n]
	q := core % len(f.freeAt)
	start := now
	if f.freeAt[q] > start {
		start = f.freeAt[q]
	}
	f.QueueDelay.Observe(start.Sub(now))
	f.freeAt[q] = start.Add(f.cfg.ServiceTime + sim.Duration(n-1)*f.cfg.StreamTime)
	f.ops += int64(n)
	first := start.Add(f.cfg.OpLatency.Sample(f.rng))
	for i := range done {
		done[i] = first.Add(sim.Duration(i) * f.cfg.StreamTime)
	}
	return done
}

// MeanOpLatency reports the configured unloaded mean op latency.
func (f *Fabric) MeanOpLatency() sim.Duration { return f.cfg.OpLatency.Mean() }
