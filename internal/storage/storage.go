// Package storage provides the backing-store device models a page fetch
// ultimately lands on: rotational disk (HDD), flash (SSD), and disaggregated
// remote memory over the RDMA fabric. All three implement one Device
// interface so the paging path is medium-agnostic, mirroring how the paper
// runs the same workloads against disk swap, Infiniswap, and Leap.
//
// Devices are calibrated to the paper's Figure 1 stage costs: HDD ≈ 91.5µs
// for the short seeks a strided swap layout produces (milliseconds for long
// seeks), SSD ≈ 20µs, remote memory ≈ 4.3µs per 4KB op. HDD serializes on a
// single head; SSD exposes channel parallelism; remote memory inherits the
// fabric's per-core queue behaviour.
package storage

import (
	"leap/internal/core"
	"leap/internal/metrics"
	"leap/internal/rdma"
	"leap/internal/sim"
)

// BatchDevice is the optional batched extension of Device: devices that
// support doorbell-style submission (remote memory's multi-queue fabric)
// implement it, and the paging layer fans prefetches and eviction
// writebacks out through it when a queue depth > 1 is configured. A batch
// of 1 must behave exactly like the single-op call (same latency samples,
// same accounting), so depth-1 configurations replay bit-identically
// against the unbatched path.
type BatchDevice interface {
	Device
	// ReadBatch starts reads of pages as one doorbell on core's queue at
	// time now and returns per-page completion times (filled into done,
	// allocated when nil or short). dists mirrors Read's distance argument,
	// one entry per page.
	ReadBatch(core int, now sim.Time, pages []core.PageID, dists []int64, done []sim.Time) []sim.Time
	// WriteBatch behaves like ReadBatch for page-out traffic.
	WriteBatch(core int, now sim.Time, pages []core.PageID, dists []int64, done []sim.Time) []sim.Time
}

// Device is a backing store for 4KB pages. Implementations are not safe for
// concurrent use.
type Device interface {
	// Name reports a short identifier ("hdd", "ssd", "remote").
	Name() string
	// Read starts a read of page at time now whose target is distance pages
	// away from the previous access (0 = same page, 1 = sequential next);
	// core identifies the submitting CPU for multi-queue devices. It
	// returns the completion time. Latency-model devices ignore page.
	Read(core int, now sim.Time, page core.PageID, distance int64) sim.Time
	// Write behaves like Read for page-out traffic.
	Write(core int, now sim.Time, page core.PageID, distance int64) sim.Time
	// MeanReadLatency reports the unloaded expected read latency for a
	// near-sequential access, for documentation and sanity checks.
	MeanReadLatency() sim.Duration
}

// HDD models a rotational disk serving a swap partition: a single head
// serializes all requests, and each request costs a positioning step that
// depends on the distance from the previous request plus a fixed per-page
// transfer. Streaming adjacent pages is therefore cheap (the head is
// already positioned), short hops cost a partial rotation, stride-scale
// hops land at the paper's measured 91.48µs (Figure 1, stride-10), and
// long jumps pay a seek. The long-seek figure assumes a short-stroked swap
// partition with an elevator scheduler, not a full-platter average.
type HDD struct {
	rng    *sim.RNG
	freeAt sim.Time

	posSeq  sim.Dist // |d| <= 1: head already positioned
	posNear sim.Dist // |d| <= 16384: short seek + rotation (the paper's stride measurements)
	posFar  sim.Dist // beyond: seek across the partition
	xfer    sim.Dist // per-4KB transfer

	// Reads counts operations, for bandwidth accounting in experiments.
	Reads, Writes int64
	// Busy records time the head was occupied.
	Busy sim.Duration
}

// NewHDD returns an HDD with paper-calibrated latencies.
func NewHDD(rng *sim.RNG) *HDD {
	return &HDD{
		rng:     rng,
		posSeq:  sim.Normal{Mu: 5 * sim.Microsecond, Sigma: 1 * sim.Microsecond, Floor: 2 * sim.Microsecond},
		posNear: sim.LogNormal{MeanVal: sim.Duration(85.5 * float64(sim.Microsecond)), Sigma: 0.35, Floor: 30 * sim.Microsecond},
		posFar:  sim.LogNormal{MeanVal: 300 * sim.Microsecond, Sigma: 0.5, Floor: 100 * sim.Microsecond},
		xfer:    sim.Normal{Mu: 6 * sim.Microsecond, Sigma: 1 * sim.Microsecond, Floor: 3 * sim.Microsecond},
	}
}

// Name implements Device.
func (d *HDD) Name() string { return "hdd" }

func (d *HDD) service(now sim.Time, distance int64) sim.Time {
	if distance < 0 {
		distance = -distance
	}
	var pos sim.Duration
	switch {
	case distance <= 1:
		pos = d.posSeq.Sample(d.rng)
	case distance <= 16384:
		pos = d.posNear.Sample(d.rng)
	default:
		pos = d.posFar.Sample(d.rng)
	}
	// NCQ-style overlap: when requests are already queued at the device,
	// the controller orders them and overlaps positioning with rotation,
	// roughly halving the effective positioning cost of batched I/O. Deep
	// prefetch batches benefit; isolated synchronous misses do not.
	start := now
	if d.freeAt > start {
		start = d.freeAt
		pos /= 2
	}
	cost := pos + d.xfer.Sample(d.rng)
	d.freeAt = start.Add(cost)
	d.Busy += cost
	return d.freeAt
}

// Read implements Device.
func (d *HDD) Read(_ int, now sim.Time, _ core.PageID, distance int64) sim.Time {
	d.Reads++
	return d.service(now, distance)
}

// Write implements Device. Swap-out writes are charged the sequential cost
// regardless of logical distance: Linux's swap slot allocator clusters
// outgoing pages into contiguous slots precisely so page-out is a
// sequential append, and the elevator merges them.
func (d *HDD) Write(_ int, now sim.Time, _ core.PageID, _ int64) sim.Time {
	d.Writes++
	return d.service(now, 1)
}

// MeanReadLatency implements Device.
func (d *HDD) MeanReadLatency() sim.Duration { return d.posNear.Mean() + d.xfer.Mean() }

// SSD models a flash device: near-constant latency, multiple independent
// channels, writes costlier than reads.
type SSD struct {
	rng    *sim.RNG
	freeAt []sim.Time

	read  sim.Dist
	write sim.Dist

	Reads, Writes int64
}

// NewSSD returns an SSD with paper-calibrated latencies (Fig. 1: 20µs reads)
// and 8 channels.
func NewSSD(rng *sim.RNG) *SSD {
	return &SSD{
		rng:    rng,
		freeAt: make([]sim.Time, 8),
		read:   sim.LogNormal{MeanVal: 20 * sim.Microsecond, Sigma: 0.3, Floor: 8 * sim.Microsecond},
		write:  sim.LogNormal{MeanVal: 50 * sim.Microsecond, Sigma: 0.4, Floor: 20 * sim.Microsecond},
	}
}

// Name implements Device.
func (d *SSD) Name() string { return "ssd" }

func (d *SSD) service(core int, now sim.Time, dist sim.Dist) sim.Time {
	q := core % len(d.freeAt)
	start := now
	if d.freeAt[q] > start {
		start = d.freeAt[q]
	}
	// Channel occupancy is a fraction of the op latency (controller
	// pipelining); 2µs per 4KB keeps a channel at ~500MB/s.
	d.freeAt[q] = start.Add(2 * sim.Microsecond)
	return start.Add(dist.Sample(d.rng))
}

// Read implements Device.
func (d *SSD) Read(cpu int, now sim.Time, _ core.PageID, _ int64) sim.Time {
	d.Reads++
	return d.service(cpu, now, d.read)
}

// Write implements Device.
func (d *SSD) Write(cpu int, now sim.Time, _ core.PageID, _ int64) sim.Time {
	d.Writes++
	return d.service(cpu, now, d.write)
}

// MeanReadLatency implements Device.
func (d *SSD) MeanReadLatency() sim.Duration { return d.read.Mean() }

// Remote is disaggregated remote memory reached over the RDMA fabric. Reads
// and writes are single RDMA ops; congestion and queueing come from the
// fabric model.
type Remote struct {
	fabric *rdma.Fabric

	Reads, Writes int64
	// ReadLatency records per-op completion latency (device portion only).
	ReadLatency metrics.Histogram
}

// NewRemote returns a remote-memory device on the given fabric.
func NewRemote(fabric *rdma.Fabric) *Remote {
	return &Remote{fabric: fabric}
}

// Name implements Device.
func (d *Remote) Name() string { return "remote" }

// Read implements Device.
func (d *Remote) Read(cpu int, now sim.Time, _ core.PageID, _ int64) sim.Time {
	d.Reads++
	done := d.fabric.Submit(cpu, now)
	d.ReadLatency.Observe(done.Sub(now))
	return done
}

// Write implements Device.
func (d *Remote) Write(cpu int, now sim.Time, _ core.PageID, _ int64) sim.Time {
	d.Writes++
	return d.fabric.Submit(cpu, now)
}

// ReadBatch implements BatchDevice: the pages go out as one fabric
// doorbell, paying the round-trip latency once and streaming back at the
// service rate (rdma.Fabric.SubmitBatch). A batch of 1 is exactly Read.
func (d *Remote) ReadBatch(cpu int, now sim.Time, pages []core.PageID, dists []int64, done []sim.Time) []sim.Time {
	d.Reads += int64(len(pages))
	done = d.fabric.SubmitBatch(cpu, len(pages), now, done)
	for _, t := range done {
		d.ReadLatency.Observe(t.Sub(now))
	}
	return done
}

// WriteBatch implements BatchDevice.
func (d *Remote) WriteBatch(cpu int, now sim.Time, pages []core.PageID, dists []int64, done []sim.Time) []sim.Time {
	d.Writes += int64(len(pages))
	return d.fabric.SubmitBatch(cpu, len(pages), now, done)
}

// MeanReadLatency implements Device.
func (d *Remote) MeanReadLatency() sim.Duration { return d.fabric.MeanOpLatency() }

// Fabric exposes the underlying fabric for congestion probes.
func (d *Remote) Fabric() *rdma.Fabric { return d.fabric }
