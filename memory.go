package leap

import (
	"leap/internal/control"
	"leap/internal/runtime"
	"leap/internal/sim"
)

// Memory is the byte-addressable remote-memory runtime: the paper's full
// stack fused into one client object. Local memory is a bounded set of page
// frames (the cgroup budget); everything beyond it lives on the remote
// substrate (RemoteHost: rendezvous-placed, replicated slabs reached over
// in-process or TCP transports). An access to a non-local page takes the
// same fault path as the simulator — the internal/paging engine shared with
// Simulate — so the majority-trend predictor watches the fault stream,
// prefetch windows go out to the real host through the async ticket engine
// (doorbell-batched wire frames), and the adaptive page cache decides
// eviction, while real page images move underneath.
//
// Build one with Open; drive it with ReadAt / WriteAt / Get; read the
// accounting with Stats. Memory is safe for concurrent use by arbitrary
// goroutines: each stripe of the fault path (WithShards) has its own lock,
// full misses fetch from the remote host outside it (single-flight per
// page), and Client handles map logical clients onto their own predictors
// (§4.1 isolation) over the shared cache, budget and host.
type Memory = runtime.Memory

// MemoryClient is a per-client handle on a shared Memory: operations
// through it feed the client id's own predictor while cache, budget and
// host stay shared. Create handles with Memory.Client — one per goroutine;
// handles with equal ids share a predictor.
type MemoryClient = runtime.Client

// MemoryStats aggregates a Memory's fault-path accounting (hits, misses,
// accuracy, coverage, latency percentiles, host activity).
type MemoryStats = runtime.Stats

// Option configures Open.
type Option = runtime.Option

// Duration is a span of virtual time (nanoseconds), the unit every latency
// and cadence knob in this package is expressed in.
type Duration = sim.Duration

// Open builds a Memory runtime. With no options it is the full Leap stack
// of the paper over a private in-process remote-memory cluster: lean data
// path, eager cache eviction, majority-trend prefetching, async
// doorbell-batched remote I/O.
func Open(opts ...Option) (*Memory, error) { return runtime.Open(opts...) }

// WithPrefetcherFactory selects the prefetching policy consulted on every
// fault (default: the Leap majority-trend predictor; build baselines with
// NewPrefetcher("readahead"), NewPrefetcher("none"), etc.). f is invoked
// once per fault-path stripe, so every stripe owns a private instance and no
// predictor state is shared across shard locks; at WithShards(1) that is
// once in all, and f may return an instance the caller keeps to read its
// statistics. The online per-client selector is one more policy:
// NewPrefetcher("ensemble") runs every arm in shadow and routes each client's
// prefetches to its best one; read its accounting off the instances f built.
func WithPrefetcherFactory(f func() Prefetcher) Option { return runtime.WithPrefetcherFactory(f) }

// Advice is an madvise-style access-pattern hint for MemoryClient.Advise:
// AdviseNormal, AdviseSequential, AdviseRandom declare sticky per-range
// patterns; AdviseWillNeed warms a range immediately.
type Advice = runtime.Advice

// Advice values for MemoryClient.Advise, mirroring madvise(2).
const (
	AdviseNormal     = runtime.AdviseNormal
	AdviseSequential = runtime.AdviseSequential
	AdviseRandom     = runtime.AdviseRandom
	AdviseWillNeed   = runtime.AdviseWillNeed
)

// WithRemoteHost runs the Memory over an existing host — typically one
// dialed to TCP agents (cmd/leapagent). The caller keeps ownership: Close
// flushes but does not close it. Without this option Open builds a private
// three-agent in-process cluster with two-way replication. Batched frames
// travel compressed when RemoteHostConfig.Compress is set.
func WithRemoteHost(h *RemoteHost) Option { return runtime.WithRemoteHost(h) }

// WithCacheCapacity sets the local memory budget in pages — the cgroup
// limit resident frames plus the prefetch cache are charged against
// (default 1024 pages = 4MB); the resident frames never outgrow it.
func WithCacheCapacity(pages int) Option { return runtime.WithCacheCapacity(pages) }

// WithQueueDepth bounds the async ticket engine's doorbell batches: up to
// this many page operations ride one wire frame per agent, and eviction
// writebacks accumulate behind a dirty backlog of the same bound (default
// 8; 1 degenerates to one synchronous round trip per page).
func WithQueueDepth(depth int) Option { return runtime.WithQueueDepth(depth) }

// WithShards splits the fault path into n PageID stripes (default 1;
// rounded up to a power of two), each with its own lock, predictor, page
// cache and residency budget, so page-cache hits on different stripes
// proceed in parallel — one shard lock per hit. Page pg lands on stripe
// pg mod n (round-robin striping). WithShards(1) is bit-identical to the
// serialized runtime; WithCacheCapacity must supply at least one page per
// shard.
func WithShards(n int) Option { return runtime.WithShards(n) }

// WithSeed seeds the latency models (fabric jitter, data-path stage draws).
// Equal seeds and equal access sequences replay bit-identically.
func WithSeed(seed uint64) Option { return runtime.WithSeed(seed) }

// ControlConfig tunes the runtime's self-healing control plane (attach it
// with WithControlPlane): the per-agent failure detector, the autoscaler,
// and top-K hot-page replication. The zero value uses conservative
// defaults with the autoscaler off.
type ControlConfig = control.Config

// ControlDetectorConfig is the failure-detector portion of ControlConfig:
// EWMA latency/error thresholds for the healthy → suspect → failed walk,
// probation length, and the flap penalty.
type ControlDetectorConfig = control.DetectorConfig

// ControlScalerConfig is the autoscaler portion of ControlConfig: the
// fleet-size bounds, the latency bands that trigger growth and shrink, and
// the streak/cooldown lengths that debounce them. Zero Max disables
// scaling.
type ControlScalerConfig = control.ScalerConfig

// ControlPhase is one agent's detector state: healthy, suspect, failed or
// drained.
type ControlPhase = control.Phase

// ControlAction records one step the control plane took against the
// cluster — a detector transition, a scaling event, or a hot-replica
// change — with the host error if the step failed.
type ControlAction = control.Action

// MemoryControlStats is the Stats.Control block: the plane's view of the
// cluster and per-kind counts of the actions it has taken.
type MemoryControlStats = runtime.ControlStats

// WithControlPlane attaches a self-healing control plane to the Memory: a
// failure detector that routes around slow agents and excludes crashed
// ones (re-replicating their slabs), probation that brings healed agents
// back, an optional autoscaler that grows the private cluster under
// sustained latency pressure, and hot-page replicas driven by the fault
// stream. The plane ticks off the runtime clock; see WithControlInterval
// and Memory.TickControl. Without this option behavior is bit-identical
// to an unsupervised runtime.
func WithControlPlane(cfg ControlConfig) Option { return runtime.WithControlPlane(cfg) }

// WithControlInterval sets the control plane's tick cadence in virtual
// time (default runtime.DefaultControlInterval). Non-positive keeps the
// default.
func WithControlInterval(d Duration) Option { return runtime.WithControlInterval(d) }

// MemoryZtierStats is the Stats.Ztier block: occupancy, hit/seal/overflow
// counts and the realized compression ratio of the compressed victim tier.
type MemoryZtierStats = runtime.ZtierStats

// WithCompressedTier inserts a zswap-style compressed victim tier between
// the residency LRU and the remote host, budgeted in bytes (split evenly
// across shards). Evicted dirty pages are sealed — compressed in local
// memory — instead of written back; a fault on a sealed page decompresses
// it locally at runtime.DefaultDecompressLatency cost instead of paying a
// fabric round trip. When the tier overflows, the coldest sealed pages are
// written back through the async engine. bytes <= 0 disables the tier
// (the default), which is bit-identical to the legacy runtime.
func WithCompressedTier(bytes int64) Option { return runtime.WithCompressedTier(bytes) }
