// Package leap is a library reproduction of "Effectively Prefetching Remote
// Memory with Leap" (Maruf & Chowdhury, USENIX ATC 2020).
//
// The headline entry point is the Memory runtime: Open(opts...) fuses every
// layer of the reproduction — the majority-trend predictor, the pluggable
// prefetchers, the adaptive page cache with eager eviction, and the real
// remote-memory substrate with its async doorbell-batched ticket engine —
// into one byte-addressable paged memory. A miss on mem.ReadAt / WriteAt /
// Get records into the predictor, issues the prefetch window asynchronously
// to the real host (in-process or TCP), and accounts hits, accuracy and
// coverage, exactly as the paper places Leap in the paging data path (§4).
// Configure it with functional options: WithPrefetcherFactory,
// WithRemoteHost, WithCacheCapacity, WithQueueDepth, WithShards, WithSeed.
//
// Underneath, the layers stay individually usable:
//
//   - The predictor: NewPredictor gives direct access to the paper's
//     majority-trend prefetching algorithm (Boyer–Moore majority vote over a
//     per-process access history, adaptive prefetch windows). Feed it page
//     faults, get prefetch candidates.
//
//   - Prefetchers: NewPrefetcher builds Leap or any of the evaluated
//     baselines (next-n-line, stride, Linux-style read-ahead) behind one
//     interface for the paging data path.
//
//   - The simulation: Simulate runs workloads against a virtual-time model
//     of the whole remote-paging stack — fault handler, page cache with
//     lazy/eager eviction, legacy block layer vs Leap's lean path, RDMA
//     fabric, disk/SSD/remote devices — and reports latency distributions,
//     cache behaviour, and application-level throughput.
//
//   - The remote-memory substrate: NewRemoteAgent/NewRemoteHost implement
//     the slab-granular remote memory service of the paper's §4.4–4.5
//     (rendezvous-hashed slab placement, two-way replication, an async
//     ticket engine with doorbell-batched wire frames) with in-process and
//     TCP transports, moving real bytes.
//
// The simulator and the Memory runtime share one fault-path core
// (internal/paging), so a simulated run and a live run over the same trace
// make identical prefetch decisions.
//
// Everything is deterministic given a seed; nothing sleeps. See DESIGN.md
// for the system inventory and EXPERIMENTS.md for the paper-vs-measured
// results; cmd/leapbench regenerates every figure and table.
package leap

import (
	"fmt"

	"leap/internal/core"
	"leap/internal/prefetch"
	"leap/internal/remote"
	"leap/internal/vmm"
	"leap/internal/workload"
)

// PageID identifies a 4KB page in the remote (swap) address space.
type PageID = core.PageID

// PID identifies a simulated process.
type PID = prefetch.PID

// PredictorConfig parameterizes the core Leap predictor; zero values take
// the paper's defaults (Hsize=32, Nsplit=2, PWsizemax=8).
type PredictorConfig = core.Config

// Predictor is the paper's per-process prefetch engine. Record page
// accesses with Record or OnFault; receive prefetch candidates; report
// consumed prefetches with NoteHit so the window adapts.
type Predictor = core.Predictor

// NewPredictor returns a Predictor for one process's fault stream.
func NewPredictor(cfg PredictorConfig) *Predictor { return core.NewPredictor(cfg) }

// Prefetcher is the pluggable prefetching interface of the paging path; build
// one with NewPrefetcher.
type Prefetcher = prefetch.Prefetcher

// NewPrefetcher builds a prefetcher by name: "leap", "readahead", "stride",
// "nextnline", "ghb", "none", or "ensemble" (the online per-client selector
// over the others).
func NewPrefetcher(name string) (Prefetcher, error) { return prefetch.New(name) }

// System selects a simulated configuration preset, mirroring the paper's
// evaluation setups.
type System = vmm.System

// Presets.
const (
	// SystemDisk swaps to local HDD through the stock kernel path.
	SystemDisk = vmm.SystemDisk
	// SystemSSD swaps to local SSD through the stock kernel path.
	SystemSSD = vmm.SystemSSD
	// SystemDVMM is Infiniswap-style remote paging on the default path
	// (block layer, read-ahead, lazy eviction).
	SystemDVMM = vmm.SystemDVMM
	// SystemDVMMLeap is remote paging through the full Leap stack (lean
	// path, majority-trend prefetcher, eager eviction).
	SystemDVMMLeap = vmm.SystemDVMMLeap
)

// Generator produces a deterministic page-access stream; build one with
// NewSequentialWorkload, NewStrideWorkload, or NewAppWorkload.
type Generator = workload.Generator

// Workload describes one simulated process.
type Workload struct {
	// PID must be unique per process.
	PID PID
	// Generator produces the access stream; see NewSequentialWorkload,
	// NewStrideWorkload, NewAppWorkload.
	Generator workload.Generator
	// MemoryLimitPages is the cgroup-style local memory budget.
	MemoryLimitPages int64
	// PreloadPages marks the first pages resident at start (defaults to the
	// memory limit when negative).
	PreloadPages int64
}

// SimConfig configures a simulation run.
type SimConfig struct {
	// System selects the preset stack.
	System System
	// Prefetcher overrides the preset's prefetcher when non-nil.
	Prefetcher Prefetcher
	// CacheCapacityPages bounds the prefetch cache (0 = cgroup-coupled).
	CacheCapacityPages int
	// RemoteQueueDepth, when > 1, batches prefetch fan-out and eviction
	// writeback into doorbell submissions of up to this many pages on
	// batching-capable devices (remote memory). 0 or 1 submits page by
	// page, byte-identical to the unbatched engine.
	RemoteQueueDepth int
	// WarmupAccesses and MeasuredAccesses size the run per process.
	WarmupAccesses, MeasuredAccesses int64
	// Seed drives every stochastic model; equal seeds replay exactly.
	Seed uint64
}

// SimResult re-exports the simulation outcome.
type SimResult = vmm.Result

// Simulate runs the workloads against the selected system and returns the
// aggregate result (latency percentiles, cache statistics, accuracy and
// coverage, per-process throughput).
func Simulate(cfg SimConfig, workloads []Workload) (SimResult, error) {
	if !cfg.System.Valid() {
		return SimResult{}, fmt.Errorf("leap: unknown system %v", cfg.System)
	}
	if cfg.WarmupAccesses < 0 || cfg.MeasuredAccesses < 0 {
		return SimResult{}, fmt.Errorf("leap: negative run length (warmup %d, measured %d accesses)",
			cfg.WarmupAccesses, cfg.MeasuredAccesses)
	}
	mcfg := cfg.System.Config(cfg.Seed)
	if cfg.Prefetcher != nil {
		mcfg.Prefetcher = cfg.Prefetcher
	}
	mcfg.CacheCapacity = cfg.CacheCapacityPages
	mcfg.RemoteQueueDepth = cfg.RemoteQueueDepth
	apps := make([]vmm.App, 0, len(workloads))
	for _, w := range workloads {
		preload := w.PreloadPages
		if preload < 0 {
			preload = w.MemoryLimitPages
		}
		apps = append(apps, vmm.App{
			PID:          w.PID,
			Gen:          w.Generator,
			LimitPages:   w.MemoryLimitPages,
			PreloadPages: preload,
		})
	}
	warmup := cfg.WarmupAccesses
	measured := cfg.MeasuredAccesses
	if measured == 0 {
		measured = 100000
	}
	_, res, err := vmm.Run(mcfg, apps, warmup, measured)
	return res, err
}

// NewSequentialWorkload scans pages linearly (the §2.2 Sequential
// microbenchmark).
func NewSequentialWorkload(pages int64, seed uint64) workload.Generator {
	return workload.NewSequential(pages, seed)
}

// NewStrideWorkload scans with a fixed stride (Stride-10 with k=10).
func NewStrideWorkload(pages, stride int64, seed uint64) workload.Generator {
	return workload.NewStride(pages, stride, seed)
}

// NewAppWorkload instantiates one of the paper's application models:
// "powergraph", "numpy", "voltdb", or "memcached". An unknown name returns
// a descriptive error listing the valid models.
func NewAppWorkload(name string, seed uint64) (workload.Generator, error) {
	p, ok := workload.ByName(name)
	if !ok {
		return nil, fmt.Errorf("leap: unknown app workload %q (have %v)", name, workload.Names())
	}
	return workload.NewApp(p, seed), nil
}

// RemotePageSize is the fixed page size of the remote-memory substrate.
const RemotePageSize = remote.PageSize

// RemoteAgent serves slab-granular remote memory (the donor side).
type RemoteAgent = remote.Agent

// NewRemoteAgent returns an agent donating maxSlabs slabs of slabPages
// pages each (maxSlabs <= 0 means unlimited).
func NewRemoteAgent(slabPages, maxSlabs int) *RemoteAgent {
	return remote.NewAgent(slabPages, maxSlabs)
}

// RemoteHost maps pages onto remote agents with rendezvous-hashed slab
// placement and replication (the borrower side). Every page moves through
// one ticket engine: ReadPageAsync/WritePageAsync/Flush queue operations,
// coalesce duplicate reads and drain per-agent queues with doorbell-style
// batched wire frames; ReadPage/WritePage are the same operations sent at
// once, one frame per page, and waited for. AddAgent and Rebalance grow the
// pool, migrating only each newcomer's rendezvous share of slabs.
type RemoteHost = remote.Host

// RemoteHostConfig parameterizes a RemoteHost (slab size, replication
// factor, async queue depth, placement seed).
type RemoteHostConfig = remote.HostConfig

// RemoteTicket is the completion handle of one asynchronous remote-memory
// page operation; it completes when the host flushes its queues.
type RemoteTicket = remote.Ticket

// RemoteTransport carries host→agent requests.
type RemoteTransport = remote.Transport

// NewRemoteHost builds a host over the given transports.
func NewRemoteHost(cfg RemoteHostConfig, transports []RemoteTransport) (*RemoteHost, error) {
	return remote.NewHost(cfg, transports)
}

// NewInProcTransport binds a transport directly to an agent in-process.
func NewInProcTransport(a *RemoteAgent) RemoteTransport { return remote.NewInProc(a) }

// DialRemoteAgent connects to a TCP agent (cmd/leapagent).
func DialRemoteAgent(addr string) (RemoteTransport, error) { return remote.DialTCP(addr) }
