// Package vmm simulates the disaggregated virtual-memory path: processes
// with cgroup-style local-memory limits fault on non-resident pages, the
// fault handler consults the page cache, misses traverse a data path
// (legacy block layer or Leap's lean path) to a backing device, and a
// pluggable prefetcher decides what else to bring in. Evicted pages are
// written back to the backing store.
//
// The engine is a discrete-event simulation over virtual time: each process
// advances its own clock; shared resources (device, RDMA fabric queues,
// page cache, the prefetch in-flight set) interleave by always stepping the
// process with the smallest local clock. Everything is deterministic given
// the configuration seed.
//
// The fault path itself — cache lookup, in-flight wait, miss pricing,
// prefetch issue, residency map-in with reclaim — lives in internal/paging
// and is shared verbatim with the leap.Memory runtime; this package owns
// only what is simulator-specific: the process scheduler, per-process
// clocks and metrics, and workload generation.
//
// Page identity: process pid's virtual page v maps to the global swap
// address pid<<40 | v. Per-process deltas are preserved (Leap's per-process
// predictors see clean patterns), while the *stream* interleaving of
// different processes still garbles the global-stream baselines — the
// first-order effect behind the paper's isolation argument (§4.1). Linux's
// additional pathology of interleaved swap-slot allocation is not modeled;
// see DESIGN.md.
package vmm

import (
	"fmt"

	"leap/internal/core"
	"leap/internal/datapath"
	"leap/internal/eventq"
	"leap/internal/metrics"
	"leap/internal/pagecache"
	"leap/internal/paging"
	"leap/internal/prefetch"
	"leap/internal/sim"
	"leap/internal/storage"
	"leap/internal/workload"
)

// PID aliases prefetch.PID.
type PID = prefetch.PID

// pidShift namespaces per-process pages in the global swap space.
const pidShift = 40

// globalPage maps (pid, virtual page) to the global swap address.
func globalPage(pid PID, v core.PageID) core.PageID {
	return core.PageID(int64(pid)<<pidShift | int64(v))
}

// Config parameterizes one simulated host machine.
type Config struct {
	// Path selects the data path (legacy block layer vs Leap's lean path).
	Path datapath.Config
	// CachePolicy picks lazy (Linux) or eager (Leap) prefetch-cache
	// reclamation; CacheCapacity bounds the prefetch cache in pages
	// (0 = unlimited), the Figure 12 knob. CacheScanInterval is the lazy
	// background scan period (0 = pagecache default).
	CachePolicy       pagecache.Policy
	CacheCapacity     int
	CacheScanInterval sim.Duration
	// Prefetcher is consulted on every swap-in; nil means none.
	Prefetcher prefetch.Prefetcher
	// Device is the backing store; nil defaults to remote memory over a
	// fresh default fabric.
	Device storage.Device
	// RemoteQueueDepth, when > 1, fans prefetch candidates out in
	// doorbell-style batches of up to this many pages and batches eviction
	// writebacks behind a dirty backlog of the same bound — provided the
	// device supports batched submission (storage.BatchDevice; remote
	// memory does). At 1 (or on non-batching devices) every page is
	// submitted individually, byte-identical to the unbatched engine.
	RemoteQueueDepth int
	// CaptureFaults records each process's fault addresses (virtual pages)
	// for pattern analysis (the Figure 3 classifier input).
	CaptureFaults bool
	// Seed drives all stochastic latency models.
	Seed uint64
}

// App is one process to simulate: a workload generator plus its local
// memory budget in pages (the cgroup limit).
type App struct {
	PID        PID
	Gen        workload.Generator
	LimitPages int64
	// PreloadPages marks virtual pages [0, PreloadPages) resident at start,
	// modeling an application whose budgeted memory is already populated
	// (the paper's 100%-memory runs do not page at all). Clamped to
	// LimitPages.
	PreloadPages int64
}

// proc is the runtime state of one simulated process.
type proc struct {
	app   App
	clock sim.Time
	// order is the process's index in Machine.procs; the scheduler breaks
	// clock ties by order so the pick sequence matches a first-wins linear
	// scan over the App slice.
	order int
	// target is the access count this proc runs to in the current Machine.Run.
	target int64
	// accPerOp caches app.Gen.AccessesPerOp(), hoisting the interface call
	// out of the per-access path (generators report a constant); opLeft
	// counts down accesses to the next completed operation, replacing a
	// per-access modulo.
	accPerOp int64
	opLeft   int64

	// res is this process's residency set (page table + LRU + cgroup
	// charge), managed by the shared paging engine.
	res *paging.Resident

	accesses int64
	faults   int64
	// ops counts completed application-level operations.
	ops int64

	// Measurement baselines, snapshotted when recording turns on, so
	// warmup work is excluded from results.
	clock0    sim.Time
	accesses0 int64
	faults0   int64
	ops0      int64

	// faultTrace holds faulted virtual pages when capture is enabled.
	faultTrace []core.PageID

	// Latency is this process's 4KB swap-in latency distribution.
	Latency metrics.Histogram
}

// procLess orders the scheduler heap by (clock, order): the unique least
// element is exactly the proc a first-wins linear scan would pick.
func procLess(a, b *proc) bool {
	if a.clock != b.clock {
		return a.clock < b.clock
	}
	return a.order < b.order
}

// Machine simulates one host. Not safe for concurrent use.
type Machine struct {
	cfg Config
	// eng is the shared fault-path engine (internal/paging): page cache,
	// in-flight prefetch tracking, miss pricing, prefetch issue, residency
	// map-in. All processes share it, exactly as processes share a kernel.
	eng *paging.Engine[*proc]

	procs []*proc
	byPID map[PID]*proc
	// sched orders runnable procs by (clock, order) so Run picks the next
	// proc in O(log P) instead of scanning all processes per step.
	sched *eventq.Heap[*proc]

	recording bool
	// cacheStats0 snapshots cache counters at measurement start.
	cacheStats0 pagecache.Stats
}

// NewMachine builds a machine with the given apps.
func NewMachine(cfg Config, apps []App) (*Machine, error) {
	if len(apps) == 0 {
		return nil, fmt.Errorf("vmm: no apps")
	}
	eng := paging.New[*proc](paging.Config{
		Path:              cfg.Path,
		CachePolicy:       cfg.CachePolicy,
		CacheCapacity:     cfg.CacheCapacity,
		CacheScanInterval: cfg.CacheScanInterval,
		Prefetcher:        cfg.Prefetcher,
		Device:            cfg.Device,
		QueueDepth:        cfg.RemoteQueueDepth,
		Seed:              cfg.Seed,
	})
	m := &Machine{
		cfg:       cfg,
		eng:       eng,
		byPID:     make(map[PID]*proc),
		sched:     eventq.New(procLess),
		recording: true,
	}
	eng.OnInsert = func(p *proc) { p.res.Charged++ }
	// Evictions cluster by process, so memoize the last pid→proc mapping
	// instead of paying a map lookup per evicted page.
	var lastEvictPID PID
	var lastEvictProc *proc
	eng.Cache().OnEvict = func(page core.PageID) {
		pid := PID(int64(page) >> pidShift)
		if lastEvictProc == nil || lastEvictPID != pid {
			lastEvictProc = m.byPID[pid]
			lastEvictPID = pid
			if lastEvictProc == nil {
				return
			}
		}
		lastEvictProc.res.Charged--
	}
	for _, a := range apps {
		if a.Gen == nil {
			return nil, fmt.Errorf("vmm: app %d has no generator", a.PID)
		}
		if _, dup := m.byPID[a.PID]; dup {
			return nil, fmt.Errorf("vmm: duplicate pid %d", a.PID)
		}
		p := &proc{
			app:      a,
			order:    len(m.procs),
			accPerOp: int64(a.Gen.AccessesPerOp()),
			res:      paging.NewResident(int(a.LimitPages)),
		}
		p.res.Limit = a.LimitPages
		p.opLeft = p.accPerOp
		preload := a.PreloadPages
		if preload > a.LimitPages {
			preload = a.LimitPages
		}
		for v := int64(0); v < preload; v++ {
			m.eng.MapIn(p, p.res, int(a.PID), globalPage(a.PID, core.PageID(v)), 0)
		}
		m.procs = append(m.procs, p)
		m.byPID[a.PID] = p
	}
	return m, nil
}

// Cache exposes the page cache for experiment accounting.
func (m *Machine) Cache() *pagecache.Cache { return m.eng.Cache() }

// Path exposes the data path for stage histograms.
func (m *Machine) Path() *datapath.Path { return m.eng.Path() }

// Device exposes the backing store.
func (m *Machine) Device() storage.Device { return m.eng.Device() }

// Counters exposes the fault-path counters of the measured phase.
func (m *Machine) Counters() *paging.Counters { return &m.eng.Counters }

// FaultLatency exposes the all-process swap-in latency distribution.
func (m *Machine) FaultLatency() *metrics.Histogram { return &m.eng.FaultLatency }

// AllocLatency exposes the per-miss page-allocation latency distribution.
func (m *Machine) AllocLatency() *metrics.Histogram { return &m.eng.AllocLatency }

// SetRecording toggles metric collection; warmup runs with recording off.
// Turning recording on snapshots per-process clocks and cache counters so
// results cover only the measured phase.
func (m *Machine) SetRecording(on bool) {
	if on && !m.recording {
		for _, p := range m.procs {
			p.clock0 = p.clock
			p.accesses0 = p.accesses
			p.faults0 = p.faults
			p.ops0 = p.ops
		}
		m.cacheStats0 = m.eng.Cache().Stats()
	}
	m.recording = on
	m.eng.SetRecording(on)
}

// ProcLatency reports the latency histogram of pid's swap-ins.
func (m *Machine) ProcLatency(pid PID) *metrics.Histogram {
	if p, ok := m.byPID[pid]; ok {
		return &p.Latency
	}
	return nil
}

// FaultTrace reports pid's recorded fault addresses (virtual pages);
// non-nil only when Config.CaptureFaults is set.
func (m *Machine) FaultTrace(pid PID) []core.PageID {
	if p, ok := m.byPID[pid]; ok {
		return p.faultTrace
	}
	return nil
}

// MaxTime reports the largest process clock — the makespan.
func (m *Machine) MaxTime() sim.Time {
	var max sim.Time
	for _, p := range m.procs {
		if p.clock > max {
			max = p.clock
		}
	}
	return max
}

// measuredMakespan reports the longest measured-phase duration across
// processes.
func (m *Machine) measuredMakespan() sim.Duration {
	var max sim.Duration
	for _, p := range m.procs {
		if d := p.clock.Sub(p.clock0); d > max {
			max = d
		}
	}
	return max
}

// Step runs one access of process p and returns the swap-in latency paid
// (0 for residency hits).
func (m *Machine) step(p *proc) sim.Duration {
	eng := m.eng
	a := p.app.Gen.Next()
	p.clock = p.clock.Add(a.Think)
	now := p.clock
	eng.FlushArrivals(now)
	p.accesses++
	if p.opLeft--; p.opLeft == 0 {
		p.ops++
		p.opLeft = p.accPerOp
	}

	page := globalPage(p.app.PID, a.Page)

	// Resident: no fault, no cost beyond think time.
	if p.res.Touch(page) {
		if m.recording {
			eng.Counters.ResidentHits++
		}
		return 0
	}

	// Swap-in fault: the shared engine serves it (cache hit, in-flight
	// wait, or full miss through data path + device).
	p.faults++
	if m.recording {
		eng.Counters.Faults++
		if m.cfg.CaptureFaults {
			p.faultTrace = append(p.faultTrace, a.Page)
		}
	}
	latency, miss := eng.Fault(p.app.PID, int(p.app.PID), page, now)
	if m.recording {
		p.Latency.Observe(latency)
	}
	p.clock = p.clock.Add(latency)

	// Record the access, collect and issue prefetch candidates on a miss,
	// and map the faulted page in (evicting past the cgroup budget).
	eng.OnAccess(p, p.res, p.app.PID, int(p.app.PID), page, miss, p.clock, paging.HintNone, 0)
	eng.MapIn(p, p.res, int(p.app.PID), page, p.clock)
	return latency
}

// Run advances the machine until every process has performed accesses
// accesses (beyond whatever it has already done). Processes interleave by
// local virtual time: each iteration steps the runnable proc with the
// smallest (clock, order) key. The scheduler heap makes that pick O(log P)
// per step — stepping a proc only grows its own clock, so a single
// sift-down of the root restores the heap — while (clock, order) is a total
// order, which keeps the pick sequence identical to the previous
// first-wins linear scan at any process count.
func (m *Machine) Run(accesses int64) {
	if accesses <= 0 {
		return
	}
	m.sched.Reset()
	for _, p := range m.procs {
		p.target = p.accesses + accesses
		m.sched.Push(p)
	}
	for m.sched.Len() > 0 {
		p := m.sched.Peek()
		m.step(p)
		if p.accesses >= p.target {
			m.sched.Pop()
		} else {
			m.sched.Fix(0)
		}
	}
	// Drain any partially-filled writeback backlog so device accounting
	// covers every evicted page.
	m.eng.FlushWriteback(0, m.MaxTime())
}
