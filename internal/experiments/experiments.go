// Package experiments reproduces the tables and figures of the paper's
// evaluation (§2 motivation and §5), plus this repository's own figures, on
// top of the simulation substrates. A figure is a value: its grid of runs
// is data (labelled vmm configurations, leap.Memory cases, chaos
// schedules), each cell is the run's own result (vmm.Result,
// runtime.Stats, chaos.Report), and one renderer (table) prints every
// table but Figure 2's CDFs (metrics.RenderCDFTable). Figures are
// deterministic given (Scale, seed); cmd/leapbench prints them and
// bench_test.go times each one.
//
// Naming follows the paper: "Disk" is local HDD swap through the stock
// kernel path; "D-VMM" is disaggregated VMM (Infiniswap-style) on the
// default data path; "D-VMM+Leap" swaps in the lean path, the Leap
// prefetcher and eager eviction; "D-VFS" is the file abstraction (Remote
// Regions-style).
package experiments

import (
	"leap/internal/core"
	"leap/internal/metrics"
	"leap/internal/prefetch"
	"leap/internal/remote"
	"leap/internal/vfs"
	"leap/internal/vmm"
	"leap/internal/workload"
)

// Scale sizes a run: per-process warmup and measured access counts.
type Scale struct {
	Warmup   int64
	Measured int64
}

// Standard scales: Full for cmd/leapbench runs, Small for tests and quick
// benches.
var (
	Full  = Scale{Warmup: 30000, Measured: 150000}
	Small = Scale{Warmup: 3000, Measured: 15000}
)

// perRun is the operation count of one live-runtime or remote-engine run:
// the measured accesses divided by div, and at least floor.
func perRun(s Scale, div, floor int64) int64 { return max(s.Measured/div, floor) }

// ratio reports num/den, or 0 when den is 0: a figure's gain or overhead.
func ratio[T ~int64 | ~float64](num, den T) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// run is one cell of a vmm figure's grid: the label its table prints, the
// measured vmm.Result, process 1's latency histogram and, for a figure that
// reads more than that, the machine it ran on. A D-VFS run has no machine.
type run struct {
	label string
	vmm.Result
	lat metrics.Histogram
	m   *vmm.Machine
}

// vmmCase is one configuration of a figure's grid: its label, the machine
// configuration and the processes it runs.
type vmmCase struct {
	label string
	cfg   vmm.Config
	apps  []vmm.App
}

// runCases runs every case at s, in order. Experiment definitions are
// static, so a configuration error is a bug and panics.
func runCases(s Scale, cases ...vmmCase) []run { return execute(s, false, cases) }

// runMachines is runCases keeping each run's machine too, for the
// histograms and traces the result does not summarise. A machine holds
// its whole page state, so the large grids keep none.
func runMachines(s Scale, cases ...vmmCase) []run { return execute(s, true, cases) }

func execute(s Scale, keep bool, cases []vmmCase) []run {
	runs := make([]run, len(cases))
	for i, c := range cases {
		m, res, err := vmm.Run(c.cfg, c.apps, s.Warmup, s.Measured)
		if err != nil {
			panic(err)
		}
		runs[i] = run{label: c.label, Result: res, lat: *m.ProcLatency(1)}
		if keep {
			runs[i].m = m
		}
	}
	return runs
}

// find returns the cell labelled label, or the zero cell.
func find[C interface{ key() string }](cells []C, label string) C {
	for _, c := range cells {
		if c.key() == label {
			return c
		}
	}
	var zero C
	return zero
}

func (r run) key() string { return r.label }

// mustPrefetcher builds a registered prefetcher; the names are static.
func mustPrefetcher(name string) prefetch.Prefetcher {
	pf, err := prefetch.New(name)
	if err != nil {
		panic(err)
	}
	return pf
}

// faultAgent is agent i of an in-process cluster: a FaultTransport (fault
// injection, call observation) over an agent of slab-page slabs, every call
// reported to observe.
func faultAgent(i, slab int, observe func(remote.CallObservation)) *remote.FaultTransport {
	ft := remote.NewFaultTransport(i, remote.NewInProc(remote.NewAgent(slab, 0)), nil)
	ft.SetObserver(observe)
	return ft
}

// cluster builds n fault agents, sized to cfg.SlabPages, and a host over
// them: the remote substrate of the scaling, elastic and selfheal figures,
// whose observers charge each call to their own time model.
func cluster(n int, observe func(remote.CallObservation), cfg remote.HostConfig) ([]*remote.FaultTransport, *remote.Host) {
	fts := make([]*remote.FaultTransport, n)
	transports := make([]remote.Transport, n)
	for i := range fts {
		fts[i] = faultAgent(i, cfg.SlabPages, observe)
		transports[i] = fts[i]
	}
	host, err := remote.NewHost(cfg, transports)
	if err != nil {
		panic(err)
	}
	return fts, host
}

// appAt runs profile at the given memory fraction (1.0 = 100% of peak usage
// fits locally, the paper's cgroup knob). The budget starts populated, as
// in the paper's steady-state measurements.
func appAt(p workload.Profile, pid vmm.PID, memFrac float64, seed uint64) vmm.App {
	limit := max(int64(float64(p.TotalPages)*memFrac), 1)
	return vmm.App{PID: pid, Gen: workload.NewApp(p, seed), LimitPages: limit, PreloadPages: limit}
}

// powerGraph is PowerGraph at 50% memory, the process of most §5 runs.
func powerGraph(seed uint64) []vmm.App {
	return []vmm.App{appAt(workload.PowerGraphProfile(), 1, 0.5, seed)}
}

// micro is a stride microbenchmark (stride 1 is Sequential): the §2.2 setup
// gives the 2GB working set a 1GB budget, and the cyclic scan defeats LRU so
// essentially every access faults; the budget still leaves ample slack for
// the prefetch cache.
func micro(stride int64, seed uint64) []vmm.App {
	return []vmm.App{{PID: 1, Gen: workload.NewStride(1<<20, stride, seed), LimitPages: 8192}}
}

// vfsRun drives the §2.2 D-VFS microbenchmark on system's stack — the same
// data path, cache policy and prefetcher, over remote memory: a bulk write,
// then patterned reads, the reads measured.
func vfsRun(label string, system vmm.System, stride int64, s Scale, seed uint64) run {
	c := system.Config(seed)
	f := vfs.New(vfs.Config{
		Path:        c.Path,
		CachePolicy: c.CachePolicy,
		Prefetcher:  c.Prefetcher,
		Device:      c.Device,
		Seed:        seed,
	})
	const region = int64(1 << 20)
	// The FS has no recording toggle: the write phase's latencies are
	// dropped by resetting the read histogram before the measured reads.
	for i := int64(0); i < s.Warmup; i++ {
		f.Write(1, core.PageID(i%region), 200)
	}
	f.ReadLatency.Reset()
	for i, pos := int64(0), int64(0); i < s.Measured; i++ {
		f.Read(1, core.PageID(pos), 200)
		pos = (pos + stride) % region
	}
	return run{label: label, Result: vmm.Result{Latency: f.ReadLatency.Summarize()}, lat: f.ReadLatency}
}
