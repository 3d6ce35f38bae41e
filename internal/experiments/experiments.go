// Package experiments contains one driver per table and figure of the
// paper's evaluation (§2 motivation and §5), each reproducing the same
// rows/series the paper reports on top of the simulation substrates. The
// drivers are deterministic given (Scale, seed); cmd/leapbench renders them
// and bench_test.go wraps each in a testing.B benchmark.
//
// Naming follows the paper: "Disk" is local HDD swap through the stock
// kernel path; "D-VMM" is disaggregated VMM (Infiniswap-style) on the
// default data path; "D-VMM+Leap" swaps in the lean path, the Leap
// prefetcher and eager eviction; "D-VFS" is the file abstraction (Remote
// Regions-style).
package experiments

import (
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

// vfsConfig is the file abstraction (D-VFS) on system's stack: the same
// data path, cache policy and prefetcher, over remote memory.
func vfsConfig(system vmm.System, seed uint64) vfs.Config {
	c := system.Config(seed)
	return vfs.Config{
		Path:        c.Path,
		CachePolicy: c.CachePolicy,
		Prefetcher:  c.Prefetcher,
		Device:      c.Device,
		Seed:        seed,
	}
}

// appAt builds a vmm.App running profile at the given memory fraction
// (1.0 = 100% of peak usage fits locally, the paper's cgroup knob). The
// budget starts populated, as in the paper's steady-state measurements.
func appAt(p workload.Profile, pid vmm.PID, memFrac float64, seed uint64) vmm.App {
	limit := int64(float64(p.TotalPages) * memFrac)
	if limit < 1 {
		limit = 1
	}
	return vmm.App{
		PID:          pid,
		Gen:          workload.NewApp(p, seed),
		LimitPages:   limit,
		PreloadPages: limit,
	}
}

// microApp builds a microbenchmark App (Sequential or Stride-10): the §2.2
// setup gives the 2GB working set a 1GB budget, and the cyclic scan defeats
// LRU so essentially every access faults; the budget still leaves ample
// slack for the prefetch cache.
func microApp(gen workload.Generator, pid vmm.PID) vmm.App {
	return vmm.App{PID: pid, Gen: gen, LimitPages: 8192}
}

// mustRun wraps vmm.Run, panicking on configuration errors (experiment
// definitions are static; an error is a bug, not an input condition).
func mustRun(cfg vmm.Config, apps []vmm.App, s Scale) (*vmm.Machine, vmm.Result) {
	m, res, err := vmm.Run(cfg, apps, s.Warmup, s.Measured)
	if err != nil {
		panic(err)
	}
	return m, res
}
