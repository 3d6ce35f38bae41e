package experiments

import (
	"fmt"
	"strings"

	"leap/internal/sim"
	"leap/internal/vmm"
	"leap/internal/workload"
)

// CacheSizes is the Figure 12 prefetch-cache grid in pages (4KB each):
// unlimited, 320MB, 32MB, 3.2MB.
var CacheSizes = []struct {
	Name  string
	Pages int
}{
	{"no limit", 0},
	{"320MB", 81920},
	{"32MB", 8192},
	{"3.2MB", 819},
}

// Fig12Cell is one (app, cache size) outcome.
type Fig12Cell struct {
	Completion sim.Duration
	OpsPerSec  float64
}

// Fig12Result reproduces Figure 12: Leap's performance as the prefetch
// cache shrinks to O(1)MB.
type Fig12Result struct {
	// Cells keyed "<app>/<size name>".
	Cells map[string]Fig12Cell
}

// Cell fetches one entry.
func (r Fig12Result) Cell(app, size string) (Fig12Cell, bool) {
	c, ok := r.Cells[app+"/"+size]
	return c, ok
}

// Fig12 runs the four applications at 50% memory on the full Leap stack
// under each cache limit.
func Fig12(s Scale, seed uint64) Fig12Result {
	out := Fig12Result{Cells: map[string]Fig12Cell{}}
	for ai, prof := range workload.Profiles() {
		for _, size := range CacheSizes {
			runSeed := seed + uint64(ai)*131
			cfg := vmm.SystemDVMMLeap.Config(runSeed)
			cfg.CacheCapacity = size.Pages
			_, res := mustRun(cfg, []vmm.App{appAt(prof, 1, 0.5, runSeed)}, s)
			out.Cells[prof.AppName+"/"+size.Name] = Fig12Cell{
				Completion: res.Makespan,
				OpsPerSec:  res.PerProc[0].OpsPerSec,
			}
		}
	}
	return out
}

// String renders both panels.
func (r Fig12Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 12 — Leap under constrained prefetch cache (@50%% memory)\n")
	fmt.Fprintf(&b, "  %-12s", "app")
	for _, size := range CacheSizes {
		fmt.Fprintf(&b, " %14s", size.Name)
	}
	b.WriteByte('\n')
	for _, prof := range workload.Profiles() {
		app := prof.AppName
		throughput := app == "voltdb" || app == "memcached"
		fmt.Fprintf(&b, "  %-12s", app)
		for _, size := range CacheSizes {
			c := r.Cells[app+"/"+size.Name]
			if throughput {
				fmt.Fprintf(&b, " %14.0f", c.OpsPerSec)
			} else {
				fmt.Fprintf(&b, " %14v", c.Completion)
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "  (paper: ≤13%% degradation even at O(1)MB cache)\n")
	return b.String()
}
