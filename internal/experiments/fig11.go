package experiments

import (
	"fmt"
	"strings"

	"leap/internal/sim"
	"leap/internal/vmm"
	"leap/internal/workload"
)

// MemFractions is the Figure 11 memory-limit grid.
var MemFractions = []float64{1.0, 0.5, 0.25}

// Systems is the Figure 11 medium set.
var Systems = []vmm.System{vmm.SystemDisk, vmm.SystemDVMM, vmm.SystemDVMMLeap}

// Fig11Cell is one (app, system, fraction) outcome.
type Fig11Cell struct {
	Completion sim.Duration
	OpsPerSec  float64
	P99        sim.Duration
}

// Fig11Result reproduces Figure 11: application performance across media
// and memory limits. Completion time matters for PowerGraph/NumPy;
// throughput (TPS/OPS) for VoltDB/Memcached.
type Fig11Result struct {
	// Cells is keyed "<app>/<system>/<frac>", e.g. "voltdb/d-vmm+leap/0.50".
	Cells map[string]Fig11Cell
}

func fig11Key(app, system string, frac float64) string {
	return fmt.Sprintf("%s/%s/%.2f", app, system, frac)
}

// Cell fetches one grid entry.
func (r Fig11Result) Cell(app, system string, frac float64) (Fig11Cell, bool) {
	c, ok := r.Cells[fig11Key(app, system, frac)]
	return c, ok
}

// Fig11 runs the full grid: 4 apps × 3 systems × 3 memory limits.
func Fig11(s Scale, seed uint64) Fig11Result {
	out := Fig11Result{Cells: map[string]Fig11Cell{}}
	for ai, prof := range workload.Profiles() {
		for _, system := range Systems {
			for _, frac := range MemFractions {
				runSeed := seed + uint64(ai)*97
				cfg := system.Config(runSeed)
				_, res := mustRun(cfg, []vmm.App{appAt(prof, 1, frac, runSeed)}, s)
				out.Cells[fig11Key(prof.AppName, system.String(), frac)] = Fig11Cell{
					Completion: res.Makespan,
					OpsPerSec:  res.PerProc[0].OpsPerSec,
					P99:        res.Latency.P99,
				}
			}
		}
	}
	return out
}

// String renders the four panels.
func (r Fig11Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 11 — application performance across media and memory limits\n")
	for _, prof := range workload.Profiles() {
		app := prof.AppName
		throughput := app == "voltdb" || app == "memcached"
		if throughput {
			fmt.Fprintf(&b, "  %s (ops/sec; higher is better)\n", app)
		} else {
			fmt.Fprintf(&b, "  %s (completion; lower is better)\n", app)
		}
		fmt.Fprintf(&b, "    %-12s", "system")
		for _, f := range MemFractions {
			fmt.Fprintf(&b, " %14.0f%%", f*100)
		}
		b.WriteByte('\n')
		for _, system := range Systems {
			fmt.Fprintf(&b, "    %-12s", system)
			for _, f := range MemFractions {
				c := r.Cells[fig11Key(app, system.String(), f)]
				if throughput {
					fmt.Fprintf(&b, " %15.0f", c.OpsPerSec)
				} else {
					fmt.Fprintf(&b, " %15v", c.Completion)
				}
			}
			b.WriteByte('\n')
		}
	}
	fmt.Fprintf(&b, "  (paper: Leap improves Infiniswap completion 1.56×/2.38× on PowerGraph,\n")
	fmt.Fprintf(&b, "   1.27×/1.4× on NumPy; throughput 2.76×/10.16× on VoltDB, 1.11×/1.21× on\n")
	fmt.Fprintf(&b, "   Memcached at 50%%/25%% limits)\n")
	return b.String()
}
