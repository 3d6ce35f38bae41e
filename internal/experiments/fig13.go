package experiments

import (
	"fmt"
	"strings"

	"leap/internal/sim"
	"leap/internal/vmm"
	"leap/internal/workload"
)

// Fig13Row is one application's completion time when all four run
// concurrently.
type Fig13Row struct {
	App     string
	Default sim.Duration
	Leap    sim.Duration
}

// Gain is the completion-time improvement factor.
func (r Fig13Row) Gain() float64 {
	if r.Leap == 0 {
		return 0
	}
	return float64(r.Default) / float64(r.Leap)
}

// Fig13Result reproduces Figure 13: the four applications sharing one host
// and one remote fabric at 50% memory each — the test of per-process
// isolation and congestion behaviour.
type Fig13Result struct {
	Rows []Fig13Row
}

// Fig13 runs the concurrent mix on D-VMM and D-VMM+Leap.
func Fig13(s Scale, seed uint64) Fig13Result {
	apps := func(sd uint64) []vmm.App {
		var out []vmm.App
		for i, prof := range workload.Profiles() {
			out = append(out, appAt(prof, vmm.PID(i+1), 0.5, sd+uint64(i)))
		}
		return out
	}
	_, def := mustRun(vmm.SystemDVMM.Config(seed), apps(seed), s)
	_, leap := mustRun(vmm.SystemDVMMLeap.Config(seed), apps(seed), s)

	var out Fig13Result
	for i, prof := range workload.Profiles() {
		out.Rows = append(out.Rows, Fig13Row{
			App:     prof.AppName,
			Default: def.PerProc[i].Time,
			Leap:    leap.PerProc[i].Time,
		})
	}
	return out
}

// Row fetches one app's row.
func (r Fig13Result) Row(app string) (Fig13Row, bool) {
	for _, row := range r.Rows {
		if row.App == app {
			return row, true
		}
	}
	return Fig13Row{}, false
}

// String renders the comparison.
func (r Fig13Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 13 — four applications concurrently (@50%% memory each)\n")
	fmt.Fprintf(&b, "  %-12s %14s %14s %8s\n", "app", "d-vmm", "d-vmm+leap", "gain")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-12s %14v %14v %7.2f×\n", row.App, row.Default, row.Leap, row.Gain())
	}
	fmt.Fprintf(&b, "  (paper: 1.1–2.4× improvement across the mix)\n")
	return b.String()
}
