package experiments

import (
	"fmt"
	"strings"

	"leap/internal/metrics"
	"leap/internal/vmm"
	"leap/internal/workload"
)

// Fig7Cell compares default vs Leap on one (abstraction, pattern) pair.
type Fig7Cell struct {
	Default metrics.Summary
	Leap    metrics.Summary
}

// MedianGain is the p50 improvement factor.
func (c Fig7Cell) MedianGain() float64 {
	if c.Leap.P50 == 0 {
		return 0
	}
	return float64(c.Default.P50) / float64(c.Leap.P50)
}

// TailGain is the p99 improvement factor.
func (c Fig7Cell) TailGain() float64 {
	if c.Leap.P99 == 0 {
		return 0
	}
	return float64(c.Default.P99) / float64(c.Leap.P99)
}

// Fig7Result reproduces Figure 7: 4KB access latency with and without Leap
// for D-VMM and D-VFS under Sequential and Stride-10.
type Fig7Result struct {
	// Cells is keyed "<abstraction>/<pattern>", e.g. "d-vmm/stride-10".
	Cells map[string]Fig7Cell
	// Hists keeps raw histograms keyed "<abstraction>/<pattern>/<system>".
	Hists map[string]*metrics.Histogram
}

// Fig7 runs the four comparisons.
func Fig7(s Scale, seed uint64) Fig7Result {
	r := Fig7Result{Cells: map[string]Fig7Cell{}, Hists: map[string]*metrics.Histogram{}}
	patterns := []struct {
		name   string
		stride int64
	}{{"sequential", 1}, {"stride-10", 10}}

	for _, pat := range patterns {
		// D-VMM.
		mDef, resDef := mustRun(vmm.SystemDVMM.Config(seed),
			[]vmm.App{microApp(workload.NewStride(1<<20, pat.stride, seed), 1)}, s)
		mLeap, resLeap := mustRun(vmm.SystemDVMMLeap.Config(seed),
			[]vmm.App{microApp(workload.NewStride(1<<20, pat.stride, seed), 1)}, s)
		r.Cells["d-vmm/"+pat.name] = Fig7Cell{Default: resDef.Latency, Leap: resLeap.Latency}
		r.Hists["d-vmm/"+pat.name+"/default"] = mDef.ProcLatency(1)
		r.Hists["d-vmm/"+pat.name+"/leap"] = mLeap.ProcLatency(1)

		// D-VFS.
		fDef := runVFSPattern(vfsConfig(vmm.SystemDVMM, seed), pat.stride, s)
		fLeap := runVFSPattern(vfsConfig(vmm.SystemDVMMLeap, seed), pat.stride, s)
		r.Cells["d-vfs/"+pat.name] = Fig7Cell{
			Default: fDef.ReadLatency.Summarize(),
			Leap:    fLeap.ReadLatency.Summarize(),
		}
		r.Hists["d-vfs/"+pat.name+"/default"] = &fDef.ReadLatency
		r.Hists["d-vfs/"+pat.name+"/leap"] = &fLeap.ReadLatency
	}
	return r
}

// String renders the comparison with the paper's headline factors.
func (r Fig7Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7 — 4KB access latency, default vs Leap\n")
	fmt.Fprintf(&b, "  %-22s %12s %12s %10s %12s %12s %10s\n",
		"series", "p50 def", "p50 leap", "gain", "p99 def", "p99 leap", "gain")
	paper := map[string]string{
		"d-vmm/sequential": "4.07×/5.48×",
		"d-vmm/stride-10":  "104.04×/22.06×",
		"d-vfs/sequential": "1.99×/3.42×",
		"d-vfs/stride-10":  "24.96×/17.32×",
	}
	for _, key := range []string{
		"d-vmm/sequential", "d-vmm/stride-10", "d-vfs/sequential", "d-vfs/stride-10",
	} {
		c := r.Cells[key]
		fmt.Fprintf(&b, "  %-22s %12v %12v %9.1f× %12v %12v %9.1f×  (paper %s)\n",
			key, c.Default.P50, c.Leap.P50, c.MedianGain(),
			c.Default.P99, c.Leap.P99, c.TailGain(), paper[key])
	}
	return b.String()
}
