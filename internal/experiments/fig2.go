package experiments

import (
	"fmt"
	"strings"

	"leap/internal/core"
	"leap/internal/metrics"
	"leap/internal/vfs"
	"leap/internal/vmm"
	"leap/internal/workload"
)

// Fig2Result holds the default-path latency distributions of Figure 2:
// Disk, disaggregated VMM and disaggregated VFS under the Sequential and
// Stride-10 microbenchmarks.
type Fig2Result struct {
	// Sequential and Stride map series name → latency summary.
	Sequential map[string]metrics.Summary
	Stride     map[string]metrics.Summary
	// Hists keeps the raw histograms for CDF rendering, keyed
	// "<pattern>/<series>".
	Hists map[string]*metrics.Histogram
}

// runVFSPattern drives the §2.2 D-VFS microbenchmark: bulk sequential
// write, then patterned reads.
func runVFSPattern(cfg vfs.Config, stride int64, s Scale) *vfs.FS {
	f := vfs.New(cfg)
	region := int64(1 << 20)
	// Warmup phase: writes + unmeasured reads land outside the measured
	// histograms (the FS has no recording toggle; use a fresh FS and skip
	// its write-phase latencies by resetting the read histogram).
	for i := int64(0); i < s.Warmup; i++ {
		f.Write(1, core.PageID(i%region), 200)
	}
	pos := int64(0)
	f.ReadLatency.Reset()
	for i := int64(0); i < s.Measured; i++ {
		f.Read(1, core.PageID(pos), 200)
		pos = (pos + stride) % region
	}
	return f
}

// Fig2 reproduces Figure 2 on the default data path everywhere.
func Fig2(s Scale, seed uint64) Fig2Result {
	r := Fig2Result{
		Sequential: map[string]metrics.Summary{},
		Stride:     map[string]metrics.Summary{},
		Hists:      map[string]*metrics.Histogram{},
	}

	patterns := []struct {
		name   string
		stride int64
	}{
		{"sequential", 1},
		{"stride-10", 10},
	}

	for _, med := range []vmm.System{vmm.SystemDisk, vmm.SystemDVMM} {
		for _, pat := range patterns {
			gen := workload.NewStride(1<<20, pat.stride, seed)
			m, res := mustRun(med.Config(seed), []vmm.App{microApp(gen, 1)}, s)
			key := pat.name + "/" + med.String()
			h := m.ProcLatency(1)
			r.Hists[key] = h
			if pat.name == "sequential" {
				r.Sequential[med.String()] = res.Latency
			} else {
				r.Stride[med.String()] = res.Latency
			}
		}
	}

	// D-VFS series.
	for _, pat := range patterns {
		f := runVFSPattern(vfsConfig(vmm.SystemDVMM, seed), pat.stride, s)
		key := pat.name + "/d-vfs"
		r.Hists[key] = &f.ReadLatency
		if pat.name == "sequential" {
			r.Sequential["d-vfs"] = f.ReadLatency.Summarize()
		} else {
			r.Stride["d-vfs"] = f.ReadLatency.Summarize()
		}
	}
	return r
}

// CDFSteps is the probability grid used when rendering CDF tables.
var CDFSteps = []float64{10, 25, 50, 75, 90, 95, 99, 99.9}

// String renders both CDF tables.
func (r Fig2Result) String() string {
	var b strings.Builder
	for _, pat := range []string{"sequential", "stride-10"} {
		series := map[string]*metrics.Histogram{}
		for key, h := range r.Hists {
			if strings.HasPrefix(key, pat+"/") {
				series[strings.TrimPrefix(key, pat+"/")] = h
			}
		}
		fmt.Fprint(&b, metrics.RenderCDFTable(
			fmt.Sprintf("Figure 2 (%s) — 4KB access latency, default data path", pat),
			series, CDFSteps))
		b.WriteByte('\n')
	}
	return b.String()
}
