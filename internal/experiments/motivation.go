package experiments

import (
	"fmt"
	"strings"

	"leap/internal/analysis"
	"leap/internal/metrics"
	"leap/internal/pagecache"
	"leap/internal/rdma"
	"leap/internal/sim"
	"leap/internal/storage"
	"leap/internal/vmm"
	"leap/internal/workload"
)

// The §2 motivation: Figures 1–4 and Table 1.

// stage is one row of Figure 1: a data-path stage, the paper's value for
// it and the measured mean.
type stage struct {
	name, paper string
	mean        sim.Duration
}

// fig1 measures Figure 1's breakdown of a 4KB page request: stride-10
// misses with no prefetcher, so every fault traverses the full path,
// through both path variants; the device stages are each model sampled
// unloaded.
func fig1(s Scale, seed uint64) []stage {
	legacy := vmm.SystemDVMM.Config(seed)
	legacy.Prefetcher = nil
	lean := vmm.SystemDVMMLeap.Config(seed)
	lean.Prefetcher = nil
	lean.CachePolicy = 0
	runs := runMachines(s, vmmCase{"legacy", legacy, micro(10, seed)}, vmmCase{"lean", lean, micro(10, seed)})

	rng := sim.NewRNG(seed ^ 0xdead)
	devices := []storage.Device{
		storage.NewHDD(rng.Fork(1)),
		storage.NewSSD(rng.Fork(2)),
		storage.NewRemote(rdma.New(rdma.Config{}, rng.Fork(3))),
	}
	const n = 20000
	dev := make([]sim.Duration, len(devices))
	for i := 0; i < n; i++ {
		now := sim.Time(i) * sim.Time(sim.Millisecond)
		for d, device := range devices {
			dev[d] += device.Read(i, now, 0, 10).Sub(now)
		}
	}
	p := runs[0].m.Path()
	return []stage{
		{"fault/VFS entry + cache lookup", "0.27µs", p.EntryHist.Mean()},
		{"block-layer bio preparation", "10.04µs", p.BioPrepHist.Mean()},
		{"request-queue staging/batching", "21.88µs", p.StagingHist.Mean()},
		{"dispatch queue", "2.1µs", p.DispatchHist.Mean()},
		{"device: HDD (near seek)", "91.48µs", dev[0] / n},
		{"device: SSD", "20µs", dev[1] / n},
		{"device: RDMA 4KB", "4.3µs", dev[2] / n},
		{"cache hit service", "0.27µs", 270 * sim.Nanosecond},
		{"end-to-end miss (legacy, remote)", "~38.3µs", runs[0].Latency.Mean},
		{"end-to-end miss (lean, remote)", "~7µs", runs[1].Latency.Mean},
	}
}

func renderFig1(s Scale, seed uint64) string {
	var b strings.Builder
	b.WriteString("Figure 1 — data path stage latency breakdown (stride-10 misses)\n")
	var rows [][]any
	for _, st := range fig1(s, seed) {
		rows = append(rows, []any{st.name, st.paper, st.mean})
	}
	table(&b, "  ", []col{{"stage", -34, ""}, {"paper", -10, ""}, {"measured", 0, ""}}, rows)
	return b.String()
}

// patterns are the §2.2 microbenchmarks.
var patterns = []struct {
	name   string
	stride int64
}{{"sequential", 1}, {"stride-10", 10}}

// fig2 runs Figure 2 on the default data path everywhere: Disk, D-VMM and
// D-VFS under each microbenchmark, labelled "<pattern>/<series>".
func fig2(s Scale, seed uint64) []run {
	var runs []run
	for _, system := range []vmm.System{vmm.SystemDisk, vmm.SystemDVMM} {
		for _, pat := range patterns {
			runs = append(runs, runCases(s, vmmCase{
				pat.name + "/" + system.String(), system.Config(seed), micro(pat.stride, seed),
			})...)
		}
	}
	for _, pat := range patterns {
		runs = append(runs, vfsRun(pat.name+"/d-vfs", vmm.SystemDVMM, pat.stride, s, seed))
	}
	return runs
}

// cdfSteps is the probability grid of the CDF tables.
var cdfSteps = []float64{10, 25, 50, 75, 90, 95, 99, 99.9}

func renderFig2(s Scale, seed uint64) string {
	runs := fig2(s, seed)
	var b strings.Builder
	for _, pat := range patterns {
		series := map[string]*metrics.Histogram{}
		for i := range runs {
			if name, ok := strings.CutPrefix(runs[i].label, pat.name+"/"); ok {
				series[name] = &runs[i].lat
			}
		}
		b.WriteString(metrics.RenderCDFTable(
			fmt.Sprintf("Figure 2 (%s) — 4KB access latency, default data path", pat.name),
			series, cdfSteps))
		b.WriteByte('\n')
	}
	return b.String()
}

// fig3 runs each application at 50% memory on the default D-VMM stack,
// capturing its fault stream: Figure 3 classifies it.
func fig3(s Scale, seed uint64) []run {
	var cases []vmmCase
	for i, prof := range workload.Profiles() {
		cfg := vmm.SystemDVMM.Config(seed + uint64(i))
		cfg.CaptureFaults = true
		cases = append(cases, vmmCase{prof.AppName, cfg, []vmm.App{appAt(prof, 1, 0.5, seed+uint64(i))}})
	}
	return runMachines(s, cases...)
}

func renderFig3(s Scale, seed uint64) string {
	var b strings.Builder
	b.WriteString("Figure 3 — page-fault pattern mix at 50% memory (seq/stride/other %)\n")
	mix := func(m analysis.Mix) string {
		return fmt.Sprintf("%5.1f/%5.1f/%5.1f", m.Sequential*100, m.Stride*100, m.Other*100)
	}
	var rows [][]any
	for _, r := range fig3(s, seed) {
		faults := r.m.FaultTrace(1)
		rows = append(rows, []any{r.label,
			mix(analysis.ClassifyStrict(faults, 2)), mix(analysis.ClassifyStrict(faults, 4)),
			mix(analysis.ClassifyStrict(faults, 8)), mix(analysis.ClassifyMajority(faults, 8)), len(faults)})
	}
	table(&b, "  ", []col{{"app", -12, ""}, {"strict W2", -26, ""}, {"strict W4", -26, ""},
		{"strict W8", -26, ""}, {"majority W8", -26, ""}, {"", 0, "(n=%d)"}}, rows)
	b.WriteString("  (paper: majority@W8 detects 11.3–29.7% more sequential windows than strict@W8;\n")
	b.WriteString("   Memcached ≈96% irregular, VoltDB 69% irregular)\n")
	return b.String()
}

// fig4 drives PowerGraph at 50% memory with read-ahead prefetching on the
// default path under lazy and eager eviction (Figure 4 and the §4.3
// eager-eviction claim). The lazy scan period is compressed so the run
// (hundreds of virtual milliseconds) spans many kswapd passes; the paper's
// absolute waits (seconds, Fig. 4's x-axis) scale with the real cadence.
func fig4(s Scale, seed uint64) []run {
	lazy := vmm.SystemDVMM.Config(seed)
	lazy.CachePolicy = pagecache.EvictLazy
	lazy.CacheScanInterval = 20 * sim.Millisecond
	eager := vmm.SystemDVMM.Config(seed)
	eager.CachePolicy = pagecache.EvictEager
	return runMachines(s, vmmCase{"lazy", lazy, powerGraph(seed)}, vmmCase{"eager", eager, powerGraph(seed)})
}

func renderFig4(s Scale, seed uint64) string {
	runs := fig4(s, seed)
	var b strings.Builder
	b.WriteString("Figure 4 — consumed prefetch pages: wait time until reclamation\n")
	var rows [][]any
	for _, r := range runs {
		w := r.m.Cache().WaitTime.Summarize()
		rows = append(rows, []any{r.label, w.P50, w.P90, w.P99, w.Max})
	}
	table(&b, "  ", []col{{"policy", -8, ""}, {"p50", 12, ""}, {"p90", 12, ""}, {"p99", 12, ""}, {"max", 12, ""}}, rows)
	fmt.Fprintf(&b, "  page allocation latency: lazy %v vs eager %v (paper: −750ns, −36%%)\n",
		runs[0].m.AllocLatency().Mean(), runs[1].m.AllocLatency().Mean())
	return b.String()
}

// table1 is the paper's qualitative comparison matrix: each technique's
// marks for low compute, low memory, unmodified applications, no special
// hardware/software, temporal locality, spatial locality and high prefetch
// utilization. The rows are the paper's claims, printed so leapbench emits
// the complete artifact set; Figures 9/10 are their quantitative side.
var table1 = []struct{ technique, marks string }{
	{"Next-N-Line", "✓✓✓✓✗✓✗"},
	{"Stride", "✓✓✓✓✗✓✗"},
	{"GHB PC", "✗✗✓✗✓✓✓"},
	{"Instruction Prefetch", "✗✗✗✗✓✓✓"},
	{"Linux Read-Ahead", "✓✓✓✓✓✓✗"},
	{"Leap Prefetcher", "✓✓✓✓✓✓✓"},
}

func renderTable1(Scale, uint64) string {
	var b strings.Builder
	b.WriteString("Table 1 — prefetching techniques compared (✓ = has property)\n")
	cols := []col{{"technique", -22, ""}}
	for _, h := range []string{"lowCPU", "lowMem", "unmod", "indep", "tempor", "spatial", "util"} {
		cols = append(cols, col{h, 7, ""})
	}
	var rows [][]any
	for _, t := range table1 {
		row := []any{t.technique}
		for _, m := range t.marks {
			row = append(row, string(m))
		}
		rows = append(rows, row)
	}
	table(&b, "  ", cols, rows)
	return b.String()
}
