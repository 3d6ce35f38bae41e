package experiments

import (
	"fmt"
	"strings"

	"leap/internal/analysis"
	"leap/internal/vmm"
	"leap/internal/workload"
)

// Fig3Row is one application's pattern mix across window sizes.
type Fig3Row struct {
	App        string
	StrictW2   analysis.Mix
	StrictW4   analysis.Mix
	StrictW8   analysis.Mix
	MajorityW8 analysis.Mix
	Faults     int
}

// Fig3Result reproduces Figure 3: the fraction of sequential/stride/other
// page-fault windows per application at 50% memory, under strict matching
// (windows 2/4/8) and majority detection (window 8).
type Fig3Result struct {
	Rows []Fig3Row
}

// Fig3 runs each application at 50% memory on the default D-VMM stack,
// captures the fault stream, and classifies it.
func Fig3(s Scale, seed uint64) Fig3Result {
	var out Fig3Result
	for i, prof := range workload.Profiles() {
		cfg := vmm.SystemDVMM.Config(seed + uint64(i))
		cfg.CaptureFaults = true
		m, _ := mustRun(cfg, []vmm.App{appAt(prof, 1, 0.5, seed+uint64(i))}, s)
		faults := m.FaultTrace(1)
		out.Rows = append(out.Rows, Fig3Row{
			App:        prof.AppName,
			StrictW2:   analysis.ClassifyStrict(faults, 2),
			StrictW4:   analysis.ClassifyStrict(faults, 4),
			StrictW8:   analysis.ClassifyStrict(faults, 8),
			MajorityW8: analysis.ClassifyMajority(faults, 8),
			Faults:     len(faults),
		})
	}
	return out
}

// String renders the Figure 3 table.
func (r Fig3Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3 — page-fault pattern mix at 50%% memory (seq/stride/other %%)\n")
	fmt.Fprintf(&b, "  %-12s %-26s %-26s %-26s %-26s\n",
		"app", "strict W2", "strict W4", "strict W8", "majority W8")
	cell := func(m analysis.Mix) string {
		return fmt.Sprintf("%5.1f/%5.1f/%5.1f", m.Sequential*100, m.Stride*100, m.Other*100)
	}
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-12s %-26s %-26s %-26s %-26s (n=%d)\n",
			row.App, cell(row.StrictW2), cell(row.StrictW4), cell(row.StrictW8),
			cell(row.MajorityW8), row.Faults)
	}
	fmt.Fprintf(&b, "  (paper: majority@W8 detects 11.3–29.7%% more sequential windows than strict@W8;\n")
	fmt.Fprintf(&b, "   Memcached ≈96%% irregular, VoltDB 69%% irregular)\n")
	return b.String()
}
