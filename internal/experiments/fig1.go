package experiments

import (
	"fmt"
	"strings"

	"leap/internal/rdma"
	"leap/internal/sim"
	"leap/internal/storage"
	"leap/internal/vmm"
	"leap/internal/workload"
)

// Fig1Result is the per-stage data path latency breakdown of Figure 1: the
// average time a 4KB page request spends in each stage of the default
// kernel path, plus device access times for the three media.
type Fig1Result struct {
	// Host-side legacy stages (means over the measured run).
	Entry, BioPrep, Staging, Dispatch sim.Duration
	// Device access means.
	HDD, SSD, RDMA sim.Duration
	// HitPath is the cache-hit service time.
	HitPath sim.Duration
	// LegacyMissMean / LeanMissMean are end-to-end miss costs on remote
	// memory for the two paths.
	LegacyMissMean, LeanMissMean sim.Duration
}

// Fig1 measures the breakdown by driving stride-10 misses (no prefetcher,
// so every fault traverses the full path) through both path variants and
// sampling each device model.
func Fig1(s Scale, seed uint64) Fig1Result {
	// Legacy path over remote memory, no prefetching: pure miss traffic.
	cfg := vmm.SystemDVMM.Config(seed)
	cfg.Prefetcher = nil
	m, legacy := mustRun(cfg, []vmm.App{
		microApp(workload.NewStride(1<<20, 10, seed), 1),
	}, s)

	leanCfg := vmm.SystemDVMMLeap.Config(seed)
	leanCfg.Prefetcher = nil
	leanCfg.CachePolicy = 0
	_, lean := mustRun(leanCfg, []vmm.App{
		microApp(workload.NewStride(1<<20, 10, seed), 1),
	}, s)

	p := m.Path()
	r := Fig1Result{
		Entry:          p.EntryHist.Mean(),
		BioPrep:        p.BioPrepHist.Mean(),
		Staging:        p.StagingHist.Mean(),
		Dispatch:       p.DispatchHist.Mean(),
		HitPath:        270 * sim.Nanosecond,
		LegacyMissMean: legacy.Latency.Mean,
		LeanMissMean:   lean.Latency.Mean,
	}

	// Device stage means, sampled in isolation (unloaded).
	rng := sim.NewRNG(seed ^ 0xdead)
	hdd := storage.NewHDD(rng.Fork(1))
	ssd := storage.NewSSD(rng.Fork(2))
	rm := storage.NewRemote(rdma.New(rdma.Config{}, rng.Fork(3)))
	var hddSum, ssdSum, rdmaSum sim.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		now := sim.Time(i) * sim.Time(sim.Millisecond)
		hddSum += hdd.Read(i, now, 0, 10).Sub(now)
		ssdSum += ssd.Read(i, now, 0, 10).Sub(now)
		rdmaSum += rm.Read(i, now, 0, 10).Sub(now)
	}
	r.HDD = hddSum / n
	r.SSD = ssdSum / n
	r.RDMA = rdmaSum / n
	return r
}

// String renders the Figure 1 stage table.
func (r Fig1Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1 — data path stage latency breakdown (stride-10 misses)\n")
	fmt.Fprintf(&b, "  %-34s paper      measured\n", "stage")
	row := func(name, paper string, v sim.Duration) {
		fmt.Fprintf(&b, "  %-34s %-10s %v\n", name, paper, v)
	}
	row("fault/VFS entry + cache lookup", "0.27µs", r.Entry)
	row("block-layer bio preparation", "10.04µs", r.BioPrep)
	row("request-queue staging/batching", "21.88µs", r.Staging)
	row("dispatch queue", "2.1µs", r.Dispatch)
	row("device: HDD (near seek)", "91.48µs", r.HDD)
	row("device: SSD", "20µs", r.SSD)
	row("device: RDMA 4KB", "4.3µs", r.RDMA)
	row("cache hit service", "0.27µs", r.HitPath)
	fmt.Fprintf(&b, "  %-34s %-10s %v\n", "end-to-end miss (legacy, remote)", "~38.3µs", r.LegacyMissMean)
	fmt.Fprintf(&b, "  %-34s %-10s %v\n", "end-to-end miss (lean, remote)", "~7µs", r.LeanMissMean)
	return b.String()
}
