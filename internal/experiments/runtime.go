package experiments

import (
	"fmt"
	"strings"

	"leap/internal/core"
	"leap/internal/metrics"
	"leap/internal/prefetch"
	"leap/internal/remote"
	"leap/internal/runtime"
)

// RuntimePrefetchers are the policies the end-to-end runtime table
// compares, in presentation order.
var RuntimePrefetchers = []string{"leap", "readahead", "none"}

// runtimeWorkloads are the access patterns the runtime figure drives
// through leap.Memory: the §2.2 microbenchmarks plus a random stream that
// should suspend Leap's prefetching.
var runtimeWorkloads = []struct {
	Name   string
	Stride int64 // 0 = seeded pseudo-random pages
}{
	{"sequential", 1},
	{"stride-10", 10},
	{"random", 0},
}

// RuntimeCell is one (workload, prefetcher) outcome over the live runtime.
type RuntimeCell struct {
	HitRatio           float64
	Accuracy, Coverage float64
	Latency            metrics.Summary
	// RemoteReads counts real page images fetched from the remote host;
	// BatchedPages is how many rode multi-op doorbell frames.
	RemoteReads, BatchedPages int64
}

// RuntimeResult is the end-to-end leap.Memory table: every cell is a real
// run over the in-process remote-memory cluster — actual bytes placed,
// replicated and fetched — with virtual-time latency accounting.
type RuntimeResult struct {
	// Cells keyed "<workload>/<prefetcher>".
	Cells map[string]RuntimeCell
	// Accesses per cell (scale-dependent), for the caption.
	Accesses int64
}

// Cell fetches one entry.
func (r RuntimeResult) Cell(workload, pf string) (RuntimeCell, bool) {
	c, ok := r.Cells[workload+"/"+pf]
	return c, ok
}

// Runtime drives leap.Memory — the unified runtime over the real remote
// substrate — through the microbenchmark patterns under each prefetcher.
// Every run opens a fresh three-agent in-process cluster, writes a working
// set through the async ticket engine, then measures a page-granular scan.
func Runtime(s Scale, seed uint64) RuntimeResult {
	accesses := s.Measured / 4
	if accesses < 2000 {
		accesses = 2000
	}
	out := RuntimeResult{Cells: map[string]RuntimeCell{}, Accesses: accesses}
	for wi, wl := range runtimeWorkloads {
		for _, name := range RuntimePrefetchers {
			out.Cells[wl.Name+"/"+name] = runtimeCell(wl.Name, wl.Stride,
				name, accesses, seed+uint64(wi)*977)
		}
	}
	return out
}

// runtimeCell runs one (workload, prefetcher) configuration.
func runtimeCell(wlName string, stride int64, pfName string, accesses int64, seed uint64) RuntimeCell {
	pf, err := prefetch.New(pfName)
	if err != nil {
		panic(err)
	}
	mem, err := runtime.Open(
		runtime.WithSeed(seed),
		runtime.WithPrefetcherFactory(func() prefetch.Prefetcher { return pf }),
		runtime.WithCacheCapacity(256),
		runtime.WithQueueDepth(8),
	)
	if err != nil {
		panic(err)
	}
	defer mem.Close()

	const span = int64(1) << 18 // 1GB address space
	// Populate a slice of the address space (recording off, like the
	// simulator's warmup) so misses fetch real images from the cluster
	// rather than materializing zeros.
	mem.SetRecording(false)
	buf := make([]byte, remote.PageSize)
	populate := min(accesses, 4096)
	for p := int64(0); p < populate; p++ {
		pg := (p * max(stride, 1)) % span
		buf[0] = byte(pg)
		if _, err := mem.WriteAt(buf, pg*remote.PageSize); err != nil {
			panic(err)
		}
	}
	mem.SetRecording(true)
	host0 := mem.Host().Stats()

	// Measure a fresh scan of the same pattern. A seeded LCG drives the
	// random stream, so every run replays exactly.
	rnd := seed | 1
	pg := int64(0)
	for i := int64(0); i < accesses; i++ {
		var target int64
		if stride > 0 {
			target = pg % span
			pg += stride
		} else {
			rnd = rnd*6364136223846793005 + 1442695040888963407
			target = int64(rnd>>11) % span
			if target < 0 {
				target = -target
			}
		}
		if _, err := mem.Get(core.PageID(target)); err != nil {
			panic(err)
		}
	}
	st := mem.Stats()
	return RuntimeCell{
		HitRatio:     st.HitRatio,
		Accuracy:     st.Accuracy,
		Coverage:     st.Coverage,
		Latency:      st.Latency,
		RemoteReads:  st.Host.Reads - host0.Reads,
		BatchedPages: st.Host.BatchedPages - host0.BatchedPages,
	}
}

// String renders the runtime table.
func (r RuntimeResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Runtime — leap.Memory over a live in-proc remote-memory cluster (%d accesses/cell, real bytes)\n", r.Accesses)
	fmt.Fprintf(&b, "  %-12s %-10s %9s %9s %9s %11s %11s %8s\n",
		"workload", "prefetch", "hit", "accuracy", "coverage", "p50", "p99", "rd-pages")
	for _, wl := range runtimeWorkloads {
		for _, name := range RuntimePrefetchers {
			c := r.Cells[wl.Name+"/"+name]
			fmt.Fprintf(&b, "  %-12s %-10s %8.1f%% %8.1f%% %8.1f%% %11v %11v %8d\n",
				wl.Name, name, 100*c.HitRatio, 100*c.Accuracy, 100*c.Coverage,
				c.Latency.P50, c.Latency.P99, c.RemoteReads)
		}
	}
	b.WriteString("  (one fault path from predictor to ticket engine; the prefetcher is the only variable)\n")
	return b.String()
}
