// Multitenant: all four of the paper's applications run concurrently on one
// host, each at a 50% memory limit, sharing the remote fabric — the
// Figure 13 scenario. Leap's per-process page-access tracking keeps each
// application's pattern detection clean despite the interleaved fault
// stream; the stock read-ahead shares one global window across all four.
// A third column runs the Leap stack with doorbell-batched prefetch fan-out
// (RemoteQueueDepth 8): each prefetch window goes to the fabric as one
// batched submission instead of one per page.
package main

import (
	"fmt"
	"log"

	"leap"
)

var apps = []string{"powergraph", "numpy", "voltdb", "memcached"}

func run(system leap.System, queueDepth int) leap.SimResult {
	var workloads []leap.Workload
	for i, name := range apps {
		gen, err := leap.NewAppWorkload(name, uint64(100+i))
		if err != nil {
			log.Fatal(err)
		}
		workloads = append(workloads, leap.Workload{
			PID:              leap.PID(i + 1),
			Generator:        gen,
			MemoryLimitPages: gen.Pages() / 2,
			PreloadPages:     -1,
		})
	}
	res, err := leap.Simulate(leap.SimConfig{
		System:           system,
		RemoteQueueDepth: queueDepth,
		WarmupAccesses:   10000,
		MeasuredAccesses: 60000,
		Seed:             99,
	}, workloads)
	if err != nil {
		log.Fatal(err)
	}
	return res
}

func main() {
	fmt.Println("four applications concurrently @50% memory each (Figure 13):")
	fmt.Println()
	stock := run(leap.SystemDVMM, 1)
	withLeap := run(leap.SystemDVMMLeap, 1)
	batched := run(leap.SystemDVMMLeap, 8)

	fmt.Printf("%-12s %14s %14s %14s %8s %8s\n",
		"app", "d-vmm", "d-vmm+leap", "+leap qd=8", "gain", "qd-gain")
	for i, name := range apps {
		s := stock.PerProc[i]
		l := withLeap.PerProc[i]
		b := batched.PerProc[i]
		fmt.Printf("%-12s %14v %14v %14v %7.2f× %7.2f×\n",
			name, s.Time, l.Time, b.Time,
			float64(s.Time)/float64(l.Time), float64(l.Time)/float64(b.Time))
	}
	fmt.Println()
	fmt.Printf("aggregate coverage: %.1f%% (leap) vs %.1f%% (stock global window)\n",
		withLeap.Coverage*100, stock.Coverage*100)
	fmt.Println("(paper: 1.1–2.4× per-app improvement from isolation + lean path;")
	fmt.Println(" qd-gain is doorbell batching of the prefetch fan-out on top of it)")

	fmt.Println()
	runLive()
}

// runLive is the same multi-tenant idea on the live runtime instead of the
// simulator: four tenants share one leap.Memory over the private in-process
// cluster, supervised by the control plane. Tenant access skew concentrates
// faults on a handful of pages, and the plane's hot-page replication picks
// them up from the natural fault stream — no fault injection involved.
func runLive() {
	mem, err := leap.Open(
		// The detector and hot-replica machinery run off the runtime clock;
		// the error thresholds only matter if an agent actually fails.
		leap.WithControlPlane(leap.ControlConfig{
			Detector: leap.ControlDetectorConfig{SuspectErr: 0.25, FailErr: 0.5},
			HotK:     8,
			HotEvery: 4,
		}),
		leap.WithCacheCapacity(64),
		leap.WithSeed(7),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer mem.Close()

	// Four tenants, each with its own predictor via Client handles: two
	// scanners, one hotspot tenant (80% of its traffic on 8 pages strided
	// across slabs), one uniform. The 4096-page set dwarfs the 64-frame
	// cache, so hot pages keep re-faulting — the plane's replication signal.
	const region, pages = 1024, 4096
	buf := make([]byte, leap.RemotePageSize)
	for p := int64(0); p < pages; p++ {
		buf[0] = byte(p)
		if _, err := mem.WriteAt(buf, p*leap.RemotePageSize); err != nil {
			log.Fatal(err)
		}
	}
	tenants := make([]*leap.MemoryClient, 4)
	for i := range tenants {
		tenants[i] = mem.Client(i)
	}
	rnd := uint64(1)
	for i := 0; i < 20000; i++ {
		t := i % 4
		var off int64
		switch t {
		case 0:
			off = int64(i/4) % region
		case 1:
			off = int64(i/4*8) % region
		case 2:
			rnd = rnd*6364136223846793005 + 1442695040888963407
			if r := rnd >> 11; r%10 < 8 {
				off = int64(r%8) * 64
			} else {
				off = int64(r % region)
			}
		default:
			rnd = rnd*6364136223846793005 + 1442695040888963407
			off = int64((rnd >> 11) % region)
		}
		if _, err := tenants[t].Get(leap.PageID(int64(t)*region + off)); err != nil {
			log.Fatal(err)
		}
	}

	st := mem.Stats()
	fmt.Println("live runtime: four tenants on one supervised leap.Memory (WithControlPlane):")
	fmt.Printf("  hit ratio %.1f%%, agent phases [%s], control ticks %d\n",
		100*st.HitRatio, st.Control.Phases, st.Control.Ticks)
	fmt.Printf("  hot-page replicas: %d pages carrying extra copies (%d adds, %d drops) — driven by the natural fault stream of the hotspot tenant\n",
		st.Control.HotPages, st.Control.HotAdds, st.Control.HotDrops)
}
