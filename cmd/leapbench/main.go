// Command leapbench regenerates every table and figure of the paper's
// evaluation on the simulation substrates. Each figure prints the same
// rows/series the paper reports, next to the paper's headline values.
//
// Independent figures run concurrently (each driver owns its seed and
// machines), with output printed in presentation order and per-figure wall
// times reported, so results are byte-identical at any -parallel setting.
//
// Usage:
//
//	leapbench                  # run everything at full scale, in parallel
//	leapbench -list            # print the figure inventory with descriptions
//	leapbench -fig 7           # one figure
//	leapbench -fig 1,7,9       # a comma-separated subset
//	leapbench -fig resilience  # chaos harness: faults, failover, repair
//	leapbench -fig elastic     # self-healing cluster vs static under a ramp
//	leapbench -fig runtime     # end-to-end leap.Memory over a live cluster
//	leapbench -fig selfheal    # runtime under mid-run agent faults, plane on/off
//	leapbench -fig ensemble    # online per-client prefetcher selection ablation
//	leapbench -fig ablations   # the DESIGN.md ablation sweeps
//	leapbench -scale small     # quick pass (test-sized runs)
//	leapbench -parallel 1      # sequential (same output, more wall time)
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"leap/internal/experiments"
)

func main() {
	known := experiments.Figures()
	fig := flag.String("fig", "all", "figures to run: comma-separated subset of "+strings.Join(known, ",")+", or all (see -list)")
	scaleName := flag.String("scale", "full", "run scale: full or small")
	seed := flag.Uint64("seed", 42, "simulation seed")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "max figures running concurrently (1 = sequential)")
	list := flag.Bool("list", false, "print the available figure names with one-line descriptions and exit")
	flag.Parse()

	if *list {
		fmt.Print(experiments.Describe())
		return
	}

	var scale experiments.Scale
	switch *scaleName {
	case "full":
		scale = experiments.Full
	case "small":
		scale = experiments.Small
	default:
		fmt.Fprintf(os.Stderr, "leapbench: unknown scale %q (want full or small)\n", *scaleName)
		os.Exit(2)
	}

	names := known
	if !strings.EqualFold(*fig, "all") {
		names = nil
		for _, name := range strings.Split(strings.ToLower(*fig), ",") {
			names = append(names, strings.TrimSpace(name))
		}
	}

	start := time.Now()
	var serial time.Duration
	n := 0
	// Results stream in presentation order as each figure (and everything
	// before it) completes, so long tail figures don't buffer earlier output.
	err := experiments.ForEach(names, scale, *seed, *parallel, func(r experiments.FigureResult) {
		fmt.Println(r.Output)
		fmt.Printf("[%s done in %v]\n\n", r.Name, r.Elapsed.Round(time.Millisecond))
		serial += r.Elapsed
		n++
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "leapbench: %v\n", err)
		os.Exit(2)
	}
	if n > 1 {
		fmt.Printf("[%d figures in %v wall (%v of figure time, parallel=%d)]\n",
			n, time.Since(start).Round(time.Millisecond),
			serial.Round(time.Millisecond), *parallel)
	}
}
