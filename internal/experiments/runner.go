package experiments

import (
	"fmt"
	"strings"
	"time"
)

// FigureResult is one figure driver's rendered output plus how long it took
// in wall time. Output is deterministic given (name, Scale, seed); Elapsed
// is the only field that varies between runs.
type FigureResult struct {
	Name    string
	Output  string
	Elapsed time.Duration
}

// figureRunner pairs a figure name with its driver and a one-line
// description (the -list inventory). Drivers are pure: each builds its own
// machines from (Scale, seed), so distinct figures can run concurrently.
type figureRunner struct {
	name string
	desc string
	run  func(Scale, uint64) string
}

// figureRegistry lists every figure in the paper's presentation order.
var figureRegistry = []figureRunner{
	{"1", "data-path latency breakdown: stock block layer vs Leap's lean path", renderFig1},
	{"2", "4KB read latency CDFs across disaggregated VMM/VFS stacks", renderFig2},
	{"3", "page-fault pattern mix (sequential/stride/irregular) per application", renderFig3},
	{"4", "consumed-page wait time under lazy vs eager cache eviction", renderFig4},
	{"table1", "majority-trend prefetching contrasted with prior prefetcher classes", renderTable1},
	{"7", "microbenchmark latency CDFs: default path vs Leap, sequential and stride", renderFig7},
	{"8a", "benefit breakdown: Leap's components enabled one at a time on PowerGraph", renderFig8a},
	{"8b", "Leap prefetcher vs read-ahead on slow storage (HDD, SSD)", renderFig8b},
	{"9", "cache adds, cache misses and completion time per prefetcher", renderFig9},
	{"10", "prefetcher accuracy, coverage and timeliness per prefetcher", renderFig10},
	{"11", "application completion time and throughput at 100%/50%/25% memory", renderFig11},
	{"12", "Leap under shrinking prefetch-cache budgets", renderFig12},
	{"13", "multi-process isolation: per-process predictors vs global stream", renderFig13},
	{"resilience", "chaos harness: scripted faults, failover latency, repair traffic", renderResilience},
	{"scaling", "async ticket engine throughput over agents × queue-depth grid", renderScaling},
	{"elastic", "self-healing control plane: diurnal ramp, static vs detector+autoscaler", renderElastic},
	{"runtime", "end-to-end leap.Memory: prefetchers over a live in-proc remote cluster", renderRuntime},
	{"selfheal", "leap.Memory under mid-run agent faults: unsupervised vs WithControlPlane", renderSelfheal},
	{"concurrency", "multi-client leap.Memory: modeled throughput over goroutines × clients", renderConcurrency},
	{"ztier", "compressed victim tier: hit ratio, hit latency and compression ratio at equal RAM", renderZtier},
	{"ensemble", "online per-client prefetcher selection vs every fixed policy, per application", renderEnsemble},
	{"ablations", "design-choice sweeps: majority vote, windows, eviction, isolation", renderAblations},
}

// Figures reports the registered figure names in presentation order.
func Figures() []string {
	names := make([]string, len(figureRegistry))
	for i, r := range figureRegistry {
		names[i] = r.name
	}
	return names
}

// Describe renders the figure inventory — one "name  description" line per
// registered figure, in presentation order (the leapbench -list output).
func Describe() string {
	var b strings.Builder
	for _, r := range figureRegistry {
		fmt.Fprintf(&b, "%-11s %s\n", r.name, r.desc)
	}
	return b.String()
}

// lookup finds a registered figure: the one place a figure name is checked.
func lookup(name string) (figureRunner, error) {
	for _, r := range figureRegistry {
		if r.name == name {
			return r, nil
		}
	}
	return figureRunner{}, fmt.Errorf("unknown figure %q", name)
}

// RunFigure runs one named figure.
func RunFigure(name string, s Scale, seed uint64) (FigureResult, error) {
	r, err := lookup(name)
	if err != nil {
		return FigureResult{}, err
	}
	return r.timed(s, seed), nil
}

// timed runs the figure, timing it on the wall clock.
func (r figureRunner) timed(s Scale, seed uint64) FigureResult {
	start := time.Now()
	out := r.run(s, seed)
	return FigureResult{Name: r.name, Output: out, Elapsed: time.Since(start)}
}

// RunAll runs the named figures with up to parallelism concurrent workers
// and returns results in input order. Every driver owns its seed and
// machines, so concurrency cannot perturb outputs: RunAll(names, s, seed, 8)
// produces the same Output fields as running the names one at a time. An
// unknown name fails the call before any figure runs. parallelism < 1 means
// one worker per figure.
func RunAll(names []string, s Scale, seed uint64, parallelism int) ([]FigureResult, error) {
	results := make([]FigureResult, 0, len(names))
	err := ForEach(names, s, seed, parallelism, func(r FigureResult) {
		results = append(results, r)
	})
	return results, err
}

// ForEach is RunAll with streaming: emit is called once per figure, in
// input order, as soon as that figure and everything before it have
// finished — so a long tail figure doesn't hold earlier output hostage.
// emit runs on the caller's goroutine.
func ForEach(names []string, s Scale, seed uint64, parallelism int, emit func(FigureResult)) error {
	runners := make([]figureRunner, len(names))
	for i, name := range names {
		r, err := lookup(name)
		if err != nil {
			return err
		}
		runners[i] = r
	}
	if parallelism < 1 || parallelism > len(names) {
		parallelism = len(names)
	}
	results := make([]FigureResult, len(names))
	done := make([]chan struct{}, len(names))
	for i := range done {
		done[i] = make(chan struct{})
	}
	work := make(chan int)
	for w := 0; w < parallelism; w++ {
		go func() {
			for i := range work {
				results[i] = runners[i].timed(s, seed)
				close(done[i])
			}
		}()
	}
	go func() {
		for i := range names {
			work <- i
		}
		close(work)
	}()
	for i := range names {
		<-done[i]
		emit(results[i])
	}
	return nil
}
