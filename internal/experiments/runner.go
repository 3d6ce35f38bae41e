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

// show adapts a figure driver to the registry: it renders the driver's
// result with fmt.Sprint.
func show[R any](fig func(Scale, uint64) R) func(Scale, uint64) string {
	return func(s Scale, seed uint64) string { return fmt.Sprint(fig(s, seed)) }
}

// figureRegistry lists every figure in the paper's presentation order.
var figureRegistry = []figureRunner{
	{"1", "data-path latency breakdown: stock block layer vs Leap's lean path", show(Fig1)},
	{"2", "4KB read latency CDFs across disaggregated VMM/VFS stacks", show(Fig2)},
	{"3", "page-fault pattern mix (sequential/stride/irregular) per application", show(Fig3)},
	{"4", "consumed-page wait time under lazy vs eager cache eviction", show(Fig4)},
	{"table1", "majority-trend prefetching contrasted with prior prefetcher classes",
		func(Scale, uint64) string { return RenderTable1() }},
	{"7", "microbenchmark latency CDFs: default path vs Leap, sequential and stride", show(Fig7)},
	{"8a", "benefit breakdown: Leap's components enabled one at a time on PowerGraph", show(Fig8a)},
	{"8b", "Leap prefetcher vs read-ahead on slow storage (HDD, SSD)", show(Fig8b)},
	{"9", "cache adds, cache misses and completion time per prefetcher", show(Fig9)},
	{"10", "prefetcher accuracy, coverage and timeliness per prefetcher", show(Fig10)},
	{"11", "application completion time and throughput at 100%/50%/25% memory", show(Fig11)},
	{"12", "Leap under shrinking prefetch-cache budgets", show(Fig12)},
	{"13", "multi-process isolation: per-process predictors vs global stream", show(Fig13)},
	{"resilience", "chaos harness: scripted faults, failover latency, repair traffic", show(Resilience)},
	{"scaling", "async ticket engine throughput over agents × queue-depth grid", show(Scaling)},
	{"elastic", "self-healing control plane: diurnal ramp, static vs detector+autoscaler", show(Elastic)},
	{"runtime", "end-to-end leap.Memory: prefetchers over a live in-proc remote cluster", show(Runtime)},
	{"selfheal", "leap.Memory under mid-run agent faults: unsupervised vs WithControlPlane", show(Selfheal)},
	{"concurrency", "multi-client leap.Memory: modeled throughput over goroutines × clients", show(Concurrency)},
	{"ztier", "compressed victim tier: hit ratio, hit latency and compression ratio at equal RAM", show(Ztier)},
	{"ensemble", "online per-client prefetcher selection vs every fixed policy, per application", show(Ensemble)},
	{"ablations", "design-choice sweeps: majority vote, windows, eviction, isolation",
		func(s Scale, seed uint64) string {
			parts := []string{
				fmt.Sprint(AblationMajorityVsStrict(s, seed)),
				fmt.Sprint(AblationWindowDoubling(s, seed)),
				fmt.Sprint(AblationEviction(s, seed)),
				fmt.Sprint(AblationIsolation(s, seed)),
				fmt.Sprint(AblationHistorySize(s, seed)),
				fmt.Sprint(AblationMaxWindow(s, seed)),
				fmt.Sprint(AblationThrottling(s, seed)),
			}
			return strings.Join(parts, "\n")
		}},
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

// RunFigure runs one named figure, reporting false for an unknown name.
func RunFigure(name string, s Scale, seed uint64) (FigureResult, bool) {
	for _, r := range figureRegistry {
		if r.name == name {
			start := time.Now()
			out := r.run(s, seed)
			return FigureResult{Name: name, Output: out, Elapsed: time.Since(start)}, true
		}
	}
	return FigureResult{}, false
}

// RunAll runs the named figures with up to parallelism concurrent workers
// and returns results in input order. Every driver owns its seed and
// machines, so concurrency cannot perturb outputs: RunAll(names, s, seed, 8)
// produces the same Output fields as running the names one at a time.
// Unknown names produce a result whose Output is an error line, keeping
// positions stable. parallelism < 1 means one worker per figure.
func RunAll(names []string, s Scale, seed uint64, parallelism int) []FigureResult {
	results := make([]FigureResult, 0, len(names))
	ForEach(names, s, seed, parallelism, func(r FigureResult) {
		results = append(results, r)
	})
	return results
}

// ForEach is RunAll with streaming: emit is called once per figure, in
// input order, as soon as that figure and everything before it have
// finished — so a long tail figure doesn't hold earlier output hostage.
// emit runs on the caller's goroutine.
func ForEach(names []string, s Scale, seed uint64, parallelism int, emit func(FigureResult)) {
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
				res, ok := RunFigure(names[i], s, seed)
				if !ok {
					res = FigureResult{
						Name:   names[i],
						Output: fmt.Sprintf("unknown figure %q", names[i]),
					}
				}
				results[i] = res
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
}
