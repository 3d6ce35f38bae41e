package experiments

import (
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestRunnerRegistryComplete(t *testing.T) {
	want := []string{"1", "2", "3", "4", "table1", "7", "8a", "8b", "9", "10", "11", "12", "13", "resilience", "scaling", "elastic", "runtime", "selfheal", "concurrency", "ztier", "ensemble", "ablations"}
	got := Figures()
	if len(got) != len(want) {
		t.Fatalf("Figures() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Figures()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestRunFigureUnknown: an unknown name is an error, from RunFigure and
// from the runner before any figure runs.
func TestRunFigureUnknown(t *testing.T) {
	if _, err := RunFigure("nope", Small, 1); err == nil {
		t.Fatal("unknown figure accepted")
	}
	ran := false
	err := ForEach([]string{"table1", "nope"}, Small, 1, 1, func(FigureResult) { ran = true })
	if err == nil || !strings.Contains(err.Error(), `unknown figure "nope"`) {
		t.Fatalf("ForEach error = %v, want unknown figure \"nope\"", err)
	}
	if ran {
		t.Fatal("ForEach ran figures before rejecting an unknown name")
	}
}

// TestParallelMatchesSequential is the reproducibility gate on every
// figure: the whole registry runs at seed 42 on one worker and on four, and
// each figure must render the same bytes both times — concurrency cannot
// perturb an output. Measured wall-clock blocks are compared after
// StripMeasured.
func TestParallelMatchesSequential(t *testing.T) {
	for _, name := range Figures() {
		sameSeed(t, name)
	}
}

// sameSeedRuns is the registry run at seed 42 on one worker and on four, once
// for every test that reads it.
var sameSeedRuns = sync.OnceValues(func() (runs [2][]FigureResult, err error) {
	for i, workers := range []int{1, 4} {
		if runs[i], err = RunAll(Figures(), Small, 42, workers); err != nil {
			break
		}
	}
	return runs, err
})

// sameSeed fails unless figure name rendered the same bytes outside any
// measured block in both of sameSeedRuns, and returns its sequential output.
func sameSeed(t *testing.T, name string) string {
	t.Helper()
	runs, err := sameSeedRuns()
	if err != nil {
		t.Fatal(err)
	}
	i := slices.Index(Figures(), name)
	if len(runs[0]) != len(Figures()) || len(runs[1]) != len(Figures()) || runs[0][i].Name != name || runs[1][i].Name != name {
		t.Fatalf("figure %s: the runs hold %d and %d results, not every figure in order", name, len(runs[0]), len(runs[1]))
	}
	a, b := StripMeasured(runs[0][i].Output), StripMeasured(runs[1][i].Output)
	if a == "" {
		t.Errorf("figure %s: empty output", name)
	}
	if a != b {
		t.Errorf("figure %s: parallel output differs from sequential:\n%s\n---\n%s", name, a, b)
	}
	return runs[0][i].Output
}

// The figures that had replays of their own: slices of the same check.
func TestResilienceDeterministic(t *testing.T) { sameSeed(t, "resilience") }
func TestScalingDeterministic(t *testing.T)    { sameSeed(t, "scaling") }
func TestElasticDeterministic(t *testing.T)    { sameSeed(t, "elastic") }
func TestRuntimeDeterministic(t *testing.T)    { sameSeed(t, "runtime") }
func TestSelfhealDeterministic(t *testing.T)   { sameSeed(t, "selfheal") }
func TestZtierDeterministic(t *testing.T)      { sameSeed(t, "ztier") }
func TestEnsembleDeterministic(t *testing.T)   { sameSeed(t, "ensemble") }

// TestConcurrencyDeterministic checks that the concurrency figure's measured
// real-goroutine block is present and that StripMeasured removes it.
func TestConcurrencyDeterministic(t *testing.T) {
	out := sameSeed(t, "concurrency")
	stripped := StripMeasured(out)
	if !strings.Contains(stripped, "isolation") {
		t.Fatal("figure output lost the §4.1 isolation block")
	}
	if !strings.Contains(out, "\n  measured") {
		t.Fatal("figure output lost the measured real-goroutine block")
	}
	if strings.Contains(stripped, "measured") {
		t.Fatal("StripMeasured left measured lines behind")
	}
}

// TestDescribeGolden pins the -list inventory: every figure name appears
// with a one-line description, in presentation order.
func TestDescribeGolden(t *testing.T) {
	const want = `1           data-path latency breakdown: stock block layer vs Leap's lean path
2           4KB read latency CDFs across disaggregated VMM/VFS stacks
3           page-fault pattern mix (sequential/stride/irregular) per application
4           consumed-page wait time under lazy vs eager cache eviction
table1      majority-trend prefetching contrasted with prior prefetcher classes
7           microbenchmark latency CDFs: default path vs Leap, sequential and stride
8a          benefit breakdown: Leap's components enabled one at a time on PowerGraph
8b          Leap prefetcher vs read-ahead on slow storage (HDD, SSD)
9           cache adds, cache misses and completion time per prefetcher
10          prefetcher accuracy, coverage and timeliness per prefetcher
11          application completion time and throughput at 100%/50%/25% memory
12          Leap under shrinking prefetch-cache budgets
13          multi-process isolation: per-process predictors vs global stream
resilience  chaos harness: scripted faults, failover latency, repair traffic
scaling     async ticket engine throughput over agents × queue-depth grid
elastic     self-healing control plane: diurnal ramp, static vs detector+autoscaler
runtime     end-to-end leap.Memory: prefetchers over a live in-proc remote cluster
selfheal    leap.Memory under mid-run agent faults: unsupervised vs WithControlPlane
concurrency multi-client leap.Memory: modeled throughput over goroutines × clients
ztier       compressed victim tier: hit ratio, hit latency and compression ratio at equal RAM
ensemble    online per-client prefetcher selection vs every fixed policy, per application
ablations   design-choice sweeps: majority vote, windows, eviction, isolation
`
	if got := Describe(); got != want {
		t.Fatalf("Describe() golden mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	// Belt and braces: the inventory must cover exactly Figures().
	for _, name := range Figures() {
		if !strings.Contains(Describe(), name+" ") && !strings.HasPrefix(Describe(), name+" ") {
			t.Errorf("Describe() missing figure %q", name)
		}
	}
}
