package experiments

import (
	"strings"
	"testing"
)

// TestRuntimeDeterministic is the reproducibility gate on the live-runtime
// figure: two runs from the same (scale, seed) must render byte-identically
// — real bytes over the in-proc cluster included.
func TestRuntimeDeterministic(t *testing.T) {
	a := Runtime(Small, 42).String()
	b := Runtime(Small, 42).String()
	if a != b {
		t.Fatalf("runtime figure not deterministic:\n%s\n---\n%s", a, b)
	}
	if a == "" {
		t.Fatal("empty output")
	}
}

// TestRuntimeLeapBeatsBaselines is the acceptance gate from the paper's
// thesis, over real remote memory: with the Leap prefetcher the runtime's
// hit ratio is strictly above the none prefetcher on both microbenchmark
// patterns, and above read-ahead on stride (where read-ahead's sequential
// assumption collapses).
func TestRuntimeLeapBeatsBaselines(t *testing.T) {
	r := Runtime(Small, 42)
	for _, wl := range []string{"sequential", "stride-10"} {
		lp, ok1 := r.Cell(wl, "leap")
		np, ok2 := r.Cell(wl, "none")
		if !ok1 || !ok2 {
			t.Fatalf("%s: missing cells", wl)
		}
		if lp.HitRatio <= np.HitRatio {
			t.Errorf("%s: leap hit ratio %.4f not strictly above none %.4f",
				wl, lp.HitRatio, np.HitRatio)
		}
		if lp.Latency.P50 >= np.Latency.P50 {
			t.Errorf("%s: leap p50 %v not below none %v", wl, lp.Latency.P50, np.Latency.P50)
		}
	}
	lp, _ := r.Cell("stride-10", "leap")
	ra, _ := r.Cell("stride-10", "readahead")
	if lp.HitRatio <= ra.HitRatio {
		t.Errorf("stride-10: leap %.4f not above readahead %.4f", lp.HitRatio, ra.HitRatio)
	}
	// Random traffic must suspend Leap's prefetching, not flood the wire.
	rnd, _ := r.Cell("random", "leap")
	if rnd.HitRatio > 0.05 {
		t.Errorf("random: implausible hit ratio %.4f", rnd.HitRatio)
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
