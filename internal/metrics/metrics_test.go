package metrics

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"leap/internal/sim"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Percentile(50) != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	if h.CDF(10) != nil {
		t.Fatal("empty histogram CDF must be nil")
	}
}

func TestHistogramSingleValue(t *testing.T) {
	var h Histogram
	h.Observe(4300)
	if h.Count() != 1 {
		t.Fatalf("Count = %d, want 1", h.Count())
	}
	if h.Min() != 4300 || h.Max() != 4300 {
		t.Fatalf("Min/Max = %d/%d, want 4300/4300", h.Min(), h.Max())
	}
	for _, p := range []float64{0, 25, 50, 99, 100} {
		if got := h.Percentile(p); got != 4300 {
			t.Fatalf("P%.0f = %d, want 4300", p, got)
		}
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Observe(-5)
	if h.Min() != 0 {
		t.Fatalf("negative observation must clamp to 0, got %d", h.Min())
	}
}

func TestHistogramPercentileAccuracy(t *testing.T) {
	// Percentiles of a log-bucketed histogram must be within the bucket
	// relative error (~1/32) of exact order statistics.
	var h Histogram
	exact := make([]sim.Duration, 0, 100000)
	rng := sim.NewRNG(99)
	for i := 0; i < 100000; i++ {
		// Latencies spanning 100ns .. ~1ms, log-uniform.
		v := sim.Duration(100 * math.Exp(rng.Float64()*math.Log(10000)))
		h.Observe(v)
		exact = append(exact, v)
	}
	sort.Slice(exact, func(i, j int) bool { return exact[i] < exact[j] })
	for _, p := range []float64{10, 25, 50, 75, 90, 99, 99.9} {
		hp, rp := float64(h.Percentile(p)), float64(exact[int(p/100*float64(len(exact)-1))])
		if rp == 0 {
			continue
		}
		if rel := math.Abs(hp-rp) / rp; rel > 0.08 {
			t.Errorf("P%v: histogram %v vs exact %v (rel err %.3f)", p, hp, rp, rel)
		}
	}
}

func TestHistogramPercentileMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		var h Histogram
		rng := sim.NewRNG(seed)
		for i := 0; i < 500; i++ {
			h.Observe(sim.Duration(rng.Intn(1_000_000)))
		}
		prev := sim.Duration(-1)
		for p := 0.0; p <= 100; p += 2.5 {
			v := h.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramMergeEquivalentToCombinedObserve(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		var a, b, combined Histogram
		for i := 0; i < 300; i++ {
			v := sim.Duration(rng.Intn(1 << 20))
			if i%2 == 0 {
				a.Observe(v)
			} else {
				b.Observe(v)
			}
			combined.Observe(v)
		}
		a.Merge(&b)
		if a.Count() != combined.Count() || a.Min() != combined.Min() || a.Max() != combined.Max() {
			return false
		}
		for _, p := range []float64{25, 50, 90, 99} {
			if a.Percentile(p) != combined.Percentile(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramMeanExact(t *testing.T) {
	var h Histogram
	for _, v := range []sim.Duration{100, 200, 300} {
		h.Observe(v)
	}
	if got := h.Mean(); got != 200 {
		t.Fatalf("Mean = %d, want 200", got)
	}
}

func TestHistogramCDFProperties(t *testing.T) {
	var h Histogram
	rng := sim.NewRNG(7)
	for i := 0; i < 10000; i++ {
		h.Observe(sim.Duration(rng.Intn(100000)))
	}
	pts := h.CDF(50)
	if len(pts) == 0 || len(pts) > 50 {
		t.Fatalf("CDF returned %d points, want 1..50", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Fraction < pts[i-1].Fraction || pts[i].Value < pts[i-1].Value {
			t.Fatalf("CDF not monotone at %d: %+v -> %+v", i, pts[i-1], pts[i])
		}
	}
	if last := pts[len(pts)-1].Fraction; math.Abs(last-1.0) > 1e-9 {
		t.Fatalf("CDF final fraction = %v, want 1.0", last)
	}
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	h.Observe(5)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Fatal("Reset did not clear histogram")
	}
}

func TestHistogramExtremeValues(t *testing.T) {
	var h Histogram
	h.Observe(1)
	h.Observe(sim.Duration(1) << 50) // beyond bucket range: clamps to top bucket
	if h.Count() != 2 {
		t.Fatalf("Count = %d, want 2", h.Count())
	}
	if h.Max() != sim.Duration(1)<<50 {
		t.Fatalf("Max = %d", h.Max())
	}
	// P100 must return the exact max even though bucket range is exceeded.
	if h.Percentile(100) != sim.Duration(1)<<50 {
		t.Fatalf("P100 = %d", h.Percentile(100))
	}
}

func TestSummaryString(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Observe(sim.Duration(i) * sim.Microsecond)
	}
	s := h.Summarize()
	if s.Count != 100 {
		t.Fatalf("Count = %d", s.Count)
	}
	if s.P50 < 45*sim.Microsecond || s.P50 > 55*sim.Microsecond {
		t.Fatalf("P50 = %v, want ~50µs", s.P50)
	}
	if !strings.Contains(s.String(), "n=100") {
		t.Fatalf("Summary.String missing count: %s", s)
	}
}

func TestWelford(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Observe(x)
	}
	if w.Count() != 8 {
		t.Fatalf("Count = %d", w.Count())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Fatalf("Mean = %v, want 5", w.Mean())
	}
	// Sample variance of this classic dataset is 32/7.
	if math.Abs(w.Variance()-32.0/7.0) > 1e-12 {
		t.Fatalf("Variance = %v, want %v", w.Variance(), 32.0/7.0)
	}
}

func TestWelfordDegenerate(t *testing.T) {
	var w Welford
	if w.Variance() != 0 || w.StdDev() != 0 {
		t.Fatal("empty Welford must report 0 variance")
	}
	w.Observe(3)
	if w.Variance() != 0 {
		t.Fatal("single-sample variance must be 0")
	}
}

func TestRatio(t *testing.T) {
	if got := Ratio(10, 5); got != "2.00×" {
		t.Fatalf("Ratio = %q", got)
	}
	if got := Ratio(1, 0); got != "inf×" {
		t.Fatalf("Ratio div0 = %q", got)
	}
}

func TestRenderCDFTable(t *testing.T) {
	var a, b Histogram
	for i := 1; i <= 100; i++ {
		a.Observe(sim.Duration(i) * sim.Microsecond)
		b.Observe(sim.Duration(i) * sim.Millisecond)
	}
	out := RenderCDFTable("test", map[string]*Histogram{"fast": &a, "slow": &b}, []float64{50, 99})
	if !strings.Contains(out, "fast") || !strings.Contains(out, "slow") {
		t.Fatalf("table missing series names:\n%s", out)
	}
	if !strings.Contains(out, "50.00%") {
		t.Fatalf("table missing percentile rows:\n%s", out)
	}
}

func TestBucketIndexMonotone(t *testing.T) {
	prev := -1
	for v := sim.Duration(1); v < 1<<30; v = v*3/2 + 1 {
		idx := bucketIndex(v)
		if idx < prev {
			t.Fatalf("bucketIndex not monotone at %d", v)
		}
		prev = idx
	}
}

func TestBucketLowInverse(t *testing.T) {
	// bucketLow(i) must itself map into bucket i.
	for i := 0; i < nBuckets; i += 7 {
		lo := bucketLow(i)
		if lo == 0 {
			continue
		}
		got := bucketIndex(lo)
		if got != i {
			t.Fatalf("bucketIndex(bucketLow(%d)) = %d", i, got)
		}
	}
}
