// Package metrics provides the measurement plumbing for the simulation:
// log-bucketed latency histograms with percentile queries, CDF extraction for
// figure rendering, streaming mean/variance, and named counters.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"

	"leap/internal/sim"
)

// Histogram records latency observations in logarithmically spaced buckets
// spanning 1ns to ~17minutes with a fixed relative error of about 2.4%
// (32 sub-buckets per power of two). The zero value is ready to use.
//
// Percentile queries interpolate within a bucket, which keeps the structure
// compact (fixed memory) while staying accurate enough for the CDF plots this
// repository reproduces.
type Histogram struct {
	counts [nBuckets]uint64
	total  uint64
	sum    float64
	min    sim.Duration
	max    sim.Duration
}

const (
	subBucketBits = 5 // 32 sub-buckets per octave
	subBuckets    = 1 << subBucketBits
	// Values below identityMax (two octaves' worth) get exact buckets; above,
	// each octave is split into subBuckets log-spaced buckets.
	identityMax = 2 * subBuckets
	maxExponent = 40 // values up to 2^40 ns ≈ 18 minutes
	nBuckets    = identityMax + (maxExponent-subBucketBits)*subBuckets
)

// bucketIndex maps a value to its bucket. The mapping is HdrHistogram-style:
// exact below identityMax, then (octave, sub-bucket) above, which keeps the
// relative quantization error bounded by 1/subBuckets everywhere.
func bucketIndex(v sim.Duration) int {
	if v < 0 {
		v = 0
	}
	x := uint64(v)
	if x < identityMax {
		return int(x)
	}
	exp := 63 - bits.LeadingZeros64(x) // floor(log2(x)) >= subBucketBits+1
	sub := (x >> (uint(exp) - subBucketBits)) & (subBuckets - 1)
	idx := (exp-subBucketBits+1)*subBuckets + int(sub)
	if idx >= nBuckets {
		idx = nBuckets - 1
	}
	return idx
}

// bucketLow returns the smallest value that maps into bucket idx.
func bucketLow(idx int) sim.Duration {
	if idx < identityMax {
		return sim.Duration(idx)
	}
	octave := idx / subBuckets // >= 2
	sub := idx % subBuckets
	exp := uint(octave + subBucketBits - 1)
	return sim.Duration(uint64(1)<<exp + uint64(sub)<<(exp-subBucketBits))
}

// Observe records one latency sample.
func (h *Histogram) Observe(v sim.Duration) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)]++
	if h.total == 0 || v < h.min {
		h.min = v
	}
	if h.total == 0 || v > h.max {
		h.max = v
	}
	h.total++
	h.sum += float64(v)
}

// Count reports the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.total }

// Mean reports the arithmetic mean of the recorded samples (0 if empty).
func (h *Histogram) Mean() sim.Duration {
	if h.total == 0 {
		return 0
	}
	return sim.Duration(h.sum / float64(h.total))
}

// Min reports the smallest recorded sample (0 if empty).
func (h *Histogram) Min() sim.Duration { return h.min }

// Max reports the largest recorded sample (0 if empty).
func (h *Histogram) Max() sim.Duration { return h.max }

// Percentile reports the p-th percentile (p in [0,100]) by bucket
// interpolation. Empty histograms report 0.
func (h *Histogram) Percentile(p float64) sim.Duration {
	if h.total == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	rank := p / 100 * float64(h.total)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		seen += float64(c)
		if seen >= rank {
			// Interpolate within the bucket.
			lo := float64(bucketLow(i))
			hi := float64(bucketLow(i + 1))
			frac := 1 - (seen-rank)/float64(c)
			v := sim.Duration(lo + (hi-lo)*frac)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Merge adds all samples recorded in o into h.
func (h *Histogram) Merge(o *Histogram) {
	if o.total == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if h.total == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.total += o.total
	h.sum += o.sum
}

// Reset clears all recorded samples.
func (h *Histogram) Reset() { *h = Histogram{} }

// CDFPoint is one point of an empirical CDF: fraction of samples <= Value.
type CDFPoint struct {
	Value    sim.Duration
	Fraction float64
}

// CDF extracts up to maxPoints evenly spaced (in cumulative probability)
// points of the empirical CDF, suitable for rendering the paper's latency
// CDF figures.
func (h *Histogram) CDF(maxPoints int) []CDFPoint {
	if h.total == 0 || maxPoints <= 0 {
		return nil
	}
	var pts []CDFPoint
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += c
		pts = append(pts, CDFPoint{
			Value:    bucketLow(i + 1),
			Fraction: float64(cum) / float64(h.total),
		})
	}
	if len(pts) <= maxPoints {
		return pts
	}
	// Downsample, always keeping the last point.
	out := make([]CDFPoint, 0, maxPoints)
	step := float64(len(pts)-1) / float64(maxPoints-1)
	for i := 0; i < maxPoints; i++ {
		out = append(out, pts[int(math.Round(float64(i)*step))])
	}
	return out
}

// Summary is a compact multi-percentile view of a histogram.
type Summary struct {
	Count          uint64
	Mean           sim.Duration
	Min, P25, P50  sim.Duration
	P75, P90, P95  sim.Duration
	P99, P999, Max sim.Duration
}

// Summarize extracts the standard percentile set.
func (h *Histogram) Summarize() Summary {
	return Summary{
		Count: h.total,
		Mean:  h.Mean(),
		Min:   h.min,
		P25:   h.Percentile(25),
		P50:   h.Percentile(50),
		P75:   h.Percentile(75),
		P90:   h.Percentile(90),
		P95:   h.Percentile(95),
		P99:   h.Percentile(99),
		P999:  h.Percentile(99.9),
		Max:   h.max,
	}
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		s.Count, s.Mean, s.P50, s.P95, s.P99, s.Max)
}

// RenderCDFTable renders a set of named CDFs side by side as an ASCII table,
// one row per probability step — the textual analogue of the paper's CDF
// plots.
func RenderCDFTable(title string, series map[string]*Histogram, steps []float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	names := make([]string, 0, len(series))
	for n := range series {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(&b, "%8s", "CDF")
	for _, n := range names {
		fmt.Fprintf(&b, " %16s", n)
	}
	b.WriteByte('\n')
	for _, p := range steps {
		fmt.Fprintf(&b, "%7.2f%%", p)
		for _, n := range names {
			fmt.Fprintf(&b, " %16v", series[n].Percentile(p))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
