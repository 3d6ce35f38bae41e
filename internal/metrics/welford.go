package metrics

import (
	"fmt"
	"math"
)

// Welford accumulates a streaming mean and variance (Welford's algorithm).
// The zero value is ready to use.
type Welford struct {
	n    uint64
	mean float64
	m2   float64
}

// Observe adds one observation.
func (w *Welford) Observe(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Count reports the number of observations.
func (w *Welford) Count() uint64 { return w.n }

// Mean reports the running mean (0 if empty).
func (w *Welford) Mean() float64 { return w.mean }

// Variance reports the sample variance (0 if fewer than 2 observations).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev reports the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Ratio formats a/b as a "×" factor string, guarding against division by
// zero; used in EXPERIMENTS.md-style paper-vs-measured reporting.
func Ratio(a, b float64) string {
	if b == 0 {
		return "inf×"
	}
	return fmt.Sprintf("%.2f×", a/b)
}
