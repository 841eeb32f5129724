// Package stats provides the small statistical toolkit the metrics and
// benchmark layers share: order statistics (the heart of the paper's
// convergence function), summaries, and series helpers.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// KthSmallest returns the k-th smallest value of xs, 1-indexed (k=1 is the
// minimum), by quickselect. It is the one selection routine of the
// repository: the convergence function selects its trimmed extremes with it
// (core.TrimmedExtremes). CONTRACT: xs is scratch space owned by the caller
// and is permuted in place — callers that need the original order select on
// a copy. Order statistics are exact, so the result is the value a sort
// would put at rank k.
func KthSmallest(xs []float64, k int) float64 {
	if k < 1 || k > len(xs) {
		panic(fmt.Sprintf("stats: k=%d out of range for %d values", k, len(xs)))
	}
	lo, hi := 0, len(xs)-1
	k-- // 0-indexed rank
	for lo < hi {
		p := partition(xs, lo, hi)
		switch {
		case k == p:
			return xs[p]
		case k < p:
			hi = p - 1
		default:
			lo = p + 1
		}
	}
	return xs[k]
}

// KthLargest returns the k-th largest value of xs, 1-indexed (k=1 is the
// maximum), under KthSmallest's contract: xs is permuted in place.
func KthLargest(xs []float64, k int) float64 {
	return KthSmallest(xs, len(xs)-k+1)
}

func partition(xs []float64, lo, hi int) int {
	// Median-of-three pivot keeps adversarially sorted inputs O(n).
	mid := lo + (hi-lo)/2
	if xs[mid] < xs[lo] {
		xs[mid], xs[lo] = xs[lo], xs[mid]
	}
	if xs[hi] < xs[lo] {
		xs[hi], xs[lo] = xs[lo], xs[hi]
	}
	if xs[hi] < xs[mid] {
		xs[hi], xs[mid] = xs[mid], xs[hi]
	}
	pivot := xs[mid]
	xs[mid], xs[hi] = xs[hi], xs[mid]
	i := lo
	for j := lo; j < hi; j++ {
		if xs[j] < pivot {
			xs[i], xs[j] = xs[j], xs[i]
			i++
		}
	}
	xs[i], xs[hi] = xs[hi], xs[i]
	return i
}

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N             int
	Min, Max      float64
	Mean, Stddev  float64
	P50, P90, P99 float64
}

// Summarize computes descriptive statistics. An empty sample yields a zero
// Summary with N=0.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	var sum, sumSq float64
	for _, x := range cp {
		sum += x
		sumSq += x * x
	}
	n := float64(len(cp))
	mean := sum / n
	variance := sumSq/n - mean*mean
	if variance < 0 {
		variance = 0 // numeric guard
	}
	return Summary{
		N:      len(cp),
		Min:    cp[0],
		Max:    cp[len(cp)-1],
		Mean:   mean,
		Stddev: math.Sqrt(variance),
		P50:    Percentile(cp, 0.50),
		P90:    Percentile(cp, 0.90),
		P99:    Percentile(cp, 0.99),
	}
}

// Percentile returns the p-quantile (0 ≤ p ≤ 1) of an already-sorted sample
// using nearest-rank interpolation.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		panic("stats: percentile of empty sample")
	}
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("stats: percentile %v out of [0,1]", p))
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Spread returns max−min of xs (0 for empty input).
func Spread(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	min, max := xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return max - min
}

// LinearFit returns the least-squares slope and intercept of y over x. It is
// used to measure logical clock rates over long windows. Requires at least
// two points with distinct x.
func LinearFit(x, y []float64) (slope, intercept float64) {
	if len(x) != len(y) || len(x) < 2 {
		panic(fmt.Sprintf("stats: bad fit input (%d, %d points)", len(x), len(y)))
	}
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	n := float64(len(x))
	den := n*sxx - sx*sx
	if den == 0 {
		panic("stats: degenerate fit (all x equal)")
	}
	slope = (n*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / n
	return slope, intercept
}
