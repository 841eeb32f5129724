package main

import (
	"sort"

	"clocksync/internal/stats"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	return quantile(sorted(xs), 0.5)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is stats.Percentile of an ascending slice, and 0 of an empty one:
// a workload that took no sample of something reports 0 for it.
func quantile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	return stats.Percentile(asc, q)
}

// iqrRel is (p75 − p25) ÷ p50: how far apart a run's own batches were.
func iqrRel(xs []float64) float64 {
	s := sorted(xs)
	mid := quantile(s, 0.5)
	if mid == 0 {
		return 0
	}
	return (quantile(s, 0.75) - quantile(s, 0.25)) / mid
}

// tailSamples is how many samples must lie beyond a reported percentile: a
// tail read off fewer is one or two outliers, not a percentile.
const tailSamples = 10

// tailPercentile returns the value at the highest percentile not above want
// that still has tailSamples samples beyond it, and the percentile used. With
// fewer than 2·tailSamples samples even the median has no such tail, and the
// median is what is returned.
func tailPercentile(asc []float64, want float64) (value, used float64) {
	n := len(asc)
	if n == 0 {
		return 0, 0
	}
	used = want
	if most := 1 - float64(tailSamples)/float64(n); used > most {
		used = most
	}
	if used < 0.5 {
		used = 0.5
	}
	return quantile(asc, used), used
}

// tally counts operations the way the fail ratio needs them: an operation
// that was refused, timed out or returned a wrong answer was still attempted.
type tally struct {
	attempted int
	failed    int
}

func (t *tally) add(attempted, failed int) {
	t.attempted += attempted
	t.failed += failed
}

// okRatio is 1 − failed ÷ attempted. It is reported instead of the fail
// ratio because a regression bound is a share of the parent's median, which
// a metric that is 0 on every healthy run cannot carry: at a median of 1 the
// 0.001 bound is the 0.001 absolute rise in fail ratio the issue allows.
func (t tally) okRatio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return 1 - float64(t.failed)/float64(t.attempted)
}
