package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-quantile (0 ≤ p ≤ 1) of sorted by the
// nearest-rank rule: the smallest sample with at least p of the samples
// at or below it. An empty slice yields 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median returns the middle value (mean of the two middle values for an
// even count) without modifying vals.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// spread is (max−min)/median: the run-to-run width printed beside every
// median of rounds. A zero median yields 0.
func spread(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals[1:] {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	m := median(vals)
	if m == 0 {
		return 0
	}
	return (hi - lo) / math.Abs(m)
}

// sortedMicros converts durations to sorted microseconds.
func sortedMicros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	sort.Float64s(out)
	return out
}

// ratio is a/b with 0 for an empty base, so unexercised layers report 0
// rather than NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
