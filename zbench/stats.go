package main

import (
	"math"
	"sort"
)

// nearestRank returns the p-th percentile (0 < p ≤ 100) of sorted by the
// nearest-rank rule: the value at 1-based rank ⌈p/100 · n⌉.
func nearestRank(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(len(sorted), p)-1]
}

// rankOf is the 1-based nearest rank of the p-th percentile of n samples.
// The 1e-9 slack keeps p·n/100 from rounding up past an exact integer.
func rankOf(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// minBeyond is how many samples must lie above a tail percentile for it
// to be reported.
const minBeyond = 10

// tailPercentile is the rule for choosing the tail percentile of n
// samples: the highest of p99 and p90 that has at least minBeyond samples
// beyond its nearest rank, or the median when neither has.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99, 90} {
		if n-rankOf(n, p) >= minBeyond {
			return p
		}
	}
	return 50
}

// tailAt returns the p-th percentile of sorted and the number of samples
// beyond it.
func tailAt(sorted []float64, p float64) (value float64, beyond int) {
	return nearestRank(sorted, p), len(sorted) - rankOf(len(sorted), p)
}

// median of unsorted values (the input is not modified).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
