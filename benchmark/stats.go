package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middle values for an
// even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	q := quartiles(xs)
	return q[1]
}

// quartiles returns the first quartile, median and third quartile of xs
// by the same rule as Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), which is what the acceptance check computes. With
// fewer than two samples all three equal the only sample (or 0).
func quartiles(xs []float64) [3]float64 {
	n := len(xs)
	switch n {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{xs[0], xs[0], xs[0]}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var out [3]float64
	for i := 1; i <= 3; i++ {
		// statistics.quantiles clamps the lower index to the samples
		// and extrapolates from there.
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out
}

// spread is the interquartile distance of xs as a share of its median,
// the steadiness figure the acceptance check bounds. 0 when the median
// is 0.
func spread(xs []float64) float64 {
	q := quartiles(xs)
	if q[1] == 0 {
		return 0
	}
	return math.Abs(q[2]-q[0]) / math.Abs(q[1])
}

// tailSamples is how many samples must lie beyond a percentile for it
// to be reported (choosing-metrics: "the highest percentile that has at
// least ten samples beyond it").
const tailSamples = 10

// percentile returns the p-quantile (0 < p < 1) of sorted, and the
// quantile actually used: when fewer than tailSamples samples lie
// beyond p it falls back to the highest quantile that has that many,
// and never below the median. An empty input gives (0, 0); a single
// sample is every quantile of itself.
func percentile(sorted []float64, p float64) (value, used float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return sorted[0], p
	}
	if supportable := 1 - float64(tailSamples)/float64(n); p > supportable {
		p = math.Max(supportable, 0.5)
	}
	// Nearest-rank on a 0-based index: the smallest sample with at least
	// a p share of the samples at or below it.
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i], p
}

// sortedCopy returns xs sorted ascending without modifying it.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
