package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middle values for an
// even count); 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), because
// that is the spread the driver computes over ten runs. Fewer than two
// values have no spread: both quartiles are the single value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	if m == 0 {
		return 0, 0
	}
	if m == 1 {
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// percentile returns the q-quantile (0..1) of an already sorted sample
// by the nearest-rank-below rule the repo's own latency accessors use.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

// share returns num/den, 0 when the denominator is not positive, clamped
// into [0,1]: a share is a fraction of a whole whatever the timers say.
func share(num, den float64) float64 {
	if den <= 0 || math.IsNaN(num) {
		return 0
	}
	return math.Min(1, math.Max(0, num/den))
}

// ratio returns num/den, or 0 when the denominator is not positive.
func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}
