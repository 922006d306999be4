package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (mean of the two middle values
// for an even count); NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1, Q2 and Q3 of xs by the same rule as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method), so
// spreads computed here match the ones the acceptance check computes.
// It needs at least two samples.
func quartiles(xs []float64) [3]float64 {
	var q [3]float64
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		for i := range q {
			q[i] = math.NaN()
		}
		return q
	}
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

// minBeyond is how many samples must lie above the reported tail
// percentile.
const minBeyond = 10

// tail applies the benchmark's tail rule: the highest percentile that
// has at least minBeyond samples beyond it. It returns the value, the
// percentile it sits at (0-100) and the number of samples above it.
// With minBeyond or fewer samples no percentile qualifies; the maximum
// is returned with ok false.
func tail(xs []float64) (value, pct float64, beyond int, ok bool) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0, 0, false
	}
	s := sorted(xs)
	k := n - minBeyond // 1-based rank of the reported sample
	if k < 1 {
		return s[n-1], 100, 0, false
	}
	return s[k-1], 100 * float64(k) / float64(n), n - k, true
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	k := int(math.Ceil(p / 100 * float64(len(s))))
	if k < 1 {
		k = 1
	}
	return s[k-1]
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
