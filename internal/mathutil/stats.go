package mathutil

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation of xs (n-1 denominator),
// or 0 when fewer than two samples are supplied.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// Median returns the median of xs without modifying it, or 0 for empty input.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	n := len(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return 0.5 * (cp[n/2-1] + cp[n/2])
}

// Quantile returns the nearest-rank q-quantile of xs, which must be
// sorted ascending: the value at 1-based rank ⌈q·n⌉, clamped to
// [1, n]. It is exact, not interpolated, so reports built on it are
// bit-stable across hosts. It returns 0 for empty input.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(rank, 0), len(sorted)-1)]
}

// L2Norm returns sqrt(sum(x_i^2)/n): the RMS of the slice, used by the
// accuracy studies as a grid-function norm.
func L2Norm(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x * x
	}
	return math.Sqrt(s / float64(len(xs)))
}

// LinfNorm returns max|x_i|.
func LinfNorm(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// RelErr returns |a-b| / max(|b|, floor). The floor guards divisions when
// the reference value is near zero.
func RelErr(a, b, floor float64) float64 {
	d := math.Abs(b)
	if d < floor {
		d = floor
	}
	return math.Abs(a-b) / d
}

// FitPowerLaw fits y = c * x^p by least squares in log-log space and
// returns (c, p). Points with non-positive coordinates are skipped. The
// Burns & Christon convergence test uses this to verify the Monte Carlo
// error falls like N^(-1/2).
func FitPowerLaw(xs, ys []float64) (c, p float64) {
	var sx, sy, sxx, sxy float64
	n := 0
	for i := range xs {
		if i >= len(ys) || xs[i] <= 0 || ys[i] <= 0 {
			continue
		}
		lx, ly := math.Log(xs[i]), math.Log(ys[i])
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
		n++
	}
	if n < 2 {
		return 0, 0
	}
	fn := float64(n)
	p = (fn*sxy - sx*sy) / (fn*sxx - sx*sx)
	c = math.Exp((sy - p*sx) / fn)
	return c, p
}
