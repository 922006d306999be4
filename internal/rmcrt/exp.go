package rmcrt

import (
	"math"
	"runtime"
)

// An inlinable, bit-exact copy of math.Exp for the step loops.
//
// Every DDA step evaluates e^{−τ}. math.Exp on amd64 is an assembly
// routine (archExp) behind an ABI0 wrapper, so it never inlines, and
// because Go's register ABI has no callee-saved registers the step loop
// spills every live variable around the call and reloads it after.
// In a 32³ gray march the call and the reloads took over half of the
// CPU samples.
//
// The helpers below are the FMA path of Go's $GOROOT/src/math/exp_amd64.s
// (Shibata's SLEEF-derived method), operation for operation:
//
//	k = RoundToEven(x·log2e)                   CVTSD2SL, round-to-nearest-even
//	r = (x − k·LN2U − k·LN2L) · 1/16           two VFNMADD231SD, MULSD
//	p = r·(1 + r·(1/2 + r·(1/3! + … + r/8!)))  seven VFMADD213SD, MULSD
//	p ← p·(p+2), three times                   VADDSD, MULSD
//	p ← p·(p+2) + 1                            VADDSD, VFMADD213SD
//	e^x = p · 2^k                              ldexp by exponent-field shift
//
// Each fused step is an explicit math.FMA (one rounding, as the
// instruction) and each plain product is wrapped in float64(), which
// forbids the compiler from fusing it with the following add, so the
// result is the same at every GOAMD64 level. For −700 ≤ x ≤ 0 the
// exponent k+1023 stays in [13, 1023], so none of the routine's
// overflow, underflow or subnormal branches apply.
//
// It is split into three helpers because as one function it exceeds
// the inliner's budget; each step loop calls all three inline
// (go build -gcflags=-m ./internal/rmcrt/ lists them).
//
// expInline gates it: true only on amd64 when the copy matches math.Exp
// bit for bit on expMatches' probe points. Where math.Exp takes its
// unfused path (a CPU without FMA) the two disagree on about 9 % of
// arguments, so the probe cannot pass; the same holds for other
// architectures' routines and for a toolchain that changes archExp.
// Callers also fall back to math.Exp outside [expMin, 0], NaN included.

const (
	expLog2e = 1.4426950408889634073599246810018920                  // 1/ln 2
	expLn2U  = 0.69314718055966295651160180568695068359375           // upper half of ln 2
	expLn2L  = 0.28235290563031577122588448175013436025525412068e-12 // lower half of ln 2

	expMin = -700.0 // lower end of the inlined range
)

// expInline reports whether the step loops use the inlined copy; see
// above. Tests force it false to pin both paths to the same outputs.
var expInline = runtime.GOARCH == "amd64" && expMatches(expCopy)

// expReduce returns r = (x − k·ln 2)/16 and k = RoundToEven(x·log2e).
func expReduce(x float64) (r, k float64) {
	k = math.RoundToEven(float64(x * expLog2e))
	r = math.FMA(-k, expLn2U, x)
	r = math.FMA(-k, expLn2L, r)
	return float64(r * 0.0625), k
}

// expPoly returns the Taylor series e^r − 1 ≈ r + r²/2 + … + r⁸/8!.
func expPoly(r float64) float64 {
	p := math.FMA(2.4801587301587301587e-5, r, 1.9841269841269841270e-4)
	p = math.FMA(p, r, 1.3888888888888888889e-3)
	p = math.FMA(p, r, 8.3333333333333333333e-3)
	p = math.FMA(p, r, 4.1666666666666666667e-2)
	p = math.FMA(p, r, 1.6666666666666666667e-1)
	p = math.FMA(p, r, 0.5)
	p = math.FMA(p, r, 1.0)
	return float64(r * p)
}

// expScale doubles the argument of p = e^r − 1 four times (each step
// maps e^s − 1 to e^{2s} − 1; the last one fuses the + 1, giving
// e^{16r}) and multiplies by 2^k.
func expScale(p, k float64) float64 {
	p = float64(p * (p + 2))
	p = float64(p * (p + 2))
	p = float64(p * (p + 2))
	p = math.FMA(p, p+2, 1)
	return float64(p * math.Float64frombits(uint64(int64(k)+1023)<<52))
}

// expCopy is the copy as one call, for the probe and tests; the step
// loops spell out the three helpers so that they inline.
func expCopy(x float64) float64 {
	r, k := expReduce(x)
	return expScale(expPoly(r), k)
}

// expMatches reports whether f equals math.Exp bit for bit on 2,048
// probe points: 1,024 spread over [expMin, 0] at an irrational stride,
// 1,020 over [−40, 0] where transmittances above any practical
// threshold live, and 0, −0, expMin and the smallest subnormal's
// negation.
func expMatches(f func(float64) float64) bool {
	const phi = 0.6180339887498948482 // frac of the golden ratio
	u := 0.5
	for i := 0; i < 2044; i++ {
		u += phi
		if u >= 1 {
			u--
		}
		x := expMin * u
		if i >= 1024 {
			x = -40 * u
		}
		if math.Float64bits(f(x)) != math.Float64bits(math.Exp(x)) {
			return false
		}
	}
	for _, x := range []float64{0, math.Copysign(0, -1), expMin, -math.SmallestNonzeroFloat64} {
		if math.Float64bits(f(x)) != math.Float64bits(math.Exp(x)) {
			return false
		}
	}
	return true
}
