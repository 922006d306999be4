package rmcrt

import (
	"math"
	"runtime"
	"testing"
)

// setExpInline sets expInline and returns a func that restores it. No
// solve may be running while it is called.
func setExpInline(on bool) (restore func()) {
	old := expInline
	expInline = on
	return func() { expInline = old }
}

// expUnfused is math.Exp's non-FMA path on amd64 (the MULSD/ADDSD
// sequence of exp_amd64.s that runs when the CPU lacks FMA): the same
// reduction and polynomial as expCopy with every product rounded on its
// own, and four squarings before a separate +1. math.Exp equals it on a
// host without FMA.
func expUnfused(x float64) float64 {
	k := math.RoundToEven(float64(x * expLog2e))
	r := x - float64(k*expLn2U)
	r -= float64(k * expLn2L)
	r = float64(r * 0.0625)
	p := 2.4801587301587301587e-5
	for _, c := range []float64{1.9841269841269841270e-4, 1.3888888888888888889e-3,
		8.3333333333333333333e-3, 4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1.0} {
		p = float64(p*r) + c
	}
	p = float64(r * p)
	for i := 0; i < 4; i++ {
		p = float64(p * (p + 2))
	}
	return float64((p + 1) * math.Float64frombits(uint64(int64(k)+1023)<<52))
}

// expSweep returns the test's arguments: n points evenly over
// [expMin, 0], both ends included; 0, −0, tiny negatives down to the
// smallest subnormal and −700's neighbour inside the range; and, for
// every k the range reaches, x = −(k + ½)·ln 2 and its two neighbours,
// where the reduction's round-to-even picks between two exponents.
func expSweep(n int) []float64 {
	xs := make([]float64, 0, n+3*1012+8)
	for i := 0; i < n; i++ {
		xs = append(xs, expMin*float64(i)/float64(n-1))
	}
	xs = append(xs, 0, math.Copysign(0, -1), -math.SmallestNonzeroFloat64,
		math.Nextafter(expMin, 0), -1e-300, -1e-17)
	for k := 0; ; k++ {
		x := -(float64(k) + 0.5) * math.Ln2
		if x < expMin {
			break
		}
		xs = append(xs, x, math.Nextafter(x, 0), math.Nextafter(x, -1))
	}
	return xs
}

// TestExpReplicaBitwise: the step loops' copy of math.Exp (exp.go)
// equals math.Exp bit for bit on 10⁶ points over [−700, 0] and its
// edges, and the init-time probe that enables it rejects the unfused
// sequence. On amd64 the copy must be enabled, unless math.Exp is the
// unfused sequence (a host without FMA).
func TestExpReplicaBitwise(t *testing.T) {
	if !expInline {
		if runtime.GOARCH != "amd64" {
			t.Skipf("the copy is of amd64's math.Exp; on %s the step loops call math.Exp", runtime.GOARCH)
		}
		if expMatches(expUnfused) {
			t.Skip("math.Exp takes its unfused path here (no FMA); the step loops call math.Exp")
		}
		t.Fatal("expInline is false on amd64, but math.Exp is not the unfused sequence either")
	}
	xs := expSweep(1_000_000)
	mismatch := 0
	for _, x := range xs {
		got, want := expCopy(x), math.Exp(x)
		if math.Float64bits(got) != math.Float64bits(want) {
			if mismatch < 5 {
				t.Errorf("exp(%v) = %v (%#x), math.Exp %v (%#x)", x, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			mismatch++
		}
	}
	if mismatch > 0 {
		t.Fatalf("%d of %d points differ from math.Exp", mismatch, len(xs))
	}
	differ := 0
	for _, x := range xs {
		if math.Float64bits(expUnfused(x)) != math.Float64bits(math.Exp(x)) {
			differ++
		}
	}
	t.Logf("%d points bit-identical; the unfused sequence differs on %.2f %% of them", len(xs), 100*float64(differ)/float64(len(xs)))
	if expMatches(expUnfused) {
		t.Error("the probe accepts the unfused sequence; it could not tell a host without FMA")
	}
}

// TestGoldenHashesExpCall pins the math.Exp call path to the same
// golden hashes as the inlined copy.
func TestGoldenHashesExpCall(t *testing.T) {
	defer setExpInline(false)()
	TestGoldenHashes(t)
}
