package mathutil

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVec3Arithmetic(t *testing.T) {
	v := V3(1, 2, 3)
	w := V3(4, -5, 6)
	if got := v.Add(w); got != V3(5, -3, 9) {
		t.Errorf("Add = %v", got)
	}
	if got := v.Sub(w); got != V3(-3, 7, -3) {
		t.Errorf("Sub = %v", got)
	}
	if got := v.Scale(2); got != V3(2, 4, 6) {
		t.Errorf("Scale = %v", got)
	}
	if got := v.Dot(w); got != 1*4+2*-5+3*6 {
		t.Errorf("Dot = %v", got)
	}
	if got := v.Mul(w); got != V3(4, -10, 18) {
		t.Errorf("Mul = %v", got)
	}
}

func TestVec3CrossOrthogonal(t *testing.T) {
	squash := func(x float64) float64 { // map arbitrary floats into [-1e3, 1e3]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0
		}
		return 1e3 * math.Tanh(x/1e3)
	}
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a := V3(squash(ax), squash(ay), squash(az))
		b := V3(squash(bx), squash(by), squash(bz))
		c := a.Cross(b)
		// c must be orthogonal to both inputs (within fp tolerance
		// scaled by the magnitudes involved).
		tol := 1e-9 * (1 + a.Length()*b.Length())
		return math.Abs(c.Dot(a)) <= tol && math.Abs(c.Dot(b)) <= tol
	}
	cfg := &quick.Config{MaxCount: 500}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestVec3Normalized(t *testing.T) {
	v := V3(3, 4, 0).Normalized()
	if math.Abs(v.Length()-1) > 1e-15 {
		t.Errorf("length = %v, want 1", v.Length())
	}
	z := Vec3{}
	if z.Normalized() != z {
		t.Error("zero vector should normalize to itself")
	}
}

func TestVec3ComponentAccess(t *testing.T) {
	v := V3(1, 2, 3)
	for i, want := range []float64{1, 2, 3} {
		if got := v.Component(i); got != want {
			t.Errorf("Component(%d) = %v, want %v", i, got, want)
		}
	}
	for i := 0; i < 3; i++ {
		w := v.WithComponent(i, 9)
		if w.Component(i) != 9 {
			t.Errorf("WithComponent(%d) did not set", i)
		}
	}
}

func TestClamp(t *testing.T) {
	cases := []struct{ x, lo, hi, want float64 }{
		{5, 0, 10, 5},
		{-1, 0, 10, 0},
		{11, 0, 10, 10},
	}
	for _, c := range cases {
		if got := Clamp(c.x, c.lo, c.hi); got != c.want {
			t.Errorf("Clamp(%v,%v,%v) = %v, want %v", c.x, c.lo, c.hi, got, c.want)
		}
	}
}

func TestRNGDeterministicStreams(t *testing.T) {
	a := NewStream(42, 7)
	b := NewStream(42, 7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("identical streams diverged at draw %d", i)
		}
	}
	c := NewStream(42, 8)
	d := NewStream(42, 7)
	same := 0
	for i := 0; i < 100; i++ {
		if c.Uint64() == d.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("distinct streams coincided %d/100 times", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		x := r.Float64()
		if x < 0 || x >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", x)
		}
	}
}

func TestRNGFloat64Uniformity(t *testing.T) {
	r := NewRNG(2)
	const n = 200000
	var buckets [10]int
	for i := 0; i < n; i++ {
		buckets[int(r.Float64()*10)]++
	}
	for i, b := range buckets {
		got := float64(b) / n
		if math.Abs(got-0.1) > 0.01 {
			t.Errorf("bucket %d frequency %v, want ~0.1", i, got)
		}
	}
}

func TestRNGZeroValueUsable(t *testing.T) {
	var r RNG
	x := r.Float64()
	if x < 0 || x >= 1 {
		t.Fatalf("zero RNG produced %v", x)
	}
}

func TestUnitSphereIsotropy(t *testing.T) {
	r := NewRNG(3)
	const n = 100000
	var mean Vec3
	for i := 0; i < n; i++ {
		d := r.UnitSphere()
		if math.Abs(d.Length()-1) > 1e-12 {
			t.Fatalf("direction not unit length: %v", d.Length())
		}
		mean = mean.Add(d)
	}
	mean = mean.Scale(1.0 / n)
	// The mean direction of an isotropic distribution is ~0 with
	// fluctuations ~1/sqrt(n) per component.
	if mean.Length() > 5.0/math.Sqrt(n) {
		t.Errorf("mean direction %v too far from zero", mean)
	}
}

// TestSincosMatchesSinCos pins what the direction samplers rely on:
// math.Sincos(φ) returns exactly math.Sin(φ) and math.Cos(φ), bit for
// bit, for φ = 2π·u with u in [0, 1) as the samplers form it. The
// sweep is 2²⁰ evenly spaced u plus 2²⁰ at an irrational stride.
func TestSincosMatchesSinCos(t *testing.T) {
	const n = 1 << 20
	u := 0.0
	for i := 0; i < 2*n; i++ {
		if i < n {
			u = float64(i) / n
		} else if u += 0.6180339887498948482; u >= 1 {
			u--
		}
		phi := 2 * math.Pi * u
		s, c := math.Sincos(phi)
		if math.Float64bits(s) != math.Float64bits(math.Sin(phi)) || math.Float64bits(c) != math.Float64bits(math.Cos(phi)) {
			t.Fatalf("Sincos(%v) = %v, %v; Sin, Cos = %v, %v", phi, s, c, math.Sin(phi), math.Cos(phi))
		}
	}
}

func TestCosineHemisphereAboveSurface(t *testing.T) {
	r := NewRNG(4)
	normals := []Vec3{{0, 0, 1}, {0, 0, -1}, {1, 0, 0}, {0, 1, 0}, V3(1, 1, 1).Normalized()}
	for _, n := range normals {
		meanCos := 0.0
		const draws = 20000
		for i := 0; i < draws; i++ {
			d := r.CosineHemisphere(n)
			c := d.Dot(n)
			if c < -1e-12 {
				t.Fatalf("normal %v: sampled direction below surface (cos=%v)", n, c)
			}
			if math.Abs(d.Length()-1) > 1e-9 {
				t.Fatalf("normal %v: non-unit direction %v", n, d.Length())
			}
			meanCos += c
		}
		meanCos /= draws
		// E[cosθ] for a cosine-weighted hemisphere is 2/3.
		if math.Abs(meanCos-2.0/3.0) > 0.01 {
			t.Errorf("normal %v: mean cos = %v, want 2/3", n, meanCos)
		}
	}
}

func TestHalton(t *testing.T) {
	// First elements of the base-2 Halton sequence.
	want := []float64{0, 0.5, 0.25, 0.75, 0.125, 0.625}
	for i, w := range want {
		if got := Halton(i, 2); math.Abs(got-w) > 1e-15 {
			t.Errorf("Halton(%d,2) = %v, want %v", i, got, w)
		}
	}
	// All values stay in [0,1).
	for i := 0; i < 1000; i++ {
		if h := Halton(i, 3); h < 0 || h >= 1 {
			t.Fatalf("Halton(%d,3) = %v out of range", i, h)
		}
	}
}

func TestStats(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %v, want 5", m)
	}
	if s := StdDev(xs); math.Abs(s-2.13809) > 1e-4 {
		t.Errorf("StdDev = %v, want ~2.138", s)
	}
	if m := Median(xs); m != 4.5 {
		t.Errorf("Median = %v, want 4.5", m)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 || Median(nil) != 0 {
		t.Error("empty-slice stats should be 0")
	}
}

// TestQuantile pins the nearest-rank rule, rank ⌈q·n⌉: over 18 values
// p95 is the 18th (q·n = 17.1), which rounding q·n would put at the
// 17th.
func TestQuantile(t *testing.T) {
	xs := make([]float64, 18)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{
		{0.95, 18}, {0.50, 9}, {0.99, 18}, {0, 1}, {1, 18}, {0.05, 1}, {0.06, 2},
	} {
		if got := Quantile(xs, c.q); got != c.want {
			t.Errorf("Quantile(1..18, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("Quantile of an empty slice should be 0")
	}
}

func TestNorms(t *testing.T) {
	xs := []float64{3, -4}
	if got := L2Norm(xs); math.Abs(got-math.Sqrt(12.5)) > 1e-12 {
		t.Errorf("L2Norm = %v", got)
	}
	if got := LinfNorm(xs); got != 4 {
		t.Errorf("LinfNorm = %v", got)
	}
}

func TestRelErr(t *testing.T) {
	if got := RelErr(1.1, 1.0, 1e-12); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("RelErr = %v, want 0.1", got)
	}
	// Floor prevents blow-up near zero reference.
	if got := RelErr(1e-3, 0, 1e-2); got != 0.1 {
		t.Errorf("RelErr with floor = %v, want 0.1", got)
	}
}

func TestFitPowerLaw(t *testing.T) {
	// y = 3 x^-0.5 exactly.
	var xs, ys []float64
	for _, x := range []float64{10, 100, 1000, 10000} {
		xs = append(xs, x)
		ys = append(ys, 3/math.Sqrt(x))
	}
	c, p := FitPowerLaw(xs, ys)
	if math.Abs(p+0.5) > 1e-10 {
		t.Errorf("exponent = %v, want -0.5", p)
	}
	if math.Abs(c-3) > 1e-9 {
		t.Errorf("coefficient = %v, want 3", c)
	}
}

func TestLerp(t *testing.T) {
	a, b := V3(0, 0, 0), V3(2, 4, 8)
	if got := Lerp(a, b, 0.5); got != V3(1, 2, 4) {
		t.Errorf("Lerp = %v", got)
	}
}

func TestIsFinite(t *testing.T) {
	if !V3(1, 2, 3).IsFinite() {
		t.Error("finite vector reported non-finite")
	}
	if (Vec3{math.NaN(), 0, 0}).IsFinite() {
		t.Error("NaN vector reported finite")
	}
	if (Vec3{0, math.Inf(1), 0}).IsFinite() {
		t.Error("Inf vector reported finite")
	}
}
