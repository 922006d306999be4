package rmcrt

import (
	"context"
	"math"
	"testing"

	"github.com/uintah-repro/rmcrt/internal/field"
	"github.com/uintah-repro/rmcrt/internal/grid"
	"github.com/uintah-repro/rmcrt/internal/mathutil"
)

// uniformDomain builds a single-level n³ unit-cube domain with uniform
// properties.
func uniformDomain(t testing.TB, n int, kappa, sigT4 float64) *Domain {
	t.Helper()
	d, _, err := NewBenchmarkDomain(n)
	if err != nil {
		t.Fatal(err)
	}
	ld := &d.Levels[0]
	ld.Abskg.Fill(kappa)
	ld.SigmaT4OverPi.Fill(sigT4 / math.Pi)
	return d
}

// TestDDAExactChordAttenuation validates the ray marcher against closed
// form: in a uniform medium with zero emission and hot walls, a ray's
// sumI is exactly wallI · e^{−κ·L} with L the chord length to the wall.
func TestDDAExactChordAttenuation(t *testing.T) {
	const kappa = 0.7
	d := uniformDomain(t, 16, kappa, 0) // non-emitting medium
	opts := DefaultOptions()
	opts.WallSigmaT4 = math.Pi // wallI = ε·σT⁴/π = 1
	opts.WallEmissivity = 1
	opts.Threshold = 1e-12 // do not terminate early

	cases := []struct {
		origin, dir mathutil.Vec3
		chord       float64
	}{
		{mathutil.V3(0.5, 0.5, 0.5), mathutil.V3(1, 0, 0), 0.5},
		{mathutil.V3(0.5, 0.5, 0.5), mathutil.V3(-1, 0, 0), 0.5},
		{mathutil.V3(0.25, 0.5, 0.5), mathutil.V3(0, 1, 0), 0.5},
		{mathutil.V3(0.5, 0.5, 0.25), mathutil.V3(0, 0, -1), 0.25},
		// Diagonal in the xy-plane from the center to a corner edge:
		// distance to x=1 face along (1,1,0)/√2 is 0.5·√2.
		{mathutil.V3(0.5, 0.5, 0.5), mathutil.V3(1, 1, 0).Normalized(), 0.5 * math.Sqrt2},
		// Full 3-D diagonal.
		{mathutil.V3(0.5, 0.5, 0.5), mathutil.V3(1, 1, 1).Normalized(), 0.5 * math.Sqrt(3)},
	}
	for _, c := range cases {
		got := d.TraceRay(c.origin, c.dir, nil, &opts)
		want := math.Exp(-kappa * c.chord)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("chord %v dir %v: sumI = %.12f, want %.12f", c.origin, c.dir, got, want)
		}
	}
}

// TestRadiativeEquilibrium: uniform medium at the same temperature as
// the (black) walls receives exactly what it emits — every single ray
// integrates to I_b, so divQ = 0 to within the extinction threshold.
func TestRadiativeEquilibrium(t *testing.T) {
	const sigT4 = 3.7
	d := uniformDomain(t, 12, 1.0, sigT4)
	opts := DefaultOptions()
	opts.NRays = 24
	opts.WallEmissivity = 1
	opts.WallSigmaT4 = sigT4

	maxAbs := 0.0
	probe := []grid.IntVector{
		grid.IV(0, 0, 0), grid.IV(6, 6, 6), grid.IV(11, 11, 11), grid.IV(3, 8, 5),
	}
	for _, c := range probe {
		dq := d.SolveCell(c, &opts)
		if a := math.Abs(dq); a > maxAbs {
			maxAbs = a
		}
	}
	// Residual bounded by 4πκ·threshold·I_b = 4·κ·threshold·σT⁴.
	bound := 4 * 1.0 * opts.Threshold * sigT4 * 1.01
	if maxAbs > bound {
		t.Errorf("equilibrium |divQ| = %g, want <= %g", maxAbs, bound)
	}
}

// TestOpticallyThinLimit: with κ→0 and cold walls nothing comes back,
// so divQ → 4κσT⁴ (pure emission).
func TestOpticallyThinLimit(t *testing.T) {
	const kappa = 1e-6
	const sigT4 = 2.5
	d := uniformDomain(t, 8, kappa, sigT4)
	opts := DefaultOptions()
	opts.NRays = 16
	dq := d.SolveCell(grid.IV(4, 4, 4), &opts)
	want := 4 * kappa * sigT4
	if mathutil.RelErr(dq, want, 1e-30) > 1e-4 {
		t.Errorf("thin-limit divQ = %g, want %g", dq, want)
	}
}

// TestOpticallyThickLimit: a very opaque uniform medium is in local
// equilibrium with itself; incoming intensity equals local I_b and divQ
// vanishes.
func TestOpticallyThickLimit(t *testing.T) {
	d := uniformDomain(t, 8, 500, 1.0)
	opts := DefaultOptions()
	opts.NRays = 16
	dq := d.SolveCell(grid.IV(4, 4, 4), &opts)
	// Scale: emission term alone is 4κσT⁴ = 2000; equilibrium cancels it
	// to ~threshold·2000.
	if math.Abs(dq) > 4*500*opts.Threshold*1.05 {
		t.Errorf("thick-limit divQ = %g, want ~0", dq)
	}
}

// TestColdMediumHotWalls: a transparent-ish cold medium inside hot
// black walls absorbs: divQ = 4πκ(0 − mean sumI) < 0, and with κL ≪ 1
// mean sumI ≈ wallI, so divQ ≈ −4κσT⁴_wall.
func TestColdMediumHotWalls(t *testing.T) {
	const kappa = 1e-5
	d := uniformDomain(t, 8, kappa, 0)
	opts := DefaultOptions()
	opts.NRays = 64
	opts.WallEmissivity = 1
	opts.WallSigmaT4 = 4.0
	dq := d.SolveCell(grid.IV(4, 4, 4), &opts)
	want := -4 * kappa * opts.WallSigmaT4
	if mathutil.RelErr(dq, want, 1e-30) > 1e-3 {
		t.Errorf("cold-medium divQ = %g, want %g", dq, want)
	}
}

func TestDeterminism(t *testing.T) {
	d1, _, err := NewBenchmarkDomain(8)
	if err != nil {
		t.Fatal(err)
	}
	d2, _, _ := NewBenchmarkDomain(8)
	opts := DefaultOptions()
	opts.NRays = 10
	r1, err := d1.SolveRegion(grid.NewBox(grid.IV(0, 0, 0), grid.Uniform(8)), &opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := d2.SolveRegion(grid.NewBox(grid.IV(0, 0, 0), grid.Uniform(8)), &opts)
	if err != nil {
		t.Fatal(err)
	}
	r1.Box().ForEach(func(c grid.IntVector) {
		if r1.At(c) != r2.At(c) {
			t.Fatalf("non-deterministic divQ at %v: %v vs %v", c, r1.At(c), r2.At(c))
		}
	})
}

// TestDecompositionInvariance: solving the region as one block or as
// per-cell calls gives bitwise-identical results because every cell owns
// its RNG stream. This is what makes patch decomposition (and therefore
// rank count) irrelevant to the answer.
func TestDecompositionInvariance(t *testing.T) {
	d, _, err := NewBenchmarkDomain(8)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.NRays = 8
	whole, err := d.SolveRegion(grid.NewBox(grid.IV(2, 2, 2), grid.IV(6, 6, 6)), &opts)
	if err != nil {
		t.Fatal(err)
	}
	whole.Box().ForEach(func(c grid.IntVector) {
		if got := d.SolveCell(c, &opts); got != whole.At(c) {
			t.Fatalf("cell %v: per-cell %v != region %v", c, got, whole.At(c))
		}
	})
}

// TestBenchmarkDivQSign: with cold walls the Burns & Christon medium is
// a net emitter everywhere: divQ > 0 in all cells.
func TestBenchmarkDivQSign(t *testing.T) {
	d, _, err := NewBenchmarkDomain(8)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.NRays = 32
	out, err := d.SolveRegion(grid.NewBox(grid.IV(0, 0, 0), grid.Uniform(8)), &opts)
	if err != nil {
		t.Fatal(err)
	}
	out.Box().ForEach(func(c grid.IntVector) {
		if out.At(c) <= 0 {
			t.Fatalf("divQ at %v = %v, want > 0 for cold walls", c, out.At(c))
		}
	})
}

// TestMonteCarloConvergence reproduces the paper's accuracy citation:
// the RMS error of divQ against a high-ray-count reference falls like
// N^(-1/2) in the ray count N.
func TestMonteCarloConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("convergence study skipped in -short")
	}
	d, _, err := NewBenchmarkDomain(17)
	if err != nil {
		t.Fatal(err)
	}
	// Centerline cells y = z = 8.
	line := grid.NewBox(grid.IV(0, 8, 8), grid.IV(17, 9, 9))

	ref := DefaultOptions()
	ref.NRays = 8192
	ref.Seed = 999 // independent of the test seeds
	refV, err := d.SolveRegion(line, &ref)
	if err != nil {
		t.Fatal(err)
	}

	var ns, errs []float64
	for _, n := range []int{16, 64, 256, 1024} {
		o := DefaultOptions()
		o.NRays = n
		v, err := d.SolveRegion(line, &o)
		if err != nil {
			t.Fatal(err)
		}
		var diffs []float64
		line.ForEach(func(c grid.IntVector) {
			diffs = append(diffs, v.At(c)-refV.At(c))
		})
		ns = append(ns, float64(n))
		errs = append(errs, mathutil.L2Norm(diffs))
	}
	_, p := mathutil.FitPowerLaw(ns, errs)
	if p < -0.75 || p > -0.3 {
		t.Errorf("convergence exponent = %.3f, want ~ -0.5 (errors %v)", p, errs)
	}
	// And absolute errors must decrease monotonically over 64x more rays.
	if errs[len(errs)-1] >= errs[0] {
		t.Errorf("error did not decrease: %v", errs)
	}
}

// TestMultiLevelMatchesSingleLevelNearField: the 2-level solve must
// agree with the single-level fine solve on the patch interior — the
// coarse far-field introduces only a small perturbation for a smooth
// property field.
func TestMultiLevelMatchesSingleLevelNearField(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-level comparison skipped in -short")
	}
	const fineN, patchN, rr, halo = 32, 8, 4, 4
	g, mk, err := NewMultiLevelBenchmark(fineN, patchN, rr, halo)
	if err != nil {
		t.Fatal(err)
	}
	// Center patch.
	var patch *grid.Patch
	for _, p := range g.Levels[1].Patches {
		if p.Cells.Contains(grid.IV(fineN/2, fineN/2, fineN/2)) {
			patch = p
			break
		}
	}
	ml, err := mk(patch)
	if err != nil {
		t.Fatal(err)
	}
	sl, _, err := NewBenchmarkDomain(fineN)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.NRays = 64
	mlV, err := ml.SolveRegion(patch.Cells, &opts)
	if err != nil {
		t.Fatal(err)
	}
	slV, err := sl.SolveRegion(patch.Cells, &opts)
	if err != nil {
		t.Fatal(err)
	}
	var rel []float64
	patch.Cells.ForEach(func(c grid.IntVector) {
		rel = append(rel, mathutil.RelErr(mlV.At(c), slV.At(c), 1e-12))
	})
	mean := mathutil.Mean(rel)
	if mean > 0.05 {
		t.Errorf("multi-level vs single-level mean relative difference = %.3f, want < 5%%", mean)
	}
}

func TestScatteringConservesEnergyInEquilibrium(t *testing.T) {
	// Isotropic scattering redirects but neither creates nor destroys
	// intensity; in an equilibrium enclosure divQ stays ~0.
	const sigT4 = 1.0
	d := uniformDomain(t, 10, 1.0, sigT4)
	opts := DefaultOptions()
	opts.NRays = 64
	opts.WallEmissivity = 1
	opts.WallSigmaT4 = sigT4
	opts.ScatterCoeff = 2.0
	dq := d.SolveCell(grid.IV(5, 5, 5), &opts)
	// Scattering restarts accrue approximation error (cell-center
	// restart), so the tolerance is looser than the pure case.
	if math.Abs(dq) > 0.05*4*sigT4 {
		t.Errorf("equilibrium with scattering: divQ = %g, want ~0", dq)
	}
}

func TestWallFluxBlackbodyLimit(t *testing.T) {
	// Optically thick hot medium: the wall sees a blackbody at the
	// medium temperature, q_in -> σT⁴.
	d := uniformDomain(t, 8, 200, 1.0)
	opts := DefaultOptions()
	opts.NRays = 256
	q, err := d.SolveWallFlux(context.Background(), XMinus, &opts)
	if err != nil {
		t.Fatal(err)
	}
	if mathutil.RelErr(q, 1.0, 1e-12) > 0.02 {
		t.Errorf("thick-limit wall flux = %g, want 1.0", q)
	}
}

func TestWallFluxColdMedium(t *testing.T) {
	// Transparent cold medium, cold walls: nothing arrives.
	d := uniformDomain(t, 8, 1e-9, 0)
	opts := DefaultOptions()
	opts.NRays = 64
	q, err := d.SolveWallFlux(context.Background(), ZPlus, &opts)
	if err != nil {
		t.Fatal(err)
	}
	if q > 1e-6 {
		t.Errorf("cold wall flux = %g, want ~0", q)
	}
}

func TestWallFaceString(t *testing.T) {
	faces := []WallFace{XMinus, XPlus, YMinus, YPlus, ZMinus, ZPlus}
	want := []string{"x-", "x+", "y-", "y+", "z-", "z+"}
	for i, f := range faces {
		if f.String() != want[i] {
			t.Errorf("face %d = %q", i, f.String())
		}
		n := f.normal()
		if math.Abs(n.Length()-1) > 1e-15 {
			t.Errorf("face %v normal not unit", f)
		}
	}
}

func TestOpaqueCellTerminatesRay(t *testing.T) {
	d := uniformDomain(t, 8, 1e-9, 0) // transparent
	ld := &d.Levels[0]
	// A hot intrusion wall at x=6 plane.
	for y := 0; y < 8; y++ {
		for z := 0; z < 8; z++ {
			ld.CellType.Set(grid.IV(6, y, z), field.Intrusion)
			ld.SigmaT4OverPi.Set(grid.IV(6, y, z), 2.0/math.Pi)
		}
	}
	opts := DefaultOptions()
	opts.WallEmissivity = 1
	// A +x ray from the center must see the intrusion's intensity, not
	// the (cold) domain wall behind it.
	got := d.TraceRay(mathutil.V3(0.5, 0.5, 0.5), mathutil.V3(1, 0, 0), nil, &opts)
	if math.Abs(got-2.0/math.Pi) > 1e-9 {
		t.Errorf("sumI = %g, want %g (intrusion intensity)", got, 2.0/math.Pi)
	}
}

func TestCountersAdvance(t *testing.T) {
	d, _, err := NewBenchmarkDomain(8)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.NRays = 4
	d.SolveCell(grid.IV(4, 4, 4), &opts)
	if d.Rays.Load() != 4 {
		t.Errorf("Rays = %d, want 4", d.Rays.Load())
	}
	if d.Steps.Load() < 4 {
		t.Errorf("Steps = %d, want >= rays", d.Steps.Load())
	}
}

func TestOptionsValidation(t *testing.T) {
	d, _, _ := NewBenchmarkDomain(4)
	bad := []Options{
		{NRays: 0, Threshold: 0.1},
		{NRays: 1, Threshold: 0},
		{NRays: 1, Threshold: 2},
		{NRays: 1, Threshold: 0.1, WallEmissivity: 2},
		{NRays: 1, Threshold: 0.1, ScatterCoeff: -1},
		{NRays: 1, Threshold: 0.1, HaloCells: -1},
		{NRays: 1, Threshold: math.NaN()},
		{NRays: 1, Threshold: 0.1, WallEmissivity: math.NaN()},
		{NRays: 1, Threshold: 0.1, WallSigmaT4: math.Inf(1)},
		{NRays: 1, Threshold: 0.1, ScatterCoeff: math.NaN()},
		{NRays: 1, Threshold: 0.1, AdaptiveRelTol: math.NaN()},
	}
	region := grid.NewBox(grid.IV(0, 0, 0), grid.Uniform(4))
	for i, o := range bad {
		if _, err := d.SolveRegion(region, &o); err == nil {
			t.Errorf("case %d: invalid options accepted: %+v", i, o)
		}
	}
}

func TestSolveRegionOutsideROIFails(t *testing.T) {
	d, _, _ := NewBenchmarkDomain(4)
	region := grid.NewBox(grid.IV(0, 0, 0), grid.Uniform(8))
	opts := DefaultOptions()
	if _, err := d.SolveRegion(region, &opts); err == nil {
		t.Error("region beyond ROI must fail")
	}
}

func TestDomainValidate(t *testing.T) {
	var d Domain
	if err := d.Validate(); err == nil {
		t.Error("empty domain must be invalid")
	}
	bd, _, _ := NewBenchmarkDomain(4)
	bd.Levels[0].Abskg = nil
	if err := bd.Validate(); err == nil {
		t.Error("missing field must be invalid")
	}
}

func TestBenchmarkKappaShape(t *testing.T) {
	if k := BenchmarkKappa(0.5, 0.5, 0.5); math.Abs(k-1.0) > 1e-15 {
		t.Errorf("center kappa = %v, want 1", k)
	}
	if k := BenchmarkKappa(0, 0, 0); math.Abs(k-0.1) > 1e-15 {
		t.Errorf("corner kappa = %v, want 0.1", k)
	}
	if k := BenchmarkKappa(1, 1, 1); math.Abs(k-0.1) > 1e-15 {
		t.Errorf("far corner kappa = %v, want 0.1", k)
	}
	// Symmetry.
	if BenchmarkKappa(0.25, 0.5, 0.5) != BenchmarkKappa(0.75, 0.5, 0.5) {
		t.Error("kappa not symmetric")
	}
}

func TestCellCenteredRaysOption(t *testing.T) {
	// CCRays (Uintah's option): all rays originate at the cell center.
	// Still deterministic, still converges to the same physics; in the
	// equilibrium enclosure it stays exact.
	const sigT4 = 1.0
	d := uniformDomain(t, 8, 1.0, sigT4)
	opts := DefaultOptions()
	opts.NRays = 16
	opts.CellCenteredRays = true
	opts.WallEmissivity = 1
	opts.WallSigmaT4 = sigT4
	dq := d.SolveCell(grid.IV(4, 4, 4), &opts)
	if math.Abs(dq) > 4*opts.Threshold*sigT4*1.05 {
		t.Errorf("CCRays equilibrium divQ = %g", dq)
	}
	// And it differs from the jittered-origin estimate on a non-uniform
	// problem (different estimator), while remaining deterministic.
	b1, _, _ := NewBenchmarkDomain(8)
	b2, _, _ := NewBenchmarkDomain(8)
	o2 := DefaultOptions()
	o2.NRays = 16
	o2.CellCenteredRays = true
	cc1 := b1.SolveCell(grid.IV(4, 4, 4), &o2)
	cc2 := b2.SolveCell(grid.IV(4, 4, 4), &o2)
	if cc1 != cc2 {
		t.Error("CCRays not deterministic")
	}
}
