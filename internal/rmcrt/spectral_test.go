package rmcrt

import (
	"context"
	"math"
	"testing"

	"github.com/uintah-repro/rmcrt/internal/field"
	"github.com/uintah-repro/rmcrt/internal/grid"
	"github.com/uintah-repro/rmcrt/internal/mathutil"
)

func TestSpectralOneBandEqualsGray(t *testing.T) {
	// The wavelength loop with a single band covering the whole
	// spectrum must reproduce the gray solve bitwise (same streams).
	d, _, err := NewBenchmarkDomain(10)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.NRays = 16
	region := grid.NewBox(grid.IV(2, 2, 2), grid.IV(8, 8, 8))

	gray, err := d.SolveRegion(region, &opts)
	if err != nil {
		t.Fatal(err)
	}
	sd := NewGrayAsSpectral(d)
	spec, err := sd.SolveRegionSpectral(context.Background(), region, &opts)
	if err != nil {
		t.Fatal(err)
	}
	region.ForEach(func(c grid.IntVector) {
		if gray.At(c) != spec.At(c) {
			t.Fatalf("cell %v: gray %v != 1-band spectral %v", c, gray.At(c), spec.At(c))
		}
	})
}

// twoBandDomain builds a uniform domain split into an absorbing band
// and a window (transparent) band.
func twoBandDomain(t *testing.T, n int, kappaStrong, kappaWindow, wStrong float64) *SpectralDomain {
	t.Helper()
	d, _, err := NewBenchmarkDomain(n)
	if err != nil {
		t.Fatal(err)
	}
	box := d.Levels[0].Level.IndexBox()
	strong := field.NewCC[float64](box)
	strong.Fill(kappaStrong)
	window := field.NewCC[float64](box)
	window.Fill(kappaWindow)
	// Base gray field is irrelevant to the band solve; keep benchmark.
	return &SpectralDomain{
		Base: d,
		LevelBands: [][]Band{{
			{Name: "strong", Abskg: strong, EmissiveFraction: wStrong},
			{Name: "window", Abskg: window, EmissiveFraction: 1 - wStrong},
		}},
	}
}

func TestSpectralEquilibrium(t *testing.T) {
	// Uniform medium at the wall temperature stays in equilibrium band
	// by band, so the summed divQ is ~0 regardless of the band split.
	sd := twoBandDomain(t, 8, 2.0, 0.05, 0.7)
	sd.Base.Levels[0].SigmaT4OverPi.Fill(1 / math.Pi) // σT⁴ = 1 uniform
	opts := DefaultOptions()
	opts.NRays = 16
	opts.WallEmissivity = 1
	opts.WallSigmaT4 = 1
	region := grid.NewBox(grid.IV(4, 4, 4), grid.IV(5, 5, 5))
	out, err := sd.SolveRegionSpectral(context.Background(), region, &opts)
	if err != nil {
		t.Fatal(err)
	}
	dq := out.At(grid.IV(4, 4, 4))
	// Residual bounded by the threshold per band: Σ_k 4 κ_k w_k σT⁴ thr.
	bound := 4 * (2.0*0.7 + 0.05*0.3) * opts.Threshold * 1.05
	if math.Abs(dq) > bound {
		t.Errorf("spectral equilibrium divQ = %g, want |.| <= %g", dq, bound)
	}
}

func TestSpectralWindowBandCools(t *testing.T) {
	// With cold walls, a non-gray medium whose window band is nearly
	// transparent emits mostly through the strong band; the spectral
	// divQ must differ from the gray solve that uses the mean κ —
	// specifically the gray mean over-traps radiation emitted in the
	// window (Planck vs Rosseland mean territory).
	const kStrong, kWindow, w = 4.0, 0.01, 0.5
	sd := twoBandDomain(t, 10, kStrong, kWindow, w)
	uni := 1 / math.Pi
	sd.Base.Levels[0].SigmaT4OverPi.Fill(uni)
	opts := DefaultOptions()
	opts.NRays = 128
	region := grid.NewBox(grid.IV(5, 5, 5), grid.IV(6, 6, 6))

	spec, err := sd.SolveRegionSpectral(context.Background(), region, &opts)
	if err != nil {
		t.Fatal(err)
	}
	// Gray comparison with the Planck-mean κ = Σ w_k κ_k.
	kMean := w*kStrong + (1-w)*kWindow
	sd.Base.Levels[0].Abskg.Fill(kMean)
	gray, err := sd.Base.SolveRegion(region, &opts)
	if err != nil {
		t.Fatal(err)
	}
	c := grid.IV(5, 5, 5)
	// Window-band emission escapes without reabsorption (divQ_window ≈
	// 4 κ_w w σT⁴ per unit), while the strong band partially reabsorbs;
	// the gray mean reabsorbs a mid fraction of everything. The two
	// answers must differ measurably (the non-gray effect is real).
	if rel := mathutil.RelErr(spec.At(c), gray.At(c), 1e-12); rel < 0.02 {
		t.Errorf("spectral (%g) vs gray-mean (%g) differ by only %.1f%%, expected a non-gray effect",
			spec.At(c), gray.At(c), 100*rel)
	}
	// Both are net emitters with cold walls.
	if spec.At(c) <= 0 || gray.At(c) <= 0 {
		t.Errorf("unexpected signs: spectral %g gray %g", spec.At(c), gray.At(c))
	}
}

func TestSpectralValidation(t *testing.T) {
	d, _, _ := NewBenchmarkDomain(4)
	opts := DefaultOptions()
	region := d.Levels[0].Level.IndexBox()

	bad := &SpectralDomain{}
	if _, err := bad.SolveRegionSpectral(context.Background(), region, &opts); err == nil {
		t.Error("empty spectral domain accepted")
	}
	// Fractions not summing to 1.
	box := d.Levels[0].Level.IndexBox()
	k := field.NewCC[float64](box)
	sd := &SpectralDomain{Base: d, LevelBands: [][]Band{{
		{Name: "a", Abskg: k, EmissiveFraction: 0.5},
		{Name: "b", Abskg: k, EmissiveFraction: 0.2},
	}}}
	if _, err := sd.SolveRegionSpectral(context.Background(), region, &opts); err == nil {
		t.Error("bad emissive fractions accepted")
	}
	// Mismatched band counts across levels.
	g, mk, err := NewMultiLevelBenchmark(16, 8, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	dom2, err := mk(g.Levels[1].Patches[0])
	if err != nil {
		t.Fatal(err)
	}
	sd2 := NewGrayAsSpectral(dom2)
	sd2.LevelBands[1] = append(sd2.LevelBands[1], sd2.LevelBands[1][0])
	if err := sd2.Validate(); err == nil {
		t.Error("mismatched band counts accepted")
	}
}

func TestSpectralMultiLevel(t *testing.T) {
	// The wavelength loop composes with the AMR tracer: a 2-level
	// 1-band spectral solve equals the 2-level gray solve.
	g, mk, err := NewMultiLevelBenchmark(16, 8, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := g.Levels[1].Patches[0]
	d, err := mk(p)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.NRays = 8
	opts.HaloCells = 2
	gray, err := d.SolveRegion(p.Cells, &opts)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := NewGrayAsSpectral(d).SolveRegionSpectral(context.Background(), p.Cells, &opts)
	if err != nil {
		t.Fatal(err)
	}
	p.Cells.ForEach(func(c grid.IntVector) {
		if gray.At(c) != spec.At(c) {
			t.Fatalf("multi-level 1-band mismatch at %v", c)
		}
	})
}
