package rmcrt

import (
	"context"
	"errors"
	"testing"

	"github.com/uintah-repro/rmcrt/internal/grid"
)

// halfBandSpectral wraps d as a two-band spectral domain whose bands
// both use d's own gray absorption with half the emissive power each.
// Every per-band quantity in the fused marcher is then an exact IEEE
// halving of the gray quantity (×0.5 is exact, and scaling by a power
// of two commutes with rounding through every multiply, divide and
// sum), so the band-summed divQ must equal the gray solve bitwise —
// a stronger check of the per-band bookkeeping than the statistical
// K>1 tests.
func halfBandSpectral(d *Domain) *SpectralDomain {
	lb := make([][]Band, len(d.Levels))
	for li := range d.Levels {
		lb[li] = []Band{
			{Name: "lo", Abskg: d.Levels[li].Abskg, EmissiveFraction: 0.5},
			{Name: "hi", Abskg: d.Levels[li].Abskg, EmissiveFraction: 0.5},
		}
	}
	return &SpectralDomain{Base: d, LevelBands: lb}
}

func TestSpectralHalfBandsEqualGray(t *testing.T) {
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
	spec, err := halfBandSpectral(d).SolveRegionSpectral(context.Background(), region, &opts)
	if err != nil {
		t.Fatal(err)
	}
	region.ForEach(func(c grid.IntVector) {
		if gray.At(c) != spec.At(c) {
			t.Fatalf("cell %v: gray %v != half-band spectral %v", c, gray.At(c), spec.At(c))
		}
	})
}

func TestSpectralHalfBandsEqualGrayMultiLevel(t *testing.T) {
	// Same exact-halving identity across a level drop, with reflections
	// exercising the per-band attenuate path of the cold tail.
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
	opts.Reflections = true
	opts.WallEmissivity = 0.7
	gray, err := d.SolveRegion(p.Cells, &opts)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := halfBandSpectral(d).SolveRegionSpectral(context.Background(), p.Cells, &opts)
	if err != nil {
		t.Fatal(err)
	}
	p.Cells.ForEach(func(c grid.IntVector) {
		if gray.At(c) != spec.At(c) {
			t.Fatalf("cell %v: gray %v != half-band spectral %v", c, gray.At(c), spec.At(c))
		}
	})
}

func TestSpectralScatterOneBandEqualsGray(t *testing.T) {
	// Scattering routes the spectral solve through the independent-band
	// fallback (trace-time RNG draws); with one band it must still
	// reproduce the gray scattering solve bitwise.
	d, _, err := NewBenchmarkDomain(8)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.NRays = 8
	opts.ScatterCoeff = 0.5
	region := grid.NewBox(grid.IV(2, 2, 2), grid.IV(6, 6, 6))
	gray, err := d.SolveRegion(region, &opts)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := NewGrayAsSpectral(d).SolveRegionSpectral(context.Background(), region, &opts)
	if err != nil {
		t.Fatal(err)
	}
	region.ForEach(func(c grid.IntVector) {
		if gray.At(c) != spec.At(c) {
			t.Fatalf("cell %v: gray %v != 1-band scattering spectral %v", c, gray.At(c), spec.At(c))
		}
	})
}

func TestSpectralCtxCancelled(t *testing.T) {
	d, _, err := NewBenchmarkDomain(8)
	if err != nil {
		t.Fatal(err)
	}
	sd := NewGrayAsSpectral(d)
	opts := DefaultOptions()
	region := grid.NewBox(grid.IV(2, 2, 2), grid.IV(6, 6, 6))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := sd.SolveRegionSpectral(ctx, region, &opts)
	if out != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled spectral solve returned (%v, %v), want (nil, Canceled)", out, err)
	}
	// The scattering fallback honours the same contract.
	opts.ScatterCoeff = 0.5
	out, err = sd.SolveRegionSpectral(ctx, region, &opts)
	if out != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled scattering spectral solve returned (%v, %v), want (nil, Canceled)", out, err)
	}
}

func TestSpectralAdaptiveRejected(t *testing.T) {
	d, _, err := NewBenchmarkDomain(8)
	if err != nil {
		t.Fatal(err)
	}
	sd := NewGrayAsSpectral(d)
	opts := DefaultOptions()
	opts.AdaptiveRelTol = 0.05
	opts.AdaptiveMaxRays = 64
	region := grid.NewBox(grid.IV(2, 2, 2), grid.IV(6, 6, 6))
	if _, err := sd.SolveRegionSpectral(context.Background(), region, &opts); err == nil {
		t.Fatal("adaptive spectral solve accepted, want validation error")
	}
}
