package rmcrt

import (
	"context"
	"math"
	"testing"

	"github.com/uintah-repro/rmcrt/internal/grid"
	"github.com/uintah-repro/rmcrt/internal/mathutil"
)

func TestWallFluxMapBlackbodyLimit(t *testing.T) {
	// Optically thick hot medium: every face cell sees a blackbody at
	// the medium temperature, q = σT⁴ = 1 uniformly.
	d := uniformDomain(t, 8, 200, 1.0)
	opts := DefaultOptions()
	opts.NRays = 64
	fm, err := d.SolveWallFluxMap(context.Background(), YPlus, &opts)
	if err != nil {
		t.Fatal(err)
	}
	if fm.NU != 8 || fm.NV != 8 {
		t.Fatalf("map shape %dx%d", fm.NU, fm.NV)
	}
	for u := 0; u < fm.NU; u++ {
		for v := 0; v < fm.NV; v++ {
			if q := fm.At(u, v); mathutil.RelErr(q, 1.0, 1e-12) > 0.05 {
				t.Fatalf("face cell (%d,%d) flux %g, want ~1", u, v, q)
			}
		}
	}
	if mathutil.RelErr(fm.Mean(), 1.0, 1e-12) > 0.02 {
		t.Errorf("mean flux = %g", fm.Mean())
	}
}

func TestWallFluxMapSeesHotSpot(t *testing.T) {
	// A hot emitting blob near the x- wall makes the flux map peak in
	// front of it.
	d := uniformDomain(t, 16, 0.02, 0)
	ld := &d.Levels[0]
	// Blob around (0.2, 0.25, 0.25): strong emitter, locally opaque-ish.
	for x := 2; x < 5; x++ {
		for y := 3; y < 6; y++ {
			for z := 3; z < 6; z++ {
				ld.Abskg.Set(grid.IV(x, y, z), 5.0)
				ld.SigmaT4OverPi.Set(grid.IV(x, y, z), 10/math.Pi)
			}
		}
	}
	opts := DefaultOptions()
	opts.NRays = 128
	fm, err := d.SolveWallFluxMap(context.Background(), XMinus, &opts)
	if err != nil {
		t.Fatal(err)
	}
	// Face axes for x- are (y, z): the peak should sit near (4, 4) and
	// exceed the far corner by a wide margin.
	near := fm.At(4, 4)
	far := fm.At(14, 14)
	if near <= 3*far {
		t.Errorf("hot-spot flux %g should dominate far corner %g", near, far)
	}
	if fm.Max() < near {
		t.Errorf("Max() = %g below sampled %g", fm.Max(), near)
	}
}

func TestWallFluxMapSymmetry(t *testing.T) {
	// The uniform benchmark is symmetric: opposite faces see
	// statistically identical flux means.
	d, _, err := NewBenchmarkDomain(10)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.NRays = 64
	a, err := d.SolveWallFluxMap(context.Background(), XMinus, &opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.SolveWallFluxMap(context.Background(), XPlus, &opts)
	if err != nil {
		t.Fatal(err)
	}
	if mathutil.RelErr(a.Mean(), b.Mean(), 1e-12) > 0.05 {
		t.Errorf("x- mean %g vs x+ mean %g", a.Mean(), b.Mean())
	}
}

func TestWallFluxMapDeterministic(t *testing.T) {
	d1, _, _ := NewBenchmarkDomain(8)
	d2, _, _ := NewBenchmarkDomain(8)
	opts := DefaultOptions()
	opts.NRays = 8
	a, err := d1.SolveWallFluxMap(context.Background(), ZMinus, &opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d2.SolveWallFluxMap(context.Background(), ZMinus, &opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Q {
		if a.Q[i] != b.Q[i] {
			t.Fatalf("flux map not deterministic at %d", i)
		}
	}
}

func TestWallFluxMapValidation(t *testing.T) {
	d, _, _ := NewBenchmarkDomain(4)
	bad := Options{NRays: 0, Threshold: 0.1}
	if _, err := d.SolveWallFluxMap(context.Background(), XMinus, &bad); err == nil {
		t.Error("invalid options accepted")
	}
}

func TestOtherAxes(t *testing.T) {
	cases := [][3]int{{0, 1, 2}, {1, 0, 2}, {2, 0, 1}}
	for _, c := range cases {
		a, b := otherAxes(c[0])
		if a != c[1] || b != c[2] {
			t.Errorf("otherAxes(%d) = %d,%d", c[0], a, b)
		}
	}
}

// TestGlobalEnergyBalance ties the volume and surface solvers together:
// with cold black walls, the net radiative loss of the medium
// (∫divQ dV) must equal the total radiative power arriving at the six
// walls (Σ mean incident flux × wall area), within Monte Carlo noise.
// This is the global statement of the conservation the RTE encodes.
func TestGlobalEnergyBalance(t *testing.T) {
	if testing.Short() {
		t.Skip("energy balance skipped in -short")
	}
	const n = 12
	d, g, err := NewBenchmarkDomain(n)
	if err != nil {
		t.Fatal(err)
	}
	lvl := g.Levels[0]
	opts := DefaultOptions()
	opts.NRays = 96

	divQ, err := d.SolveRegion(lvl.IndexBox(), &opts)
	if err != nil {
		t.Fatal(err)
	}
	vol := lvl.CellVolume()
	var netLoss float64
	for _, q := range divQ.Data() {
		netLoss += q * vol
	}

	var wallGain float64
	for _, f := range []WallFace{XMinus, XPlus, YMinus, YPlus, ZMinus, ZPlus} {
		fm, err := d.SolveWallFluxMap(context.Background(), f, &opts)
		if err != nil {
			t.Fatal(err)
		}
		wallGain += fm.Mean() * 1.0 // unit cube: each wall area = 1
	}
	if rel := mathutil.RelErr(netLoss, wallGain, 1e-12); rel > 0.05 {
		t.Errorf("energy imbalance: medium loses %.4f W, walls receive %.4f W (%.1f%%)",
			netLoss, wallGain, 100*rel)
	}
}
