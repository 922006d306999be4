package rmcrt

import (
	"context"
	"math"
	"testing"

	"github.com/uintah-repro/rmcrt/internal/field"
	"github.com/uintah-repro/rmcrt/internal/grid"
	"github.com/uintah-repro/rmcrt/internal/mathutil"
)

func TestRadiometerSeesHotWall(t *testing.T) {
	// Transparent medium; the +x half of the enclosure wall is "hot"
	// via an intrusion plane. A radiometer looking +x reads the plane's
	// intensity; looking -x it reads ~0.
	d := uniformDomain(t, 16, 1e-9, 0)
	ld := &d.Levels[0]
	for y := 0; y < 16; y++ {
		for z := 0; z < 16; z++ {
			c := grid.IV(15, y, z)
			ld.CellType.Set(c, field.Intrusion)
			ld.SigmaT4OverPi.Set(c, 2.0)
		}
	}
	opts := DefaultOptions()
	opts.NRays = 256
	opts.WallEmissivity = 1

	hot := Radiometer{Pos: mathutil.V3(0.3, 0.5, 0.5), Dir: mathutil.V3(1, 0, 0), HalfAngle: 0.3}
	r1, err := d.SolveRadiometer(context.Background(), hot, &opts)
	if err != nil {
		t.Fatal(err)
	}
	if mathutil.RelErr(r1.MeanIntensity, 2.0, 1e-12) > 1e-6 {
		t.Errorf("hot-wall intensity = %g, want 2.0", r1.MeanIntensity)
	}
	cold := hot
	cold.Dir = mathutil.V3(-1, 0, 0)
	r2, err := d.SolveRadiometer(context.Background(), cold, &opts)
	if err != nil {
		t.Fatal(err)
	}
	if r2.MeanIntensity > 1e-9 {
		t.Errorf("cold-wall intensity = %g, want ~0", r2.MeanIntensity)
	}
	if r1.Rays != opts.NRays {
		t.Errorf("rays = %d", r1.Rays)
	}
}

func TestRadiometerFluxLimits(t *testing.T) {
	// In an isothermal blackbody field (I = I_b in every direction), a
	// full-hemisphere radiometer reads flux π·I_b and mean intensity
	// I_b; a narrow cone reads mean intensity I_b with flux ≈ Ω·I_b.
	const sigT4 = 1.0
	d := uniformDomain(t, 8, 200, sigT4) // optically thick: I -> I_b everywhere
	opts := DefaultOptions()
	opts.NRays = 8192 // the cos-weighted flux estimator needs statistics
	ib := sigT4 / math.Pi

	hemi := Radiometer{Pos: mathutil.V3(0.5, 0.5, 0.5), Dir: mathutil.V3(0, 0, 1), HalfAngle: math.Pi / 2}
	r, err := d.SolveRadiometer(context.Background(), hemi, &opts)
	if err != nil {
		t.Fatal(err)
	}
	if mathutil.RelErr(r.MeanIntensity, ib, 1e-12) > 0.01 {
		t.Errorf("hemisphere mean intensity = %g, want %g", r.MeanIntensity, ib)
	}
	if mathutil.RelErr(r.Flux, math.Pi*ib, 1e-12) > 0.02 {
		t.Errorf("hemisphere flux = %g, want %g", r.Flux, math.Pi*ib)
	}

	narrow := hemi
	narrow.HalfAngle = 0.1
	rn, err := d.SolveRadiometer(context.Background(), narrow, &opts)
	if err != nil {
		t.Fatal(err)
	}
	if mathutil.RelErr(rn.MeanIntensity, ib, 1e-12) > 0.01 {
		t.Errorf("narrow mean intensity = %g, want %g", rn.MeanIntensity, ib)
	}
	// cosθ ≈ 1 inside a 0.1 rad cone.
	if mathutil.RelErr(rn.Flux, narrow.SolidAngle()*ib, 1e-12) > 0.02 {
		t.Errorf("narrow flux = %g, want %g", rn.Flux, narrow.SolidAngle()*ib)
	}
}

func TestRadiometerSolidAngle(t *testing.T) {
	r := Radiometer{HalfAngle: math.Pi / 2}
	if math.Abs(r.SolidAngle()-2*math.Pi) > 1e-12 {
		t.Errorf("hemisphere solid angle = %g", r.SolidAngle())
	}
}

func TestRadiometerValidation(t *testing.T) {
	d, _, _ := NewBenchmarkDomain(4)
	opts := DefaultOptions()
	bad := []Radiometer{
		{Pos: mathutil.V3(0.5, 0.5, 0.5), Dir: mathutil.V3(2, 0, 0), HalfAngle: 0.5}, // non-unit
		{Pos: mathutil.V3(0.5, 0.5, 0.5), Dir: mathutil.V3(1, 0, 0), HalfAngle: 0},   // zero cone
		{Pos: mathutil.V3(0.5, 0.5, 0.5), Dir: mathutil.V3(1, 0, 0), HalfAngle: 2},   // > pi/2
	}
	for i, r := range bad {
		if _, err := d.SolveRadiometer(context.Background(), r, &opts); err == nil {
			t.Errorf("case %d: invalid radiometer accepted", i)
		}
	}
}

func TestRadiometerDeterministic(t *testing.T) {
	d1, _, _ := NewBenchmarkDomain(8)
	d2, _, _ := NewBenchmarkDomain(8)
	opts := DefaultOptions()
	opts.NRays = 32
	r := Radiometer{Pos: mathutil.V3(0.4, 0.6, 0.5), Dir: mathutil.V3(0, 1, 0), HalfAngle: 0.4}
	a, err := d1.SolveRadiometer(context.Background(), r, &opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d2.SolveRadiometer(context.Background(), r, &opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanIntensity != b.MeanIntensity || a.Flux != b.Flux {
		t.Error("radiometer reading not deterministic")
	}
}
