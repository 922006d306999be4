package rmcrt

import (
	"context"
	"testing"

	"github.com/uintah-repro/rmcrt/internal/benchpair"
	"github.com/uintah-repro/rmcrt/internal/field"
	"github.com/uintah-repro/rmcrt/internal/grid"
)

// BenchmarkMarch is the march gate: a full 32³ Burns & Christon solve
// through the ray walker against the frozen seed engine on the same
// domain and options.
func BenchmarkMarch(b *testing.B) {
	d, _, err := NewBenchmarkDomain(32)
	if err != nil {
		b.Fatal(err)
	}
	region := d.finest().ROI
	// March-dominated configuration: the tighter extinction threshold
	// lengthens rays ~1.5× over the default, so the ratio measures
	// steady-state march cost rather than per-ray RNG setup.
	opts := benchSolveOpts()
	opts.Threshold = 1e-6
	benchpair.Run(b,
		func() {
			if _, err := d.SolveRegion(region, &opts); err != nil {
				b.Fatal(err)
			}
		},
		func() {
			if _, err := seedSolveRegion(d, region, &opts); err != nil {
				b.Fatal(err)
			}
		})
}

// BenchmarkAdaptiveSolve measures the adaptive ray-budget mode on the
// 16³ problem against the fixed-budget solve it replaces: cells start
// at 8 rays and top up toward the paper's 100 only where the Welford
// relative error demands it, while the partner traces all 100 in every
// cell. rays_saved_pct is the fraction of the fixed-budget ray count
// (flow cells × AdaptiveMaxRays) the adaptive mode did not have to
// trace.
func BenchmarkAdaptiveSolve(b *testing.B) {
	d, _, err := NewBenchmarkDomain(16)
	if err != nil {
		b.Fatal(err)
	}
	region := d.finest().ROI
	opts := DefaultOptions()
	opts.NRays = 100
	opts.AdaptiveRelTol = 0.05
	opts.AdaptiveMinRays = 8
	opts.AdaptiveMaxRays = 100
	fixed := opts
	fixed.AdaptiveRelTol = 0

	ld := d.finest()
	flow := 0
	region.ForEach(func(c grid.IntVector) {
		if ld.CellType.At(c) == field.Flow {
			flow++
		}
	})
	var traced, solves int64
	benchpair.Run(b,
		func() {
			start := d.Rays.Load()
			if _, err := d.SolveRegion(region, &opts); err != nil {
				b.Fatal(err)
			}
			traced += d.Rays.Load() - start
			solves++
		},
		func() {
			if _, err := d.SolveRegion(region, &fixed); err != nil {
				b.Fatal(err)
			}
		})
	if potential := float64(solves) * float64(flow*opts.AdaptiveMaxRays); potential > 0 {
		b.ReportMetric(100*(1-float64(traced)/potential), "rays_saved_pct")
	}
}

// BenchmarkMarchExp times the K-band step loop — four e^{−τ} per step —
// on a 32³ 4-band spectral solve with the step loops' inlined copy of
// math.Exp (exp.go) against the same solve through the call it
// replaces.
func BenchmarkMarchExp(b *testing.B) {
	if !expInline {
		b.Skip("the inlined exp is off on this host (see exp.go)")
	}
	d, _, err := NewBenchmarkDomain(32)
	if err != nil {
		b.Fatal(err)
	}
	sd := fourBand(d)
	region := d.finest().ROI
	opts := benchSolveOpts()
	solve := func(inline bool) func() {
		return func() {
			defer setExpInline(inline)()
			if _, err := sd.SolveRegionSpectral(context.Background(), region, &opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	benchpair.Run(b, solve(true), solve(false))
}
