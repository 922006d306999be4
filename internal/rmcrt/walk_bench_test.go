package rmcrt

import (
	"context"
	"testing"

	"github.com/uintah-repro/rmcrt/internal/field"
	"github.com/uintah-repro/rmcrt/internal/grid"
)

// BenchmarkMarch is the march gate: a full 32³ Burns & Christon solve
// through the ray walker, reporting ns/step. perfgate holds it to its
// recorded baseline (first recorded for the wavefront-batched kernel the
// walker replaced, on the same configuration).
func BenchmarkMarch(b *testing.B) {
	d, _, err := NewBenchmarkDomain(32)
	if err != nil {
		b.Fatal(err)
	}
	region := d.finest().ROI
	// March-dominated configuration: the tighter extinction threshold
	// lengthens rays ~1.5× over the default, so ns/step measures
	// steady-state march cost rather than per-ray RNG setup.
	opts := benchSolveOpts()
	opts.Threshold = 1e-6
	b.ReportAllocs()
	start := d.Steps.Load()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.SolveRegion(region, &opts); err != nil {
			b.Fatal(err)
		}
	}
	if steps := d.Steps.Load() - start; steps > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
	}
}

// BenchmarkAdaptiveSolve measures the adaptive ray-budget mode on the
// 32³ problem: cells start at 8 rays and top up toward the paper's 100
// only where the Welford relative error demands it. rays_saved_pct is
// the fraction of the fixed-budget ray count (flow cells ×
// AdaptiveMaxRays) the adaptive mode did not have to trace — the
// rays-saved headline perfgate surfaces in its summary.
func BenchmarkAdaptiveSolve(b *testing.B) {
	d, _, err := NewBenchmarkDomain(32)
	if err != nil {
		b.Fatal(err)
	}
	region := d.finest().ROI
	opts := DefaultOptions()
	opts.NRays = 100
	opts.AdaptiveRelTol = 0.05
	opts.AdaptiveMinRays = 8
	opts.AdaptiveMaxRays = 100

	ld := d.finest()
	flow := 0
	region.ForEach(func(c grid.IntVector) {
		if ld.CellType.At(c) == field.Flow {
			flow++
		}
	})
	b.ReportAllocs()
	start := d.Rays.Load()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.SolveRegion(region, &opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	traced := float64(d.Rays.Load()-start) / float64(b.N)
	potential := float64(flow * opts.AdaptiveMaxRays)
	if potential > 0 {
		b.ReportMetric(100*(1-traced/potential), "rays_saved_pct")
	}
}

// BenchmarkMarchExp times the K-band step loop — four e^{−τ} per step —
// on a 32³ 4-band spectral solve, with the step loops' inlined copy of
// math.Exp (path=inline, exp.go) and with the call it replaces
// (path=call). perfgate's exp_inline_cpu1 guard holds call/inline above
// a floor set under every ratio measured so far, so it fails only when
// the inlined path turns grossly slower than the call, whatever the
// host's speed.
func BenchmarkMarchExp(b *testing.B) {
	d, _, err := NewBenchmarkDomain(32)
	if err != nil {
		b.Fatal(err)
	}
	sd := fourBand(d)
	region := d.finest().ROI
	opts := benchSolveOpts()
	for _, path := range []struct {
		name   string
		inline bool
	}{{"inline", true}, {"call", false}} {
		b.Run("path="+path.name, func(b *testing.B) {
			if path.inline && !expInline {
				b.Skip("the inlined exp is off on this host (see exp.go)")
			}
			defer setExpInline(path.inline)()
			b.ReportAllocs()
			start := d.Steps.Load()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sd.SolveRegionSpectral(context.Background(), region, &opts); err != nil {
					b.Fatal(err)
				}
			}
			if steps := d.Steps.Load() - start; steps > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
			}
		})
	}
}
