package rmcrt

import (
	"testing"

	"github.com/uintah-repro/rmcrt/internal/mathutil"
)

// Pinned benchmarks — the perf-regression gate's fixed workloads.
// cmd/perfgate runs exactly these (plus the root-package service and
// calibration benchmarks), records them in BENCH_rmcrt.json and fails
// CI when they regress. Renaming one is a baseline-breaking change:
// regenerate the baseline in the same commit (go run ./cmd/perfgate
// -update BENCH_rmcrt.json).

// benchSolveOpts is the gate's standard tracing configuration: enough
// rays to be march-dominated, few enough that one SolveRegion pass
// stays sub-second.
func benchSolveOpts() Options {
	opts := DefaultOptions()
	opts.NRays = 4
	return opts
}

// BenchmarkSolveRegion is the headline workload: divQ over the full
// 32³ Burns & Christon problem, engine=tile (this PR) vs engine=slab
// (the frozen seed engine: x-slab scheduling, atomic-per-step
// counters). The slab variant exists so the speedup is measured, not
// asserted; perfgate guards the tile/slab ratio as well as tile's
// absolute time.
func BenchmarkSolveRegion(b *testing.B) {
	d, _, err := NewBenchmarkDomain(32)
	if err != nil {
		b.Fatal(err)
	}
	region := d.finest().ROI
	opts := benchSolveOpts()

	b.Run("engine=tile", func(b *testing.B) {
		b.ReportAllocs()
		start := d.Steps.Load()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := d.SolveRegion(region, &opts); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(d.Steps.Load()-start)/b.Elapsed().Seconds()/1e6, "Msteps/s")
	})
	b.Run("engine=slab", func(b *testing.B) {
		b.ReportAllocs()
		start := d.Steps.Load()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := seedSolveRegion(d, region, &opts); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(d.Steps.Load()-start)/b.Elapsed().Seconds()/1e6, "Msteps/s")
	})
}

// BenchmarkTraceRayPinned marches one fixed diagonal ray through the
// 32³ domain — the pure DDA cost with no scheduling around it.
func BenchmarkTraceRayPinned(b *testing.B) {
	d, _, err := NewBenchmarkDomain(32)
	if err != nil {
		b.Fatal(err)
	}
	opts := benchSolveOpts()
	origin := mathutil.V3(0.01, 0.02, 0.03)
	dir := mathutil.V3(1, 1, 1).Normalized()
	b.ReportAllocs()
	start := d.Steps.Load()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += d.TraceRay(origin, dir, nil, &opts)
	}
	_ = sink
	b.ReportMetric(float64(d.Steps.Load()-start)/b.Elapsed().Seconds()/1e6, "Msteps/s")
}

// BenchmarkMultiLevelWalk traces rays that start on a fine patch and
// drop to the coarse radiation level — the AMR walk the paper's
// multi-level algorithm lives on.
func BenchmarkMultiLevelWalk(b *testing.B) {
	g, mk, err := NewMultiLevelBenchmark(32, 16, 2, 4)
	if err != nil {
		b.Fatal(err)
	}
	patch := g.Levels[1].Patches[0]
	d, err := mk(patch)
	if err != nil {
		b.Fatal(err)
	}
	opts := benchSolveOpts()
	origin := mathutil.V3(0.05, 0.06, 0.07)
	dir := mathutil.V3(1, 0.7, 0.4).Normalized()
	b.ReportAllocs()
	start := d.Steps.Load()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += d.TraceRay(origin, dir, nil, &opts)
	}
	_ = sink
	b.ReportMetric(float64(d.Steps.Load()-start)/b.Elapsed().Seconds()/1e6, "Msteps/s")
}

// BenchmarkPackedDDA marches the same fixed diagonal ray with the
// walker (fused per-cell records, one integer add per step) vs the
// frozen seed march (three separate field lookups recomputing the flat
// offset from the cell coordinate every step) — the pure per-step cost
// of the walker over the seed. perfgate guards the unpacked/packed
// ratio in-run.
func BenchmarkPackedDDA(b *testing.B) {
	d, _, err := NewBenchmarkDomain(32)
	if err != nil {
		b.Fatal(err)
	}
	opts := benchSolveOpts()
	origin := mathutil.V3(0.01, 0.02, 0.03)
	dir := mathutil.V3(1, 1, 1).Normalized()

	b.Run("layout=packed", func(b *testing.B) {
		b.ReportAllocs()
		w := newWalker(d, &opts, nil)
		b.ResetTimer()
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += w.trace(origin, dir, nil)
		}
		_ = sink
		if w.cnt.steps > 0 {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(w.cnt.steps), "ns/step")
		}
	})
	b.Run("layout=unpacked", func(b *testing.B) {
		b.ReportAllocs()
		start := d.Steps.Load()
		b.ResetTimer()
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += seedTraceRay(d, origin, dir, nil, &opts)
		}
		_ = sink
		if steps := d.Steps.Load() - start; steps > 0 {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
		}
	})
}

// BenchmarkCounterContention isolates the bug the tentpole fixes: many
// goroutines marching rays while tallying steps, with the seed's
// shared-atomic-per-step scheme vs the worker-private merge. The gap
// between the two sub-benchmarks IS the contention cost (plus the
// hoisted option rereads); perfgate guards their ratio.
func BenchmarkCounterContention(b *testing.B) {
	d, _, err := NewBenchmarkDomain(16)
	if err != nil {
		b.Fatal(err)
	}
	opts := benchSolveOpts()
	origin := mathutil.V3(0.01, 0.02, 0.03)
	dir := mathutil.V3(1, 0.9, 0.8).Normalized()

	b.Run("atomicPerStep", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			var sink float64
			for pb.Next() {
				sink += seedTraceRay(d, origin, dir, nil, &opts)
			}
			_ = sink
		})
	})
	b.Run("perTileMerge", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			w := newWalker(d, &opts, nil)
			var sink float64
			for pb.Next() {
				sink += w.trace(origin, dir, nil)
			}
			w.cnt.flushTo(d)
			_ = sink
		})
	})
}
