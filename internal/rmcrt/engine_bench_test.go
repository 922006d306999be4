package rmcrt

import (
	"runtime"
	"sync"
	"testing"

	"github.com/uintah-repro/rmcrt/internal/benchpair"
	"github.com/uintah-repro/rmcrt/internal/mathutil"
)

// Pinned benchmarks — the perf-regression gate's fixed workloads.
// cmd/perfgate runs exactly these (plus the packed-cache benchmark in
// internal/service and the end-to-end service benchmark in the root
// package), records each one's median paired ratio in BENCH_rmcrt.json
// and fails CI when one falls. Each times its program path against a
// partner in the same binary through benchpair.Run, so a ratio above 1
// means the program path is the faster. Renaming one is a
// baseline-breaking change: regenerate the baseline in the same commit
// (go run ./cmd/perfgate -update BENCH_rmcrt.json).

// benchSolveOpts is the gate's standard tracing configuration: enough
// rays to be march-dominated, few enough that one SolveRegion pass
// stays sub-second.
func benchSolveOpts() Options {
	opts := DefaultOptions()
	opts.NRays = 4
	return opts
}

// benchSink keeps the traced intensities live so the compiler cannot
// drop the calls that produce them.
var benchSink float64

// BenchmarkSolveRegion is the headline workload: divQ over the full
// 32³ Burns & Christon problem, the tile engine against the frozen
// seed slab engine (x-slab scheduling, atomic-per-step counters).
func BenchmarkSolveRegion(b *testing.B) {
	d, _, err := NewBenchmarkDomain(32)
	if err != nil {
		b.Fatal(err)
	}
	region := d.finest().ROI
	opts := benchSolveOpts()
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

// BenchmarkTraceRayPinned marches one fixed diagonal ray through the
// 32³ domain through the public TraceRay (walker set-up, march, counter
// flush) against the frozen seed march of the same ray: the pure DDA
// cost with no scheduling around it.
func BenchmarkTraceRayPinned(b *testing.B) {
	d, _, err := NewBenchmarkDomain(32)
	if err != nil {
		b.Fatal(err)
	}
	opts := benchSolveOpts()
	origin := mathutil.V3(0.01, 0.02, 0.03)
	dir := mathutil.V3(1, 1, 1).Normalized()
	benchpair.Run(b,
		func() { benchSink += d.TraceRay(origin, dir, nil, &opts) },
		func() { benchSink += seedTraceRay(d, origin, dir, nil, &opts) })
}

// BenchmarkMultiLevelWalk traces a ray that starts on a fine patch and
// drops to the coarse radiation level — the AMR walk the paper's
// multi-level algorithm lives on — against the seed march of the same
// ray.
func BenchmarkMultiLevelWalk(b *testing.B) {
	g, mk, err := NewMultiLevelBenchmark(32, 16, 2, 4)
	if err != nil {
		b.Fatal(err)
	}
	d, err := mk(g.Levels[1].Patches[0])
	if err != nil {
		b.Fatal(err)
	}
	opts := benchSolveOpts()
	origin := mathutil.V3(0.05, 0.06, 0.07)
	dir := mathutil.V3(1, 0.7, 0.4).Normalized()
	benchpair.Run(b,
		func() { benchSink += d.TraceRay(origin, dir, nil, &opts) },
		func() { benchSink += seedTraceRay(d, origin, dir, nil, &opts) })
}

// BenchmarkPackedDDA marches the same fixed diagonal ray with a reused
// walker (fused per-cell records, one integer add per step) against
// the frozen seed march (three separate field lookups recomputing the
// flat offset from the cell coordinate every step) — the per-step cost
// of the packed layout alone.
func BenchmarkPackedDDA(b *testing.B) {
	d, _, err := NewBenchmarkDomain(32)
	if err != nil {
		b.Fatal(err)
	}
	opts := benchSolveOpts()
	origin := mathutil.V3(0.01, 0.02, 0.03)
	dir := mathutil.V3(1, 1, 1).Normalized()
	w := newWalker(d, &opts, nil)
	benchpair.Run(b,
		func() { benchSink += w.trace(origin, dir, nil) },
		func() { benchSink += seedTraceRay(d, origin, dir, nil, &opts) })
}

// contentionRays is how many rays each goroutine of one
// BenchmarkCounterContention op traces: enough that goroutine start-up
// is a small share of the op.
const contentionRays = 32

// BenchmarkCounterContention isolates the contention the tile engine
// removed: GOMAXPROCS goroutines marching rays at once while tallying
// steps, each with a private walker merged once at the end (the
// program) against the seed's shared atomic per step (the partner).
// One op is one such parallel batch, so every goroutine of an op runs
// the same scheme and the atomics contend only with each other.
func BenchmarkCounterContention(b *testing.B) {
	d, _, err := NewBenchmarkDomain(16)
	if err != nil {
		b.Fatal(err)
	}
	opts := benchSolveOpts()
	origin := mathutil.V3(0.01, 0.02, 0.03)
	dir := mathutil.V3(1, 0.9, 0.8).Normalized()
	parallel := func(trace func()) {
		var wg sync.WaitGroup
		for p := runtime.GOMAXPROCS(0); p > 0; p-- {
			wg.Add(1)
			go func() {
				defer wg.Done()
				trace()
			}()
		}
		wg.Wait()
	}
	benchpair.Run(b,
		func() {
			parallel(func() {
				w := newWalker(d, &opts, nil)
				for i := 0; i < contentionRays; i++ {
					w.trace(origin, dir, nil)
				}
				w.cnt.flushTo(d)
			})
		},
		func() {
			parallel(func() {
				for i := 0; i < contentionRays; i++ {
					seedTraceRay(d, origin, dir, nil, &opts)
				}
			})
		})
}
