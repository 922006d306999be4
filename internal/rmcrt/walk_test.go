package rmcrt

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"github.com/uintah-repro/rmcrt/internal/field"
	"github.com/uintah-repro/rmcrt/internal/grid"
)

// Seed-bitwise edge cases of the ray walker: domains whose every ray
// ends in its first few steps, single-ray cells in single-cell tiles,
// tiles with no flow cells at all, and adaptive top-up waves racing
// prompt cancellation. (The TestBatch* names date from the wavefront
// kernel these cases were written against.) Each fixed-budget case is
// checked bitwise against the frozen seed engine at GOMAXPROCS 1, 4 and
// 16 — run under -race in CI.

// solveSeedBitwise solves region with the walker, in work tiles of edge
// tile (0 = the default tiling), and with the frozen seed engine, and
// asserts bitwise identity.
func solveSeedBitwise(t *testing.T, d *Domain, region grid.Box, opts Options, tile int, label string) *field.CC[float64] {
	t.Helper()
	got, _, err := d.solveRegion(context.Background(), region, &opts, nil, tile)
	if err != nil {
		t.Fatalf("%s: solve: %v", label, err)
	}
	want, err := seedSolveRegion(d, region, &opts)
	if err != nil {
		t.Fatalf("%s: seed solve: %v", label, err)
	}
	assertBitwiseEqual(t, region, want, got, label)
	return got
}

// atEachGOMAXPROCS runs f at GOMAXPROCS 1, 4 and 16.
func atEachGOMAXPROCS(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, procs := range []int{1, 4, 16} {
		runtime.GOMAXPROCS(procs)
		t.Run("procs="+itoa(procs), f)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [20]byte
	pos := len(buf)
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[pos:])
}

// TestBatchAllTerminateFirstPass: a small 8³ domain where every ray
// ends within a few steps.
func TestBatchAllTerminateFirstPass(t *testing.T) {
	atEachGOMAXPROCS(t, func(t *testing.T) {
		d, _, err := NewBenchmarkDomain(8)
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.NRays = 6
		solveSeedBitwise(t, d, d.finest().ROI, opts, 0, "8^3")
	})
}

// TestBatchSingleLaneCompaction: the degenerate budgets — one ray per
// cell in one-cell tiles, and an odd ray count.
func TestBatchSingleLaneCompaction(t *testing.T) {
	atEachGOMAXPROCS(t, func(t *testing.T) {
		d, _, err := NewBenchmarkDomain(8)
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.NRays = 1
		solveSeedBitwise(t, d, d.finest().ROI, opts, 1, "one ray, one-cell tiles")

		opts = DefaultOptions()
		opts.NRays = 5
		solveSeedBitwise(t, d, d.finest().ROI, opts, 0, "five rays")
	})
}

// TestBatchOpaqueTile: an intrusion block aligned to the tile grid
// leaves whole tiles with zero flow cells. They must get no divQ writes
// and the surrounding flow cells must still match the seed engine
// bitwise; opaque cells keep divQ = 0.
func TestBatchOpaqueTile(t *testing.T) {
	atEachGOMAXPROCS(t, func(t *testing.T) {
		d, _, err := NewBenchmarkDomain(12)
		if err != nil {
			t.Fatal(err)
		}
		// Tile-aligned 4³ intrusion at the default 8³ tile corner —
		// tile (0,0,0) keeps some flow; block (4..8)³ makes a fully
		// opaque sub-box that is exactly one whole 4³ tile.
		block := grid.NewBox(grid.IV(4, 4, 4), grid.IV(8, 8, 8))
		block.ForEach(func(c grid.IntVector) {
			d.finest().CellType.Set(c, field.Intrusion)
		})
		opts := DefaultOptions()
		opts.NRays = 4
		out := solveSeedBitwise(t, d, d.finest().ROI, opts, 4, "opaque-tile")
		block.ForEach(func(c grid.IntVector) {
			if v := out.At(c); v != 0 {
				t.Fatalf("intrusion cell %v has divQ %v, want 0", c, v)
			}
		})

		// A region that is nothing but intrusion: zero flow cells in
		// every tile, so the solve must return an all-zero field.
		empty, _, err := d.solveRegion(context.Background(), block, &opts, nil, 4)
		if err != nil {
			t.Fatal(err)
		}
		block.ForEach(func(c grid.IntVector) {
			if v := empty.At(c); v != 0 {
				t.Fatalf("all-opaque region cell %v has divQ %v, want 0", c, v)
			}
		})
	})
}

// TestAdaptiveCancelDuringTopUps: cancellation arriving while the
// adaptive wave loop is mid-flight must abort the solve promptly with context.Canceled and
// never return a partial field, at every worker count, under -race.
// The tolerance is set unreachably tight so every cell runs the full
// top-up ladder to the cap: uncancelled the solve takes seconds, so a
// 30 ms cancel always lands inside the wave interleaving.
func TestAdaptiveCancelDuringTopUps(t *testing.T) {
	atEachGOMAXPROCS(t, func(t *testing.T) {
		d, _, err := NewBenchmarkDomain(16)
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.NRays = 2048
		opts.AdaptiveRelTol = 1e-12 // never converges before the cap
		opts.AdaptiveMinRays = 2    // maximum top-up rounds per cell
		opts.AdaptiveMaxRays = 2048
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(30 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		out, err := d.SolveRegionCtx(ctx, d.finest().ROI, &opts)
		elapsed := time.Since(start)
		if out != nil {
			t.Fatal("cancelled adaptive solve returned a field")
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled adaptive solve returned %v, want context.Canceled", err)
		}
		if elapsed > 2*time.Second {
			t.Fatalf("cancelled adaptive solve took %v, want prompt return", elapsed)
		}
	})
}

// Adaptive statistical acceptance -------------------------------------

// TestAdaptiveDeterministicAcrossDecomposition: the adaptive mode's
// per-cell Welford decisions depend only on the cell's own RNG stream
// and ray order, so its divQ must be bitwise reproducible across worker
// counts and tile sizes, exactly like the fixed-budget mode.
func TestAdaptiveDeterministicAcrossDecomposition(t *testing.T) {
	d, _, err := NewBenchmarkDomain(10)
	if err != nil {
		t.Fatal(err)
	}
	baseOpts := DefaultOptions()
	baseOpts.NRays = 32
	baseOpts.AdaptiveRelTol = 0.05
	baseOpts.AdaptiveMinRays = 4
	baseOpts.AdaptiveMaxRays = 32
	region := d.finest().ROI

	var ref *field.CC[float64]
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, procs := range []int{1, 4, 16} {
		runtime.GOMAXPROCS(procs)
		for _, tile := range []int{1, 3, 8, 64} {
			out, _, err := d.solveRegion(context.Background(), region, &baseOpts, nil, tile)
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = out
				continue
			}
			assertBitwiseEqual(t, region, ref, out, "adaptive decomposition sweep")
		}
	}
}

// TestAdaptiveMeetsToleranceWithFewerRays is the statistical acceptance
// gate: on the Burns & Christon benchmark medium the adaptive mode must
// stay within a tolerance band of a high-ray fixed reference while
// tracing measurably fewer rays than the AdaptiveMaxRays budget it is
// priced at.
func TestAdaptiveMeetsToleranceWithFewerRays(t *testing.T) {
	const n = 10
	dRef, _, err := NewBenchmarkDomain(n)
	if err != nil {
		t.Fatal(err)
	}
	region := dRef.finest().ROI

	refOpts := DefaultOptions()
	refOpts.NRays = 2048
	ref, err := dRef.SolveRegion(region, &refOpts)
	if err != nil {
		t.Fatal(err)
	}

	d, _, err := NewBenchmarkDomain(n)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.NRays = 256
	opts.AdaptiveRelTol = 0.05
	opts.AdaptiveMinRays = 8
	opts.AdaptiveMaxRays = 256
	got, err := d.SolveRegion(region, &opts)
	if err != nil {
		t.Fatal(err)
	}

	// Error bound: per-cell deviation from the high-ray reference,
	// normalized by the emission scale 4πκσT⁴/π (the natural divQ
	// magnitude — relative error against divQ itself blows up at its
	// zero crossings). The adaptive SEM target is 5%; allow 4σ-ish
	// headroom plus the reference's own noise.
	var worst float64
	region.ForEach(func(c grid.IntVector) {
		scale := 4 * math.Pi * d.finest().Abskg.At(c) * d.finest().SigmaT4OverPi.At(c)
		if scale == 0 {
			return
		}
		if e := math.Abs(got.At(c)-ref.At(c)) / scale; e > worst {
			worst = e
		}
	})
	if worst > 0.25 {
		t.Fatalf("adaptive worst normalized error %.3f vs 2048-ray reference, want <= 0.25", worst)
	}

	traced := d.Rays.Load()
	budget := int64(region.Volume()) * int64(opts.AdaptiveMaxRays)
	if traced >= budget/2 {
		t.Fatalf("adaptive traced %d rays of %d budgeted — not measurably fewer", traced, budget)
	}
	t.Logf("adaptive: worst normalized error %.4f, traced %d/%d rays (%.1f%% saved)",
		worst, traced, budget, 100*(1-float64(traced)/float64(budget)))
}

// TestAdaptiveErrorVsRays sweeps the adaptive tolerance and logs one
// line per point — relTol, worst/mean normalized error vs a high-ray
// fixed reference, rays traced and saved — the error-vs-rays curve the
// nightly CI job uploads as an artifact. Beyond the report it asserts
// the curve's shape: tightening the tolerance must not trace fewer
// rays, and every point must stay within its own error band.
func TestAdaptiveErrorVsRays(t *testing.T) {
	if testing.Short() {
		t.Skip("nightly statistical sweep")
	}
	const n = 10
	dRef, _, err := NewBenchmarkDomain(n)
	if err != nil {
		t.Fatal(err)
	}
	region := dRef.finest().ROI
	refOpts := DefaultOptions()
	refOpts.NRays = 2048
	ref, err := dRef.SolveRegion(region, &refOpts)
	if err != nil {
		t.Fatal(err)
	}

	prevRays := int64(0)
	for _, relTol := range []float64{0.2, 0.1, 0.05, 0.02} {
		d, _, err := NewBenchmarkDomain(n)
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.NRays = 256
		opts.AdaptiveRelTol = relTol
		opts.AdaptiveMinRays = 8
		opts.AdaptiveMaxRays = 256
		got, err := d.SolveRegion(region, &opts)
		if err != nil {
			t.Fatal(err)
		}
		var worst, sum float64
		cells := 0
		region.ForEach(func(c grid.IntVector) {
			scale := 4 * math.Pi * d.finest().Abskg.At(c) * d.finest().SigmaT4OverPi.At(c)
			if scale == 0 {
				return
			}
			e := math.Abs(got.At(c)-ref.At(c)) / scale
			sum += e
			cells++
			if e > worst {
				worst = e
			}
		})
		traced := d.Rays.Load()
		budget := int64(region.Volume()) * int64(opts.AdaptiveMaxRays)
		t.Logf(`{"rel_tol": %g, "worst_err": %.5f, "mean_err": %.5f, "rays": %d, "budget": %d, "saved_pct": %.2f}`,
			relTol, worst, sum/float64(cells), traced, budget, 100*(1-float64(traced)/float64(budget)))
		if worst > 5*relTol {
			t.Errorf("relTol=%g: worst normalized error %.4f exceeds 5x the tolerance", relTol, worst)
		}
		if traced < prevRays {
			t.Errorf("relTol=%g traced %d rays, fewer than the looser tolerance's %d", relTol, traced, prevRays)
		}
		prevRays = traced
	}
}

// TestAdaptiveScatteringDeterministic: adaptive budgets with
// scattering (trace-time RNG draws interleaved into the cell streams)
// must remain bitwise deterministic across worker counts and still save
// rays.
func TestAdaptiveScatteringDeterministic(t *testing.T) {
	d, _, err := NewBenchmarkDomain(8)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.NRays = 32
	opts.ScatterCoeff = 0.5
	opts.AdaptiveRelTol = 0.05
	opts.AdaptiveMinRays = 4
	opts.AdaptiveMaxRays = 32
	region := d.finest().ROI

	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	var ref *field.CC[float64]
	for _, procs := range []int{1, 4, 16} {
		runtime.GOMAXPROCS(procs)
		out, err := d.SolveRegion(region, &opts)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = out
			continue
		}
		assertBitwiseEqual(t, region, ref, out, "scattering adaptive sweep")
	}
	budget := int64(region.Volume()) * int64(opts.AdaptiveMaxRays) * 3
	if traced := d.Rays.Load(); traced >= budget {
		t.Fatalf("scattering adaptive traced %d rays over 3 solves, budget cap %d", traced, budget)
	}
}
