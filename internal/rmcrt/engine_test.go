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
	"github.com/uintah-repro/rmcrt/internal/mathutil"
	"github.com/uintah-repro/rmcrt/internal/metrics"
)

// assertBitwiseEqual fails unless a and b hold exactly the same bits
// over box.
func assertBitwiseEqual(t *testing.T, box grid.Box, a, b *field.CC[float64], label string) {
	t.Helper()
	box.ForEach(func(c grid.IntVector) {
		if av, bv := a.At(c), b.At(c); av != bv {
			t.Fatalf("%s: divQ differs at %v: %v vs %v", label, c, av, bv)
		}
	})
}

// TestTileEngineBitwiseVsSeed proves the tentpole's correctness claim:
// the tile-scheduled walker reproduces the frozen seed engine's divQ
// bit for bit, under varied options, at GOMAXPROCS 1, 4 and 16.
func TestTileEngineBitwiseVsSeed(t *testing.T) {
	for _, tc := range []struct {
		name   string
		levels int
		tile   int
		mod    func(o *Options)
	}{
		{"default", 1, 0, func(o *Options) {}},
		{"stratified", 1, 0, func(o *Options) { o.Stratified = true }},
		{"greyWallsReflecting", 1, 0, func(o *Options) {
			o.WallEmissivity = 0.7
			o.WallSigmaT4 = 0.4
			o.Reflections = true
		}},
		{"scattering", 1, 0, func(o *Options) { o.ScatterCoeff = 0.5 }},
		{"tile3", 1, 3, func(o *Options) {}},
		{"multiLevelScattering", 2, 0, func(o *Options) { o.ScatterCoeff = 0.5 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			atEachGOMAXPROCS(t, func(t *testing.T) {
				var d *Domain
				var region grid.Box
				if tc.levels == 1 {
					var err error
					if d, _, err = NewBenchmarkDomain(12); err != nil {
						t.Fatal(err)
					}
					region = d.finest().ROI
				} else {
					g, mk, err := NewMultiLevelBenchmark(16, 8, 2, 2)
					if err != nil {
						t.Fatal(err)
					}
					p := g.Levels[1].Patches[0]
					if d, err = mk(p); err != nil {
						t.Fatal(err)
					}
					region = p.Cells
				}
				opts := DefaultOptions()
				opts.NRays = 6
				tc.mod(&opts)
				solveSeedBitwise(t, d, region, opts, tc.tile, "tile vs seed")
			})
		})
	}
}

// TestTileEngineBitwiseVsSeedMultiLevel extends the proof to the
// multi-level walk (fine patch + coarse radiation level).
func TestTileEngineBitwiseVsSeedMultiLevel(t *testing.T) {
	g, mk, err := NewMultiLevelBenchmark(16, 8, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.NRays = 5
	for _, p := range g.Levels[1].Patches {
		d, err := mk(p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := seedSolveRegion(d, p.Cells, &opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.SolveRegion(p.Cells, &opts)
		if err != nil {
			t.Fatal(err)
		}
		assertBitwiseEqual(t, p.Cells, want, got, "multi-level tile vs seed")
	}
}

// TestBitwiseAcrossGOMAXPROCS runs the same queries at GOMAXPROCS 1, 4
// and 16 and demands bit-identical results — the decomposition-invariance
// guarantee the per-cell (and per-face-cell) RNG streams buy. The region
// solve hands out tiles, the wall flux map face rows, and the scattering
// spectral solve one fan-out per band; the order in which workers claim
// them must not reach the numbers.
func TestBitwiseAcrossGOMAXPROCS(t *testing.T) {
	d, _, err := NewBenchmarkDomain(12)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.NRays = 6
	scatter := opts
	scatter.ScatterCoeff = 0.5
	region := d.finest().ROI
	ctx := context.Background()

	for _, tc := range []struct {
		name string
		run  func() ([]float64, error)
	}{
		{"region", func() ([]float64, error) {
			out, err := d.SolveRegionCtx(ctx, region, &opts)
			if err != nil {
				return nil, err
			}
			return out.Data(), nil
		}},
		{"wallfluxmap", func() ([]float64, error) {
			fm, err := d.SolveWallFluxMap(ctx, XMinus, &scatter)
			if err != nil {
				return nil, err
			}
			return fm.Q, nil
		}},
		{"spectral-scatter", func() ([]float64, error) {
			out, err := fourBand(d).SolveRegionSpectral(ctx, region, &scatter)
			if err != nil {
				return nil, err
			}
			return out.Data(), nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			old := runtime.GOMAXPROCS(0)
			defer runtime.GOMAXPROCS(old)
			var ref []float64
			for _, procs := range []int{1, 4, 16} {
				runtime.GOMAXPROCS(procs)
				got, err := tc.run()
				if err != nil {
					t.Fatal(err)
				}
				if ref == nil {
					ref = got
					continue
				}
				for i := range ref {
					if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
						t.Fatalf("GOMAXPROCS=%d: value %d is %v, want %v", procs, i, got[i], ref[i])
					}
				}
			}
		})
	}
}

// TestThinRegionParallelism is the scheduling half of the tentpole: a
// region one cell thick in X serialized under the seed x-slab engine,
// and a region of one default-size tile would serialize on a single
// tile; the tile engine must still fan out both, and the parallel
// result must be bit-identical to the serial one.
func TestThinRegionParallelism(t *testing.T) {
	d, _, err := NewBenchmarkDomain(64)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.NRays = 2

	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, region := range []grid.Box{
		grid.NewBox(grid.IV(0, 0, 0), grid.IV(1, 64, 64)),  // 1×64×64, Extent().X == 1
		grid.NewBox(grid.IV(8, 8, 8), grid.IV(16, 16, 16)), // one 8³ tile
	} {
		runtime.GOMAXPROCS(1)
		serial, st1, err := d.solveRegion(context.Background(), region, &opts, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if st1.workers != 1 {
			t.Fatalf("%v: GOMAXPROCS=1 used %d workers", region, st1.workers)
		}

		runtime.GOMAXPROCS(4)
		par, st4, err := d.solveRegion(context.Background(), region, &opts, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if st4.workers <= 1 || st4.tiles < 2 {
			t.Fatalf("%v used %d workers over %d tiles at GOMAXPROCS=4; the region runs serial", region, st4.workers, st4.tiles)
		}
		assertBitwiseEqual(t, region, serial, par, "serial vs parallel")
	}
}

// racyContext models the cancellation race the seed engine mishandled:
// Done() is already closed (a worker will observe cancellation) but
// Err() still reports nil — legal per the context contract only in
// adversarial interleavings, which is exactly when SolveRegionCtx used
// to return (nil, nil).
type racyContext struct{ done chan struct{} }

func (r *racyContext) Deadline() (time.Time, bool) { return time.Time{}, false }
func (r *racyContext) Done() <-chan struct{}       { return r.done }
func (r *racyContext) Err() error                  { return nil }
func (r *racyContext) Value(any) any               { return nil }

// TestCancelledNeverReturnsNilNil is the regression test for the
// (nil, nil) bug, run over every engine entry point: with a context
// whose Done is closed but whose Err races to nil, each query must still
// return context.Canceled and no result.
func TestCancelledNeverReturnsNilNil(t *testing.T) {
	opts := DefaultOptions()
	opts.NRays = 2
	scatter := opts
	scatter.ScatterCoeff = 0.5
	meter := Radiometer{Pos: mathutil.V3(0.5, 0.5, 0.5), Dir: mathutil.V3(0, 0, 1), HalfAngle: 0.4}

	// Each query reports whether it returned a result at all.
	for _, tc := range []struct {
		name  string
		query func(ctx context.Context, d *Domain) (bool, error)
	}{
		{"region", func(ctx context.Context, d *Domain) (bool, error) {
			out, err := d.SolveRegionCtx(ctx, d.finest().ROI, &opts)
			return out != nil, err
		}},
		{"spectral-fused", func(ctx context.Context, d *Domain) (bool, error) {
			out, err := fourBand(d).SolveRegionSpectral(ctx, d.finest().ROI, &opts)
			return out != nil, err
		}},
		{"spectral-scatter", func(ctx context.Context, d *Domain) (bool, error) {
			out, err := fourBand(d).SolveRegionSpectral(ctx, d.finest().ROI, &scatter)
			return out != nil, err
		}},
		{"wallflux", func(ctx context.Context, d *Domain) (bool, error) {
			q, err := d.SolveWallFlux(ctx, XMinus, &opts)
			return q != 0, err
		}},
		{"wallfluxmap", func(ctx context.Context, d *Domain) (bool, error) {
			fm, err := d.SolveWallFluxMap(ctx, XMinus, &opts)
			return fm != nil, err
		}},
		{"radiometer", func(ctx context.Context, d *Domain) (bool, error) {
			rd, err := d.SolveRadiometer(ctx, meter, &opts)
			return rd != (RadiometerReading{}), err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, _, err := NewBenchmarkDomain(12)
			if err != nil {
				t.Fatal(err)
			}
			ctx := &racyContext{done: make(chan struct{})}
			close(ctx.done)
			got, err := tc.query(ctx, d)
			if got {
				t.Fatal("cancelled query returned a result")
			}
			if err == nil {
				t.Fatal("cancelled query returned no error")
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled query returned %v, want context.Canceled", err)
			}
		})
	}
}

// TestCountersMatchSeed checks the per-tile merge loses nothing: after
// identical solves, the tile engine's Steps/Rays equal the seed
// engine's per-step atomics exactly.
func TestCountersMatchSeed(t *testing.T) {
	opts := DefaultOptions()
	opts.NRays = 4

	dSeed, _, err := NewBenchmarkDomain(10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seedSolveRegion(dSeed, dSeed.finest().ROI, &opts); err != nil {
		t.Fatal(err)
	}

	dTile, _, err := NewBenchmarkDomain(10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dTile.SolveRegion(dTile.finest().ROI, &opts); err != nil {
		t.Fatal(err)
	}

	if s, w := dTile.Steps.Load(), dSeed.Steps.Load(); s != w {
		t.Errorf("Steps = %d, seed counted %d", s, w)
	}
	if r, w := dTile.Rays.Load(), dSeed.Rays.Load(); r != w {
		t.Errorf("Rays = %d, seed counted %d", r, w)
	}
	if dTile.Rays.Load() == 0 || dTile.Steps.Load() == 0 {
		t.Error("counters did not advance")
	}
}

// TestTraceMetricsFamily exercises the per-tile metrics merge: tile
// count, ray/step totals and one timing observation per tile.
func TestTraceMetricsFamily(t *testing.T) {
	d, _, err := NewBenchmarkDomain(12)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	d.Metrics = NewTraceMetrics(reg)
	opts := DefaultOptions()
	opts.NRays = 2

	region := d.finest().ROI
	out, stats, err := d.solveRegion(context.Background(), region, &opts, nil, 6)
	if err != nil || out == nil {
		t.Fatalf("solve failed: %v", err)
	}
	wantTiles := int64(8) // (12/6)³
	if int64(stats.tiles) != wantTiles {
		t.Fatalf("stats.tiles = %d, want %d", stats.tiles, wantTiles)
	}
	if got := d.Metrics.Tiles.Value(); got != wantTiles {
		t.Errorf("tiles counter = %d, want %d", got, wantTiles)
	}
	if got := d.Metrics.TileSeconds.Count(); got != wantTiles {
		t.Errorf("tile-seconds observations = %d, want %d", got, wantTiles)
	}
	if got, want := d.Metrics.Rays.Value(), d.Rays.Load(); got != want {
		t.Errorf("rays counter = %d, Domain.Rays = %d", got, want)
	}
	if got, want := d.Metrics.Steps.Value(), d.Steps.Load(); got != want {
		t.Errorf("steps counter = %d, Domain.Steps = %d", got, want)
	}
}

// TestTileSizeInvariance checks results do not depend on the tile edge
// — it is scheduling only.
func TestTileSizeInvariance(t *testing.T) {
	d, _, err := NewBenchmarkDomain(10)
	if err != nil {
		t.Fatal(err)
	}
	region := d.finest().ROI
	var ref *field.CC[float64]
	opts := DefaultOptions()
	opts.NRays = 3
	for _, tile := range []int{1, 3, 7, 10, 64} {
		out, _, err := d.solveRegion(context.Background(), region, &opts, nil, tile)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = out
			continue
		}
		assertBitwiseEqual(t, region, ref, out, "tile-size sweep")
	}
}
