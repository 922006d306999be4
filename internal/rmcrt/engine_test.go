package rmcrt

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"github.com/uintah-repro/rmcrt/internal/field"
	"github.com/uintah-repro/rmcrt/internal/grid"
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
		mod    func(o *Options)
	}{
		{"default", 1, func(o *Options) {}},
		{"stratified", 1, func(o *Options) { o.Stratified = true }},
		{"greyWallsReflecting", 1, func(o *Options) {
			o.WallEmissivity = 0.7
			o.WallSigmaT4 = 0.4
			o.Reflections = true
		}},
		{"scattering", 1, func(o *Options) { o.ScatterCoeff = 0.5 }},
		{"tile3", 1, func(o *Options) { o.TileSize = 3 }},
		{"multiLevelScattering", 2, func(o *Options) { o.ScatterCoeff = 0.5 }},
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
				solveSeedBitwise(t, d, region, opts, "tile vs seed")
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

// TestBitwiseAcrossGOMAXPROCS runs the same solve at GOMAXPROCS 1, 4
// and 16 and demands bit-identical divQ — the decomposition-invariance
// guarantee the per-cell RNG streams buy, now at tile granularity.
func TestBitwiseAcrossGOMAXPROCS(t *testing.T) {
	d, _, err := NewBenchmarkDomain(12)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.NRays = 6
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
		assertBitwiseEqual(t, region, ref, out, "GOMAXPROCS sweep")
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
		serial, st1, err := d.solveRegionTiled(context.Background(), region, &opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st1.workers != 1 {
			t.Fatalf("%v: GOMAXPROCS=1 used %d workers", region, st1.workers)
		}

		runtime.GOMAXPROCS(4)
		par, st4, err := d.solveRegionTiled(context.Background(), region, &opts, nil)
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
// (nil, nil) bug: with a context whose Done is closed but whose Err
// races to nil, the solve must still return a non-nil error.
func TestCancelledNeverReturnsNilNil(t *testing.T) {
	d, _, err := NewBenchmarkDomain(12)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.NRays = 2
	ctx := &racyContext{done: make(chan struct{})}
	close(ctx.done)

	out, err := d.SolveRegionCtx(ctx, d.finest().ROI, &opts)
	if out != nil {
		t.Fatal("cancelled solve returned a result")
	}
	if err == nil {
		t.Fatal("cancelled solve returned (nil, nil)")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled solve returned %v, want context.Canceled", err)
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
	opts.TileSize = 6

	region := d.finest().ROI
	out, stats, err := d.solveRegionTiled(context.Background(), region, &opts, nil)
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
	for _, tile := range []int{1, 3, 7, 10, 64} {
		opts := DefaultOptions()
		opts.NRays = 3
		opts.TileSize = tile
		out, err := d.SolveRegion(region, &opts)
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
