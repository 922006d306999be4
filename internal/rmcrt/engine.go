package rmcrt

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/uintah-repro/rmcrt/internal/field"
	"github.com/uintah-repro/rmcrt/internal/grid"
	"github.com/uintah-repro/rmcrt/internal/metrics"
)

// Tile-scheduled tracing engine.
//
// The seed engine split a region into x-slabs: worker w took the planes
// x ≡ w (mod nw), so parallelism was clamped to region.Extent().X — a
// region one cell thick in X ran serial no matter how many cells (or
// cores) it had. It also bumped Domain.Steps/Rays with a shared atomic
// once per DDA step, the same contended-shared-state sin the paper's
// contribution (iii) exists to avoid.
//
// This engine decomposes the region into fixed-size cubic tiles
// (Options.TileSize, default 8³) and feeds them to workers through a
// single atomic tile cursor — work stealing in its simplest form: a
// worker that lands on cheap tiles (opaque cells, short rays) just
// claims more of them, so load imbalance from the opaque/flow mix
// self-levels. Each worker keeps private traceCounters and merges them
// into the shared Domain counters (and the optional TraceMetrics
// family) once per tile, never per step.
//
// divQ is bitwise identical to the seed engine at any worker count and
// any tile size: every cell draws from its own RNG stream keyed by
// cellStreamID, so the assignment of cells to workers cannot affect the
// numbers — only who computes them.

// TraceMetrics is the tracing-engine metrics family: per-tile merged
// ray/step counters and tile-grain timings. Attach one to a Domain
// (Domain.Metrics) before solving; a nil family costs nothing on the
// trace path.
type TraceMetrics struct {
	// Tiles counts work tiles completed.
	Tiles *metrics.Counter
	// Rays counts rays traced, merged once per tile.
	Rays *metrics.Counter
	// Steps counts DDA cell-steps, merged once per tile.
	Steps *metrics.Counter
	// TileSeconds observes per-tile wall time — the load-balance signal:
	// a wide histogram means the opaque/flow mix is uneven across tiles.
	TileSeconds *metrics.Histogram
}

// NewTraceMetrics registers the tracing family in r (idempotently, so
// multiple domains can share one registry and one set of series).
func NewTraceMetrics(r *metrics.Registry) *TraceMetrics {
	return &TraceMetrics{
		Tiles: r.Counter("rmcrt_trace_tiles_total",
			"Work tiles completed by the tracing engine."),
		Rays: r.Counter("rmcrt_trace_rays_total",
			"Rays traced, merged per tile."),
		Steps: r.Counter("rmcrt_trace_steps_total",
			"DDA cell-steps taken, merged per tile."),
		TileSeconds: r.Histogram("rmcrt_trace_tile_seconds",
			"Wall time per work tile.",
			[]float64{.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1}),
	}
}

// solveStats reports how the engine scheduled a solve; tests use it to
// pin down parallelism properties (e.g. thin-in-X regions still fan
// out).
type solveStats struct {
	workers int // goroutines launched
	tiles   int // tiles the region decomposed into
}

// ceilDiv returns ⌈a/b⌉ for positive b.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// solveRegionTiled runs the tile-scheduled solve, gray or (sh non-nil)
// fused spectral. On cancellation it returns a guaranteed non-nil
// error: ctx.Err() when it is already visible, context.Canceled
// otherwise (a worker can observe the Done channel close before the
// caller's ctx.Err() becomes non-nil — the seed engine returned
// (nil, nil) in that window).
func (d *Domain) solveRegionTiled(ctx context.Context, region grid.Box, opts *Options, sh *spectralShared) (*field.CC[float64], solveStats, error) {
	var stats solveStats
	if err := opts.validate(); err != nil {
		return nil, stats, err
	}
	if err := d.Validate(); err != nil {
		return nil, stats, err
	}
	if err := ctx.Err(); err != nil {
		return nil, stats, err
	}
	ld := d.finest()
	if ld.ROI.Intersect(region) != region {
		return nil, stats, fmt.Errorf("rmcrt: region %v outside finest ROI %v", region, ld.ROI)
	}
	out := field.NewCC[float64](region)
	if err := d.runTiles(ctx, region, opts, sh, out, &stats); err != nil {
		return nil, stats, err
	}
	return out, stats, nil
}

// runTiles decomposes region into cubic tiles and feeds them to
// GOMAXPROCS workers through an atomic tile cursor; each worker builds
// its own walker and merges the walker's private counters into the
// Domain once per tile. Inputs are assumed validated.
func (d *Domain) runTiles(ctx context.Context, region grid.Box, opts *Options, sh *spectralShared, out *field.CC[float64], stats *solveStats) error {
	tile := opts.tileSize()
	ext := region.Extent()
	nw := runtime.GOMAXPROCS(0)
	// Fewer default-size tiles than workers would leave cores idle (an
	// 8³ region is one tile), so the default edge halves until every
	// worker can claim a tile.
	for opts.TileSize == 0 && tile > 1 && ceilDiv(ext.X, tile)*ceilDiv(ext.Y, tile)*ceilDiv(ext.Z, tile) < nw {
		tile /= 2
	}
	tx := ceilDiv(ext.X, tile)
	ty := ceilDiv(ext.Y, tile)
	tz := ceilDiv(ext.Z, tile)
	nTiles := tx * ty * tz
	stats.tiles = nTiles

	if nw > nTiles {
		nw = nTiles
	}
	if nw < 1 {
		nw = 1
	}
	stats.workers = nw

	var cursor atomic.Int64
	done := ctx.Done()
	var cancelled atomic.Bool
	timed := d.Metrics != nil
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wk := newWalker(d, opts, sh)
			// A cancelled worker still merges its partial tallies, so
			// Steps/Rays stay an honest account of work performed.
			defer wk.cnt.flushTo(d)
			poll := func() bool {
				select {
				case <-done:
					cancelled.Store(true)
				default:
				}
				return !cancelled.Load()
			}
			for {
				t := int(cursor.Add(1) - 1)
				if t >= nTiles || cancelled.Load() {
					return
				}
				// Decode the flat tile index (z fastest, matching cell
				// iteration order) and clip the tile to the region.
				ti := t / (ty * tz)
				tj := (t / tz) % ty
				tk := t % tz
				lo := region.Lo.Add(grid.IV(ti*tile, tj*tile, tk*tile))
				hi := grid.IV(
					min(lo.X+tile, region.Hi.X),
					min(lo.Y+tile, region.Hi.Y),
					min(lo.Z+tile, region.Hi.Z),
				)
				var start time.Time
				if timed {
					start = time.Now()
				}
				if !wk.solveTile(lo, hi, out, poll) {
					return
				}
				wk.cnt.flushTo(d)
				if m := d.Metrics; m != nil {
					m.Tiles.Inc()
					m.TileSeconds.Observe(time.Since(start).Seconds())
				}
			}
		}()
	}
	wg.Wait()
	if cancelled.Load() {
		if err := ctx.Err(); err != nil {
			return err
		}
		return context.Canceled
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return nil
}
