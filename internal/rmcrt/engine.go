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
// (default 8³) and feeds them to workers through a single atomic
// cursor — work stealing in its simplest form: a worker that lands on
// cheap tiles (opaque cells, short rays) just claims more of them, so
// load imbalance from the opaque/flow mix self-levels. Each worker keeps
// private traceCounters and merges them into the shared Domain counters
// (and the optional TraceMetrics family) once per tile, never per step.
// runTiles is the one fan-out: wall flux maps feed their face rows
// through the same cursor.
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
	// Tiles counts work items completed: region tiles, and the face
	// rows of wall flux maps.
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

// begin is the entry contract every engine query runs before it
// traces: valid options, valid inputs (the domain, plus whatever else
// the query brings), and a live context.
func begin(ctx context.Context, opts *Options, inputs ...interface{ Validate() error }) error {
	if err := opts.validate(); err != nil {
		return err
	}
	for _, in := range inputs {
		if err := in.Validate(); err != nil {
			return err
		}
	}
	return ctx.Err()
}

// defaultTileSize is the work-tile edge of a region solve: 8³ = 512
// cells per tile keeps scheduling overhead negligible (one atomic
// fetch-add per ~512·NRays ray marches) while giving even a 32³ region
// 64 tiles to balance across workers.
const defaultTileSize = 8

// solveRegion computes divQ over region, gray or (sh non-nil) fused
// spectral, as cubic work tiles of edge tile run through runTiles. A
// tile of 0 means defaultTileSize, halved while the region has fewer
// tiles than workers (an 8³ region is one tile); tests pass other edges
// to show the tiling cannot change the bits. Inputs are assumed to have
// passed begin.
func (d *Domain) solveRegion(ctx context.Context, region grid.Box, opts *Options, sh *spectralShared, tile int) (*field.CC[float64], solveStats, error) {
	var stats solveStats
	if roi := d.finest().ROI; roi.Intersect(region) != region {
		return nil, stats, fmt.Errorf("rmcrt: region %v outside finest ROI %v", region, roi)
	}
	ext := region.Extent()
	if tile <= 0 {
		tile = defaultTileSize
		nw := runtime.GOMAXPROCS(0)
		for tile > 1 && ceilDiv(ext.X, tile)*ceilDiv(ext.Y, tile)*ceilDiv(ext.Z, tile) < nw {
			tile /= 2
		}
	}
	tx, ty, tz := ceilDiv(ext.X, tile), ceilDiv(ext.Y, tile), ceilDiv(ext.Z, tile)
	stats.tiles = tx * ty * tz
	out := field.NewCC[float64](region)
	var err error
	stats.workers, err = d.runTiles(ctx, stats.tiles, opts, sh, func(w *walker, t int, poll func() bool) bool {
		// Decode the flat tile index (z fastest, matching cell
		// iteration order) and clip the tile to the region.
		ti, tj, tk := t/(ty*tz), (t/tz)%ty, t%tz
		lo := region.Lo.Add(grid.IV(ti*tile, tj*tile, tk*tile))
		hi := grid.IV(
			min(lo.X+tile, region.Hi.X),
			min(lo.Y+tile, region.Hi.Y),
			min(lo.Z+tile, region.Hi.Z),
		)
		return w.solveTile(lo, hi, out, poll)
	})
	if err != nil {
		return nil, stats, err
	}
	return out, stats, nil
}

// runTiles is the engine's one fan-out. It starts min(GOMAXPROCS, n)
// workers, each with its own walker, and hands out the work items
// 0..n-1 through an atomic cursor. item runs one work item, calling poll
// before each cell (or face cell) and returning false once poll reports
// cancellation. A worker merges its walker's counters into the Domain
// after every item, and its partial tally when it stops early, so
// Steps/Rays stay an honest account of work performed.
//
// It returns the number of workers started and, on cancellation, a
// guaranteed non-nil error: ctx.Err() when it is already visible,
// context.Canceled otherwise (a worker can observe the Done channel
// close before the caller's ctx.Err() becomes non-nil — the seed engine
// returned (nil, nil) in that window).
func (d *Domain) runTiles(ctx context.Context, n int, opts *Options, sh *spectralShared, item func(w *walker, i int, poll func() bool) bool) (int, error) {
	nw := max(min(runtime.GOMAXPROCS(0), n), 1)
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
				i := int(cursor.Add(1) - 1)
				if i >= n || cancelled.Load() {
					return
				}
				var start time.Time
				if timed {
					start = time.Now()
				}
				if !item(wk, i, poll) {
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
		return nw, ctxErr(ctx)
	}
	return nw, ctx.Err()
}
