package rmcrt

import (
	"fmt"
	"math"
	"sync/atomic"

	"github.com/uintah-repro/rmcrt/internal/field"
	"github.com/uintah-repro/rmcrt/internal/grid"
	"github.com/uintah-repro/rmcrt/internal/mathutil"
)

// LevelData is the radiative state of one mesh level as seen by the
// tracer: the three properties the paper lists (κ, σT⁴ — stored as
// σT⁴/π, the blackbody intensity — and cellType), valid over ROI.
//
// On the finest level the ROI is the patch plus its halo; on coarser
// radiation levels the ROI spans the entire domain (the replicated
// coarse copy every node holds).
type LevelData struct {
	Level *grid.Level
	// ROI is the index box over which the property windows are valid.
	ROI grid.Box
	// Abskg is the absorption coefficient κ (1/m).
	Abskg *field.CC[float64]
	// SigmaT4OverPi is the blackbody emitted intensity σT⁴/π.
	SigmaT4OverPi *field.CC[float64]
	// CellType distinguishes flow cells from opaque boundary cells.
	CellType *field.CC[field.CellType]
}

// Domain is the tracer's view of the AMR hierarchy: Levels[0] is the
// coarsest; the last entry is the finest (where rays originate).
type Domain struct {
	Levels []LevelData

	// Steps counts DDA cell-steps across all traced rays; the scaling
	// study calibrates the simulated GPU's throughput with it. Workers
	// accumulate privately and merge here once per tile (or per public
	// call), never once per step — the counter is off the hot path.
	Steps atomic.Int64
	// Rays counts rays traced, merged with the same cadence as Steps.
	Rays atomic.Int64

	// Metrics, when non-nil, receives the same per-tile merges plus
	// tile-level timings (see TraceMetrics). Set it before solving;
	// the engine reads it without synchronization.
	Metrics *TraceMetrics

	// packed holds the fused per-level property tables the march reads
	// (see packed.go): built lazily on first trace, or installed by
	// AttachPacked when the service shares tables across jobs. Property
	// fields are frozen once tracing begins; call InvalidatePacked
	// after mutating them on a reused domain.
	packed atomic.Pointer[PackedDomain]
}

// finest returns the finest level's data.
func (d *Domain) finest() *LevelData { return &d.Levels[len(d.Levels)-1] }

// Validate checks the domain is usable: at least one level, property
// windows covering each ROI, and every ROI index within the RNG stream
// packing range (indices outside [−2²⁰, 2²⁰) would silently alias
// per-cell streams — see streams.go).
func (d *Domain) Validate() error {
	if len(d.Levels) == 0 {
		return fmt.Errorf("rmcrt: domain has no levels")
	}
	for i := range d.Levels {
		ld := &d.Levels[i]
		if ld.Level == nil {
			return fmt.Errorf("rmcrt: level %d has no grid level", i)
		}
		if ld.Abskg == nil || ld.SigmaT4OverPi == nil || ld.CellType == nil {
			return fmt.Errorf("rmcrt: level %d is missing property fields", i)
		}
		for _, w := range []grid.Box{ld.Abskg.Box(), ld.SigmaT4OverPi.Box(), ld.CellType.Box()} {
			if w.Intersect(ld.ROI) != ld.ROI {
				return fmt.Errorf("rmcrt: level %d window %v does not cover ROI %v", i, w, ld.ROI)
			}
		}
		if !streamIndexInRange(ld.ROI.Lo) || !streamIndexInRange(ld.ROI.Hi.Sub(grid.Uniform(1))) {
			return fmt.Errorf("rmcrt: level %d ROI %v exceeds the RNG stream index range [%d, %d)",
				i, ld.ROI, -streamIndexLimit, streamIndexLimit)
		}
	}
	if d.Levels[0].ROI != d.Levels[0].Level.IndexBox() {
		return fmt.Errorf("rmcrt: coarsest level ROI %v must span the level %v (the replicated copy)",
			d.Levels[0].ROI, d.Levels[0].Level.IndexBox())
	}
	return nil
}

// traceCounters is a worker-private tally of rays and DDA steps. The
// trace loop bumps plain integers; flushTo merges them into the shared
// atomic counters (and the optional metrics family) once per tile or
// per public call — the fix for the seed tracer's contended
// atomic-per-step hot path.
type traceCounters struct {
	rays, steps int64
}

// flushTo merges and resets the tally.
func (c *traceCounters) flushTo(d *Domain) {
	if c.rays == 0 && c.steps == 0 {
		return
	}
	d.Rays.Add(c.rays)
	d.Steps.Add(c.steps)
	if m := d.Metrics; m != nil {
		m.Rays.Add(c.rays)
		m.Steps.Add(c.steps)
	}
	c.rays, c.steps = 0, 0
}

// traceCtx carries the per-solve invariants of the ray march, hoisted
// out of the per-ray path: option-derived scalars that the seed tracer
// recomputed inside TraceRay on every call.
type traceCtx struct {
	opts           *Options
	maxSteps       int
	maxReflections int
	wallIntensity  float64
	threshold      float64
	scatterCoeff   float64
	wallEmissivity float64
	reflections    bool
	// rng is worker-private scratch reseeded per cell (SeedStream), so
	// the hot loop pays no allocation per stream.
	rng mathutil.RNG
}

// newTraceCtx precomputes the trace invariants for opts.
func newTraceCtx(opts *Options) traceCtx {
	return traceCtx{
		opts:           opts,
		maxSteps:       opts.maxSteps(),
		maxReflections: opts.maxReflections(),
		wallIntensity:  opts.wallIntensity(),
		threshold:      opts.Threshold,
		scatterCoeff:   opts.ScatterCoeff,
		wallEmissivity: opts.WallEmissivity,
		reflections:    opts.Reflections,
	}
}

// marchState is the DDA (Amanatides–Woo) state of one ray on one level.
// tMax components measure distance from the *ray origin* to the next
// face crossing on each axis; tDelta is the per-cell crossing distance.
type marchState struct {
	cell         grid.IntVector
	step         grid.IntVector
	tMax, tDelta mathutil.Vec3
}

// initMarch builds DDA state for a ray located at distance tCur from
// origin, at physical position pos, in the given cell of level l.
func initMarch(l *grid.Level, cell grid.IntVector, pos, dir mathutil.Vec3, tCur float64) marchState {
	var st marchState
	st.cell = cell
	dx := l.CellSize()
	lo := l.CellLo(cell)
	for ax := 0; ax < 3; ax++ {
		dc := dir.Component(ax)
		switch {
		case dc > 0:
			st.step = st.step.WithComponent(ax, 1)
			st.tDelta = st.tDelta.WithComponent(ax, dx.Component(ax)/dc)
			st.tMax = st.tMax.WithComponent(ax,
				tCur+(lo.Component(ax)+dx.Component(ax)-pos.Component(ax))/dc)
		case dc < 0:
			st.step = st.step.WithComponent(ax, -1)
			st.tDelta = st.tDelta.WithComponent(ax, -dx.Component(ax)/dc)
			st.tMax = st.tMax.WithComponent(ax,
				tCur+(lo.Component(ax)-pos.Component(ax))/dc)
		default:
			st.step = st.step.WithComponent(ax, 0)
			st.tDelta = st.tDelta.WithComponent(ax, math.Inf(1))
			st.tMax = st.tMax.WithComponent(ax, math.Inf(1))
		}
	}
	return st
}

// nextAxis returns the axis with the smallest tMax — the face the ray
// crosses next.
func (st *marchState) nextAxis() int {
	ax := 0
	if st.tMax.Y < st.tMax.Component(ax) {
		ax = 1
	}
	if st.tMax.Z < st.tMax.Component(ax) {
		ax = 2
	}
	return ax
}

// TraceRay integrates the incoming intensity along one backward ray
// started at physical position origin with unit direction dir on the
// finest level. An optional rng enables scattering sampling.
//
// The march runs on the finest level while inside its ROI, dropping to
// coarser levels outside, and terminates at opaque cells, at the domain
// boundary, or when the transmittance falls below opts.Threshold.
func (d *Domain) TraceRay(origin, dir mathutil.Vec3, rng *mathutil.RNG, opts *Options) float64 {
	w := newWalker(d, opts, nil)
	sumI := w.trace(origin, dir, rng)
	w.cnt.flushTo(d)
	return sumI
}

// enteredThroughFace reports whether p lies on cell's entry face along
// ax for a ray stepping in direction step (within a relative
// tolerance). The level-drop nudge is 1e-9·dx, far inside the 1e-6·dx
// tolerance, so face-aligned drops always count as through-the-face.
func enteredThroughFace(l *grid.Level, cell grid.IntVector, ax, step int, p mathutil.Vec3) bool {
	dx := l.CellSize().Component(ax)
	face := l.CellLo(cell).Component(ax)
	if step < 0 {
		face += dx
	}
	return math.Abs(p.Component(ax)-face) <= 1e-6*dx
}

// sampleScatterDistance draws the free path to the next scattering
// event from the exponential distribution with coefficient sigmaS.
func sampleScatterDistance(rng *mathutil.RNG, sigmaS float64) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return -math.Log(u) / sigmaS
}
