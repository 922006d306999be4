package rmcrt

import (
	"math"

	"github.com/uintah-repro/rmcrt/internal/field"
	"github.com/uintah-repro/rmcrt/internal/grid"
	"github.com/uintah-repro/rmcrt/internal/mathutil"
)

// The ray walker: the one ray march behind every solve.
//
// A worker generates a ray from its cell's RNG stream, marches it to
// termination, then generates the next. Every draw — origins,
// directions, scattering distances and redirects — therefore happens in
// the seed engine's order by construction, and each cell's ray values
// reduce in ray order, which keeps every mode bitwise identical to the
// seed engine at any worker count or tile size.
//
// The step loops run on flat stack locals: axis-indexed arrays padded
// to length 4 (masked indices, no bounds checks), a branch-free min
// select for the crossed axis, an unsigned ROI gate, and a flat index
// into the packed tables (packed.go) advanced by one stride add per
// step. There are two loops: the gray loop carries τ, e^{−τ} and sumI in
// registers; the K-band loop of spectral solves advances one geometric
// cursor for all bands. Both treat a scattering event as a slow event
// handled inside the loop (partial segment, redirect, restart); spectral
// solves with scattering walk one band at a time, so a redirect never
// spans bands. The other slow events — the enclosure wall, a level drop,
// an opaque cell, specular reflection — leave the loop for one cold tail
// that works on the walker's band state (a gray ray is band 0 of 1) with
// the same Vec3/grid helper calls as the seed tracer.
//
// A wavefront of rays marched in lockstep passes bought nothing over
// this: its coherence argument belongs to SIMT hardware, and on a CPU
// core marching each ray to termination measured as fast or faster.

// band is one spectral band: its per-solve constants, its running state
// on the current ray, and its running sum over the current cell's rays.
type band struct {
	w     float64            // emissive fraction (1 for gray)
	wallI float64            // ε·w·σT⁴_wall/π, the wall pickup
	abskg *field.CC[float64] // finest-level κ, for the per-cell 4πκ factor

	tau, trans, sum float64
	frozen          bool    // transmittance fell below the threshold
	cell            float64 // Σ sum over the cell's rays so far
}

// ray is one ray's march state. The step loops copy it into locals and
// write it back only when a slow event needs the cold tail.
type ray struct {
	origin, dir mathutil.Vec3
	cc, ss, dd  [4]int     // cell, step direction, flat-index delta per axis
	tm, td      [4]float64 // DDA tMax and tDelta per axis
	idx, li     int        // flat packed index, level index
	tcur        float64    // distance travelled from origin
	refl, left  int        // reflections so far, remaining step budget
}

// start points r, at position pos a distance tcur along the ray, at
// cell of level li: initMarch's DDA arithmetic written per axis into
// r's flat arrays, plus the packed cursor (which panics outside the
// table, like the seed tracer's field reads).
func (w *walker) start(r *ray, li int, cell grid.IntVector, pos mathutil.Vec3, tcur float64) {
	lvl := w.d.Levels[li].Level
	dx, lo := lvl.CellSize(), lvl.CellLo(cell)
	dxs := [3]float64{dx.X, dx.Y, dx.Z}
	los := [3]float64{lo.X, lo.Y, lo.Z}
	ps := [3]float64{pos.X, pos.Y, pos.Z}
	dcs := [3]float64{r.dir.X, r.dir.Y, r.dir.Z}
	for ax := 0; ax < 3; ax++ {
		switch dc := dcs[ax]; {
		case dc > 0:
			r.ss[ax], r.td[ax], r.tm[ax] = 1, dxs[ax]/dc, tcur+(los[ax]+dxs[ax]-ps[ax])/dc
		case dc < 0:
			r.ss[ax], r.td[ax], r.tm[ax] = -1, -dxs[ax]/dc, tcur+(los[ax]-ps[ax])/dc
		default:
			r.ss[ax], r.td[ax], r.tm[ax] = 0, math.Inf(1), math.Inf(1)
		}
	}
	cur := w.pd.levels[li].cursor(&marchState{cell: cell, step: grid.IV(r.ss[0], r.ss[1], r.ss[2])})
	r.cc = [4]int{cell.X, cell.Y, cell.Z}
	r.dd = [4]int{cur.d[0], cur.d[1], cur.d[2]}
	r.idx, r.li = cur.idx, li
}

// Slow events that end a run of the step loops.
const (
	evNone    = iota // step budget exhausted
	evDone           // extinction
	evScatter        // scattering distance reached
	evExit           // left the level's ROI
	evOpaque         // entered an opaque cell
)

// walker is one worker's ray marcher. It is worker-private and reused
// for every cell (or instrument ray) the worker traces.
type walker struct {
	d   *Domain
	pd  *PackedDomain
	tc  traceCtx
	cnt traceCounters
	// sh is the band context of a fused spectral solve; nil for gray.
	sh    *spectralShared
	bands []band
	alive int // unfrozen bands on the current ray
	// Per-cell ray budget: the first wave traces aMin rays, top-ups
	// double up to aMax (aMin = aMax = NRays unless adaptive).
	aMin, aMax int
	relTol     float64
}

func newWalker(d *Domain, opts *Options, sh *spectralShared) *walker {
	w := &walker{d: d, pd: d.ensurePacked(), tc: newTraceCtx(opts), sh: sh}
	w.aMin, w.aMax = opts.NRays, opts.NRays
	if opts.adaptiveEnabled() {
		w.aMin, w.aMax = opts.adaptiveBudget()
		w.relTol = opts.AdaptiveRelTol
	}
	if sh != nil {
		w.bands = append([]band(nil), sh.bands...)
	} else {
		w.bands = []band{{w: 1, wallI: w.tc.wallIntensity, abskg: d.finest().Abskg}}
	}
	return w
}

// solveTile computes divQ for every flow cell of [lo,hi) into out,
// polling poll before each cell and returning false on cancellation.
func (w *walker) solveTile(lo, hi grid.IntVector, out *field.CC[float64], poll func() bool) bool {
	ct := w.d.finest().CellType
	for x := lo.X; x < hi.X; x++ {
		for y := lo.Y; y < hi.Y; y++ {
			for z := lo.Z; z < hi.Z; z++ {
				c := grid.IV(x, y, z)
				if ct.At(c) != field.Flow {
					continue
				}
				if !poll() {
					return false
				}
				out.Set(c, w.solveCell(c))
			}
		}
	}
	return true
}

// solveCell traces cell c's rays and returns its divergence of the heat
// flux, summed over bands:
//
//	divQ(c) = Σ_k 4π κ_k(c) ( w_k σT⁴(c)/π − mean sumI_k )
//
// In adaptive mode (ARC-style, Hartley & Ricotti) the cell traces
// AdaptiveMinRays rays, then doubling top-up waves capped at
// AdaptiveMaxRays until the Welford standard error of its mean intensity
// drops below AdaptiveRelTol relative to the larger of |mean intensity|
// and its own emission (so cold cells in hot surroundings still resolve
// their incoming flux). The rule reads only the cell's own ray values in
// ray order, so adaptive results are decomposition-independent too.
func (w *walker) solveCell(c grid.IntVector) float64 {
	opts := w.tc.opts
	ld := w.d.finest()
	rng := &w.tc.rng
	rng.SeedStream(opts.Seed, cellStreamID(c))
	// Cranley–Patterson rotation offsets for stratified (randomized
	// quasi-Monte Carlo) direction sampling.
	var sh1, sh2 float64
	if opts.Stratified {
		sh1, sh2 = rng.Float64(), rng.Float64()
	}
	for i := range w.bands {
		w.bands[i].cell = 0
	}
	emit := ld.SigmaT4OverPi.At(c)
	n := 0
	mean, m2 := 0.0, 0.0
	for wave := w.aMin; ; wave = min(n, w.aMax-n) {
		for end := n + wave; n < end; n++ {
			origin, dir := w.genRay(c, n, rng, sh1, sh2)
			x := w.trace(origin, dir, rng)
			for i := range w.bands {
				w.bands[i].cell += w.bands[i].sum
			}
			delta := x - mean
			mean += delta / float64(n+1)
			m2 += delta * (x - mean)
		}
		if n >= w.aMax {
			break
		}
		if n >= 2 {
			sem := math.Sqrt(m2 / float64(n-1) / float64(n))
			scale := math.Abs(w.bands[0].cell / float64(n))
			if emit > scale {
				scale = emit
			}
			if sem <= w.relTol*scale {
				break
			}
		}
	}
	var dq float64
	for i := range w.bands {
		b := &w.bands[i]
		meanI := b.cell / float64(n)
		term := 4 * math.Pi * b.abskg.At(c) * (b.w*ld.SigmaT4OverPi.At(c) - meanI)
		if i == 0 {
			dq = term
		} else {
			dq += term
		}
	}
	return dq
}

// genRay draws ray r of cell c from rng in the seed engine's order:
// three origin draws unless rays start at cell centers, then two
// direction draws unless stratified (sh1, sh2 are the cell's shifts).
func (w *walker) genRay(c grid.IntVector, r int, rng *mathutil.RNG, sh1, sh2 float64) (origin, dir mathutil.Vec3) {
	opts := w.tc.opts
	lvl := w.d.finest().Level
	if opts.CellCenteredRays {
		origin = lvl.CellCenter(c)
	} else {
		lo, dx := lvl.CellLo(c), lvl.CellSize()
		origin = mathutil.Vec3{
			X: lo.X + rng.Float64()*dx.X,
			Y: lo.Y + rng.Float64()*dx.Y,
			Z: lo.Z + rng.Float64()*dx.Z,
		}
	}
	if opts.Stratified {
		u1 := frac(mathutil.Halton(r, 2) + sh1)
		u2 := frac(mathutil.Halton(r, 3) + sh2)
		cosTheta := 2*u1 - 1
		sinTheta := math.Sqrt(1 - cosTheta*cosTheta)
		phi := 2 * math.Pi * u2
		dir = mathutil.Vec3{X: sinTheta * math.Cos(phi), Y: sinTheta * math.Sin(phi), Z: cosTheta}
	} else {
		dir = rng.UnitSphere()
	}
	return origin, dir
}

// frac returns the fractional part of x in [0,1).
func frac(x float64) float64 { return x - math.Floor(x) }

// trace marches one ray from origin along dir, starting on the finest
// level, to termination. It leaves each band's incoming intensity in
// bands[k].sum and returns band 0's. rng supplies the scattering draws;
// nil disables scattering.
func (w *walker) trace(origin, dir mathutil.Vec3, rng *mathutil.RNG) float64 {
	w.cnt.rays++
	li := len(w.d.Levels) - 1
	var r ray
	r.origin, r.dir, r.left = origin, dir, w.tc.maxSteps
	w.start(&r, li, w.d.Levels[li].Level.CellContaining(origin), origin, 0)
	for i := range w.bands {
		b := &w.bands[i]
		b.tau, b.trans, b.sum, b.frozen = 0, 1, 0, false
	}
	w.alive = len(w.bands)
	scatterT := math.Inf(1)
	if w.tc.scatterCoeff > 0 && rng != nil {
		scatterT = sampleScatterDistance(rng, w.tc.scatterCoeff)
	}
	if w.sh != nil {
		w.marchBands(&r, rng, scatterT)
	} else {
		w.marchGray(&r, rng, scatterT)
	}
	return w.bands[0].sum
}

// redirect restarts r isotropically from its scattering point, scatterT
// along it inside cell cc. One scattering generation keeps variance
// bounded, so the caller's next scattering distance is +Inf.
func (w *walker) redirect(r *ray, cc [4]int, scatterT float64, rng *mathutil.RNG) {
	p := r.origin.Add(r.dir.Scale(scatterT))
	r.dir = rng.UnitSphere()
	r.origin, r.tcur = p, 0
	w.start(r, r.li, grid.IV(cc[0], cc[1], cc[2]), p, 0)
}

// marchGray is the gray step loop. Per step it picks the crossed axis,
// checks the scattering distance, accumulates the segment
//
//	sumI += I_b(cell) · (e^{−τ_prev} − e^{−τ})
//
// and advances into the next cell; anything but another flow cell of
// the same level's ROI is a slow event.
func (w *walker) marchGray(r *ray, rng *mathutil.RNG, scatterT float64) {
	b := &w.bands[0]
	threshold := w.tc.threshold
	tau, trans, sumI := 0.0, 1.0, 0.0
	for {
		roi := w.d.Levels[r.li].ROI
		recs := w.pd.levels[r.li].recs
		lo0, lo1, lo2 := roi.Lo.X, roi.Lo.Y, roi.Lo.Z
		// ROI containment as three unsigned range checks: c ∈ [lo,hi)
		// iff uint(c−lo) < uint(hi−lo).
		ux0, ux1, ux2 := uint(roi.Hi.X-lo0), uint(roi.Hi.Y-lo1), uint(roi.Hi.Z-lo2)
		cc, ss, tm, td, dd := r.cc, r.ss, r.tm, r.td, r.dd
		idx, tcur, left := r.idx, r.tcur, r.left
		n, ax, ev := 0, 0, evNone
		rec := &recs[idx]
		for n < left {
			n++
			// The crossed axis as a min-select of guarded constant
			// assignments (CMOVs: the axis is effectively random, so a
			// branchy select would mispredict every other step). Strict <
			// breaks ties toward x, then y, like marchState.nextAxis.
			ax = 0
			tNext := tm[0]
			if tm[1] < tNext {
				ax, tNext = 1, tm[1]
			}
			if tm[2] < tNext {
				ax, tNext = 2, tm[2]
			}
			ds := tNext - tcur
			if ds < 0 {
				ds = 0
			}
			// Never true while scatterT is +Inf (no scattering, or the
			// ray already scattered once).
			if tcur+ds > scatterT {
				ev = evScatter
				break
			}
			tauNew := tau + rec.Abskg*ds
			transNew := math.Exp(-tauNew)
			sumI += rec.SigmaT4OverPi * (trans - transNew)
			tau, trans = tauNew, transNew
			if trans < threshold {
				ev = evDone
				break
			}
			tcur = tNext
			axm := ax & 3 // masked so the compiler drops the bounds checks
			cc[axm] += ss[axm]
			tm[axm] += td[axm]
			idx += dd[axm]
			if uint(cc[0]-lo0) < ux0 && uint(cc[1]-lo1) < ux1 && uint(cc[2]-lo2) < ux2 {
				rec = &recs[idx]
				if rec.Flags == 0 {
					continue
				}
				ev = evOpaque
			} else {
				ev = evExit // the flat index is meaningless outside the ROI
			}
			break
		}
		w.cnt.steps += int64(n)
		r.left = left - n
		switch ev {
		case evNone, evDone:
			b.sum = sumI
			return
		case evScatter:
			// Isotropic scattering inside this cell: accumulate the
			// partial segment, redirect, and march on from the scatter
			// point.
			tauNew := tau + rec.Abskg*(scatterT-tcur)
			transNew := math.Exp(-tauNew)
			sumI += rec.SigmaT4OverPi * (trans - transNew)
			tau, trans = tauNew, transNew
			w.redirect(r, cc, scatterT, rng)
			scatterT = math.Inf(1)
			continue
		}
		r.cc, r.tm, r.idx, r.tcur = cc, tm, idx, tcur
		b.tau, b.trans, b.sum = tau, trans, sumI
		if w.tail(r, ax, ev == evOpaque) {
			return
		}
		tau, trans, sumI = b.tau, b.trans, b.sum
	}
}

// marchBands is the K-band step loop of spectral solves: the gray loop's
// geometry and scattering event, with the segment accumulated for every
// unfrozen band against its own absorption table (indexed like the
// packed records). A band whose transmittance falls below the threshold
// freezes, exactly as its own gray ray would have terminated; the ray
// ends when all have.
func (w *walker) marchBands(r *ray, rng *mathutil.RNG, scatterT float64) {
	bands := w.bands
	threshold := w.tc.threshold
	for {
		roi := w.d.Levels[r.li].ROI
		recs := w.pd.levels[r.li].recs
		kap := w.sh.kap[r.li]
		lo0, lo1, lo2 := roi.Lo.X, roi.Lo.Y, roi.Lo.Z
		ux0, ux1, ux2 := uint(roi.Hi.X-lo0), uint(roi.Hi.Y-lo1), uint(roi.Hi.Z-lo2)
		cc, ss, tm, td, dd := r.cc, r.ss, r.tm, r.td, r.dd
		idx, tcur, left := r.idx, r.tcur, r.left
		n, ax, ev := 0, 0, evNone
		rec := &recs[idx]
		for n < left {
			n++
			ax = 0
			tNext := tm[0]
			if tm[1] < tNext {
				ax, tNext = 1, tm[1]
			}
			if tm[2] < tNext {
				ax, tNext = 2, tm[2]
			}
			ds := tNext - tcur
			if ds < 0 {
				ds = 0
			}
			if tcur+ds > scatterT {
				ev = evScatter
				break
			}
			alive := w.alive
			for i := range bands {
				b := &bands[i]
				if b.frozen {
					continue
				}
				tauNew := b.tau + kap[i][idx]*ds
				transNew := math.Exp(-tauNew)
				b.sum += (b.w * rec.SigmaT4OverPi) * (b.trans - transNew)
				b.tau, b.trans = tauNew, transNew
				if transNew < threshold {
					b.frozen = true
					alive--
				}
			}
			w.alive = alive
			if alive == 0 {
				ev = evDone
				break
			}
			tcur = tNext
			axm := ax & 3
			cc[axm] += ss[axm]
			tm[axm] += td[axm]
			idx += dd[axm]
			if uint(cc[0]-lo0) < ux0 && uint(cc[1]-lo1) < ux1 && uint(cc[2]-lo2) < ux2 {
				rec = &recs[idx]
				if rec.Flags == 0 {
					continue
				}
				ev = evOpaque
			} else {
				ev = evExit
			}
			break
		}
		w.cnt.steps += int64(n)
		r.left = left - n
		switch ev {
		case evNone, evDone:
			return
		case evScatter:
			for i := range bands {
				b := &bands[i]
				if b.frozen {
					continue
				}
				tauNew := b.tau + kap[i][idx]*(scatterT-tcur)
				transNew := math.Exp(-tauNew)
				b.sum += (b.w * rec.SigmaT4OverPi) * (b.trans - transNew)
				b.tau, b.trans = tauNew, transNew
			}
			w.redirect(r, cc, scatterT, rng)
			scatterT = math.Inf(1)
			continue
		}
		r.cc, r.tm, r.idx, r.tcur = cc, tm, idx, tcur
		if w.tail(r, ax, ev == evOpaque) {
			return
		}
	}
}

// tail handles one slow event for r, which has just advanced across
// axis ax: it left its level's ROI (inROI false — the enclosure wall on
// the coarsest level, a drop to the next coarser level otherwise) and/or
// entered an opaque cell. Wall and surface pickups and the reflection
// weight apply to every unfrozen band. Returns true when the ray
// terminated.
func (w *walker) tail(r *ray, ax int, inROI bool) bool {
	tc := &w.tc
	lvl := w.d.Levels[r.li].Level
	cell := grid.IV(r.cc[0], r.cc[1], r.cc[2])
	step := grid.IV(r.ss[0], r.ss[1], r.ss[2])
	wall, dropped := !inROI && r.li == 0, false
	if !inROI && !wall {
		// Drop to the next coarser level at the current position, nudged
		// slightly forward so face-exact points land in the cell ahead
		// of the crossing.
		r.li--
		lvl = w.d.Levels[r.li].Level
		eps := 1e-9 * lvl.CellSize().MinComponent()
		p := r.origin.Add(r.dir.Scale(r.tcur + eps))
		cell = lvl.CellContaining(p)
		w.start(r, r.li, cell, p, r.tcur)
		step, dropped = grid.IV(r.ss[0], r.ss[1], r.ss[2]), true
	}
	if wall {
		// Leaving the coarsest level means leaving the domain.
		for i := range w.bands {
			if b := &w.bands[i]; !b.frozen {
				b.sum += b.wallI * b.trans
			}
		}
	} else if rec := &w.pd.levels[r.li].recs[r.idx]; rec.Flags != 0 {
		// Opaque cell: the ray picks up the surface's emission.
		for i := range w.bands {
			if b := &w.bands[i]; !b.frozen {
				b.sum += tc.wallEmissivity * (b.w * rec.SigmaT4OverPi) * b.trans
			}
		}
	} else {
		return false
	}
	// Terminate (black surface, reflections off or exhausted) or reflect
	// specularly: the surviving (1−ε) weight continues, folded into the
	// optical depth so later segments (which recompute e^{−τ}) keep it.
	if !tc.reflections || tc.wallEmissivity >= 1 || r.refl >= tc.maxReflections {
		return true
	}
	for i := range w.bands {
		b := &w.bands[i]
		if b.frozen {
			continue
		}
		b.trans *= 1 - tc.wallEmissivity
		b.tau -= math.Log(1 - tc.wallEmissivity)
		if b.trans < tc.threshold {
			b.frozen = true
			w.alive--
		}
	}
	if w.alive == 0 {
		return true
	}
	r.refl++
	// The reflected face is perpendicular to ax even after a level drop
	// (the fine ROI crossing on ax is what exposed this cell), but the
	// restart cell is "one cell back along ax" only when the ray entered
	// through a face of this cell. After a drop onto a coarse cell that
	// the fine ROI face straddles, the hit point lies strictly inside the
	// opaque cell; stepping a whole coarse cell back would teleport the
	// march, so it reflects in place instead.
	inside := cell.WithComponent(ax, cell.Component(ax)-step.Component(ax))
	p := r.origin.Add(r.dir.Scale(r.tcur))
	if dropped && !enteredThroughFace(lvl, cell, ax, step.Component(ax), p) {
		inside = cell
	}
	r.dir = r.dir.WithComponent(ax, -r.dir.Component(ax))
	r.origin, r.tcur = p, 0
	w.start(r, r.li, inside, r.origin, 0)
	return false
}
