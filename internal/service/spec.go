// Package service is the radiation-as-a-service layer: a JobManager
// with a bounded submission queue, a configurable solve worker pool,
// admission control (typed rejection instead of unbounded growth),
// cooperative cancellation, a content-addressed result cache, and
// single-flight coalescing of identical concurrent requests.
//
// The paper turns RMCRT from a batch code into a radiation component
// other physics call every timestep; this package gives the repo the
// serving-side version of that move — many independent callers share
// one solver installation, with backpressure and observability.
package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"

	"github.com/uintah-repro/rmcrt/internal/calib"
	"github.com/uintah-repro/rmcrt/internal/field"
	"github.com/uintah-repro/rmcrt/internal/grid"
	"github.com/uintah-repro/rmcrt/internal/mathutil"
	"github.com/uintah-repro/rmcrt/internal/rmcrt"
)

// Spec kinds.
const (
	// KindBenchmark is the Burns & Christon benchmark medium.
	KindBenchmark = "benchmark"
	// KindUniform is a homogeneous medium with configurable κ and σT⁴.
	KindUniform = "uniform"
	// KindHotSpot is a uniform background with one hotter (and
	// optionally more absorbing) cubic region — the time-varying
	// property workload: a sequence of hot-spot specs with the spot
	// moving is how the scenario matrix stresses packed-table
	// invalidation, since every move reshapes the property fields and
	// therefore the table keys.
	KindHotSpot = "hotspot"
)

// SLO classes. The class never changes what a solve computes — divQ is
// bitwise class-independent — only how urgently the serving plane
// schedules it, so Key deliberately excludes it (jobs of different
// classes still share the result cache and coalesce).
const (
	// ClassInteractive is latency-sensitive work: a physics code
	// blocked on divQ for its current timestep.
	ClassInteractive = "interactive"
	// ClassBatch is throughput work with a deadline measured in
	// minutes (the default).
	ClassBatch = "batch"
	// ClassBestEffort is scavenger work that yields to everything else.
	ClassBestEffort = "best-effort"
)

// ClassRank orders SLO classes for priority scheduling: lower is more
// urgent. Unknown classes rank last.
func ClassRank(class string) int {
	switch class {
	case ClassInteractive:
		return 0
	case ClassBatch:
		return 1
	case ClassBestEffort:
		return 2
	}
	return 3
}

// Spec is the JSON problem description a client submits: what to solve
// (grid size, levels, medium) and how (rays per cell, seed, threshold).
// The zero value of every optional field means "use the default"; keys
// are computed over the normalized form, so equivalent specs hash
// identically.
type Spec struct {
	// Kind selects the medium: "benchmark" (default) or "uniform".
	Kind string `json:"kind,omitempty"`
	// N is the fine-level resolution (N³ cells). Required.
	N int `json:"n"`
	// Levels is 1 (single fine mesh, default) or 2 (the paper's AMR
	// configuration: fine mesh per patch, coarse radiation mesh
	// everywhere else).
	Levels int `json:"levels,omitempty"`
	// PatchN is the fine patch size for 2-level solves (default N: one
	// patch). Must divide N.
	PatchN int `json:"patch_n,omitempty"`
	// RR is the fine→coarse refinement ratio for 2-level solves
	// (default 2). Must divide N.
	RR int `json:"rr,omitempty"`
	// Halo is the fine-level region-of-interest halo (default 4).
	Halo int `json:"halo,omitempty"`
	// Kappa is the background absorption coefficient (KindUniform and
	// KindHotSpot, default 1).
	Kappa float64 `json:"kappa,omitempty"`
	// SigmaT4 is the background emissive power σT⁴ (KindUniform and
	// KindHotSpot, default 1).
	SigmaT4 float64 `json:"sigma_t4,omitempty"`
	// ScatterCoeff is the isotropic scattering coefficient σ_s
	// (default 0: pure absorption). A trace-time scalar: it shapes the
	// answer but not the packed property tables, so it is in Key but
	// not AffinityKey.
	ScatterCoeff float64 `json:"scatter,omitempty"`
	// WallEmissivity is the domain-wall emissivity in (0,1]
	// (default 1: black walls). Like ScatterCoeff, a trace-time scalar.
	WallEmissivity float64 `json:"wall_emissivity,omitempty"`
	// WallSigmaT4 is the wall emissive power σT⁴_wall (default 0: cold
	// walls). Like ScatterCoeff, a trace-time scalar.
	WallSigmaT4 float64 `json:"wall_sigma_t4,omitempty"`
	// HotX/HotY/HotZ is the low corner of the hot-spot box in fine-level
	// cells (KindHotSpot only). The box is half-open:
	// [HotX, HotX+HotN) × [HotY, HotY+HotN) × [HotZ, HotZ+HotN).
	HotX int `json:"hot_x,omitempty"`
	HotY int `json:"hot_y,omitempty"`
	HotZ int `json:"hot_z,omitempty"`
	// HotN is the hot-spot edge length in cells (KindHotSpot only,
	// default max(1, N/4)).
	HotN int `json:"hot_n,omitempty"`
	// HotKappa is the absorption coefficient inside the hot spot
	// (KindHotSpot only, default Kappa).
	HotKappa float64 `json:"hot_kappa,omitempty"`
	// HotSigmaT4 is the emissive power σT⁴ inside the hot spot
	// (KindHotSpot only, default 8 — a 8^(1/4) ≈ 1.68× hotter region).
	HotSigmaT4 float64 `json:"hot_sigma_t4,omitempty"`
	// Rays is the ray count per cell (default 100, the paper's value).
	Rays int `json:"rays,omitempty"`
	// Seed drives the deterministic per-cell RNG streams (default 71).
	Seed uint64 `json:"seed,omitempty"`
	// Threshold is the ray extinction threshold (default 1e-4).
	Threshold float64 `json:"threshold,omitempty"`
	// AdaptiveRelTol, when positive, enables adaptive per-cell ray
	// budgets: cells start at AdaptiveMinRays rays and are topped up in
	// doubling waves until the relative standard error of the mean
	// intensity falls below this tolerance or the budget reaches
	// AdaptiveMaxRays. Deterministic for a given seed, but not bitwise
	// comparable to a fixed-ray solve, so all three fields are in Key.
	// Cost models price adaptive solves at the AdaptiveMaxRays upper
	// bound (see CostRays).
	AdaptiveRelTol float64 `json:"adaptive_rel_tol,omitempty"`
	// AdaptiveMinRays is the initial per-cell budget in adaptive mode
	// (default 8).
	AdaptiveMinRays int `json:"adaptive_min_rays,omitempty"`
	// AdaptiveMaxRays caps the per-cell budget in adaptive mode
	// (default Rays).
	AdaptiveMaxRays int `json:"adaptive_max_rays,omitempty"`
	// SpectralBands, when >= 2, solves a K-band box spectral model
	// instead of the gray medium: band k's absorption is the medium's
	// gray κ scaled by a geometric ladder spanning SpectralSpread, with
	// the emissive power split evenly so the Planck-mean κ matches the
	// gray field. 0 or 1 keeps the gray solve. Incompatible with
	// adaptive ray budgets.
	SpectralBands int `json:"spectral_bands,omitempty"`
	// SpectralSpread is the ratio between the strongest and weakest
	// band's absorption (default 4, must be >= 1).
	SpectralSpread float64 `json:"spectral_spread,omitempty"`
	// Class is the job's SLO class: "interactive", "batch" (default) or
	// "best-effort". It shapes scheduling only, never the answer, and is
	// therefore excluded from Key.
	Class string `json:"class,omitempty"`
}

// Normalized returns the spec with every defaulted field made explicit.
func (s Spec) Normalized() Spec {
	def := rmcrt.DefaultOptions()
	if s.Kind == "" {
		s.Kind = KindBenchmark
	}
	if s.Levels == 0 {
		s.Levels = 1
	}
	if s.PatchN == 0 {
		s.PatchN = s.N
	}
	if s.RR == 0 {
		s.RR = 2
	}
	if s.Halo == 0 {
		s.Halo = def.HaloCells
	}
	if s.Kind == KindUniform || s.Kind == KindHotSpot {
		if s.Kappa == 0 {
			s.Kappa = 1
		}
		if s.SigmaT4 == 0 {
			s.SigmaT4 = 1
		}
	} else {
		s.Kappa, s.SigmaT4 = 0, 0 // irrelevant for the benchmark medium
	}
	if s.Kind == KindHotSpot {
		if s.HotN == 0 {
			s.HotN = max(1, s.N/4)
		}
		if s.HotKappa == 0 {
			s.HotKappa = s.Kappa
		}
		if s.HotSigmaT4 == 0 {
			s.HotSigmaT4 = 8
		}
	} else {
		s.HotX, s.HotY, s.HotZ, s.HotN = 0, 0, 0, 0
		s.HotKappa, s.HotSigmaT4 = 0, 0
	}
	if s.WallEmissivity == 0 {
		s.WallEmissivity = 1 // black walls, the solver default
	}
	if s.Rays == 0 {
		s.Rays = def.NRays
	}
	if s.Seed == 0 {
		s.Seed = def.Seed
	}
	if s.Threshold == 0 {
		s.Threshold = def.Threshold
	}
	if s.AdaptiveRelTol > 0 {
		if s.AdaptiveMinRays == 0 {
			s.AdaptiveMinRays = 8 // the solver's defaultAdaptiveMinRays
		}
		if s.AdaptiveMaxRays == 0 {
			s.AdaptiveMaxRays = s.Rays
		}
	} else if s.AdaptiveRelTol == 0 {
		// Zero disables adaptive cleanly; a negative tolerance is left
		// in place for Validate to reject rather than silently folding
		// a client typo into "adaptive off".
		s.AdaptiveMinRays, s.AdaptiveMaxRays = 0, 0
	}
	if s.SpectralBands >= 2 {
		if s.SpectralSpread == 0 {
			s.SpectralSpread = 4
		}
	} else {
		s.SpectralBands, s.SpectralSpread = 0, 0
	}
	if s.Class == "" {
		s.Class = ClassBatch
	}
	return s
}

// SpecError is a rejected problem description.
type SpecError string

func (e SpecError) Error() string { return "service: invalid spec: " + string(e) }

func specErrf(format string, args ...any) error {
	return SpecError(fmt.Sprintf(format, args...))
}

// Validate checks the normalized spec.
func (s Spec) Validate() error {
	n := s.Normalized()
	switch {
	case n.Kind != KindBenchmark && n.Kind != KindUniform && n.Kind != KindHotSpot:
		return specErrf("kind %q (want %q, %q or %q)", n.Kind, KindBenchmark, KindUniform, KindHotSpot)
	case n.N < 2:
		return specErrf("n = %d (want >= 2)", n.N)
	case n.Levels != 1 && n.Levels != 2:
		return specErrf("levels = %d (want 1 or 2)", n.Levels)
	case n.Rays <= 0:
		return specErrf("rays = %d (want > 0)", n.Rays)
	case n.Threshold <= 0 || n.Threshold >= 1:
		return specErrf("threshold = %g (want in (0,1))", n.Threshold)
	case n.Halo < 0:
		return specErrf("halo = %d (want >= 0)", n.Halo)
	case n.Kind != KindBenchmark && n.Kappa <= 0:
		return specErrf("kappa = %g (want > 0)", n.Kappa)
	case n.Kind != KindBenchmark && n.SigmaT4 < 0:
		return specErrf("sigma_t4 = %g (want >= 0)", n.SigmaT4)
	case n.ScatterCoeff < 0:
		return specErrf("scatter = %g (want >= 0)", n.ScatterCoeff)
	case n.WallEmissivity <= 0 || n.WallEmissivity > 1:
		return specErrf("wall_emissivity = %g (want in (0,1])", n.WallEmissivity)
	case n.WallSigmaT4 < 0:
		return specErrf("wall_sigma_t4 = %g (want >= 0)", n.WallSigmaT4)
	case n.AdaptiveRelTol < 0:
		return specErrf("adaptive_rel_tol = %g (want >= 0)", n.AdaptiveRelTol)
	case n.AdaptiveRelTol > 0 && (n.AdaptiveMinRays < 1 || n.AdaptiveMaxRays < 1):
		return specErrf("adaptive budgets (%d,%d) (want >= 1)", n.AdaptiveMinRays, n.AdaptiveMaxRays)
	case n.AdaptiveRelTol > 0 && n.AdaptiveMinRays > n.AdaptiveMaxRays:
		return specErrf("adaptive_min_rays = %d exceeds adaptive_max_rays = %d", n.AdaptiveMinRays, n.AdaptiveMaxRays)
	case n.SpectralBands > 16:
		return specErrf("spectral_bands = %d (want <= 16)", n.SpectralBands)
	case n.SpectralBands >= 2 && n.SpectralSpread < 1:
		return specErrf("spectral_spread = %g (want >= 1)", n.SpectralSpread)
	case n.SpectralBands >= 2 && n.AdaptiveRelTol > 0:
		return specErrf("spectral bands and adaptive ray budgets are incompatible")
	case n.Class != ClassInteractive && n.Class != ClassBatch && n.Class != ClassBestEffort:
		return specErrf("class %q (want %q, %q or %q)", n.Class, ClassInteractive, ClassBatch, ClassBestEffort)
	}
	if n.Kind == KindHotSpot {
		switch {
		case n.HotN < 1:
			return specErrf("hot_n = %d (want >= 1)", n.HotN)
		case n.HotX < 0 || n.HotY < 0 || n.HotZ < 0:
			return specErrf("hot corner (%d,%d,%d) (want >= 0)", n.HotX, n.HotY, n.HotZ)
		case n.HotX+n.HotN > n.N || n.HotY+n.HotN > n.N || n.HotZ+n.HotN > n.N:
			return specErrf("hot box [%d,%d,%d]+%d exceeds n = %d", n.HotX, n.HotY, n.HotZ, n.HotN, n.N)
		case n.HotKappa <= 0:
			return specErrf("hot_kappa = %g (want > 0)", n.HotKappa)
		case n.HotSigmaT4 < 0:
			return specErrf("hot_sigma_t4 = %g (want >= 0)", n.HotSigmaT4)
		}
	}
	if n.Levels == 2 {
		switch {
		case n.N%n.PatchN != 0:
			return specErrf("patch_n = %d does not divide n = %d", n.PatchN, n.N)
		case n.RR < 2:
			return specErrf("rr = %d (want >= 2)", n.RR)
		case n.N%n.RR != 0:
			return specErrf("rr = %d does not divide n = %d", n.RR, n.N)
		}
	}
	return nil
}

// Cells returns the fine-level cell count, the admission-control cost
// proxy.
func (s Spec) Cells() int64 {
	n := int64(s.N)
	return n * n * n
}

// Options returns the solver options the spec maps to.
func (s Spec) Options() rmcrt.Options {
	n := s.Normalized()
	opts := rmcrt.DefaultOptions()
	opts.NRays = n.Rays
	opts.Seed = n.Seed
	opts.Threshold = n.Threshold
	opts.HaloCells = n.Halo
	opts.ScatterCoeff = n.ScatterCoeff
	opts.WallEmissivity = n.WallEmissivity
	opts.WallSigmaT4 = n.WallSigmaT4
	opts.AdaptiveRelTol = n.AdaptiveRelTol
	opts.AdaptiveMinRays = n.AdaptiveMinRays
	opts.AdaptiveMaxRays = n.AdaptiveMaxRays
	return opts
}

// CostRays returns the per-cell ray budget cost models price the spec
// at: the AdaptiveMaxRays upper bound for adaptive solves (the solver
// traces fewer rays where the variance allows, never more), times the
// band count for spectral solves (the fused marcher shares geometry
// across bands and is cheaper; the independent-band fallback is not).
// Pricing at the bound keeps admission-time feasibility checks safe.
func (s Spec) CostRays() int {
	n := s.Normalized()
	r := n.Rays
	if n.AdaptiveRelTol > 0 {
		r = n.AdaptiveMaxRays
	}
	if n.SpectralBands >= 2 {
		r *= n.SpectralBands
	}
	return r
}

// Work returns what the cost model prices the spec at: its normalized
// shape and its CostRays budget.
func (s Spec) Work() calib.Work {
	n := s.Normalized()
	return calib.Work{N: n.N, Levels: n.Levels, PatchN: n.PatchN, RR: n.RR, Halo: n.Halo, Rays: n.CostRays()}
}

// Key returns the content address of the solve: a hash over the
// normalized spec. The solver is deterministic (per-(cell,ray)
// counter-based RNG), so equal keys imply bitwise-equal divQ fields —
// which is what makes result caching and single-flight coalescing
// sound.
func (s Spec) Key() string {
	n := s.Normalized()
	h := sha256.New()
	fmt.Fprintf(h, "rmcrtd/v3|%s|%d|%d|%d|%d|%d|%x|%x|%d|%d|%x|%x|%x|%x|%d|%d|%d|%d|%x|%x|%x|%d|%d|%d|%x",
		n.Kind, n.N, n.Levels, n.PatchN, n.RR, n.Halo,
		math.Float64bits(n.Kappa), math.Float64bits(n.SigmaT4),
		n.Rays, n.Seed, math.Float64bits(n.Threshold),
		math.Float64bits(n.ScatterCoeff), math.Float64bits(n.WallEmissivity),
		math.Float64bits(n.WallSigmaT4),
		n.HotX, n.HotY, n.HotZ, n.HotN,
		math.Float64bits(n.HotKappa), math.Float64bits(n.HotSigmaT4),
		math.Float64bits(n.AdaptiveRelTol), n.AdaptiveMinRays, n.AdaptiveMaxRays,
		n.SpectralBands, math.Float64bits(n.SpectralSpread))
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// AffinityKey is the content address of the spec's property-shaping
// fields only — the same fields the packed-table cache keys its
// per-level tables by (see tableKey). Jobs with equal affinity keys can
// march through one warm PackedCache entry, so a cluster router that
// co-locates them turns N private table builds into one shared build —
// the distributed analog of the paper's per-node level database.
// Sampling fields (rays, seed, threshold) and the SLO class are
// deliberately absent: they change the answer or the urgency, not the
// property tables.
func (s Spec) AffinityKey() string {
	n := s.Normalized()
	h := sha256.New()
	fmt.Fprintf(h, "rmcrt-affinity/v2|%s|%d|%d|%d|%d|%d|%x|%x|%d|%d|%d|%d|%x|%x",
		n.Kind, n.N, n.Levels, n.PatchN, n.RR, n.Halo,
		math.Float64bits(n.Kappa), math.Float64bits(n.SigmaT4),
		n.HotX, n.HotY, n.HotZ, n.HotN,
		math.Float64bits(n.HotKappa), math.Float64bits(n.HotSigmaT4))
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// fill populates the radiative properties of the spec's medium over
// window on lvl.
func (s Spec) fill(lvl *grid.Level, window grid.Box) (abskg, sigT4OverPi *field.CC[float64], ct *field.CC[field.CellType]) {
	if s.Kind == KindBenchmark {
		return rmcrt.FillBenchmark(lvl, window)
	}
	abskg = field.NewCC[float64](window)
	abskg.Fill(s.Kappa)
	sigT4OverPi = field.NewCC[float64](window)
	sigT4OverPi.Fill(s.SigmaT4 / math.Pi)
	ct = field.NewCC[field.CellType](window)
	ct.Fill(field.Flow)
	if s.Kind == KindHotSpot {
		hot := grid.NewBox(grid.IV(s.HotX, s.HotY, s.HotZ),
			grid.IV(s.HotX+s.HotN, s.HotY+s.HotN, s.HotZ+s.HotN))
		window.Intersect(hot).ForEach(func(c grid.IntVector) {
			abskg.Set(c, s.HotKappa)
			sigT4OverPi.Set(c, s.HotSigmaT4/math.Pi)
		})
	}
	return abskg, sigT4OverPi, ct
}

// Classes lists the SLO classes in rank order. Workload reports and
// per-class metrics iterate this so every class appears even when it
// saw zero traffic.
func Classes() []string {
	return []string{ClassInteractive, ClassBatch, ClassBestEffort}
}

// problem is one independently solvable unit of a spec: a region of
// the fine level plus the ray-tracing domain that computes it. Regions
// of distinct problems are disjoint and their union covers the output
// field, and each problem's result depends only on the (deterministic)
// spec — which is what makes per-problem checkpointing sound.
type problem struct {
	id     int
	region grid.Box
	domain *rmcrt.Domain
	// spectral, when non-nil, wraps domain as the K-band spectral solve
	// (SpectralBands >= 2); solve dispatches to the spectral entry point.
	spectral *rmcrt.SpectralDomain
}

// spectralBands builds the spec's K-band box model over levels: band k
// scales the gray absorption by a geometric ladder across
// SpectralSpread, normalized so the Planck-mean (emission-weighted) κ
// equals the gray field, with the emissive power split evenly across
// bands. Every problem of a spec reads the same gray fields, so problems
// builds the band fields once and shares them.
func (s Spec) spectralBands(levels []rmcrt.LevelData) [][]rmcrt.Band {
	K := s.SpectralBands
	raw := make([]float64, K)
	mean := 0.0
	for k := range raw {
		raw[k] = math.Pow(s.SpectralSpread, float64(k)/float64(K-1))
		mean += raw[k]
	}
	mean /= float64(K)
	w := 1 / float64(K)
	lb := make([][]rmcrt.Band, len(levels))
	for li := range levels {
		base := levels[li].Abskg
		bands := make([]rmcrt.Band, K)
		for k := 0; k < K; k++ {
			m := raw[k] / mean
			scaled := field.NewCC[float64](base.Box())
			src, dst := base.Data(), scaled.Data()
			for i := range src {
				dst[i] = m * src[i]
			}
			bands[k] = rmcrt.Band{
				Name:             fmt.Sprintf("band%d", k),
				Abskg:            scaled,
				EmissiveFraction: w,
			}
		}
		lb[li] = bands
	}
	return lb
}

// problems builds the output field and the ordered list of independent
// solve units for the normalized, validated spec. Both Solve and
// SolveCheckpointed run exactly this decomposition, so a resumed solve
// recomputes the same problems an uninterrupted one would.
func (s Spec) problems() (out *field.CC[float64], probs []problem, err error) {
	n := s.Normalized()
	if err := n.Validate(); err != nil {
		return nil, nil, err
	}
	if n.Levels == 1 {
		g, err := grid.New(mathutil.V3(0, 0, 0), mathutil.V3(1, 1, 1),
			grid.Spec{Resolution: grid.Uniform(n.N), PatchSize: grid.Uniform(n.N)})
		if err != nil {
			return nil, nil, err
		}
		lvl := g.Levels[0]
		a, sig, ct := n.fill(lvl, lvl.IndexBox())
		d := &rmcrt.Domain{Levels: []rmcrt.LevelData{{
			Level: lvl, ROI: lvl.IndexBox(), Abskg: a, SigmaT4OverPi: sig, CellType: ct,
		}}}
		out = field.NewCC[float64](lvl.IndexBox())
		pr := problem{id: 0, region: lvl.IndexBox(), domain: d}
		if n.SpectralBands >= 2 {
			pr.spectral = &rmcrt.SpectralDomain{Base: d, LevelBands: n.spectralBands(d.Levels)}
		}
		return out, []problem{pr}, nil
	}

	// 2-level AMR: fine mesh per patch (patch + halo ROI), coarse
	// radiation mesh spanning the domain — the paper's configuration.
	coarseN := n.N / n.RR
	g, err := grid.New(mathutil.V3(0, 0, 0), mathutil.V3(1, 1, 1),
		grid.Spec{Resolution: grid.Uniform(coarseN), PatchSize: grid.Uniform(coarseN)},
		grid.Spec{Resolution: grid.Uniform(n.N), PatchSize: grid.Uniform(n.PatchN)})
	if err != nil {
		return nil, nil, err
	}
	fine, coarse := g.Levels[1], g.Levels[0]
	fa, fs, fc := n.fill(fine, fine.IndexBox())
	ca := field.NewCC[float64](coarse.IndexBox())
	cs := field.NewCC[float64](coarse.IndexBox())
	cc := field.NewCC[field.CellType](coarse.IndexBox())
	rrv := grid.Uniform(n.RR)
	field.CoarsenAverage(ca, fa, rrv)
	field.CoarsenAverage(cs, fs, rrv)
	field.CoarsenCellType(cc, fc, rrv)

	out = field.NewCC[float64](fine.IndexBox())
	var bands [][]rmcrt.Band
	for i, p := range fine.Patches {
		roi := p.Cells.Grow(n.Halo).Intersect(fine.IndexBox())
		d := &rmcrt.Domain{Levels: []rmcrt.LevelData{
			{Level: coarse, ROI: coarse.IndexBox(), Abskg: ca, SigmaT4OverPi: cs, CellType: cc},
			{Level: fine, ROI: roi, Abskg: fa, SigmaT4OverPi: fs, CellType: fc},
		}}
		pr := problem{id: i, region: p.Cells, domain: d}
		if n.SpectralBands >= 2 {
			if bands == nil {
				bands = n.spectralBands(d.Levels)
			}
			pr.spectral = &rmcrt.SpectralDomain{Base: d, LevelBands: bands}
		}
		probs = append(probs, pr)
	}
	return out, probs, nil
}

// solve runs one problem and copies its result into out, returning the
// ray/cell-step counts of the attempt. A non-nil tm is attached to the
// problem's domain so the tracing engine reports tile/ray/step series
// into the service's metrics registry.
func (pr problem) solve(ctx context.Context, opts *rmcrt.Options, out *field.CC[float64], tm *rmcrt.TraceMetrics) (rays, steps int64, err error) {
	pr.domain.Metrics = tm
	var part *field.CC[float64]
	if pr.spectral != nil {
		part, err = pr.spectral.SolveRegionSpectral(ctx, pr.region, opts)
	} else {
		part, err = pr.domain.SolveRegionCtx(ctx, pr.region, opts)
	}
	rays, steps = pr.domain.Rays.Load(), pr.domain.Steps.Load()
	if err != nil {
		return rays, steps, err
	}
	pr.region.ForEach(func(c grid.IntVector) { out.Set(c, part.At(c)) })
	return rays, steps, nil
}

// Solve runs the spec to completion under ctx and returns the
// fine-level divQ field plus the ray/cell-step counts. It is the
// worker-pool body, but is exported so results can be recomputed
// directly (the determinism tests do exactly that).
func (s Spec) Solve(ctx context.Context) (divQ *field.CC[float64], rays, steps int64, err error) {
	return s.SolveShared(ctx, nil, nil)
}

// SolveShared is Solve with the tracing-engine metrics family attached
// (tile, ray and step counts land in tm; nil = unobserved) and the
// packed property tables drawn from the shared cache pc instead of
// packed privately per solve (nil = private tables). Both are
// side-channel only: the tables are bit-copies of the same fields, so
// divQ is bitwise independent of tm and pc.
func (s Spec) SolveShared(ctx context.Context, tm *rmcrt.TraceMetrics, pc *PackedCache) (divQ *field.CC[float64], rays, steps int64, err error) {
	divQ, rays, steps, _, err = s.SolveCheckpointed(ctx, CheckpointOptions{Trace: tm, Packed: pc})
	return divQ, rays, steps, err
}
