package rmcrt

import (
	"context"
	"math"

	"github.com/uintah-repro/rmcrt/internal/field"
	"github.com/uintah-repro/rmcrt/internal/grid"
	"github.com/uintah-repro/rmcrt/internal/mathutil"
)

// SolveCell traces the rays of cell c on the finest level — opts.NRays,
// or an adaptive budget when AdaptiveRelTol is set, exactly as
// SolveRegion does — and returns the cell's divergence of the heat flux:
//
//	divQ(c) = 4π κ(c) (σT⁴(c)/π − mean sumI)
func (d *Domain) SolveCell(c grid.IntVector, opts *Options) float64 {
	w := newWalker(d, opts, nil)
	divQ := w.solveCell(c)
	w.cnt.flushTo(d)
	return divQ
}

// SolveRegionCtx computes divQ for every flow cell in region
// (finest-level indices) into a new variable windowed on region. Opaque
// cells get 0. Work is tile-scheduled across GOMAXPROCS goroutines (see
// engine.go); determinism is unaffected because every cell has its own
// RNG stream.
//
// Cancellation is cooperative and shared by every engine query: workers
// poll ctx between cells (or between rays, for the instrument queries),
// the call returns promptly once ctx is cancelled with a guaranteed
// non-nil error, partial results are discarded, and partial ray and step
// tallies still merge into the Domain counters.
func (d *Domain) SolveRegionCtx(ctx context.Context, region grid.Box, opts *Options) (*field.CC[float64], error) {
	if err := begin(ctx, opts, d); err != nil {
		return nil, err
	}
	out, _, err := d.solveRegion(ctx, region, opts, nil, 0)
	return out, err
}

// SolveRegion is SolveRegionCtx without a context. It stays only
// because the end-to-end benchmark in e2ebench compiles against it;
// new code calls SolveRegionCtx.
func (d *Domain) SolveRegion(region grid.Box, opts *Options) (*field.CC[float64], error) {
	return d.SolveRegionCtx(context.Background(), region, opts)
}

// Boundary flux -------------------------------------------------------

// WallFace identifies one face of the domain enclosure.
type WallFace int

// The six enclosure faces.
const (
	XMinus WallFace = iota
	XPlus
	YMinus
	YPlus
	ZMinus
	ZPlus
)

// String implements fmt.Stringer.
func (f WallFace) String() string {
	return [...]string{"x-", "x+", "y-", "y+", "z-", "z+"}[f]
}

// normal returns the face's inward unit normal.
func (f WallFace) normal() mathutil.Vec3 {
	switch f {
	case XMinus:
		return mathutil.V3(1, 0, 0)
	case XPlus:
		return mathutil.V3(-1, 0, 0)
	case YMinus:
		return mathutil.V3(0, 1, 0)
	case YPlus:
		return mathutil.V3(0, -1, 0)
	case ZMinus:
		return mathutil.V3(0, 0, 1)
	default:
		return mathutil.V3(0, 0, -1)
	}
}

// SolveWallFlux estimates the incident radiative heat flux (W/m²) at
// the center of the given enclosure face by tracing nRays
// cosine-weighted rays into the domain — "the heat flux to the
// surrounding walls" that boiler design cares about:
//
//	q_in = ∫_{2π} I cosθ dΩ  ≈  π · mean(sumI)   (cosine-weighted MC)
//
// Cancellation follows the SolveRegionCtx contract; ctx is polled
// between rays.
func (d *Domain) SolveWallFlux(ctx context.Context, face WallFace, opts *Options) (float64, error) {
	if err := begin(ctx, opts, d); err != nil {
		return 0, err
	}
	ld := d.finest()
	lvl := ld.Level
	n := face.normal()
	// Face-center point nudged inside the domain.
	ctr := lvl.DomainLo.Add(lvl.DomainHi.Sub(lvl.DomainLo).Scale(0.5))
	half := lvl.DomainHi.Sub(lvl.DomainLo).Scale(0.5)
	p := ctr.Sub(n.Mul(half))
	eps := lvl.CellSize().MinComponent() * 1e-6
	p = p.Add(n.Scale(eps))

	// The face stream lives in the tagged non-cell namespace; the seed
	// tracer used uint64(face)+0xface, which collides with the cell
	// stream of (−2²⁰, −2²⁰, face+0xface−2²⁰) — see streams.go.
	rng := mathutil.NewStream(opts.Seed, wallFaceStreamID(face))
	w := newWalker(d, opts, nil)
	defer w.cnt.flushTo(d)
	done := ctx.Done()
	sum := 0.0
	for r := 0; r < opts.NRays; r++ {
		select {
		case <-done:
			return 0, ctxErr(ctx)
		default:
		}
		sum += w.trace(p, rng.CosineHemisphere(n), rng)
	}
	return math.Pi * sum / float64(opts.NRays), nil
}

// ctxErr returns ctx's error, or context.Canceled when the Done
// channel is observably closed before ctx.Err() turns non-nil — the
// cancellation paths promise a non-nil error.
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return context.Canceled
}
