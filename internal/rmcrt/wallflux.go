package rmcrt

import (
	"context"
	"fmt"
	"math"

	"github.com/uintah-repro/rmcrt/internal/mathutil"
)

// Wall flux maps. "A critical quantity of interest for all boiler
// simulations is the heat flux to the surrounding walls" — not at one
// point but over every face cell of the enclosure, which is what the
// boiler designers read. SolveWallFluxMap produces that 2-D map by
// cosine-weighted backward tracing from each face cell.

// FluxMap is the incident radiative flux (W/m²) over one enclosure
// face, indexed by the two in-face axes.
type FluxMap struct {
	Face WallFace
	// NU and NV are the face resolution along the two in-face axes
	// (the remaining axes in x<y<z order).
	NU, NV int
	// Q[u*NV+v] is the incident flux at face cell (u, v).
	Q []float64
}

// At returns the flux at face cell (u, v).
func (f *FluxMap) At(u, v int) float64 { return f.Q[u*f.NV+v] }

// Mean returns the area-averaged incident flux.
func (f *FluxMap) Mean() float64 { return mathutil.Mean(f.Q) }

// Max returns the peak incident flux.
func (f *FluxMap) Max() float64 { return mathutil.LinfNorm(f.Q) }

// SolveWallFluxMap computes the incident flux at every face cell of
// the given enclosure wall using opts.NRays cosine-weighted rays per
// face cell: q_in = π · mean(sumI). The face rows are the work items of
// the engine's fan-out (runTiles); every face cell has its own stream,
// so results are deterministic per face cell. Cancellation follows the
// SolveRegionCtx contract; ctx is polled between face cells.
func (d *Domain) SolveWallFluxMap(ctx context.Context, face WallFace, opts *Options) (*FluxMap, error) {
	if err := begin(ctx, opts, d); err != nil {
		return nil, err
	}
	ld := d.finest()
	lvl := ld.Level
	n := lvl.Resolution
	ax := int(face) / 2
	a1, a2 := otherAxes(ax)

	fm := &FluxMap{
		Face: face,
		NU:   n.Component(a1),
		NV:   n.Component(a2),
	}
	fm.Q = make([]float64, fm.NU*fm.NV)
	normal := face.normal()
	dx := lvl.CellSize()
	eps := dx.MinComponent() * 1e-6

	// The wall plane coordinate along ax.
	var wallCoord float64
	if int(face)%2 == 0 {
		wallCoord = lvl.DomainLo.Component(ax) + eps
	} else {
		wallCoord = lvl.DomainHi.Component(ax) - eps
	}

	_, err := d.runTiles(ctx, fm.NU, opts, nil, func(wk *walker, u int, poll func() bool) bool {
		rng := &wk.tc.rng
		for v := 0; v < fm.NV; v++ {
			if !poll() {
				return false
			}
			// Deterministic stream per (face, u, v), in the tagged
			// non-cell namespace (streams.go).
			rng.SeedStream(opts.Seed, wallMapStreamID(face, u, v))
			sum := 0.0
			for r := 0; r < opts.NRays; r++ {
				// Random point on the face cell.
				p := mathutil.Vec3{}
				p = p.WithComponent(ax, wallCoord)
				p = p.WithComponent(a1,
					lvl.DomainLo.Component(a1)+(float64(u)+rng.Float64())*dx.Component(a1))
				p = p.WithComponent(a2,
					lvl.DomainLo.Component(a2)+(float64(v)+rng.Float64())*dx.Component(a2))
				sum += wk.trace(p, rng.CosineHemisphere(normal), rng)
			}
			fm.Q[u*fm.NV+v] = math.Pi * sum / float64(opts.NRays)
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return fm, nil
}

// otherAxes returns the two axes != ax in increasing order.
func otherAxes(ax int) (int, int) {
	switch ax {
	case 0:
		return 1, 2
	case 1:
		return 0, 2
	default:
		return 0, 1
	}
}

// String implements fmt.Stringer with a compact summary.
func (f *FluxMap) String() string {
	return fmt.Sprintf("fluxmap{%v %dx%d mean=%.4g max=%.4g}", f.Face, f.NU, f.NV, f.Mean(), f.Max())
}
