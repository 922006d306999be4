package rmcrt

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

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
// face cell: q_in = π · mean(sumI). Work is parallelized across face
// rows; results are deterministic per face cell.
func (d *Domain) SolveWallFluxMap(face WallFace, opts *Options) (*FluxMap, error) {
	return d.SolveWallFluxMapCtx(context.Background(), face, opts)
}

// SolveWallFluxMapCtx is SolveWallFluxMap with cooperative
// cancellation under the SolveRegionCtx contract: every worker polls
// ctx between face cells (a face cell is NRays bounded marches), all
// workers stop promptly once any of them observes cancellation, and
// the error returned is guaranteed non-nil. Partial counter tallies
// are still merged into the Domain.
func (d *Domain) SolveWallFluxMapCtx(ctx context.Context, face WallFace, opts *Options) (*FluxMap, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
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

	nw := runtime.GOMAXPROCS(0)
	if nw > fm.NU {
		nw = fm.NU
	}
	done := ctx.Done()
	var cancelled atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wk := newWalker(d, opts, nil)
			defer wk.cnt.flushTo(d)
			rng := &wk.tc.rng
			for u := w; u < fm.NU; u += nw {
				for v := 0; v < fm.NV; v++ {
					select {
					case <-done:
						cancelled.Store(true)
					default:
					}
					if cancelled.Load() {
						return
					}
					// Deterministic stream per (face, u, v), in the
					// tagged non-cell namespace (streams.go).
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
			}
		}(w)
	}
	wg.Wait()
	if cancelled.Load() {
		return nil, ctxErr(ctx)
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
