// Package arches is a miniature of the ARCHES combustion component —
// just enough of it to exercise the coupling the paper describes: an
// explicit finite-volume energy equation whose radiative source term
// −∇·q_r is computed by the RMCRT radiation model on its own schedule
// ("thermal radiation in the target boiler simulations is loosely
// coupled to the CFD due to time-scale separation").
//
// The transported equation is
//
//	ρ c_v ∂T/∂t = ∇·(k ∇T) − ∇·q_r + Q'''
//
// discretized with central differences for conduction and integrated
// with the strong-stability-preserving RK2/RK3 schemes of Gottlieb &
// Shu [22], the integrators the real ARCHES uses.
package arches

import (
	"context"
	"fmt"
	"math"

	"github.com/uintah-repro/rmcrt/internal/field"
	"github.com/uintah-repro/rmcrt/internal/grid"
	"github.com/uintah-repro/rmcrt/internal/rmcrt"
)

// Config sets the physical and numerical parameters of a solver.
type Config struct {
	// Rho is the density ρ (kg/m³).
	Rho float64
	// Cv is the specific heat c_v (J/(kg·K)).
	Cv float64
	// Conductivity is the thermal conductivity k (W/(m·K)).
	Conductivity float64
	// WallTemp is the fixed (Dirichlet) wall temperature (K).
	WallTemp float64
	// HeatSource is the volumetric source Q''' (W/m³), e.g. reaction heat.
	HeatSource float64
	// RKOrder selects the SSP Runge–Kutta order: 1 (forward Euler,
	// testing only), 2 or 3.
	RKOrder int
	// RadPeriod computes the radiation source every RadPeriod timesteps
	// (0 disables radiation). Time-scale separation makes this valid.
	RadPeriod int
	// Radiation configures the RMCRT solve used for −∇·q_r.
	Radiation rmcrt.Options
}

// DefaultConfig returns parameters representative of hot furnace gas.
func DefaultConfig() Config {
	r := rmcrt.DefaultOptions()
	r.NRays = 32
	return Config{
		Rho:          0.5,
		Cv:           1200,
		Conductivity: 0.1,
		WallTemp:     300,
		RKOrder:      2,
		RadPeriod:    5,
		Radiation:    r,
	}
}

// Solver integrates the energy equation on one uniform level.
type Solver struct {
	cfg   Config
	level *grid.Level
	// T is the temperature field over the level.
	T *field.CC[float64]
	// Abskg is the absorption coefficient field (radiation property).
	Abskg *field.CC[float64]
	// DivQ is the most recent radiative source (W/m³), zero before the
	// first radiation solve.
	DivQ *field.CC[float64]

	step int
	// RadSolves counts radiation solves performed.
	RadSolves int
}

// NewSolver builds a solver over lvl with initial temperature initT
// evaluated at cell centers.
func NewSolver(cfg Config, lvl *grid.Level, initT func(x, y, z float64) float64, abskg *field.CC[float64]) (*Solver, error) {
	if cfg.Rho <= 0 || cfg.Cv <= 0 {
		return nil, fmt.Errorf("arches: non-physical rho/cv")
	}
	if cfg.RKOrder < 1 || cfg.RKOrder > 3 {
		return nil, fmt.Errorf("arches: RKOrder must be 1, 2 or 3")
	}
	s := &Solver{
		cfg:   cfg,
		level: lvl,
		T:     field.NewCC[float64](lvl.IndexBox()),
		Abskg: abskg,
		DivQ:  field.NewCC[float64](lvl.IndexBox()),
	}
	s.T.FillFunc(func(c grid.IntVector) float64 {
		p := lvl.CellCenter(c)
		return initT(p.X, p.Y, p.Z)
	})
	return s, nil
}

// StableDt returns the explicit diffusion stability limit dx²/(6α) with
// a 0.9 safety factor, α = k/(ρ c_v).
func (s *Solver) StableDt() float64 {
	alpha := s.cfg.Conductivity / (s.cfg.Rho * s.cfg.Cv)
	if alpha == 0 {
		return math.Inf(1)
	}
	dx := s.level.CellSize().MinComponent()
	return 0.9 * dx * dx / (6 * alpha)
}

// rhs evaluates dT/dt = (k ∇²T − ∇·q_r + Q”')/(ρ c_v) into out.
func (s *Solver) rhs(out, in []float64) {
	box := s.level.IndexBox()
	tmp := field.NewCCFrom(box, in)
	o := field.NewCCFrom(box, out)
	dx := s.level.CellSize()
	invRC := 1 / (s.cfg.Rho * s.cfg.Cv)
	k := s.cfg.Conductivity

	box.ForEach(func(c grid.IntVector) {
		lap := 0.0
		for ax := 0; ax < 3; ax++ {
			h := dx.Component(ax)
			up := c.WithComponent(ax, c.Component(ax)+1)
			dn := c.WithComponent(ax, c.Component(ax)-1)
			tu, td := s.cfg.WallTemp, s.cfg.WallTemp
			if box.Contains(up) {
				tu = tmp.At(up)
			}
			if box.Contains(dn) {
				td = tmp.At(dn)
			}
			lap += (tu - 2*tmp.At(c) + td) / (h * h)
		}
		o.Set(c, invRC*(k*lap-s.DivQ.At(c)+s.cfg.HeatSource))
	})
}

// StepRK advances data by dt with the SSP-RK scheme of the given order,
// using rhs(out, in) to evaluate the time derivative. Exported for the
// integrator-order tests.
func StepRK(order int, data []float64, dt float64, rhs func(out, in []float64)) {
	n := len(data)
	k := make([]float64, n)
	u1 := make([]float64, n)
	euler := func(dst, src []float64) {
		rhs(k, src)
		for i := range dst {
			dst[i] = src[i] + dt*k[i]
		}
	}
	switch order {
	case 1:
		euler(data, data)
	case 2:
		// u1 = u + dt L(u); u = ½u + ½(u1 + dt L(u1))
		euler(u1, data)
		rhs(k, u1)
		for i := range data {
			data[i] = 0.5*data[i] + 0.5*(u1[i]+dt*k[i])
		}
	case 3:
		// Gottlieb–Shu SSP-RK3.
		u2 := make([]float64, n)
		euler(u1, data)
		rhs(k, u1)
		for i := range u2 {
			u2[i] = 0.75*data[i] + 0.25*(u1[i]+dt*k[i])
		}
		rhs(k, u2)
		for i := range data {
			data[i] = data[i]/3 + 2.0/3.0*(u2[i]+dt*k[i])
		}
	default:
		panic(fmt.Sprintf("arches: unsupported RK order %d", order))
	}
}

// Advance integrates one timestep of length dt, refreshing the
// radiation source first when the coupling period comes due.
func (s *Solver) Advance(dt float64) error {
	if s.cfg.RadPeriod > 0 && s.step%s.cfg.RadPeriod == 0 {
		if err := s.solveRadiation(); err != nil {
			return err
		}
	}
	StepRK(s.cfg.RKOrder, s.T.Data(), dt, s.rhs)
	s.step++
	return nil
}

// solveRadiation recomputes σT⁴/π from the current temperature field
// and runs the single-level RMCRT solve for ∇·q_r — the exact feedback
// loop of equation (1) in the paper.
func (s *Solver) solveRadiation() error {
	box := s.level.IndexBox()
	sig := field.NewCC[float64](box)
	tv := s.T
	sig.FillFunc(func(c grid.IntVector) float64 {
		T := tv.At(c)
		return rmcrt.SigmaSB * T * T * T * T / math.Pi
	})
	ct := field.NewCC[field.CellType](box)
	ct.Fill(field.Flow)
	d := &rmcrt.Domain{Levels: []rmcrt.LevelData{{
		Level: s.level, ROI: box,
		Abskg: s.Abskg, SigmaT4OverPi: sig, CellType: ct,
	}}}
	opts := s.cfg.Radiation
	opts.WallSigmaT4 = rmcrt.SigmaSB * math.Pow(s.cfg.WallTemp, 4)
	dq, err := d.SolveRegionCtx(context.TODO(), box, &opts)
	if err != nil {
		return fmt.Errorf("arches: radiation solve: %w", err)
	}
	s.DivQ = dq
	s.RadSolves++
	return nil
}

// MeanTemp returns the volume-averaged temperature.
func (s *Solver) MeanTemp() float64 {
	sum := 0.0
	for _, t := range s.T.Data() {
		sum += t
	}
	return sum / float64(len(s.T.Data()))
}

// Bounds returns the min and max cell temperature.
func (s *Solver) Bounds() (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, t := range s.T.Data() {
		if t < lo {
			lo = t
		}
		if t > hi {
			hi = t
		}
	}
	return lo, hi
}

// Step returns the number of completed timesteps.
func (s *Solver) Step() int { return s.step }
