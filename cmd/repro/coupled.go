package main

import (
	"context"
	"math"

	"github.com/uintah-repro/rmcrt/internal/arches"
	"github.com/uintah-repro/rmcrt/internal/field"
	"github.com/uintah-repro/rmcrt/internal/grid"
	"github.com/uintah-repro/rmcrt/internal/mathutil"
	"github.com/uintah-repro/rmcrt/internal/production"
	"github.com/uintah-repro/rmcrt/internal/rmcrt"
	"github.com/uintah-repro/rmcrt/internal/uda"
)

// runBoiler is a miniature of the CCMSC target calculation: hot
// reacting gas in a cold-walled 24³ enclosure, integrated for 60 steps
// by the mini-ARCHES energy equation with RMCRT (48 rays/cell) supplying
// −∇·q_r every 5 steps. It reports the temperature history and the wall
// heat flux, "a critical quantity of interest for all boiler
// simulations".
func runBoiler(options) (record, error) {
	const n, steps, rays, flame, wall = 24, 60, 48, 1800.0, 400.0
	g, err := grid.New(mathutil.V3(0, 0, 0), mathutil.V3(1, 1, 1),
		grid.Spec{Resolution: grid.Uniform(n), PatchSize: grid.Uniform(n)})
	if err != nil {
		return nil, err
	}
	lvl := g.Levels[0]

	// Absorption coefficient: sootier (more absorbing) in the core.
	abskg := field.NewCC[float64](lvl.IndexBox())
	abskg.FillFunc(func(c grid.IntVector) float64 {
		r := lvl.CellCenter(c).Sub(mathutil.V3(0.5, 0.5, 0.5)).Length()
		return 0.4 + 1.6*math.Exp(-8*r*r)
	})
	cfg := arches.DefaultConfig()
	cfg.WallTemp = wall
	cfg.RadPeriod = 5
	cfg.Radiation.NRays = rays
	cfg.HeatSource = 2e4 // steady reaction heat in the core
	// Initial condition: a hot gaussian core over warm surroundings.
	solver, err := arches.NewSolver(cfg, lvl, func(x, y, z float64) float64 {
		dx, dy, dz := x-0.5, y-0.5, z-0.5
		return wall + (flame-wall)*math.Exp(-10*(dx*dx+dy*dy+dz*dz))
	}, abskg)
	if err != nil {
		return nil, err
	}
	dt := min(solver.StableDt(), 2e-3) // keep radiative cooling resolved

	hist := newTable("history", "step;%d", "time (s);%.4f", "Tmean (K);%.2f", "Tmax (K);%.2f", "radiation solves;%d")
	for i := 0; i <= steps; i++ {
		if i%5 == 0 {
			_, hi := solver.Bounds()
			hist.add(i, float64(i)*dt, solver.MeanTemp(), hi, solver.RadSolves)
		}
		if i < steps {
			if err := solver.Advance(dt); err != nil {
				return nil, err
			}
		}
	}

	// Final wall flux via RMCRT from the last temperature field.
	sig := field.NewCC[float64](lvl.IndexBox())
	sig.FillFunc(func(c grid.IntVector) float64 {
		T := solver.T.At(c)
		return rmcrt.SigmaSB * T * T * T * T / math.Pi
	})
	ct := field.NewCC[field.CellType](lvl.IndexBox())
	ct.Fill(field.Flow)
	d := &rmcrt.Domain{Levels: []rmcrt.LevelData{{
		Level: lvl, ROI: lvl.IndexBox(), Abskg: abskg, SigmaT4OverPi: sig, CellType: ct,
	}}}
	opts := rmcrt.DefaultOptions()
	opts.NRays = 4 * rays
	opts.WallSigmaT4 = rmcrt.SigmaSB * math.Pow(wall, 4)
	flux := newTable("wall_flux", "wall;%s", "incident radiative flux (W/m²);%.0f")
	for _, f := range []rmcrt.WallFace{rmcrt.XMinus, rmcrt.YMinus, rmcrt.ZMinus} {
		q, err := d.SolveWallFlux(context.Background(), f, &opts)
		if err != nil {
			return nil, err
		}
		flux.add(f.String(), q)
	}
	return tableSet{hist, flux}, nil
}

// runProduction runs the full coupled pipeline at laptop scale: the
// multi-patch energy equation and GPU multi-level RMCRT radiation (every
// 5 steps, 16 rays/cell) through the DAG scheduler on a 32³/8³ AMR grid
// for 20 steps, with UDA output when -uda names a directory.
func runProduction(o options) (record, error) {
	cfg := production.DefaultConfig()
	cfg.Steps = 20
	if o.uda != "" {
		arch, err := uda.Create(o.uda, "production run")
		if err != nil {
			return nil, err
		}
		cfg.Archive = arch
		cfg.ArchiveEvery = cfg.RadPeriod
	}
	res, err := production.Run(cfg)
	if err != nil {
		return nil, err
	}
	hist := newTable("history", "step;%d", "Tmean (K);%.2f", "Tmax (K);%.2f", "tasks;%d", "radiation;%v")
	for _, h := range res.History {
		hist.add(h.Step, h.MeanTemp, h.MaxTemp, h.TasksRun, h.Radiation)
	}
	sum := newTable("summary", "radiation solves;%d", "peak device memory (B);%d", "archived timesteps;%v")
	sum.Varies = true
	var archived []int
	if cfg.Archive != nil {
		archived = cfg.Archive.Timesteps()
	}
	sum.add(res.RadSolves, res.DevicePeakMem, archived)
	return tableSet{hist, sum}, nil
}
