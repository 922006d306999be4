// Command boiler is a miniature of the CCMSC target calculation: hot
// reacting gas in a cold-walled enclosure, integrated by the
// mini-ARCHES energy equation with the RMCRT radiation model supplying
// −∇·q_r on its own (loosely-coupled) schedule. It prints the
// temperature history and the wall heat flux — "a critical quantity of
// interest for all boiler simulations".
//
// Usage:
//
//	boiler                      # 24³ enclosure, 60 timesteps
//	boiler -n 32 -steps 100 -rays 64
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"

	"github.com/uintah-repro/rmcrt/internal/arches"
	"github.com/uintah-repro/rmcrt/internal/field"
	"github.com/uintah-repro/rmcrt/internal/grid"
	"github.com/uintah-repro/rmcrt/internal/mathutil"
	"github.com/uintah-repro/rmcrt/internal/rmcrt"
)

func main() {
	n := flag.Int("n", 24, "resolution per axis")
	steps := flag.Int("steps", 60, "timesteps")
	rays := flag.Int("rays", 48, "rays per cell for the radiation solves")
	radPeriod := flag.Int("radperiod", 5, "radiation solve period (timesteps)")
	flameTemp := flag.Float64("flame", 1800, "initial hot-core temperature (K)")
	wallTemp := flag.Float64("wall", 400, "wall temperature (K)")
	flag.Parse()

	g, err := grid.New(mathutil.V3(0, 0, 0), mathutil.V3(1, 1, 1),
		grid.Spec{Resolution: grid.Uniform(*n), PatchSize: grid.Uniform(*n)})
	if err != nil {
		fatal(err)
	}
	lvl := g.Levels[0]

	// Absorption coefficient: sootier (more absorbing) in the core.
	abskg := field.NewCC[float64](lvl.IndexBox())
	abskg.FillFunc(func(c grid.IntVector) float64 {
		p := lvl.CellCenter(c)
		r := p.Sub(mathutil.V3(0.5, 0.5, 0.5)).Length()
		return 0.4 + 1.6*math.Exp(-8*r*r)
	})

	cfg := arches.DefaultConfig()
	cfg.WallTemp = *wallTemp
	cfg.RadPeriod = *radPeriod
	cfg.Radiation.NRays = *rays
	cfg.HeatSource = 2e4 // steady reaction heat in the core

	// Initial condition: a hot gaussian core over warm surroundings.
	solver, err := arches.NewSolver(cfg, lvl, func(x, y, z float64) float64 {
		dx, dy, dz := x-0.5, y-0.5, z-0.5
		r2 := dx*dx + dy*dy + dz*dz
		return *wallTemp + (*flameTemp-*wallTemp)*math.Exp(-10*r2)
	}, abskg)
	if err != nil {
		fatal(err)
	}

	dt := solver.StableDt()
	if dt > 2e-3 {
		dt = 2e-3 // keep radiative cooling resolved
	}
	fmt.Printf("# mini-boiler: %d^3 cells, dt=%.2e s, radiation every %d steps, %d rays/cell\n",
		*n, dt, *radPeriod, *rays)
	fmt.Println("#  step   time(s)     Tmean(K)     Tmax(K)   radSolves")

	for i := 0; i <= *steps; i++ {
		if i%5 == 0 {
			_, hi := solver.Bounds()
			fmt.Printf("%6d %9.4f %12.2f %11.2f %11d\n",
				i, float64(i)*dt, solver.MeanTemp(), hi, solver.RadSolves)
		}
		if i == *steps {
			break
		}
		if err := solver.Advance(dt); err != nil {
			fatal(err)
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
		Level: lvl, ROI: lvl.IndexBox(),
		Abskg: abskg, SigmaT4OverPi: sig, CellType: ct,
	}}}
	opts := rmcrt.DefaultOptions()
	opts.NRays = 4 * *rays
	opts.WallSigmaT4 = rmcrt.SigmaSB * math.Pow(*wallTemp, 4)
	for _, f := range []rmcrt.WallFace{rmcrt.XMinus, rmcrt.YMinus, rmcrt.ZMinus} {
		q, err := d.SolveWallFlux(context.Background(), f, &opts)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("# incident radiative flux at wall %s: %.0f W/m^2\n", f, q)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "boiler:", err)
	os.Exit(1)
}
