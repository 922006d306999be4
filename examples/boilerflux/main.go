// Boilerflux: the deliverable of the CCMSC target calculation — "the
// heat flux to the surrounding walls" of a boiler. Builds the synthetic
// oxy-coal boiler geometry (hot sooty flame core, tube banks in the
// convective section), solves the incident radiative flux map over each
// wall with backward ray tracing, prints an ASCII rendering of the hot
// side, and writes the divQ field to a UDA-style archive.
//
//	go run ./examples/boilerflux
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	rmcrt "github.com/uintah-repro/rmcrt"
	"github.com/uintah-repro/rmcrt/internal/uda"
)

func main() {
	const n = 24
	spec := rmcrt.DefaultBoiler()
	dom, g, opts, err := rmcrt.NewBoilerDomain(spec, n)
	if err != nil {
		log.Fatal(err)
	}
	opts.NRays = 48
	lvl := g.Levels[0]

	fmt.Printf("boiler %d^3: flame %gK core, walls %gK, %d tube banks\n\n",
		n, spec.FlameTemp, spec.WallTemp, spec.TubeBanks)

	// Flux maps over all six walls.
	fmt.Println("incident radiative flux (kW/m^2), wall averages:")
	var side *rmcrt.FluxMap
	for _, f := range []rmcrt.WallFace{rmcrt.XMinus, rmcrt.XPlus, rmcrt.YMinus,
		rmcrt.YPlus, rmcrt.ZMinus, rmcrt.ZPlus} {
		fm, err := dom.SolveWallFluxMap(context.Background(), f, &opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  wall %-3s mean %8.1f   peak %8.1f\n", f, fm.Mean()/1e3, fm.Max()/1e3)
		if f == rmcrt.XMinus {
			side = fm
		}
	}

	// ASCII rendering of the x- wall (axes: y across, z up): the flame
	// core should glow low in the furnace.
	fmt.Println("\nx- wall flux map (z up, y across; . < * < # by flux):")
	lo, hi := side.Q[0], side.Q[0]
	for _, q := range side.Q {
		if q < lo {
			lo = q
		}
		if q > hi {
			hi = q
		}
	}
	for v := side.NV - 1; v >= 0; v-- { // z from top
		fmt.Print("  ")
		for u := 0; u < side.NU; u++ { // y across
			q := (side.At(u, v) - lo) / (hi - lo + 1e-300)
			switch {
			case q > 0.75:
				fmt.Print("#")
			case q > 0.4:
				fmt.Print("*")
			case q > 0.15:
				fmt.Print("+")
			default:
				fmt.Print(".")
			}
		}
		fmt.Println()
	}

	// Solve divQ over the interior and archive it UDA-style.
	divQ, err := dom.SolveRegionCtx(context.Background(), lvl.IndexBox(), &opts)
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "boiler-uda-*")
	if err != nil {
		log.Fatal(err)
	}
	arch, err := uda.Create(dir, "mini boiler")
	if err != nil {
		log.Fatal(err)
	}
	if err := arch.SaveCC(0, "divQ", 0, divQ); err != nil {
		log.Fatal(err)
	}
	back, err := arch.LoadCC(0, "divQ", 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\narchived divQ to %s (round-trip check: center %.1f == %.1f kW/m^3)\n",
		dir, divQ.At(rmcrt.IV(n/2, n/2, n/4))/1e3, back.At(rmcrt.IV(n/2, n/2, n/4))/1e3)
}
