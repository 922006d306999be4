// Quickstart: the smallest possible RMCRT solve through the public API.
//
// It builds the Burns & Christon benchmark (a unit cube of hot
// participating gas inside cold black walls) on a single 25³ mesh,
// computes the divergence of the radiative heat flux in every cell with
// 64 rays per cell, and prints the centerline profile.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	rmcrt "github.com/uintah-repro/rmcrt"
)

func main() {
	const n = 25

	// A ready-made benchmark domain: κ peaked at the center, uniform
	// σT⁴ = 1, cold black walls.
	dom, g, err := rmcrt.NewBenchmarkDomain(n)
	if err != nil {
		log.Fatal(err)
	}
	lvl := g.Levels[0]

	opts := rmcrt.DefaultOptions()
	opts.NRays = 64

	divQ, err := dom.SolveRegionCtx(context.Background(), lvl.IndexBox(), &opts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Burns & Christon benchmark, %d^3 cells, %d rays/cell\n", n, opts.NRays)
	fmt.Printf("traced %d rays over %d DDA steps\n\n", dom.Rays.Load(), dom.Steps.Load())
	fmt.Println("     x      divQ  (W/m^3, centerline y=z=0.5)")
	mid := n / 2
	for i := 0; i < n; i++ {
		c := rmcrt.IV(i, mid, mid)
		fmt.Printf("%6.3f  %8.4f\n", lvl.CellCenter(c).X, divQ.At(c))
	}

	// The medium is a net emitter everywhere with cold walls, strongest
	// where κ peaks (the center).
	center := divQ.At(rmcrt.IV(mid, mid, mid))
	corner := divQ.At(rmcrt.IV(0, 0, 0))
	fmt.Printf("\ncenter divQ = %.4f, corner divQ = %.4f (center/corner = %.1fx)\n",
		center, corner, center/corner)
}
