// Multilevel: the paper's 2-level AMR RMCRT configuration at laptop
// scale, showing what the mesh-refinement scheme buys.
//
// Rays from each fine patch march the *fine* mesh only inside the
// patch's region of interest (patch + halo) and a 4× coarser mesh
// everywhere else. The example solves the same benchmark both ways —
// single fine level vs. 2-level — and reports the accuracy of the AMR
// answer against the single-level one along with the data-volume
// savings that make the paper's communication scalable.
//
//	go run ./examples/multilevel
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	rmcrt "github.com/uintah-repro/rmcrt"
)

func main() {
	const (
		fineN  = 48
		patchN = 16
		rr     = 4
		halo   = 4
		rays   = 64
	)

	opts := rmcrt.DefaultOptions()
	opts.NRays = rays
	opts.HaloCells = halo

	// --- Single fine level (the pre-AMR design) ----------------------
	single, gs, err := rmcrt.NewBenchmarkDomain(fineN)
	if err != nil {
		log.Fatal(err)
	}
	fineLvl := gs.Levels[0]
	t0 := time.Now()
	ref, err := single.SolveRegionCtx(context.Background(), fineLvl.IndexBox(), &opts)
	if err != nil {
		log.Fatal(err)
	}
	tSingle := time.Since(t0)

	// --- 2-level AMR (the paper's design) -----------------------------
	g, mkDomain, err := rmcrt.NewMultiLevelBenchmark(fineN, patchN, rr, halo)
	if err != nil {
		log.Fatal(err)
	}
	fine := g.Levels[1]
	t0 = time.Now()
	var worst, sum float64
	var cells int
	var mlSteps int64
	for _, p := range fine.Patches {
		dom, err := mkDomain(p)
		if err != nil {
			log.Fatal(err)
		}
		out, err := dom.SolveRegionCtx(context.Background(), p.Cells, &opts)
		if err != nil {
			log.Fatal(err)
		}
		mlSteps += dom.Steps.Load()
		p.Cells.ForEach(func(c rmcrt.IntVector) {
			rel := relErr(out.At(c), ref.At(c))
			sum += rel
			cells++
			if rel > worst {
				worst = rel
			}
		})
	}
	tMulti := time.Since(t0)

	fmt.Printf("2-level AMR RMCRT vs single fine level (%d^3, %d rays/cell)\n", fineN, rays)
	fmt.Printf("  fine patches: %d of %d^3 cells, coarse level %d^3 (RR %d), halo %d\n\n",
		len(fine.Patches), patchN, fineN/rr, rr, halo)
	fmt.Printf("  accuracy: mean |rel diff| = %.3f%%, worst = %.2f%%\n",
		100*sum/float64(cells), 100*worst)
	fmt.Printf("  wall time: single %v, 2-level %v\n\n", tSingle.Round(time.Millisecond), tMulti.Round(time.Millisecond))
	_ = mlSteps

	// What each node must hold / receive for local tracing:
	fineBytes := int64(fineN*fineN*fineN) * 8 * 3
	coarseN := fineN / rr
	coarseBytes := int64(coarseN*coarseN*coarseN) * 8 * 3
	windowBytes := int64((patchN+2*halo)*(patchN+2*halo)*(patchN+2*halo)) * 8 * 3
	fmt.Printf("  single-level replication per node: %10d bytes (whole fine level x 3 props)\n", fineBytes)
	fmt.Printf("  2-level data per patch:            %10d bytes (coarse copy + fine window)\n", coarseBytes+windowBytes)
	fmt.Printf("  reduction: %.0fx — this is what makes the all-to-all scale (paper SIII)\n",
		float64(fineBytes)/float64(coarseBytes+windowBytes))
}

func relErr(a, b float64) float64 {
	d := b
	if d < 0 {
		d = -d
	}
	if d < 1e-12 {
		d = 1e-12
	}
	e := a - b
	if e < 0 {
		e = -e
	}
	return e / d
}
