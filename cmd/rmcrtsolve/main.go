// Command rmcrtsolve runs a real RMCRT radiation solve of the Burns &
// Christon benchmark at laptop scale — single-level or the paper's
// 2-level AMR configuration — and prints the divergence of the heat
// flux along the domain centerline plus the incident wall flux.
//
// Usage:
//
//	rmcrtsolve                        # 41³ single level, 100 rays/cell
//	rmcrtsolve -n 64 -rays 256        # finer, more rays
//	rmcrtsolve -levels 2 -patch 16    # 2-level AMR (RR 4), per-patch ROI
//	rmcrtsolve -dom                   # also run the DOM baseline
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/uintah-repro/rmcrt/internal/dom"
	"github.com/uintah-repro/rmcrt/internal/field"
	"github.com/uintah-repro/rmcrt/internal/grid"
	"github.com/uintah-repro/rmcrt/internal/mathutil"
	"github.com/uintah-repro/rmcrt/internal/metrics"
	"github.com/uintah-repro/rmcrt/internal/p1"
	"github.com/uintah-repro/rmcrt/internal/rmcrt"
	"github.com/uintah-repro/rmcrt/internal/uda"
)

func main() {
	n := flag.Int("n", 41, "fine resolution per axis")
	rays := flag.Int("rays", 100, "rays per cell")
	levels := flag.Int("levels", 1, "1 = single fine level, 2 = AMR (coarse radiation level, RR 4)")
	patch := flag.Int("patch", 0, "fine patch edge for -levels 2 (default n/4)")
	halo := flag.Int("halo", 4, "fine region-of-interest halo in cells")
	seed := flag.Uint64("seed", 71, "Monte Carlo seed")
	withDOM := flag.Bool("dom", false, "also solve with the discrete ordinates baseline (S4)")
	withP1 := flag.Bool("p1", false, "also solve with the P1 moment-closure baseline")
	radiometer := flag.Bool("radiometer", false, "read virtual radiometers aimed at the domain center")
	udaDir := flag.String("uda", "", "archive divQ to this UDA directory")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()
	solveFlags = solveOptions{radiometer: *radiometer, udaDir: *udaDir}

	stopProfiles, err := metrics.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	defer stopProfiles()

	opts := rmcrt.DefaultOptions()
	opts.NRays = *rays
	opts.Seed = *seed
	opts.HaloCells = *halo

	switch *levels {
	case 1:
		runSingle(*n, opts, *withDOM, *withP1)
	case 2:
		pn := *patch
		if pn == 0 {
			pn = *n / 4
		}
		runMulti(*n, pn, opts)
	default:
		fmt.Fprintln(os.Stderr, "rmcrtsolve: -levels must be 1 or 2")
		os.Exit(2)
	}
}

func runSingle(n int, opts rmcrt.Options, withDOM, withP1 bool) {
	d, g, err := rmcrt.NewBenchmarkDomain(n)
	if err != nil {
		fatal(err)
	}
	lvl := g.Levels[0]
	fmt.Printf("# Burns & Christon benchmark, single level %d^3, %d rays/cell\n", n, opts.NRays)

	start := time.Now()
	divQ, err := d.SolveRegionCtx(context.Background(), lvl.IndexBox(), &opts)
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)
	fmt.Printf("# solved %d cells, %d rays, %d DDA steps in %v (%.1fM steps/s)\n",
		lvl.NumCells(), d.Rays.Load(), d.Steps.Load(), elapsed.Round(time.Millisecond),
		float64(d.Steps.Load())/elapsed.Seconds()/1e6)

	var domRes *dom.Result
	if withDOM {
		p := &dom.Problem{Level: lvl}
		p.Abskg, p.SigmaT4OverPi, p.CellType = rmcrt.FillBenchmark(lvl, lvl.IndexBox())
		t0 := time.Now()
		domRes, err = dom.Solve(p, dom.S4())
		if err != nil {
			fatal(err)
		}
		fmt.Printf("# DOM S4 baseline: %d sweeps in %v\n", domRes.Sweeps, time.Since(t0).Round(time.Millisecond))
	}

	var p1Res *p1.Result
	if withP1 {
		pp := &p1.Problem{Level: lvl, WallEmissivity: 1}
		pp.Abskg, pp.SigmaT4OverPi, _ = rmcrt.FillBenchmark(lvl, lvl.IndexBox())
		t0 := time.Now()
		p1Res, err = p1.Solve(pp)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("# P1 baseline: %d CG iterations in %v (residual %.1e)\n",
			p1Res.Iterations, time.Since(t0).Round(time.Millisecond), p1Res.Residual)
	}

	header := "#      x      divQ(RMCRT)"
	if withDOM {
		header += "   divQ(DOM S4)"
	}
	if withP1 {
		header += "      divQ(P1)"
	}
	fmt.Println(header)
	mid := n / 2
	for i := 0; i < n; i++ {
		c := grid.IV(i, mid, mid)
		x := lvl.CellCenter(c).X
		fmt.Printf("%8.4f %12.6f", x, divQ.At(c))
		if withDOM {
			fmt.Printf(" %14.6f", domRes.DivQ.At(c))
		}
		if withP1 {
			fmt.Printf(" %13.6f", p1Res.DivQ.At(c))
		}
		fmt.Println()
	}

	for _, f := range []rmcrt.WallFace{rmcrt.XMinus, rmcrt.YMinus, rmcrt.ZMinus} {
		q, err := d.SolveWallFlux(context.Background(), f, &opts)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("# incident wall flux %s center: %.6f W/m^2\n", f, q)
	}

	if solveFlags.radiometer {
		// Wall-mounted virtual radiometers looking inward at the center,
		// 0.2 rad half-angle — the validation instruments of a boiler.
		for _, r := range []rmcrt.Radiometer{
			{Pos: mathutil.V3(0.02, 0.5, 0.5), Dir: mathutil.V3(1, 0, 0), HalfAngle: 0.2},
			{Pos: mathutil.V3(0.5, 0.02, 0.5), Dir: mathutil.V3(0, 1, 0), HalfAngle: 0.2},
			{Pos: mathutil.V3(0.5, 0.5, 0.98), Dir: mathutil.V3(0, 0, -1), HalfAngle: 0.2},
		} {
			rd, err := d.SolveRadiometer(context.Background(), r, &opts)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("# radiometer at %v dir %v: mean intensity %.6f W/m^2/sr, flux %.6f W/m^2\n",
				r.Pos, r.Dir, rd.MeanIntensity, rd.Flux)
		}
	}
	if solveFlags.udaDir != "" {
		arch, err := uda.Create(solveFlags.udaDir, "rmcrtsolve")
		if err != nil {
			fatal(err)
		}
		if err := arch.SaveCC(0, "divQ", 0, divQ); err != nil {
			fatal(err)
		}
		fmt.Printf("# archived divQ to %s\n", solveFlags.udaDir)
	}
}

// solveOptions carries optional output flags into runSingle.
type solveOptions struct {
	radiometer bool
	udaDir     string
}

var solveFlags solveOptions

func runMulti(fineN, patchN int, opts rmcrt.Options) {
	const rr = 4
	g, mk, err := rmcrt.NewMultiLevelBenchmark(fineN, patchN, rr, opts.HaloCells)
	if err != nil {
		fatal(err)
	}
	fine := g.Levels[1]
	fmt.Printf("# Burns & Christon 2-level AMR: fine %d^3 (patches %d^3), coarse %d^3, RR %d, halo %d, %d rays/cell\n",
		fineN, patchN, fineN/rr, rr, opts.HaloCells, opts.NRays)
	fmt.Printf("# %d fine patches, %d total cells\n", len(fine.Patches), g.TotalCells())

	start := time.Now()
	divQ := field.NewCC[float64](fine.IndexBox())
	var steps, raysTraced int64
	for _, p := range fine.Patches {
		d, err := mk(p)
		if err != nil {
			fatal(err)
		}
		out, err := d.SolveRegionCtx(context.Background(), p.Cells, &opts)
		if err != nil {
			fatal(err)
		}
		divQ.CopyRegion(out, p.Cells)
		steps += d.Steps.Load()
		raysTraced += d.Rays.Load()
	}
	elapsed := time.Since(start)
	fmt.Printf("# solved %d cells, %d rays, %d steps in %v (%.1fM steps/s)\n",
		fine.NumCells(), raysTraced, steps, elapsed.Round(time.Millisecond),
		float64(steps)/elapsed.Seconds()/1e6)

	fmt.Println("#      x      divQ")
	mid := fineN / 2
	for i := 0; i < fineN; i++ {
		c := grid.IV(i, mid, mid)
		fmt.Printf("%8.4f %12.6f\n", fine.CellCenter(c).X, divQ.At(c))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rmcrtsolve:", err)
	os.Exit(1)
}
