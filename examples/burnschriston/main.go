// Burnschriston: the accuracy study behind the paper's §III.C claim
// that the single-level RMCRT "examines the accuracy of the computed
// divergence of the heat flux and shows expected Monte Carlo
// convergence".
//
// The example solves the Burns & Christon benchmark at increasing ray
// counts against a high-ray-count reference, fits the error decay, and
// compares RMCRT with the discrete ordinates (DOM) baseline it
// displaced.
//
//	go run ./examples/burnschriston
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"time"

	rmcrt "github.com/uintah-repro/rmcrt"
)

func main() {
	const n = 25
	dom, g, err := rmcrt.NewBenchmarkDomain(n)
	if err != nil {
		log.Fatal(err)
	}
	lvl := g.Levels[0]
	mid := n / 2
	line := rmcrt.Box{Lo: rmcrt.IV(0, mid, mid), Hi: rmcrt.IV(n, mid+1, mid+1)}

	// Reference: 8192 rays/cell on the centerline, independent seed.
	ref := rmcrt.DefaultOptions()
	ref.NRays = 8192
	ref.Seed = 12345
	refV, err := dom.SolveRegionCtx(context.Background(), line, &ref)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Burns & Christon %d^3 — Monte Carlo convergence on the centerline\n\n", n)
	fmt.Println("  rays    L2 error   L2*sqrt(N)   (constant => error ~ N^-1/2)")
	var ns, errs []float64
	for _, nr := range []int{16, 32, 64, 128, 256, 512, 1024} {
		o := rmcrt.DefaultOptions()
		o.NRays = nr
		v, err := dom.SolveRegionCtx(context.Background(), line, &o)
		if err != nil {
			log.Fatal(err)
		}
		var sq float64
		cells := 0
		line.ForEach(func(c rmcrt.IntVector) {
			d := v.At(c) - refV.At(c)
			sq += d * d
			cells++
		})
		l2 := math.Sqrt(sq / float64(cells))
		ns = append(ns, float64(nr))
		errs = append(errs, l2)
		fmt.Printf("%6d  %10.5f  %10.4f\n", nr, l2, l2*math.Sqrt(float64(nr)))
	}
	p := fitExponent(ns, errs)
	fmt.Printf("\n  fitted error ~ N^%.2f (Monte Carlo expects -0.50)\n\n", p)

	// DOM baseline comparison at the domain center.
	prob := &rmcrt.DOMProblem{Level: lvl}
	prob.Abskg, prob.SigmaT4OverPi, prob.CellType = rmcrt.FillBenchmark(lvl, lvl.IndexBox())
	quad, err := rmcrt.Tn(4)
	if err != nil {
		log.Fatal(err)
	}
	t0 := time.Now()
	res, err := rmcrt.SolveDOM(prob, quad)
	if err != nil {
		log.Fatal(err)
	}
	tDOM := time.Since(t0)

	center := rmcrt.IV(mid, mid, mid)
	fmt.Printf("center-cell divQ:  RMCRT(8192 rays) = %.4f,  DOM %s (%d ordinates, %v) = %.4f\n",
		refV.At(center), quad.Name, quad.NumOrdinates(), tDOM.Round(time.Millisecond), res.DivQ.At(center))
	fmt.Printf("relative difference: %.2f%%\n",
		100*math.Abs(res.DivQ.At(center)-refV.At(center))/refV.At(center))
	fmt.Println("\nDOM solves one upwind sweep per ordinate per radiation solve (the")
	fmt.Println("sparse-solve cost the paper cites); RMCRT's rays are embarrassingly")
	fmt.Println("parallel and carry no angular discretization error.")
}

// fitExponent fits err ~ c*N^p by least squares in log space.
func fitExponent(ns, errs []float64) float64 {
	var sx, sy, sxx, sxy float64
	n := 0
	for i := range ns {
		if errs[i] <= 0 {
			continue
		}
		x, y := math.Log(ns[i]), math.Log(errs[i])
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
		n++
	}
	fn := float64(n)
	return (fn*sxy - sx*sy) / (fn*sxx - sx*sx)
}
