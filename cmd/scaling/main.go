// Command scaling regenerates the paper's strong-scaling studies
// (Figures 2 and 3) and Table I by executing the per-timestep schedule
// of the GPU multi-level RMCRT algorithm against the Titan machine
// model.
//
// Usage:
//
//	scaling -problem medium          # Figure 2: 256³/64³, 16..1024 GPUs
//	scaling -problem large           # Figure 3: 512³/128³, 256..16384 GPUs
//	scaling -table1                  # Table I / Figure 1
//	scaling -problem large -csv      # machine-readable series
//	scaling -problem large -json     # structured output (series + efficiencies)
//	scaling -problem large -legacy   # pre-improvement infrastructure
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"github.com/uintah-repro/rmcrt/internal/metrics"
	"github.com/uintah-repro/rmcrt/internal/perfmodel"
	"github.com/uintah-repro/rmcrt/internal/sim"
)

// jsonPoint, jsonSeries, and jsonReport shape the -json output. The
// field names mirror the -csv column headers so the two machine-readable
// modes agree.
type jsonPoint struct {
	GPUs          int     `json:"gpus"`
	PatchesPerGPU int     `json:"patches_per_gpu"`
	CommSeconds   float64 `json:"comm_s"`
	GPUSeconds    float64 `json:"gpu_s"`
	TotalSeconds  float64 `json:"total_s"`
}

type jsonSeries struct {
	PatchN int         `json:"patch"`
	Points []jsonPoint `json:"points"`
}

type jsonReport struct {
	Problem      string             `json:"problem"`
	Rays         int                `json:"rays"`
	WaitFreePool bool               `json:"wait_free_pool"`
	CPU          bool               `json:"cpu"`
	Series       []jsonSeries       `json:"series"`
	Efficiency   map[string]float64 `json:"efficiency,omitempty"`
}

func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fmt.Fprintln(os.Stderr, "scaling:", err)
		os.Exit(1)
	}
}

// patchSizes are the patch configurations every study sweeps (the three
// curves of Figures 2 and 3).
var patchSizes = []int{16, 32, 64}

// problemSpec maps a -problem name to its problem factory and GPU
// counts.
func problemSpec(problem string) (func(int) perfmodel.Problem, []int, error) {
	switch problem {
	case "medium":
		return perfmodel.Medium, sim.PowersOf2(16, 1024), nil
	case "large":
		return perfmodel.Large, sim.PowersOf2(256, 16384), nil
	}
	return nil, nil, fmt.Errorf("unknown problem %q (want medium or large)", problem)
}

// computeSeries runs the strong-scaling study for every patch size.
func computeSeries(mk func(int) perfmodel.Problem, counts []int, rays int, cfg sim.Config) (map[int]sim.Series, error) {
	series := make(map[int]sim.Series, len(patchSizes))
	for _, pn := range patchSizes {
		p := mk(pn)
		p.Rays = rays
		s, err := sim.StrongScaling(cfg, p, counts)
		if err != nil {
			return nil, err
		}
		series[pn] = s
	}
	return series, nil
}

// shapeReport turns computed series into the -json report structure.
func shapeReport(problem string, rays int, cfg sim.Config, series map[int]sim.Series) *jsonReport {
	rep := &jsonReport{
		Problem:      problem,
		Rays:         rays,
		WaitFreePool: cfg.WaitFreePool,
		CPU:          cfg.CPU,
	}
	for _, pn := range patchSizes {
		js := jsonSeries{PatchN: pn}
		for _, pt := range series[pn].Points {
			js.Points = append(js.Points, jsonPoint{
				GPUs:          pt.GPUs,
				PatchesPerGPU: pt.PatchesPerGPU,
				CommSeconds:   pt.CommSeconds,
				GPUSeconds:    pt.GPUSeconds,
				TotalSeconds:  pt.TotalSeconds,
			})
		}
		rep.Series = append(rep.Series, js)
	}
	// Strong-scaling efficiencies from the first point of each series,
	// plus the paper's headline 4096-base pairs when the large study
	// covers them.
	rep.Efficiency = map[string]float64{}
	for _, pn := range patchSizes {
		pts := series[pn].Points
		if len(pts) >= 2 {
			key := fmt.Sprintf("patch%d_%d_to_%d", pn, pts[0].GPUs, pts[len(pts)-1].GPUs)
			rep.Efficiency[key] = sim.Efficiency(pts[0], pts[len(pts)-1])
		}
	}
	if problem == "large" {
		pts := map[int]*sim.Point{}
		s := series[16]
		for i := range s.Points {
			pts[s.Points[i].GPUs] = &s.Points[i]
		}
		if pts[4096] != nil && pts[8192] != nil && pts[16384] != nil {
			rep.Efficiency["patch16_4096_to_8192"] = sim.Efficiency(*pts[4096], *pts[8192])
			rep.Efficiency["patch16_4096_to_16384"] = sim.Efficiency(*pts[4096], *pts[16384])
		}
	}
	return rep
}

// buildReport is the whole -json pipeline in one call — what the golden
// test locks down. The machine model is fully deterministic (modeled
// costs, no wall clock), so the report is bit-stable across runs.
func buildReport(problem string, rays int, cfg sim.Config) (*jsonReport, error) {
	mk, counts, err := problemSpec(problem)
	if err != nil {
		return nil, err
	}
	series, err := computeSeries(mk, counts, rays, cfg)
	if err != nil {
		return nil, err
	}
	return shapeReport(problem, rays, cfg, series), nil
}

func main() {
	problem := flag.String("problem", "large", "benchmark size: medium (Fig 2) or large (Fig 3)")
	table1 := flag.Bool("table1", false, "regenerate Table I / Figure 1 instead of a scaling study")
	csv := flag.Bool("csv", false, "emit CSV instead of a human-readable table")
	jsonOut := flag.Bool("json", false, "emit structured JSON instead of a table")
	legacy := flag.Bool("legacy", false, "use the pre-improvement (mutex+Testsome) communication layer")
	cpu := flag.Bool("cpu", false, "run the CPU implementation (the predecessor result of [5])")
	ablation := flag.Bool("ablation", false, "print the occupancy/halo ablations instead of a scaling study")
	rays := flag.Int("rays", 100, "rays per cell")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	stopProfiles, err := metrics.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scaling:", err)
		os.Exit(1)
	}
	defer stopProfiles()

	if *table1 {
		printTableI(*csv, *jsonOut)
		return
	}
	if *ablation {
		printAblation()
		return
	}

	cfg := sim.DefaultConfig()
	cfg.WaitFreePool = !*legacy
	cfg.CPU = *cpu
	if *cpu && !*jsonOut {
		fmt.Println("# CPU implementation (16 Opteron cores per node, no GPU)")
	}

	mk, counts, err := problemSpec(*problem)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if !*jsonOut {
		switch *problem {
		case "medium":
			fmt.Println("# Figure 2 — MEDIUM 2-level benchmark: fine 256^3, coarse 64^3, RR 4,",
				*rays, "rays/cell")
		case "large":
			fmt.Println("# Figure 3 — LARGE 2-level benchmark: fine 512^3, coarse 128^3, RR 4,",
				*rays, "rays/cell")
		}
	}

	series, err := computeSeries(mk, counts, *rays, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scaling:", err)
		os.Exit(1)
	}

	if *jsonOut {
		emitJSON(shapeReport(*problem, *rays, cfg, series))
		return
	}

	if *csv {
		fmt.Println("gpus,patch,patches_per_gpu,comm_s,gpu_s,total_s")
		for _, pn := range patchSizes {
			for _, pt := range series[pn].Points {
				fmt.Printf("%d,%d,%d,%.4f,%.4f,%.4f\n",
					pt.GPUs, pn, pt.PatchesPerGPU, pt.CommSeconds, pt.GPUSeconds, pt.TotalSeconds)
			}
		}
		return
	}

	fmt.Printf("%8s", "GPUs")
	for _, pn := range patchSizes {
		fmt.Printf("  %10s", fmt.Sprintf("%d^3 (s)", pn))
	}
	fmt.Println()
	for i, g := range counts {
		fmt.Printf("%8d", g)
		for _, pn := range patchSizes {
			fmt.Printf("  %10.2f", series[pn].Points[i].TotalSeconds)
		}
		fmt.Println()
	}

	// The paper's headline efficiencies for the large problem.
	if *problem == "large" {
		s := series[16]
		var p4k, p8k, p16k *sim.Point
		for i := range s.Points {
			switch s.Points[i].GPUs {
			case 4096:
				p4k = &s.Points[i]
			case 8192:
				p8k = &s.Points[i]
			case 16384:
				p16k = &s.Points[i]
			}
		}
		if p4k != nil && p8k != nil && p16k != nil {
			fmt.Printf("\n16^3 patches: efficiency 4096->8192 GPUs = %.0f%% (paper: 96%%), "+
				"4096->16384 GPUs = %.0f%% (paper: 89%%)\n",
				100*sim.Efficiency(*p4k, *p8k), 100*sim.Efficiency(*p4k, *p16k))
		}
	}
}

// printAblation reports the design-choice sensitivities DESIGN.md calls
// out: GPU occupancy vs patch size, and the communication volume of the
// halo and refinement-ratio knobs.
func printAblation() {
	m := perfmodel.Titan()
	fmt.Println("# Ablation 1 — GPU occupancy vs patch size (why larger patches win at low GPU counts)")
	fmt.Printf("%10s %14s %16s\n", "patch", "cells/kernel", "GPU efficiency")
	for _, pn := range []int{8, 16, 32, 64} {
		cells := pn * pn * pn
		fmt.Printf("%7d^3 %14d %15.0f%%\n", pn, cells, 100*m.GPUEfficiency(cells))
	}

	fmt.Println("\n# Ablation 2 — per-patch data volume vs halo width (LARGE, 16^3 patches)")
	fmt.Printf("%10s %18s\n", "halo", "fine window (B)")
	for _, halo := range []int{0, 2, 4, 8} {
		p := perfmodel.Large(16)
		p.Halo = halo
		fmt.Printf("%10d %18d\n", halo, p.FineWindowBytes())
	}

	fmt.Println("\n# Ablation 3 — replicated coarse copy vs refinement ratio (512^3 fine)")
	fmt.Printf("%10s %12s %20s\n", "RR", "coarse", "replica bytes x3 props")
	for _, rr := range []int{2, 4, 8} {
		cn := 512 / rr
		bytes := int64(cn) * int64(cn) * int64(cn) * 8 * 3
		fmt.Printf("%10d %9d^3 %20d\n", rr, cn, bytes)
	}

	fmt.Println("\n# Ablation 4 — communication layer (LARGE CPU config, per-node local time)")
	p := perfmodel.Large(8)
	fmt.Printf("%10s %14s %14s %10s\n", "nodes", "legacy (s)", "wait-free (s)", "speedup")
	for _, n := range []int{512, 4096, 16384} {
		est := p.CoarseGather(n).Total(p.HaloExchange(n))
		b := perfmodel.LegacyCost(m.CoresPerNode).LocalTime(est)
		a := perfmodel.WaitFreeCost(m.CoresPerNode).LocalTime(est)
		fmt.Printf("%10d %14.2f %14.2f %9.2fx\n", n, b, a, b/a)
	}
}

func printTableI(csv, jsonOut bool) {
	nodes := []int{512, 1024, 2048, 4096, 8192, 16384}
	rows := sim.TableI(perfmodel.Titan(), nodes)
	if jsonOut {
		type jsonRow struct {
			Nodes   int     `json:"nodes"`
			Before  float64 `json:"before_s"`
			After   float64 `json:"after_s"`
			Speedup float64 `json:"speedup"`
		}
		out := struct {
			Rows []jsonRow `json:"table1"`
		}{}
		for _, r := range rows {
			out.Rows = append(out.Rows, jsonRow{r.Nodes, r.Before, r.After, r.Speedup})
		}
		emitJSON(out)
		return
	}
	if csv {
		fmt.Println("nodes,before_s,after_s,speedup")
		for _, r := range rows {
			fmt.Printf("%d,%.2f,%.2f,%.2f\n", r.Nodes, r.Before, r.After, r.Speedup)
		}
		return
	}
	fmt.Println("# Table I / Figure 1 — local communication time before/after the")
	fmt.Println("# infrastructure improvements (LARGE CPU benchmark, 262k patches)")
	fmt.Printf("%-16s", "#Nodes")
	for _, r := range rows {
		fmt.Printf("%8d", r.Nodes)
	}
	fmt.Printf("\n%-16s", "Time (s) before")
	for _, r := range rows {
		fmt.Printf("%8.2f", r.Before)
	}
	fmt.Printf("\n%-16s", "Time (s) after")
	for _, r := range rows {
		fmt.Printf("%8.2f", r.After)
	}
	fmt.Printf("\n%-16s", "Speedup (X)")
	for _, r := range rows {
		fmt.Printf("%8.2f", r.Speedup)
	}
	fmt.Println()
	fmt.Println("# paper:          512    1024    2048    4096    8192   16384")
	fmt.Println("# before (s)     6.25    2.68    1.26    0.89    0.79    0.73")
	fmt.Println("# after  (s)     1.42    1.18    0.54    0.36    0.30    0.23")
	fmt.Println("# speedup        4.40    2.27    2.33    2.47    2.63    3.17")
}
