package main

import (
	"context"
	"math"
	"strings"
	"time"

	"github.com/uintah-repro/rmcrt/internal/dom"
	"github.com/uintah-repro/rmcrt/internal/dw"
	"github.com/uintah-repro/rmcrt/internal/gpu"
	"github.com/uintah-repro/rmcrt/internal/gpudw"
	"github.com/uintah-repro/rmcrt/internal/grid"
	"github.com/uintah-repro/rmcrt/internal/mathutil"
	"github.com/uintah-repro/rmcrt/internal/rmcrt"
	"github.com/uintah-repro/rmcrt/internal/sched"
	"github.com/uintah-repro/rmcrt/internal/simmpi"
)

// runAccuracy is the study behind §III.C's claim of "expected Monte
// Carlo convergence": the Burns & Christon benchmark (25³) on its
// centreline at increasing ray counts against an 8192-ray reference
// with an independent seed, the fitted error decay, and the discrete
// ordinates (DOM) baseline RMCRT displaced.
func runAccuracy(options) (record, error) {
	ctx := context.Background()
	const n, mid = 25, 25 / 2
	d, g, err := rmcrt.NewBenchmarkDomain(n)
	if err != nil {
		return nil, err
	}
	line := grid.Box{Lo: grid.IV(0, mid, mid), Hi: grid.IV(n, mid+1, mid+1)}
	ref := rmcrt.DefaultOptions()
	ref.NRays = 8192
	ref.Seed = 12345
	refV, err := d.SolveRegionCtx(ctx, line, &ref)
	if err != nil {
		return nil, err
	}
	conv := newTable("convergence", "rays;%d", "L2 error;%.5f", "L2·√N;%.4f")
	var ns, errs []float64
	for _, nr := range []int{16, 32, 64, 128, 256, 512, 1024} {
		o := rmcrt.DefaultOptions()
		o.NRays = nr
		v, err := d.SolveRegionCtx(ctx, line, &o)
		if err != nil {
			return nil, err
		}
		var diff []float64
		line.ForEach(func(c grid.IntVector) { diff = append(diff, v.At(c)-refV.At(c)) })
		l2 := mathutil.L2Norm(diff)
		ns, errs = append(ns, float64(nr)), append(errs, l2)
		conv.add(nr, l2, l2*math.Sqrt(float64(nr)))
	}
	_, exp := mathutil.FitPowerLaw(ns, errs)

	lvl := g.Levels[0]
	prob := &dom.Problem{Level: lvl}
	prob.Abskg, prob.SigmaT4OverPi, prob.CellType = rmcrt.FillBenchmark(lvl, lvl.IndexBox())
	quad, err := dom.Tn(4)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	res, err := dom.Solve(prob, quad)
	if err != nil {
		return nil, err
	}
	domTime := newTable("dom_time", "DOM wall time (ms);%.0f")
	domTime.Varies = true
	domTime.add(1e3 * time.Since(t0).Seconds())

	centre := grid.IV(mid, mid, mid)
	rm, dm := refV.At(centre), res.DivQ.At(centre)
	cmp := newTable("centre", "fitted exponent;%.2f", "RMCRT centre (8192 rays);%.4f", "DOM quadrature;%s",
		"ordinates;%d", "DOM centre;%.4f", "relative difference;%.2f%%")
	cmp.add(exp, rm, quad.Name, quad.NumOrdinates(), dm, 100*math.Abs(dm-rm)/rm)
	return tableSet{conv, cmp, domTime}, nil
}

// runMultilevel solves the benchmark (48³, 64 rays/cell) on a single
// fine level and on the paper's 2-level AMR layout (16³ patches, RR 4,
// halo 4), and reports the AMR answer's deviation and the data volume
// each design must hold or receive per node for local tracing.
func runMultilevel(options) (record, error) {
	const fineN, patchN, rr, halo = 48, 16, 4, 4
	ctx := context.Background()
	opts := rmcrt.DefaultOptions()
	opts.NRays = 64
	opts.HaloCells = halo

	single, gs, err := rmcrt.NewBenchmarkDomain(fineN)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	ref, err := single.SolveRegionCtx(ctx, gs.Levels[0].IndexBox(), &opts)
	if err != nil {
		return nil, err
	}
	tSingle := time.Since(t0)

	g, mkDomain, err := rmcrt.NewMultiLevelBenchmark(fineN, patchN, rr, halo)
	if err != nil {
		return nil, err
	}
	fine := g.Levels[1]
	t0 = time.Now()
	var worst, sum float64
	var cells int
	for _, p := range fine.Patches {
		d, err := mkDomain(p)
		if err != nil {
			return nil, err
		}
		out, err := d.SolveRegionCtx(ctx, p.Cells, &opts)
		if err != nil {
			return nil, err
		}
		p.Cells.ForEach(func(c grid.IntVector) {
			rel := mathutil.RelErr(out.At(c), ref.At(c), 1e-12)
			sum += rel
			cells++
			worst = max(worst, rel)
		})
	}
	tMulti := time.Since(t0)

	acc := newTable("accuracy", "fine patches (16³);%d", "mean relative deviation;%.3f%%", "worst;%.2f%%")
	acc.add(len(fine.Patches), 100*sum/float64(cells), 100*worst)
	wall := newTable("wall_time", "single level (s);%.3f", "2-level (s);%.3f")
	wall.Varies = true
	wall.add(tSingle.Seconds(), tMulti.Seconds())

	// Three properties of 8-byte cells: the whole fine level for single
	// level, the coarse copy plus one patch window for 2-level.
	const coarseN, window = fineN / rr, patchN + 2*halo
	singleB := int64(fineN*fineN*fineN) * 8 * 3
	multiB := int64(coarseN*coarseN*coarseN+window*window*window) * 8 * 3
	vol := newTable("volume", "single-level per node (B);%d", "2-level per patch (B);%d", "reduction;%.0fx")
	vol.add(singleB, multiB, float64(singleB)/float64(multiB))
	return tableSet{acc, vol, wall}, nil
}

// runLevelDB drives the runtime on one simulated Titan node (16 worker
// threads, one K20X): the GPU multi-level RMCRT task graph on a fine 32³
// level in eight 16³ patches over a coarse 8³ level (RR 4), and reports
// what the level database (contribution ii) uploaded and avoided.
func runLevelDB(options) (record, error) {
	g, err := grid.New(mathutil.V3(0, 0, 0), mathutil.V3(1, 1, 1),
		grid.Spec{Resolution: grid.IV(8, 8, 8), PatchSize: grid.IV(8, 8, 8)},
		grid.Spec{Resolution: grid.IV(32, 32, 32), PatchSize: grid.IV(16, 16, 16)},
	)
	if err != nil {
		return nil, err
	}
	s := sched.NewScheduler(0, 16, g, dw.New(1), dw.New(0), simmpi.NewComm(1))
	dev := gpu.NewDevice(gpu.K20XMemory, gpu.NewK20X(2.5e8))
	dev.SetRecording(true)
	s.AttachGPU(dev, gpudw.New(dev))
	opts := rmcrt.DefaultOptions()
	opts.NRays = 24
	solve := &rmcrt.GPURadiationSolve{Grid: g, Opts: opts, Props: rmcrt.FillBenchmark}
	if err := solve.Register(s); err != nil {
		return nil, err
	}
	stats, err := s.Execute()
	if err != nil {
		return nil, err
	}

	events := dev.Events()
	uploads, overlapped := 0, 0
	for i, e := range events {
		if e.Kind == gpu.EventH2D && strings.HasPrefix(e.Label, "levelvar") {
			uploads++
		}
		if i > 0 && e.Start < events[i-1].End {
			overlapped++
		}
	}
	ldb := newTable("level_database", "level uploads;%d", "H2D bytes copied;%d", "PCIe bytes avoided vs per-patch replication;%d")
	ldb.add(uploads, s.GPUDW.H2DBytes(), s.GPUDW.SavedBytes())

	fine := g.Finest()
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, p := range fine.Patches {
		v, err := s.DW.GetCC(rmcrt.LabelDivQ, p.ID)
		if err != nil {
			return nil, err
		}
		p.Cells.ForEach(func(c grid.IntVector) { lo, hi = min(lo, v.At(c)), max(hi, v.At(c)) })
	}
	divQ := newTable("divq", "fine cells;%d", "min divQ (W/m³);%.4f", "max divQ (W/m³);%.4f")
	divQ.add(fine.NumCells(), lo, hi)

	device := newTable("device", "tasks run;%d", "on the GPU;%d", "device makespan (ms);%.2f",
		"peak device memory (B);%d", "device operations;%d", "overlapped with a predecessor;%d")
	device.Varies = true
	device.add(stats.TasksRun, stats.GPUTasksRun, 1e3*stats.DeviceMakespan, stats.DevicePeakMem, len(events), overlapped)
	return tableSet{ldb, divQ, device}, nil
}
