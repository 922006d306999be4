// Top-level benchmark harness: one benchmark family per table / figure
// / quantified claim in the paper (see DESIGN.md's experiment index).
//
//	go test -bench=. -benchmem .
//
// Absolute numbers are host-dependent; the shapes the paper reports
// (who wins, by what factor, where curves flatten) are asserted by the
// test suite and regenerated as data by cmd/repro.
package rmcrt_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	rmcrt "github.com/uintah-repro/rmcrt"
	"github.com/uintah-repro/rmcrt/internal/alloc"
	"github.com/uintah-repro/rmcrt/internal/benchpair"
	"github.com/uintah-repro/rmcrt/internal/commpool"
	"github.com/uintah-repro/rmcrt/internal/dom"
	"github.com/uintah-repro/rmcrt/internal/perfmodel"
	"github.com/uintah-repro/rmcrt/internal/sim"
	"github.com/uintah-repro/rmcrt/internal/simmpi"
)

// --- Table I / Figure 1: communication-record containers ---------------
//
// The before/after comparison at the heart of contribution (iii): many
// worker goroutines draining completed requests from the legacy
// mutex-protected vector (Testsome over the whole collection) vs the
// wait-free pool (per-request Test through unique protected iterators).

func benchContainer(b *testing.B, mk func() commpool.Container, queueLen int) {
	b.Helper()
	threads := 8
	b.SetParallelism(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := simmpi.NewComm(2)
		container := mk()
		for m := 0; m < queueLen; m++ {
			container.Add(&commpool.Record{Req: c.Irecv(1, 0, m)})
			c.Isend(0, 1, m, nil)
		}
		b.StartTimer()
		commpool.ProcessAll(container, threads)
	}
	b.ReportMetric(float64(queueLen*b.N)/b.Elapsed().Seconds(), "msgs/s")
}

func BenchmarkTableI_LegacyVector(b *testing.B) {
	for _, q := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("queue%d", q), func(b *testing.B) {
			benchContainer(b, func() commpool.Container { return commpool.NewLegacyVector() }, q)
		})
	}
}

func BenchmarkTableI_WaitFreePool(b *testing.B) {
	for _, q := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("queue%d", q), func(b *testing.B) {
			benchContainer(b, func() commpool.Container { return commpool.NewPool() }, q)
		})
	}
}

// --- Figures 2 & 3: the RMCRT kernel at the three patch sizes ----------
//
// The real unit of GPU work in the scaling studies: one fine patch's
// multi-level ray trace. Larger patches do more work per launch — the
// paper's "more work per GPU" observation — while the simulator layers
// the occupancy and transfer model on top.

func benchPatchKernel(b *testing.B, fineN, patchN int) {
	b.Helper()
	g, mk, err := rmcrt.NewMultiLevelBenchmark(fineN, patchN, 4, 4)
	if err != nil {
		b.Fatal(err)
	}
	patch := g.Finest().Patches[0]
	dom, err := mk(patch)
	if err != nil {
		b.Fatal(err)
	}
	opts := rmcrt.DefaultOptions()
	opts.NRays = 16
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dom.SolveRegion(patch.Cells, &opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(dom.Steps.Load())/b.Elapsed().Seconds()/1e6, "Msteps/s")
	cells := patch.Cells.Volume()
	b.ReportMetric(float64(cells*opts.NRays*b.N)/b.Elapsed().Seconds()/1e6, "Mrays/s")
}

func BenchmarkFigure2_KernelPatch16(b *testing.B) { benchPatchKernel(b, 64, 16) }
func BenchmarkFigure2_KernelPatch32(b *testing.B) { benchPatchKernel(b, 64, 32) }
func BenchmarkFigure3_KernelPatch16(b *testing.B) { benchPatchKernel(b, 128, 16) }

// --- Figures 2 & 3: the full strong-scaling simulation -----------------

func BenchmarkFigure2_MediumSimulation(b *testing.B) {
	cfg := sim.DefaultConfig()
	counts := sim.PowersOf2(16, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pn := range []int{16, 32, 64} {
			if _, err := sim.StrongScaling(cfg, perfmodel.Medium(pn), counts); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFigure3_LargeSimulation(b *testing.B) {
	cfg := sim.DefaultConfig()
	counts := sim.PowersOf2(256, 16384)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pn := range []int{16, 32, 64} {
			if _, err := sim.StrongScaling(cfg, perfmodel.Large(pn), counts); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- A1: Burns & Christon accuracy workload ----------------------------

func BenchmarkA1_SolveCell(b *testing.B) {
	dom, _, err := rmcrt.NewBenchmarkDomain(41)
	if err != nil {
		b.Fatal(err)
	}
	opts := rmcrt.DefaultOptions()
	opts.NRays = 100
	mid := rmcrt.IV(20, 20, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dom.SolveCell(mid, &opts)
	}
	b.ReportMetric(float64(b.N*opts.NRays)/b.Elapsed().Seconds(), "rays/s")
}

// --- A1 baseline: the DOM sweep the paper's RMCRT displaces ------------

func BenchmarkDOM_S4Solve(b *testing.B) {
	d, g, err := rmcrt.NewBenchmarkDomain(41)
	if err != nil {
		b.Fatal(err)
	}
	_ = d
	lvl := g.Levels[0]
	p := &dom.Problem{Level: lvl}
	p.Abskg, p.SigmaT4OverPi, p.CellType = rmcrt.FillBenchmark(lvl, lvl.IndexBox())
	q := dom.S4()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dom.Solve(p, q); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(lvl.NumCells()*q.NumOrdinates()*b.N)/b.Elapsed().Seconds()/1e6, "Mcell-ordinates/s")
}

// --- A2: GPU level database vs per-patch replication --------------------

func BenchmarkA2_LevelDatabaseAcquire(b *testing.B) {
	dev := rmcrt.NewDevice(rmcrt.K20XMemory, rmcrt.NewK20X(2.5e8))
	gdw := rmcrt.NewGPUDataWarehouse(dev)
	g, _, err := rmcrt.NewMultiLevelBenchmark(64, 16, 4, 4)
	if err != nil {
		b.Fatal(err)
	}
	coarse := g.Levels[0]
	host, _, _ := rmcrt.FillBenchmark(coarse, coarse.IndexBox())
	s := dev.NewStream()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gdw.AcquireLevelVar(s, "abskg", 0, host); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		gdw.ReleaseLevelVar("abskg", 0)
	}
}

// --- A3: allocators ------------------------------------------------------

func BenchmarkA3_HeapAlloc(b *testing.B) {
	var sink []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = make([]byte, 256)
	}
	_ = sink
}

func BenchmarkA3_ArenaAlloc(b *testing.B) {
	a := alloc.NewArena(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Alloc(256)
		if i%4096 == 4095 {
			a.Reset()
		}
	}
}

func BenchmarkA3_BlockPool(b *testing.B) {
	p := alloc.NewBlockPool(256, 1024)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			blk := p.Alloc()
			blk.Bytes[0] = 1
			p.Free(blk)
		}
	})
}

func BenchmarkA3_FragReplayNaive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		alloc.RMCRTTrace(alloc.PolicyHeap, 20, 1)
	}
}

func BenchmarkA3_FragReplayCustom(b *testing.B) {
	for i := 0; i < b.N; i++ {
		alloc.RMCRTTrace(alloc.PolicyCustom, 20, 1)
	}
}

// --- Full runtime: one radiation timestep through the task graph --------

func BenchmarkSchedulerRadiationTimestep(b *testing.B) {
	opts := rmcrt.DefaultOptions()
	opts.NRays = 8
	for i := 0; i < b.N; i++ {
		g, err := rmcrt.NewGrid(rmcrt.V3(0, 0, 0), rmcrt.V3(1, 1, 1),
			rmcrt.GridSpec{Resolution: rmcrt.IV(8, 8, 8), PatchSize: rmcrt.IV(8, 8, 8)},
			rmcrt.GridSpec{Resolution: rmcrt.IV(32, 32, 32), PatchSize: rmcrt.IV(16, 16, 16)},
		)
		if err != nil {
			b.Fatal(err)
		}
		s := rmcrt.NewScheduler(0, runtime.GOMAXPROCS(0), g,
			rmcrt.NewDataWarehouse(1), rmcrt.NewDataWarehouse(0), rmcrt.NewComm(1))
		dev := rmcrt.NewDevice(rmcrt.K20XMemory, rmcrt.NewK20X(2.5e8))
		s.AttachGPU(dev, rmcrt.NewGPUDataWarehouse(dev))
		solve := &rmcrt.GPURadiationSolve{Grid: g, Opts: opts, Props: rmcrt.FillBenchmark}
		if err := solve.Register(s); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Execute(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Simulated MPI throughput -------------------------------------------

func BenchmarkSimMPI_PingPong(b *testing.B) {
	c := simmpi.NewComm(2)
	payload := make([]byte, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tag := i % 1000
		c.Isend(0, 1, tag, payload)
		r := c.Irecv(1, 0, tag)
		if !r.Test() {
			b.Fatal("message not delivered")
		}
	}
	b.SetBytes(1024)
}

// --- Extensions: spectral, forward, wall flux ---------------------------

func BenchmarkSpectralTwoBand(b *testing.B) {
	d, _, err := rmcrt.NewBenchmarkDomain(17)
	if err != nil {
		b.Fatal(err)
	}
	sd := rmcrt.NewGrayAsSpectral(d)
	opts := rmcrt.DefaultOptions()
	opts.NRays = 16
	region := rmcrt.Box{Lo: rmcrt.IV(8, 8, 8), Hi: rmcrt.IV(9, 9, 9)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sd.SolveRegionSpectral(context.Background(), region, &opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForwardMCRT(b *testing.B) {
	d, _, err := rmcrt.NewBenchmarkDomain(13)
	if err != nil {
		b.Fatal(err)
	}
	opts := rmcrt.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.SolveForward(2, &opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(d.Rays.Load())/b.Elapsed().Seconds()/1e6, "Mbundles/s")
}

func BenchmarkWallFluxMap(b *testing.B) {
	d, _, err := rmcrt.NewBenchmarkDomain(17)
	if err != nil {
		b.Fatal(err)
	}
	opts := rmcrt.DefaultOptions()
	opts.NRays = 16
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.SolveWallFluxMap(context.Background(), rmcrt.ZMinus, &opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStratifiedVsPlain(b *testing.B) {
	d, _, err := rmcrt.NewBenchmarkDomain(17)
	if err != nil {
		b.Fatal(err)
	}
	mid := rmcrt.IV(8, 8, 8)
	for _, strat := range []bool{false, true} {
		name := "plain"
		if strat {
			name = "stratified"
		}
		b.Run(name, func(b *testing.B) {
			opts := rmcrt.DefaultOptions()
			opts.NRays = 100
			opts.Stratified = strat
			for i := 0; i < b.N; i++ {
				d.SolveCell(mid, &opts)
			}
		})
	}
}

// --- Performance gate: pinned end-to-end ------------------------------
//
// Part of cmd/perfgate's pinned set (with the engine benchmarks in
// internal/rmcrt and the packed-cache benchmark in internal/service).
// It covers the whole serving path — admission, worker pool,
// tile-scheduled solve, result handling — against a bare Spec.Solve of
// the same kind of spec, so its ratio is the share of a small job the
// serving path costs. Renames are baseline-breaking: regenerate
// BENCH_rmcrt.json in the same commit.

func BenchmarkServiceSolveEndToEnd(b *testing.B) {
	m := rmcrt.NewSolveService(rmcrt.SolveServiceConfig{Workers: 2})
	defer m.Close(context.Background())
	// A fresh seed per op defeats the result cache, so every op pays
	// for a real solve.
	var seed uint64
	next := func() rmcrt.SolveSpec {
		seed++
		return rmcrt.SolveSpec{Kind: "benchmark", N: 12, Rays: 4, Seed: seed}
	}
	benchpair.Run(b,
		func() {
			st, err := m.Submit(next())
			if err != nil {
				b.Fatal(err)
			}
			final, err := m.Wait(context.Background(), st.ID)
			if err != nil {
				b.Fatal(err)
			}
			if final.Error != "" {
				b.Fatalf("solve failed: %s", final.Error)
			}
		},
		func() {
			if _, _, _, err := next().Solve(context.Background()); err != nil {
				b.Fatal(err)
			}
		})
}

func BenchmarkDOM_SweepSerialVsParallel(b *testing.B) {
	d, g, err := rmcrt.NewBenchmarkDomain(33)
	if err != nil {
		b.Fatal(err)
	}
	_ = d
	lvl := g.Levels[0]
	p := &dom.Problem{Level: lvl}
	p.Abskg, p.SigmaT4OverPi, p.CellType = rmcrt.FillBenchmark(lvl, lvl.IndexBox())
	q := dom.S4()
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dom.Solve(p, q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("wavefront", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dom.SolveParallel(p, q); err != nil {
				b.Fatal(err)
			}
		}
	})
}
