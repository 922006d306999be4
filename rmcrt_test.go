package rmcrt_test

import (
	"context"
	"math"
	"testing"

	rmcrt "github.com/uintah-repro/rmcrt"
)

// The facade tests exercise the public API exactly as a downstream user
// would — every entry point the README shows, through the re-exports
// only.

func TestPublicAPIQuickstart(t *testing.T) {
	dom, g, err := rmcrt.NewBenchmarkDomain(9)
	if err != nil {
		t.Fatal(err)
	}
	opts := rmcrt.DefaultOptions()
	opts.NRays = 8
	divQ, err := dom.SolveRegion(g.Levels[0].IndexBox(), &opts)
	if err != nil {
		t.Fatal(err)
	}
	if divQ.At(rmcrt.IV(4, 4, 4)) <= 0 {
		t.Error("benchmark center should be a net emitter")
	}
	q, err := dom.SolveWallFlux(context.Background(), rmcrt.XMinus, &opts)
	if err != nil {
		t.Fatal(err)
	}
	if q <= 0 {
		t.Error("wall should receive flux")
	}
}

func TestPublicAPIMultiLevel(t *testing.T) {
	g, mk, err := rmcrt.NewMultiLevelBenchmark(16, 8, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := g.Finest().Patches[0]
	dom, err := mk(p)
	if err != nil {
		t.Fatal(err)
	}
	opts := rmcrt.DefaultOptions()
	opts.NRays = 4
	opts.HaloCells = 2
	if _, err := dom.SolveRegion(p.Cells, &opts); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIRuntime(t *testing.T) {
	g, err := rmcrt.NewGrid(rmcrt.V3(0, 0, 0), rmcrt.V3(1, 1, 1),
		rmcrt.GridSpec{Resolution: rmcrt.IV(8, 8, 8), PatchSize: rmcrt.IV(8, 8, 8)},
		rmcrt.GridSpec{Resolution: rmcrt.IV(16, 16, 16), PatchSize: rmcrt.IV(8, 8, 8)},
	)
	if err != nil {
		t.Fatal(err)
	}
	s := rmcrt.NewScheduler(0, 2, g,
		rmcrt.NewDataWarehouse(1), rmcrt.NewDataWarehouse(0), rmcrt.NewComm(1))
	dev := rmcrt.NewDevice(rmcrt.K20XMemory, rmcrt.NewK20X(1e8))
	s.AttachGPU(dev, rmcrt.NewGPUDataWarehouse(dev))
	opts := rmcrt.DefaultOptions()
	opts.NRays = 2
	solve := &rmcrt.GPURadiationSolve{Grid: g, Opts: opts, Props: rmcrt.FillBenchmark}
	if err := solve.Register(s); err != nil {
		t.Fatal(err)
	}
	st, err := s.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if st.GPUTasksRun != 8 {
		t.Errorf("GPU tasks = %d, want 8", st.GPUTasksRun)
	}
}

func TestPublicAPIBaselinesAndScaling(t *testing.T) {
	// DOM through the facade.
	_, g, err := rmcrt.NewBenchmarkDomain(8)
	if err != nil {
		t.Fatal(err)
	}
	lvl := g.Levels[0]
	dp := &rmcrt.DOMProblem{Level: lvl}
	dp.Abskg, dp.SigmaT4OverPi, dp.CellType = rmcrt.FillBenchmark(lvl, lvl.IndexBox())
	res, err := rmcrt.SolveDOM(dp, rmcrt.S2())
	if err != nil {
		t.Fatal(err)
	}
	par, err := rmcrt.SolveDOMParallel(dp, rmcrt.S2())
	if err != nil {
		t.Fatal(err)
	}
	c := rmcrt.IV(4, 4, 4)
	if res.DivQ.At(c) != par.DivQ.At(c) {
		t.Error("serial and parallel DOM disagree through the facade")
	}
	// Scaling study through the facade.
	cfg := rmcrt.DefaultScalingConfig()
	series, err := rmcrt.StrongScaling(cfg, rmcrt.LargeProblem(16), []int{4096, 8192})
	if err != nil {
		t.Fatal(err)
	}
	if e := rmcrt.Efficiency(series.Points[0], series.Points[1]); e < 0.9 {
		t.Errorf("efficiency 4096->8192 = %.2f", e)
	}
	rows := rmcrt.TableI(rmcrt.Titan(), []int{512})
	if math.Abs(rows[0].Speedup-4.4) > 0.5 {
		t.Errorf("Table I 512-node speedup = %.2f", rows[0].Speedup)
	}
}

func TestPublicAPIProduction(t *testing.T) {
	cfg := rmcrt.DefaultProductionConfig()
	cfg.Steps = 2
	cfg.RadPeriod = 2
	cfg.Rays = 2
	res, err := rmcrt.RunProduction(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 2 || res.RadSolves != 1 {
		t.Errorf("history=%d radSolves=%d", len(res.History), res.RadSolves)
	}
}

func TestPublicAPIArchive(t *testing.T) {
	arch, err := rmcrt.CreateArchive(t.TempDir(), "facade")
	if err != nil {
		t.Fatal(err)
	}
	if got := arch.Index().Title; got != "facade" {
		t.Errorf("title = %q", got)
	}
}
