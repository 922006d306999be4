package rmcrt

import (
	"errors"
	"testing"

	"github.com/uintah-repro/rmcrt/internal/dw"
	"github.com/uintah-repro/rmcrt/internal/field"
	"github.com/uintah-repro/rmcrt/internal/gpu"
	"github.com/uintah-repro/rmcrt/internal/gpudw"
	"github.com/uintah-repro/rmcrt/internal/grid"
	"github.com/uintah-repro/rmcrt/internal/mathutil"
	"github.com/uintah-repro/rmcrt/internal/sched"
	"github.com/uintah-repro/rmcrt/internal/simmpi"
)

// distGrid builds the 2-level test configuration: fine 32³ in 8³
// patches (64 patches), coarse 8³ in 2³ patches, SFC-distributed.
func distGrid(t testing.TB, nRanks int) *grid.Grid {
	t.Helper()
	g, err := grid.New(mathutil.V3(0, 0, 0), mathutil.V3(1, 1, 1),
		grid.Spec{Resolution: grid.Uniform(8), PatchSize: grid.Uniform(2)},
		grid.Spec{Resolution: grid.Uniform(32), PatchSize: grid.Uniform(8)},
	)
	if err != nil {
		t.Fatal(err)
	}
	g.AssignSFC(nRanks)
	AlignCoarseOwnership(g)
	return g
}

func TestAlignCoarseOwnership(t *testing.T) {
	g := distGrid(t, 4)
	fine, coarse := g.Levels[1], g.Levels[0]
	for _, cp := range coarse.Patches {
		fc := cp.Cells.Lo.Mul(fine.RefinementRatio)
		fp := fine.PatchContaining(fc)
		if fp == nil {
			t.Fatalf("no fine patch above coarse patch %d", cp.ID)
		}
		if cp.Rank != fp.Rank {
			t.Errorf("coarse patch %d on rank %d, fine block on rank %d", cp.ID, cp.Rank, fp.Rank)
		}
	}
}

// runDistributed executes the distributed solve over nRanks and
// returns the per-rank schedulers for inspection.
func runDistributed(t *testing.T, nRanks int, useGPU bool, opts Options) (*grid.Grid, []*sched.Scheduler, *simmpi.Comm) {
	t.Helper()
	g := distGrid(t, nRanks)
	comm := simmpi.NewComm(nRanks)
	scheds := make([]*sched.Scheduler, nRanks)
	_, err := sched.RunRanks(nRanks, func(rank int) (*sched.Scheduler, error) {
		s := sched.NewScheduler(rank, 4, g, dw.New(1), dw.New(0), comm)
		if useGPU {
			dev := gpu.NewDevice(gpu.K20XMemory, gpu.NewK20X(2.5e8))
			s.AttachGPU(dev, gpudw.New(dev))
		}
		solve := &DistributedRadiationSolve{
			Grid: g, Opts: opts, Props: FillBenchmark, UseGPU: useGPU,
		}
		if err := solve.Register(s); err != nil {
			return nil, err
		}
		scheds[rank] = s
		return s, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, scheds, comm
}

// referenceDivQ computes the same solve single-node for comparison.
func referenceDivQ(t *testing.T, opts Options) map[grid.IntVector]float64 {
	t.Helper()
	_, mk, err := NewMultiLevelBenchmark(32, 8, 4, opts.HaloCells)
	if err != nil {
		t.Fatal(err)
	}
	g2, _, _ := NewMultiLevelBenchmark(32, 8, 4, opts.HaloCells)
	ref := make(map[grid.IntVector]float64)
	for _, p := range g2.Levels[1].Patches {
		dom, err := mk(p)
		if err != nil {
			t.Fatal(err)
		}
		out, err := dom.SolveRegion(p.Cells, &opts)
		if err != nil {
			t.Fatal(err)
		}
		p.Cells.ForEach(func(c grid.IntVector) { ref[c] = out.At(c) })
	}
	return ref
}

// TestDistributedSolveMatchesSingleNode runs the full distributed
// pipeline — property init, fine halo exchange, rank-local coarsening,
// coarse-level all-gather, per-rank ray tracing — across 4 ranks and
// checks the assembled divQ field is bitwise identical to the
// single-node multi-level solve. Decomposition and rank count must not
// change the answer (deterministic per-cell streams).
func TestDistributedSolveMatchesSingleNode(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed solve skipped in -short")
	}
	opts := DefaultOptions()
	opts.NRays = 8
	opts.HaloCells = 4

	g, scheds, comm := runDistributed(t, 4, false, opts)
	ref := referenceDivQ(t, opts)

	fine := g.Levels[1]
	checked := 0
	for _, p := range fine.Patches {
		v, err := scheds[p.Rank].DW.GetCC(LabelDivQ, p.ID)
		if err != nil {
			t.Fatalf("patch %d on rank %d: %v", p.ID, p.Rank, err)
		}
		p.Cells.ForEach(func(c grid.IntVector) {
			if v.At(c) != ref[c] {
				t.Fatalf("cell %v: distributed %v != single-node %v", c, v.At(c), ref[c])
			}
			checked++
		})
	}
	if checked != fine.NumCells() {
		t.Errorf("checked %d of %d cells", checked, fine.NumCells())
	}
	// All traffic drained.
	for r := 0; r < 4; r++ {
		if comm.PendingUnexpected(r) != 0 || comm.PendingPosted(r) != 0 {
			t.Errorf("rank %d has pending traffic", r)
		}
	}
	// Real communication happened (coarse gather + halos).
	if comm.TotalStats().BytesSent == 0 {
		t.Error("no bytes moved — exchange did not run")
	}
}

// TestDistributedSolveOnGPUs gives every rank its own simulated K20X
// and checks the same bitwise agreement, plus device hygiene.
func TestDistributedSolveOnGPUs(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed GPU solve skipped in -short")
	}
	opts := DefaultOptions()
	opts.NRays = 8
	opts.HaloCells = 4

	g, scheds, _ := runDistributed(t, 4, true, opts)
	ref := referenceDivQ(t, opts)

	for _, p := range g.Levels[1].Patches {
		v, err := scheds[p.Rank].DW.GetCC(LabelDivQ, p.ID)
		if err != nil {
			t.Fatalf("patch %d: %v", p.ID, err)
		}
		p.Cells.ForEach(func(c grid.IntVector) {
			if v.At(c) != ref[c] {
				t.Fatalf("GPU cell %v: %v != %v", c, v.At(c), ref[c])
			}
		})
	}
	for r, s := range scheds {
		if s.Device.Makespan() <= 0 {
			t.Errorf("rank %d device did no work", r)
		}
	}
}

// TestDistributedRankCountInvariance: 2 ranks and 8 ranks produce the
// same field.
func TestDistributedRankCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("rank invariance skipped in -short")
	}
	opts := DefaultOptions()
	opts.NRays = 4
	opts.HaloCells = 2

	collect := func(nRanks int) map[grid.IntVector]float64 {
		g, scheds, _ := runDistributed(t, nRanks, false, opts)
		out := map[grid.IntVector]float64{}
		for _, p := range g.Levels[1].Patches {
			v, err := scheds[p.Rank].DW.GetCC(LabelDivQ, p.ID)
			if err != nil {
				t.Fatal(err)
			}
			p.Cells.ForEach(func(c grid.IntVector) { out[c] = v.At(c) })
		}
		return out
	}
	a := collect(2)
	b := collect(8)
	for c, v := range a {
		if b[c] != v {
			t.Fatalf("cell %v differs between 2 ranks (%v) and 8 ranks (%v)", c, v, b[c])
		}
	}
}

func TestDistributedValidation(t *testing.T) {
	g := distGrid(t, 2)
	comm := simmpi.NewComm(2)
	s := sched.NewScheduler(0, 2, g, dw.New(1), dw.New(0), comm)
	if err := (&DistributedRadiationSolve{}).Register(s); err == nil {
		t.Error("empty solve accepted")
	}
	gpuSolve := &DistributedRadiationSolve{Grid: g, Opts: DefaultOptions(), Props: FillBenchmark, UseGPU: true}
	if err := gpuSolve.Register(s); err == nil {
		t.Error("UseGPU without device accepted")
	}
	// Single-level grid cannot run the multi-level distributed solve.
	g1, err := grid.New(mathutil.V3(0, 0, 0), mathutil.V3(1, 1, 1),
		grid.Spec{Resolution: grid.Uniform(8), PatchSize: grid.Uniform(4)})
	if err != nil {
		t.Fatal(err)
	}
	s1 := sched.NewScheduler(0, 2, g1, dw.New(1), dw.New(0), comm)
	one := &DistributedRadiationSolve{Grid: g1, Opts: DefaultOptions(), Props: FillBenchmark}
	if err := one.Register(s1); err == nil {
		t.Error("single-level grid accepted")
	}
}

// TestDistributedRejectsNonFlowCells: the distributed solve exchanges
// only κ and σT⁴, so a Props hook that marks one intrusion cell must
// fail the props task with an UnsupportedCellError naming that cell
// instead of tracing it as flow. It runs on one rank: a failed rank
// does not abort its peers, which would wait out their receives.
func TestDistributedRejectsNonFlowCells(t *testing.T) {
	const nRanks = 1
	g := distGrid(t, nRanks)
	intrusion := grid.IV(13, 6, 21)
	props := func(lvl *grid.Level, window grid.Box) (a, sg *field.CC[float64], ct *field.CC[field.CellType]) {
		a, sg, ct = FillBenchmark(lvl, window)
		if window.Contains(intrusion) {
			ct.Set(intrusion, field.Intrusion)
		}
		return a, sg, ct
	}
	opts := DefaultOptions()
	opts.NRays = 2
	comm := simmpi.NewComm(nRanks)
	_, err := sched.RunRanks(nRanks, func(rank int) (*sched.Scheduler, error) {
		s := sched.NewScheduler(rank, 2, g, dw.New(1), dw.New(0), comm)
		solve := &DistributedRadiationSolve{Grid: g, Opts: opts, Props: props}
		return s, solve.Register(s)
	})
	var bad *UnsupportedCellError
	if !errors.As(err, &bad) {
		t.Fatalf("err = %v, want an UnsupportedCellError", err)
	}
	if bad.Cell != intrusion || bad.Type != field.Intrusion {
		t.Fatalf("error names cell %v (%v), want %v (%v)", bad.Cell, bad.Type, intrusion, field.Intrusion)
	}
}
