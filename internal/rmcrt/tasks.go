package rmcrt

import (
	"context"
	"fmt"

	"github.com/uintah-repro/rmcrt/internal/field"
	"github.com/uintah-repro/rmcrt/internal/gpu"
	"github.com/uintah-repro/rmcrt/internal/grid"
	"github.com/uintah-repro/rmcrt/internal/sched"
)

// Variable labels used by the radiation task graph.
const (
	LabelAbskg   = "abskg"
	LabelSigmaT4 = "sigmaT4OverPi"
	LabelCellTyp = "cellType"
	LabelDivQ    = "divQ"
)

// PropsFunc fills the three radiative properties over window of lvl —
// the hook through which a host code (ARCHES, or the Burns & Christon
// benchmark) supplies its state to the radiation model.
type PropsFunc func(lvl *grid.Level, window grid.Box) (abskg, sigT4OverPi *field.CC[float64], ct *field.CC[field.CellType])

// GPURadiationSolve assembles the paper's GPU multi-level RMCRT
// timestep as a Uintah-style task graph:
//
//  1. per fine patch, a CPU task computes the radiative properties;
//  2. a level-wide CPU task projects them onto every coarse level
//     (conservative coarsening) and stores them as level variables;
//  3. per fine patch, a GPU task runs through the three staged queues:
//     H2D acquires the shared coarse properties through the GPU
//     DataWarehouse *level database* (uploaded once, shared by every
//     patch task — contribution ii) and uploads the patch's fine
//     window; the kernel traces the multi-level RMCRT rays (really);
//     D2H fetches divQ back and drops the level-database references.
//
// The scheduler must have a device attached. All fine patches must be
// local to the scheduler's rank (the nodal shared-memory
// configuration); multi-rank property exchange is exercised separately
// through sched.ExternalRecv.
type GPURadiationSolve struct {
	Grid  *grid.Grid
	Opts  Options
	Props PropsFunc
}

// Register adds the radiation task graph to s.
func (r *GPURadiationSolve) Register(s *sched.Scheduler) error {
	if r.Grid == nil || r.Props == nil {
		return fmt.Errorf("rmcrt: GPURadiationSolve needs a grid and a properties hook")
	}
	if err := r.Opts.validate(); err != nil {
		return err
	}
	if s.Device == nil || s.GPUDW == nil {
		return fmt.Errorf("rmcrt: scheduler has no GPU attached")
	}
	fineIdx := len(r.Grid.Levels) - 1
	fine := r.Grid.Levels[fineIdx]

	// 1. Property tasks, one per fine patch.
	for _, p := range fine.Patches {
		p := p
		s.AddTask(&sched.Task{
			Name:  "rmcrt::initProps",
			Patch: p,
			Computes: []sched.Compute{
				{Label: LabelAbskg, Level: fineIdx},
				{Label: LabelSigmaT4, Level: fineIdx},
				{Label: LabelCellTyp, Level: fineIdx},
			},
			Run: func(c *sched.Context) error {
				a, sg, ct := r.Props(fine, p.Cells)
				c.DW().PutCC(LabelAbskg, p.ID, a)
				c.DW().PutCC(LabelSigmaT4, p.ID, sg)
				c.DW().PutCellType(LabelCellTyp, p.ID, ct)
				return nil
			},
		})
	}

	// 2. Coarsening task: gathers the whole fine level ("infinite ghost
	// cells") and projects to every coarse level, storing level vars.
	coarsenComputes := make([]sched.Compute, 0, 3*fineIdx)
	for li := 0; li < fineIdx; li++ {
		coarsenComputes = append(coarsenComputes,
			sched.Compute{Label: LabelAbskg, Level: li},
			sched.Compute{Label: LabelSigmaT4, Level: li},
			sched.Compute{Label: LabelCellTyp, Level: li},
		)
	}
	s.AddTask(&sched.Task{
		Name:       "rmcrt::coarsen",
		LevelIndex: 0,
		Requires: []sched.Dep{
			{Label: LabelAbskg, Level: fineIdx, Ghost: sched.GhostGlobal},
			{Label: LabelSigmaT4, Level: fineIdx, Ghost: sched.GhostGlobal},
			{Label: LabelCellTyp, Level: fineIdx, Ghost: sched.GhostGlobal},
		},
		Computes: coarsenComputes,
		Run: func(c *sched.Context) error {
			fa, err := c.DW().GatherLevel(LabelAbskg, fine)
			if err != nil {
				return err
			}
			fs, err := c.DW().GatherLevel(LabelSigmaT4, fine)
			if err != nil {
				return err
			}
			fc, err := c.DW().GatherWindowCellType(LabelCellTyp, fine, fine.IndexBox())
			if err != nil {
				return err
			}
			// Project fine -> each coarser level, composing ratios
			// finest-down like Uintah's per-level coarsen tasks.
			srcA, srcS, srcC := fa, fs, fc
			srcLvl := fine
			for li := fineIdx - 1; li >= 0; li-- {
				lvl := r.Grid.Levels[li]
				rr := srcLvl.Resolution.Div(lvl.Resolution)
				ca := field.NewCC[float64](lvl.IndexBox())
				cs := field.NewCC[float64](lvl.IndexBox())
				cc := field.NewCC[field.CellType](lvl.IndexBox())
				field.CoarsenAverage(ca, srcA, rr)
				field.CoarsenAverage(cs, srcS, rr)
				field.CoarsenCellType(cc, srcC, rr)
				c.DW().PutLevelCC(LabelAbskg, li, ca)
				c.DW().PutLevelCC(LabelSigmaT4, li, cs)
				c.DW().PutLevelCellType(LabelCellTyp, li, cc)
				srcA, srcS, srcC, srcLvl = ca, cs, cc, lvl
			}
			return nil
		},
	})

	// 3. GPU ray-trace tasks, one per fine patch.
	for _, p := range fine.Patches {
		p := p
		st := &gpuTaskState{solve: r, patch: p, fineIdx: fineIdx}
		deps := []sched.Dep{
			{Label: LabelAbskg, Level: fineIdx, Ghost: r.Opts.HaloCells},
			{Label: LabelSigmaT4, Level: fineIdx, Ghost: r.Opts.HaloCells},
			{Label: LabelCellTyp, Level: fineIdx, Ghost: r.Opts.HaloCells},
		}
		for li := 0; li < fineIdx; li++ {
			deps = append(deps,
				sched.Dep{Label: LabelAbskg, Level: li, Ghost: sched.GhostGlobal},
				sched.Dep{Label: LabelSigmaT4, Level: li, Ghost: sched.GhostGlobal},
			)
		}
		s.AddTask(&sched.Task{
			Name:     "rmcrt::rayTraceGPU",
			Patch:    p,
			Requires: deps,
			Computes: []sched.Compute{{Label: LabelDivQ, Level: fineIdx}},
			GPU: &sched.GPUStages{
				H2D:    st.h2d,
				Kernel: st.kernel,
				D2H:    st.d2h,
			},
		})
	}
	return nil
}

// gpuTaskState carries one patch task's buffers across its stages.
type gpuTaskState struct {
	solve   *GPURadiationSolve
	patch   *grid.Patch
	fineIdx int

	dom     *Domain
	divQBuf *gpu.Buffer
	window  grid.Box
}

// h2d builds the tracer domain from device-resident data: the coarse
// level properties come from the shared level database (one upload per
// device residency no matter how many patch tasks run), the fine window
// is uploaded per patch.
func (st *gpuTaskState) h2d(c *sched.Context) error {
	r := st.solve
	g := r.Grid
	fine := g.Levels[st.fineIdx]
	gdw := c.GPUDW

	st.window = st.patch.Cells.Grow(r.Opts.HaloCells).Intersect(fine.IndexBox())
	levels := make([]LevelData, 0, len(g.Levels))

	for li := 0; li < st.fineIdx; li++ {
		lvl := g.Levels[li]
		hostA, err := c.DW().GetLevelCC(LabelAbskg, li)
		if err != nil {
			return err
		}
		hostS, err := c.DW().GetLevelCC(LabelSigmaT4, li)
		if err != nil {
			return err
		}
		hostC, err := c.DW().GetLevelCellType(LabelCellTyp, li)
		if err != nil {
			return err
		}
		// Shared uploads through the level database. The kernel reads
		// the device buffers; cellType is device-resident too but kept
		// in its typed host mirror for the tracer's typed reads.
		bufA, err := gdw.AcquireLevelVar(c.Stream, LabelAbskg, li, hostA)
		if err != nil {
			return err
		}
		bufS, err := gdw.AcquireLevelVar(c.Stream, LabelSigmaT4, li, hostS)
		if err != nil {
			gdw.ReleaseLevelVar(LabelAbskg, li)
			return err
		}
		levels = append(levels, LevelData{
			Level: lvl,
			ROI:   lvl.IndexBox(),
			Abskg: field.NewCCFrom(lvl.IndexBox(), bufA.Data[:lvl.NumCells()]),
			SigmaT4OverPi: field.NewCCFrom(lvl.IndexBox(),
				bufS.Data[:lvl.NumCells()]),
			CellType: hostC,
		})
	}

	// Per-patch fine window: host ghost-gather, then upload.
	fa, err := c.GatherSelf(LabelAbskg, r.Opts.HaloCells)
	if err != nil {
		return err
	}
	fs, err := c.GatherSelf(LabelSigmaT4, r.Opts.HaloCells)
	if err != nil {
		return err
	}
	fc, err := c.DW().GatherWindowCellType(LabelCellTyp, fine, st.window)
	if err != nil {
		return err
	}
	bufFA, err := gdw.PutPatchVar(c.Stream, LabelAbskg, st.patch.ID, fa)
	if err != nil {
		return err
	}
	bufFS, err := gdw.PutPatchVar(c.Stream, LabelSigmaT4, st.patch.ID, fs)
	if err != nil {
		return err
	}
	st.divQBuf, err = gdw.AllocPatchVar(LabelDivQ, st.patch.ID, st.patch.NumCells())
	if err != nil {
		return err
	}
	levels = append(levels, LevelData{
		Level:         fine,
		ROI:           st.window,
		Abskg:         field.NewCCFrom(st.window, bufFA.Data[:st.window.Volume()]),
		SigmaT4OverPi: field.NewCCFrom(st.window, bufFS.Data[:st.window.Volume()]),
		CellType:      fc,
	})
	st.dom = &Domain{Levels: levels}
	return nil
}

// kernel launches the RMCRT ray trace: the body really executes the
// multi-level tracer over the patch while the stream's simulated clock
// charges the modeled kernel cost.
func (st *gpuTaskState) kernel(c *sched.Context) error {
	cells := st.patch.NumCells()
	// Cost estimate for the simulated timeline: cells x rays x a mean
	// path length of half the domain diagonal in fine+coarse steps.
	meanSteps := float64(st.window.Extent().X) + 0.5*float64(st.solve.Grid.Levels[0].Resolution.X)
	work := float64(cells) * float64(st.solve.Opts.NRays) * meanSteps

	var solveErr error
	c.Stream.Launch(work, fmt.Sprintf("rmcrt p%d", st.patch.ID), func() {
		// The kernel writes its result into the device divQ buffer, as
		// the CUDA kernel does.
		var out *field.CC[float64]
		out, solveErr = st.dom.SolveRegionCtx(context.TODO(), st.patch.Cells, &st.solve.Opts)
		if solveErr == nil {
			copy(st.divQBuf.Data, out.Data())
		}
	})
	return solveErr
}

// d2h copies divQ back, publishes it to the warehouse, and releases the
// per-patch inputs and the shared level-database entries.
func (st *gpuTaskState) d2h(c *sched.Context) error {
	gdw := c.GPUDW
	out := field.NewCC[float64](st.patch.Cells)
	if err := gdw.FetchPatchVar(c.Stream, LabelDivQ, st.patch.ID, out); err != nil {
		return err
	}
	c.DW().PutCC(LabelDivQ, st.patch.ID, out)

	gdw.FreePatchVar(LabelAbskg, st.patch.ID)
	gdw.FreePatchVar(LabelSigmaT4, st.patch.ID)
	for li := 0; li < st.fineIdx; li++ {
		gdw.ReleaseLevelVar(LabelAbskg, li)
		gdw.ReleaseLevelVar(LabelSigmaT4, li)
	}
	return nil
}
