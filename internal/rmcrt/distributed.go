package rmcrt

import (
	"context"
	"fmt"

	"github.com/uintah-repro/rmcrt/internal/field"
	"github.com/uintah-repro/rmcrt/internal/grid"
	"github.com/uintah-repro/rmcrt/internal/sched"
)

// Distributed multi-level RMCRT — the whole-machine configuration: the
// fine level's patches are spread over many ranks (each with its own
// scheduler, worker threads, and GPU), radiative properties are
// exchanged with simulated MPI, every rank assembles its own replica
// of the coarse radiation level, and each rank's GPU traces the rays
// of the patches it owns. This is the paper's production data path end
// to end, at laptop scale.
//
// Ownership layout: each coarse patch is owned by the rank of the fine
// patch block above it (AlignCoarseOwnership), so the fine→coarse
// projection is rank-local; the coarse level is then replicated with
// the all-gather whose volume the multi-level scheme made tractable.

// AlignCoarseOwnership assigns every patch of level li-1 (and coarser)
// to the rank owning the fine region above it, making inter-level
// coarsening rank-local. The finest level must already be assigned.
func AlignCoarseOwnership(g *grid.Grid) {
	for li := len(g.Levels) - 2; li >= 0; li-- {
		coarse := g.Levels[li]
		finer := g.Levels[li+1]
		for _, cp := range coarse.Patches {
			// Owner = rank of the finer patch containing the refined
			// low corner of this coarse patch.
			fc := cp.Cells.Lo.Mul(finer.RefinementRatio)
			fp := finer.PatchContaining(fc)
			if fp != nil {
				cp.Rank = fp.Rank
			}
		}
	}
}

// DistributedRadiationSolve registers one rank's share of the
// distributed radiation timestep on its scheduler.
type DistributedRadiationSolve struct {
	Grid  *grid.Grid
	Opts  Options
	Props PropsFunc
	// TagBase partitions the MPI tag space; distinct solves sharing a
	// communicator need distinct bases. Tag usage spans
	// [TagBase, TagBase + 10*totalPatches).
	TagBase int
	// UseGPU runs the per-patch ray trace through the staged GPU
	// queues when the scheduler has a device; false traces on the CPU
	// workers (the paper's CPU implementation of [5]).
	UseGPU bool
}

// Register wires the rank-local tasks and exchanges into s.
func (r *DistributedRadiationSolve) Register(s *sched.Scheduler) error {
	if r.Grid == nil || r.Props == nil {
		return fmt.Errorf("rmcrt: distributed solve needs a grid and a properties hook")
	}
	if err := r.Opts.validate(); err != nil {
		return err
	}
	if r.UseGPU && (s.Device == nil || s.GPUDW == nil) {
		return fmt.Errorf("rmcrt: UseGPU set but rank %d has no device", s.Rank)
	}
	fineIdx := len(r.Grid.Levels) - 1
	if fineIdx == 0 {
		return fmt.Errorf("rmcrt: distributed solve needs at least two levels")
	}
	fine := r.Grid.Levels[fineIdx]
	nPatches := r.Grid.NumPatches()

	// 1. Properties on local fine patches.
	for _, p := range fine.Patches {
		if p.Rank != s.Rank {
			continue
		}
		p := p
		s.AddTask(&sched.Task{
			Name:  "rmcrt::initProps",
			Patch: p,
			Computes: []sched.Compute{
				{Label: LabelAbskg, Level: fineIdx},
				{Label: LabelSigmaT4, Level: fineIdx},
			},
			Run: func(c *sched.Context) error {
				a, sg, ct := r.Props(fine, p.Cells)
				if err := flowOnly(ct, p.Cells); err != nil {
					return err
				}
				c.DW().PutCC(LabelAbskg, p.ID, a)
				c.DW().PutCC(LabelSigmaT4, p.ID, sg)
				return nil
			},
		})
	}

	// 2. Fine-level halo exchange so ray ROIs near rank boundaries have
	// data (and so coarsening of edge patches could, in general, see
	// neighbours; our block-aligned layout keeps coarsening local).
	s.RegisterHaloExchange(r.Grid, fineIdx, LabelAbskg, r.Opts.HaloCells, r.TagBase+0*nPatches)
	s.RegisterHaloExchange(r.Grid, fineIdx, LabelSigmaT4, r.Opts.HaloCells, r.TagBase+1*nPatches)

	// 3. Rank-local coarsening: one task per local coarse patch,
	// projecting the fine block above it.
	for li := fineIdx - 1; li >= 0; li-- {
		coarse := r.Grid.Levels[li]
		// Only support one coarsening hop from the finest level for
		// ownership-aligned projection; deeper hierarchies coarsen from
		// the level above (already computed).
		src := r.Grid.Levels[li+1]
		rr := src.Resolution.Div(coarse.Resolution)
		for _, cp := range coarse.Patches {
			if cp.Rank != s.Rank {
				continue
			}
			cp := cp
			li := li
			srcIdx := li + 1
			s.AddTask(&sched.Task{
				Name:  "rmcrt::coarsenPatch",
				Patch: cp,
				Requires: []sched.Dep{
					{Label: coarseLabel(LabelAbskg, srcIdx, fineIdx), Level: srcIdx, Ghost: 0},
					{Label: coarseLabel(LabelSigmaT4, srcIdx, fineIdx), Level: srcIdx, Ghost: 0},
				},
				Computes: []sched.Compute{
					{Label: coarseLabel(LabelAbskg, li, fineIdx), Level: li},
					{Label: coarseLabel(LabelSigmaT4, li, fineIdx), Level: li},
				},
				Run: func(c *sched.Context) error {
					fineRegion := cp.Cells.Refine(rr)
					for _, label := range []string{LabelAbskg, LabelSigmaT4} {
						w, err := c.DW().GatherWindow(coarseLabel(label, srcIdx, fineIdx), src, fineRegion)
						if err != nil {
							return fmt.Errorf("coarsen %s for coarse patch %d: %w", label, cp.ID, err)
						}
						out := field.NewCC[float64](cp.Cells)
						field.CoarsenAverage(out, w, rr)
						c.DW().PutCC(coarseLabel(label, li, fineIdx), cp.ID, out)
					}
					return nil
				},
			})
		}
		// 4. Replicate this coarse level everywhere.
		s.RegisterLevelGather(r.Grid, li, coarseLabel(LabelAbskg, li, fineIdx), r.TagBase+(2+2*li)*nPatches)
		s.RegisterLevelGather(r.Grid, li, coarseLabel(LabelSigmaT4, li, fineIdx), r.TagBase+(3+2*li)*nPatches)
	}

	// 5. Ray trace local fine patches.
	for _, p := range fine.Patches {
		if p.Rank != s.Rank {
			continue
		}
		p := p
		deps := []sched.Dep{
			{Label: LabelAbskg, Level: fineIdx, Ghost: r.Opts.HaloCells},
			{Label: LabelSigmaT4, Level: fineIdx, Ghost: r.Opts.HaloCells},
		}
		for li := 0; li < fineIdx; li++ {
			deps = append(deps,
				sched.Dep{Label: coarseLabel(LabelAbskg, li, fineIdx), Level: li, Ghost: sched.GhostGlobal},
				sched.Dep{Label: coarseLabel(LabelSigmaT4, li, fineIdx), Level: li, Ghost: sched.GhostGlobal},
			)
		}
		trace := func(c *sched.Context) (*field.CC[float64], error) {
			dom, err := r.buildDomain(c, p, fineIdx)
			if err != nil {
				return nil, err
			}
			return dom.SolveRegionCtx(context.TODO(), p.Cells, &r.Opts)
		}
		if r.UseGPU {
			s.AddTask(&sched.Task{
				Name: "rmcrt::rayTraceGPU", Patch: p,
				Requires: deps,
				Computes: []sched.Compute{{Label: LabelDivQ, Level: fineIdx}},
				GPU: &sched.GPUStages{
					Kernel: func(c *sched.Context) error {
						var out *field.CC[float64]
						var err error
						work := float64(p.NumCells()) * float64(r.Opts.NRays) * 50
						c.Stream.Launch(work, fmt.Sprintf("rmcrt p%d", p.ID), func() {
							out, err = trace(c)
						})
						if err != nil {
							return err
						}
						c.DW().PutCC(LabelDivQ, p.ID, out)
						return nil
					},
				},
			})
		} else {
			s.AddTask(&sched.Task{
				Name: "rmcrt::rayTraceCPU", Patch: p,
				Requires: deps,
				Computes: []sched.Compute{{Label: LabelDivQ, Level: fineIdx}},
				Run: func(c *sched.Context) error {
					out, err := trace(c)
					if err != nil {
						return err
					}
					c.DW().PutCC(LabelDivQ, p.ID, out)
					return nil
				},
			})
		}
	}
	return nil
}

// UnsupportedCellError is the distributed solve's refusal of a cell it
// cannot represent. It exchanges only κ and σT⁴ between ranks and traces
// every cell as flow, so a wall or intrusion from the Props hook would
// otherwise vanish without a word; GPURadiationSolve exchanges cell
// types and honours them.
type UnsupportedCellError struct {
	Cell grid.IntVector
	Type field.CellType
}

func (e *UnsupportedCellError) Error() string {
	return fmt.Sprintf("rmcrt: distributed solve traces flow cells only, but cell %v is %v", e.Cell, e.Type)
}

// flowOnly returns an *UnsupportedCellError for the first non-flow cell
// of box (in cell iteration order), or nil.
func flowOnly(ct *field.CC[field.CellType], box grid.Box) error {
	var bad *UnsupportedCellError
	box.ForEach(func(c grid.IntVector) {
		if t := ct.At(c); bad == nil && t != field.Flow {
			bad = &UnsupportedCellError{Cell: c, Type: t}
		}
	})
	if bad != nil {
		return bad
	}
	return nil
}

// coarseLabel names the projected property for a level. The fine level
// keeps the plain label.
func coarseLabel(label string, li, fineIdx int) string {
	if li == fineIdx {
		return label
	}
	return fmt.Sprintf("%s@L%d", label, li)
}

// buildDomain assembles the tracer's view for one local patch from the
// warehouse: gathered fine window plus fully-replicated coarse levels.
func (r *DistributedRadiationSolve) buildDomain(c *sched.Context, p *grid.Patch, fineIdx int) (*Domain, error) {
	g := r.Grid
	fine := g.Levels[fineIdx]
	levels := make([]LevelData, 0, len(g.Levels))
	for li := 0; li < fineIdx; li++ {
		lvl := g.Levels[li]
		a, err := c.DW().GatherLevel(coarseLabel(LabelAbskg, li, fineIdx), lvl)
		if err != nil {
			return nil, err
		}
		sg, err := c.DW().GatherLevel(coarseLabel(LabelSigmaT4, li, fineIdx), lvl)
		if err != nil {
			return nil, err
		}
		ct := field.NewCC[field.CellType](lvl.IndexBox())
		ct.Fill(field.Flow)
		levels = append(levels, LevelData{
			Level: lvl, ROI: lvl.IndexBox(),
			Abskg: a, SigmaT4OverPi: sg, CellType: ct,
		})
	}
	window := p.Cells.Grow(r.Opts.HaloCells).Intersect(fine.IndexBox())
	fa, err := c.DW().GatherWindow(LabelAbskg, fine, window)
	if err != nil {
		return nil, err
	}
	fs, err := c.DW().GatherWindow(LabelSigmaT4, fine, window)
	if err != nil {
		return nil, err
	}
	fc := field.NewCC[field.CellType](window)
	fc.Fill(field.Flow)
	levels = append(levels, LevelData{
		Level: fine, ROI: window,
		Abskg: fa, SigmaT4OverPi: fs, CellType: fc,
	})
	return &Domain{Levels: levels}, nil
}
