package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"github.com/uintah-repro/rmcrt/internal/dw"
	"github.com/uintah-repro/rmcrt/internal/field"
	"github.com/uintah-repro/rmcrt/internal/gpu"
	"github.com/uintah-repro/rmcrt/internal/gpudw"
	"github.com/uintah-repro/rmcrt/internal/grid"
	"github.com/uintah-repro/rmcrt/internal/mathutil"
	"github.com/uintah-repro/rmcrt/internal/rmcrt"
	"github.com/uintah-repro/rmcrt/internal/sched"
	"github.com/uintah-repro/rmcrt/internal/simmpi"
)

// The amr-timestep problem: the paper's 2-level configuration (fine
// 48³ in 16³ patches, coarse 12³ at refinement ratio 4) with the Burns
// & Christon properties, 16 rays per cell.
const (
	amrFineN  = 48
	amrPatchN = 16
	amrRR     = 4
	amrRays   = 16
)

// amrRig is the grid, communicator and simulated devices that every
// timestep of a run reuses.
type amrRig struct {
	g              *grid.Grid
	comm           *simmpi.Comm
	devs           []*gpu.Device
	gdws           []*gpudw.DW
	ranks, workers int
}

// rankLayout splits nproc into ranks × workers: two ranks when there
// are at least two cores, the remaining cores as workers per rank.
func rankLayout(nproc int) (ranks, workers int) {
	ranks = min(2, max(1, nproc))
	return ranks, max(1, nproc/ranks)
}

func newAMRRig() (*amrRig, error) {
	ranks, workers := rankLayout(runtime.NumCPU())
	coarseN := amrFineN / amrRR
	g, err := grid.New(mathutil.V3(0, 0, 0), mathutil.V3(1, 1, 1),
		grid.Spec{Resolution: grid.Uniform(coarseN), PatchSize: grid.Uniform(amrPatchN / amrRR)},
		grid.Spec{Resolution: grid.Uniform(amrFineN), PatchSize: grid.Uniform(amrPatchN)})
	if err != nil {
		return nil, err
	}
	g.AssignSFC(ranks)
	rmcrt.AlignCoarseOwnership(g)
	rig := &amrRig{g: g, comm: simmpi.NewComm(ranks), ranks: ranks, workers: workers}
	for r := 0; r < ranks; r++ {
		dev := gpu.NewDevice(gpu.K20XMemory, gpu.NewK20X(2.5e8))
		rig.devs = append(rig.devs, dev)
		rig.gdws = append(rig.gdws, gpudw.New(dev))
	}
	return rig, nil
}

// stepOptions returns the solver options of step i: a fresh ray seed
// per step, everything else the defaults.
func stepOptions(seed uint64, i int) rmcrt.Options {
	opts := rmcrt.DefaultOptions()
	opts.NRays = amrRays
	opts.Seed = specSeed(seed, i)
	return opts
}

// stepRecord is one timestep's measurements.
type stepRecord struct {
	idx  int
	seed uint64
	ok   bool
	// wrong marks a divQ that failed an output check.
	wrong  bool
	reason string
	// wallNs is the sched.RunRanks time; latNs adds assembling and
	// checking the divQ.
	wallNs, latNs int64
	work          float64
	taskSec       float64 // all tasks, all ranks
	traceSec      float64 // ray-trace tasks, all ranks
	commSec       float64 // workers' MPI progress time, all ranks
	msgs, bytes   int64
	makespan      float64 // simulated device seconds (max over ranks)
	peakMem       int64   // bytes, summed over devices
	savedBytes    int64
	divq          []float64 // kept for the first and last step
}

// step runs one distributed radiation timestep over the rig.
func (rig *amrRig) step(idx int, opts rmcrt.Options) stepRecord {
	rec := stepRecord{idx: idx, seed: opts.Seed,
		work: float64(amrFineN*amrFineN*amrFineN) * float64(opts.NRays)}
	for _, d := range rig.devs {
		d.ResetTimeline()
	}
	before := rig.comm.TotalStats()
	var saved0 int64
	for _, g := range rig.gdws {
		saved0 += g.SavedBytes()
	}
	scheds := make([]*sched.Scheduler, rig.ranks)
	t0 := time.Now()
	stats, err := sched.RunRanks(rig.ranks, func(rank int) (*sched.Scheduler, error) {
		s := sched.NewScheduler(rank, rig.workers, rig.g, dw.New(1), dw.New(0), rig.comm)
		s.AttachGPU(rig.devs[rank], rig.gdws[rank])
		solve := &rmcrt.DistributedRadiationSolve{Grid: rig.g, Opts: opts, Props: rmcrt.FillBenchmark, UseGPU: true}
		if err := solve.Register(s); err != nil {
			return nil, err
		}
		scheds[rank] = s
		return s, nil
	})
	rec.wallNs = int64(time.Since(t0))
	if err != nil {
		rec.reason = fmt.Sprintf("step %d: %v", idx, err)
		rec.latNs = int64(time.Since(t0))
		return rec
	}
	divq, err := assemble(rig.g, scheds)
	rec.latNs = int64(time.Since(t0))
	if err != nil {
		rec.wrong, rec.reason = true, fmt.Sprintf("step %d: %v", idx, err)
		return rec
	}
	rec.divq = divq
	after := rig.comm.TotalStats()
	rec.msgs, rec.bytes = after.MessagesSent-before.MessagesSent, after.BytesSent-before.BytesSent
	for _, st := range stats {
		for name, sec := range st.TaskSeconds {
			rec.taskSec += sec
			if strings.Contains(name, "rayTrace") {
				rec.traceSec += sec
			}
		}
		rec.commSec += st.LocalCommSeconds
		rec.makespan = max(rec.makespan, st.DeviceMakespan)
		rec.peakMem += st.DevicePeakMem
	}
	for _, g := range rig.gdws {
		rec.savedBytes += g.SavedBytes()
	}
	rec.savedBytes -= saved0
	rec.ok = true
	return rec
}

// assemble gathers the fine-level divQ from every rank's warehouse and
// checks that every cell is present and finite.
func assemble(g *grid.Grid, scheds []*sched.Scheduler) ([]float64, error) {
	fine := g.Levels[len(g.Levels)-1]
	out := field.NewCC[float64](fine.IndexBox())
	for _, p := range fine.Patches {
		v, err := scheds[p.Rank].DW.GetCC(rmcrt.LabelDivQ, p.ID)
		if err != nil {
			return nil, fmt.Errorf("wrong result: patch %d: %w", p.ID, err)
		}
		p.Cells.ForEach(func(c grid.IntVector) { out.Set(c, v.At(c)) })
	}
	data := out.Data()
	if len(data) != fine.NumCells() {
		return nil, fmt.Errorf("wrong result: %d cells, want %d", len(data), fine.NumCells())
	}
	for i, x := range data {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("wrong result: divQ[%d] = %v", i, x)
		}
	}
	return data, nil
}

// referenceDivQ solves the same step on a single node with the
// multi-level benchmark domain — the verification reference and, run
// on one core, the plain single-threaded baseline.
func referenceDivQ(opts rmcrt.Options) ([]float64, error) {
	g, mk, err := rmcrt.NewMultiLevelBenchmark(amrFineN, amrPatchN, amrRR, opts.HaloCells)
	if err != nil {
		return nil, err
	}
	fine := g.Levels[1]
	out := field.NewCC[float64](fine.IndexBox())
	for _, p := range fine.Patches {
		dom, err := mk(p)
		if err != nil {
			return nil, err
		}
		part, err := dom.SolveRegion(p.Cells, &opts)
		if err != nil {
			return nil, err
		}
		p.Cells.ForEach(func(c grid.IntVector) { out.Set(c, part.At(c)) })
	}
	return out.Data(), nil
}

// setUpAMR builds the rig and runs one warm-up step, returning the rig
// and the seconds it took.
func setUpAMR(seed uint64) (*amrRig, float64, error) {
	t0 := time.Now()
	rig, err := newAMRRig()
	if err != nil {
		return nil, 0, err
	}
	if r := rig.step(-1, stepOptions(seed^0x5eed, -1)); !r.ok {
		return nil, 0, fmt.Errorf("warm-up step: %s", r.reason)
	}
	return rig, time.Since(t0).Seconds(), nil
}

// runSteps runs timesteps until span has passed. Only the first and
// last steps keep their divQ, for the bitwise check.
func runSteps(rig *amrRig, seed uint64, span time.Duration) ([]stepRecord, time.Duration) {
	var recs []stepRecord
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < span; i++ {
		r := rig.step(i, stepOptions(seed, i))
		if n := len(recs); n > 1 {
			recs[n-1].divq = nil
		}
		recs = append(recs, r)
	}
	return recs, time.Since(start)
}

// verifySteps compares the kept divQ of the first and last steps bit
// for bit with the single-node reference. refs caches references by
// seed; serialMs, when non-nil, receives the time of one reference
// solve run on a single core.
func verifySteps(recs []stepRecord, refs map[uint64][]float64, serialMs *float64) (int, error) {
	checked := 0
	for i := range recs {
		r := &recs[i]
		if !r.ok || r.divq == nil {
			continue
		}
		want, ok := refs[r.seed]
		if !ok {
			opts := stepOptions(0, 0)
			opts.Seed = r.seed
			var err error
			if serialMs != nil && *serialMs == 0 {
				prev := runtime.GOMAXPROCS(1)
				t0 := time.Now()
				want, err = referenceDivQ(opts)
				*serialMs = float64(time.Since(t0)) / 1e6
				runtime.GOMAXPROCS(prev)
			} else {
				want, err = referenceDivQ(opts)
			}
			if err != nil {
				return checked, fmt.Errorf("reference solve: %w", err)
			}
			refs[r.seed] = want
		}
		checked++
		if err := bitwiseEqual(r.divq, want); err != nil {
			r.ok, r.wrong, r.reason = false, true, fmt.Sprintf("step %d: wrong result: %v", r.idx, err)
		}
		r.divq = nil
	}
	return checked, nil
}
