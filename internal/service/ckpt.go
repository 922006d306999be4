package service

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"

	"github.com/uintah-repro/rmcrt/internal/field"
	"github.com/uintah-repro/rmcrt/internal/grid"
	"github.com/uintah-repro/rmcrt/internal/rmcrt"
	"github.com/uintah-repro/rmcrt/internal/uda"
)

// Checkpointed solving. A 2-level spec decomposes into independent
// per-patch problems; persisting each finished patch's divQ into a UDA
// lets a daemon that died mid-solve resume by recomputing only the
// unfinished patches. The solver is deterministic per problem, so the
// resumed result is bitwise identical to an uninterrupted solve — and a
// torn per-patch payload (per-payload CRC) just demotes that one patch
// back to "recompute".

// Label and timestep under which per-problem results are checkpointed.
const ckptLabel = "divQ"

// CheckpointOptions configures SolveCheckpointed.
type CheckpointOptions struct {
	// Dir is the checkpoint archive directory for this solve. Created if
	// absent; an unreadable archive (torn index) is discarded and
	// recreated — a checkpoint is an optimization, never a correctness
	// input.
	Dir string
	// OnCheckpoint, if set, runs after each problem's result is durably
	// saved (metrics / test hooks).
	OnCheckpoint func(problem int)
	// BeforeProblem, if set, runs before each *recomputed* problem with
	// the count of problems finished so far in this attempt. Returning an
	// error aborts the solve — the chaos harness uses it to park a solve
	// at a chosen point and simulate a SIGKILL.
	BeforeProblem func(done int) error
	// Trace, if set, receives the tracing engine's tile/ray/step metrics
	// for every recomputed problem (resumed problems trace no rays and
	// report nothing).
	Trace *rmcrt.TraceMetrics
	// Packed, if set, draws each recomputed problem's packed property
	// tables from the shared cache instead of packing privately. Like
	// Trace, it is side-channel only: divQ is bitwise independent of it.
	Packed *PackedCache
}

// SolveCheckpointed is Solve with durable per-problem progress under
// opt.Dir. Already checkpointed problems are loaded (strictly:
// CRC-verified, finite) instead of recomputed; the rest are solved and
// checkpointed as they finish. On success the checkpoint directory is
// removed; on error it persists so the next attempt resumes. resumed
// reports how many problems were restored from the archive rather than
// solved. With no Dir it checkpoints nothing: it is the one solve loop
// behind Solve and SolveShared too.
func (s Spec) SolveCheckpointed(ctx context.Context, opt CheckpointOptions) (divQ *field.CC[float64], rays, steps int64, resumed int, err error) {
	out, probs, err := s.problems()
	if err != nil {
		return nil, 0, 0, 0, err
	}
	var arch *uda.Archive
	if opt.Dir != "" {
		if arch, err = openOrResetArchive(opt.Dir, s.Key()); err != nil {
			return nil, 0, 0, 0, err
		}
	}

	opts := s.Options()
	n := s.Normalized()
	done := 0
	for _, pr := range probs {
		if arch != nil {
			prev, err := arch.LoadCC(0, ckptLabel, pr.id)
			if err == nil && prev.Box() == pr.region {
				pr.region.ForEach(func(c grid.IntVector) { out.Set(c, prev.At(c)) })
				resumed++
				done++
				continue
			}
			if err != nil && !errors.Is(err, uda.ErrCorrupt) && !errors.Is(err, uda.ErrNonFinite) && !errors.Is(err, fs.ErrNotExist) {
				return nil, rays, steps, resumed, fmt.Errorf("service: checkpoint read: %w", err)
			}
		}
		if opt.BeforeProblem != nil {
			if err := opt.BeforeProblem(done); err != nil {
				return nil, rays, steps, resumed, err
			}
		}
		var release func()
		if opt.Packed != nil {
			if release, err = opt.Packed.attach(n, pr.domain); err != nil {
				return nil, rays, steps, resumed, err
			}
		}
		r, st, err := pr.solve(ctx, &opts, out, opt.Trace)
		if release != nil {
			release()
		}
		rays += r
		steps += st
		if err != nil {
			return nil, rays, steps, resumed, err
		}
		done++
		if arch == nil {
			continue
		}
		part := field.NewCC[float64](pr.region)
		pr.region.ForEach(func(c grid.IntVector) { part.Set(c, out.At(c)) })
		if err := arch.SaveCC(0, ckptLabel, pr.id, part); err != nil {
			return nil, rays, steps, resumed, fmt.Errorf("service: checkpoint write: %w", err)
		}
		if opt.OnCheckpoint != nil {
			opt.OnCheckpoint(pr.id)
		}
	}
	// Complete: the checkpoint has served its purpose.
	if arch != nil {
		if err := os.RemoveAll(opt.Dir); err != nil {
			return out, rays, steps, resumed, fmt.Errorf("service: checkpoint cleanup: %w", err)
		}
	}
	return out, rays, steps, resumed, nil
}

// openOrResetArchive opens the checkpoint archive at dir with strict
// reads, creating (or recreating, if the archive's index is unreadable)
// an empty one when needed. Deliberately *not* uda.OpenRepair: repair
// quarantines whole timesteps, but all per-problem checkpoints share
// one timestep — per-payload CRCs at load time give the finer
// resolution where one torn patch demotes only itself.
func openOrResetArchive(dir, key string) (*uda.Archive, error) {
	arch, err := uda.Open(dir)
	if err != nil {
		if rmErr := os.RemoveAll(dir); rmErr != nil {
			return nil, fmt.Errorf("service: checkpoint reset: %w", rmErr)
		}
		arch, err = uda.Create(dir, "rmcrtd checkpoint "+key)
		if err != nil {
			return nil, fmt.Errorf("service: checkpoint create: %w", err)
		}
	}
	arch.Strict = true
	return arch, nil
}
