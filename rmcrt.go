// Package rmcrt is the public API of the Uintah RMCRT reproduction: a
// reverse Monte Carlo ray tracing radiation solver with adaptive mesh
// refinement, the mini-Uintah runtime it runs on (AMR grid,
// DataWarehouse, DAG task scheduler, simulated MPI and GPU), the
// discrete-ordinates baseline, and the Titan-scale performance models
// that regenerate the paper's figures.
//
// Quick start (the Burns & Christon benchmark on one level):
//
//	dom, _, err := rmcrt.NewBenchmarkDomain(41)
//	if err != nil { ... }
//	opts := rmcrt.DefaultOptions()
//	divQ, err := dom.SolveRegionCtx(ctx, dom.Levels[0].Level.IndexBox(), &opts)
//
// Every engine query takes a context first and returns promptly with a
// non-nil error once it is cancelled.
//
// The subpackage structure mirrors the paper's systems; see DESIGN.md.
// This package re-exports the most commonly used entry points so that
// applications need a single import.
package rmcrt

import (
	"github.com/uintah-repro/rmcrt/internal/arches"
	"github.com/uintah-repro/rmcrt/internal/dom"
	"github.com/uintah-repro/rmcrt/internal/grid"
	"github.com/uintah-repro/rmcrt/internal/mathutil"
	"github.com/uintah-repro/rmcrt/internal/perfmodel"
	"github.com/uintah-repro/rmcrt/internal/rmcrt"
	"github.com/uintah-repro/rmcrt/internal/sim"
)

// --- Core ray tracer ---------------------------------------------------

// Options configures an RMCRT solve (rays per cell, extinction
// threshold, halo width, wall properties, scattering).
type Options = rmcrt.Options

// Domain is the tracer's view of the AMR hierarchy.
type Domain = rmcrt.Domain

// WallFace identifies one face of the enclosure for boundary-flux
// queries.
type WallFace = rmcrt.WallFace

// Enclosure faces.
const (
	XMinus = rmcrt.XMinus
	XPlus  = rmcrt.XPlus
	YMinus = rmcrt.YMinus
	YPlus  = rmcrt.YPlus
	ZMinus = rmcrt.ZMinus
	ZPlus  = rmcrt.ZPlus
)

// DefaultOptions returns the paper's benchmark configuration (100 rays
// per cell, 1e-4 threshold, cold black walls, 4-cell halo).
func DefaultOptions() Options { return rmcrt.DefaultOptions() }

// NewBenchmarkDomain builds the single-level Burns & Christon benchmark
// at resolution n³.
func NewBenchmarkDomain(n int) (*Domain, *Grid, error) { return rmcrt.NewBenchmarkDomain(n) }

// NewMultiLevelBenchmark builds the paper's 2-level benchmark (fine
// fineN³ in patchN³ patches, coarse fineN/rr³) and returns a per-patch
// domain constructor.
func NewMultiLevelBenchmark(fineN, patchN, rr, halo int) (*Grid, func(p *Patch) (*Domain, error), error) {
	return rmcrt.NewMultiLevelBenchmark(fineN, patchN, rr, halo)
}

// FillBenchmark fills benchmark properties over a window.
var FillBenchmark = rmcrt.FillBenchmark

// FluxMap is a 2-D incident-flux map over one enclosure face.
type FluxMap = rmcrt.FluxMap

// NewGrayAsSpectral wraps a gray domain as a 1-band spectral domain.
var NewGrayAsSpectral = rmcrt.NewGrayAsSpectral

// BoilerSpec configures the synthetic boiler geometry; DefaultBoiler
// returns utility-boiler-like parameters.
type BoilerSpec = rmcrt.BoilerSpec

// DefaultBoiler returns representative oxy-coal boiler parameters.
func DefaultBoiler() BoilerSpec { return rmcrt.DefaultBoiler() }

// NewBoilerDomain builds the boiler interior (flame core, tube banks)
// as a single-level tracer domain.
var NewBoilerDomain = rmcrt.NewBoilerDomain

// --- Grid and fields ----------------------------------------------------

// Grid is the structured AMR hierarchy (coarsest level first).
type Grid = grid.Grid

// Patch is a box of cells, the unit of work distribution.
type Patch = grid.Patch

// IntVector is a 3-component cell index.
type IntVector = grid.IntVector

// Box is a half-open box of cell indices.
type Box = grid.Box

// Spec describes one level when building a grid.
type GridSpec = grid.Spec

// Vec3 is a physical-space 3-vector.
type Vec3 = mathutil.Vec3

// NewGrid builds an AMR grid over [lo, hi] from level specs (coarsest
// first).
func NewGrid(lo, hi Vec3, specs ...GridSpec) (*Grid, error) { return grid.New(lo, hi, specs...) }

// IV constructs an IntVector.
func IV(x, y, z int) IntVector { return grid.IV(x, y, z) }

// V3 constructs a Vec3.
func V3(x, y, z float64) Vec3 { return mathutil.V3(x, y, z) }

// --- Baseline and coupling ----------------------------------------------

// DOMProblem is a discrete-ordinates baseline configuration.
type DOMProblem = dom.Problem

// SolveDOM runs the discrete ordinates baseline; SolveDOMParallel is
// the wavefront-parallel (KBA-style) variant with bitwise-identical
// results.
var (
	SolveDOM         = dom.Solve
	SolveDOMParallel = dom.SolveParallel
)

// S2 and S4 are level-symmetric quadrature sets.
var (
	S2 = dom.S2
	S4 = dom.S4
)

// EnergySolver is the mini-ARCHES energy equation solver coupled to
// RMCRT radiation.
type EnergySolver = arches.Solver

// EnergyConfig configures the energy solver.
type EnergyConfig = arches.Config

// CheckpointPolicy says when EnergySolver.Run snapshots state into an
// archive (every N steps, on failure, with a retention bound).
type CheckpointPolicy = arches.CheckpointPolicy

// ResumeSolverFrom reopens a checkpoint archive after a crash,
// quarantines torn checkpoints, and restarts from the newest loadable
// one — the resumed run continues bit-identical to an uninterrupted
// run.
var ResumeSolverFrom = arches.ResumeFrom

// --- Performance models and scaling studies ------------------------------

// Machine is a node/interconnect model; Titan returns the paper's
// system.
type Machine = perfmodel.Machine

// Titan returns the DOE Titan XK7 machine model.
func Titan() Machine { return perfmodel.Titan() }

// LargeProblem is the paper's large benchmark size.
var LargeProblem = perfmodel.Large

// ScalingConfig controls a strong-scaling simulation.
type ScalingConfig = sim.Config

// DefaultScalingConfig returns Titan with the improved infrastructure.
func DefaultScalingConfig() ScalingConfig { return sim.DefaultConfig() }

// StrongScaling sweeps GPU counts for one problem (Figures 2 and 3).
var StrongScaling = sim.StrongScaling

// Efficiency computes parallel efficiency between two points (paper
// equation 3).
var Efficiency = sim.Efficiency

// TableI regenerates the local-communication comparison of Table I.
var TableI = sim.TableI
