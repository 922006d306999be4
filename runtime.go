package rmcrt

import (
	"github.com/uintah-repro/rmcrt/internal/dw"
	"github.com/uintah-repro/rmcrt/internal/gpu"
	"github.com/uintah-repro/rmcrt/internal/gpudw"
	"github.com/uintah-repro/rmcrt/internal/production"
	"github.com/uintah-repro/rmcrt/internal/rmcrt"
	"github.com/uintah-repro/rmcrt/internal/sched"
	"github.com/uintah-repro/rmcrt/internal/service"
	"github.com/uintah-repro/rmcrt/internal/simmpi"
	"github.com/uintah-repro/rmcrt/internal/uda"
)

// --- Mini-Uintah runtime -------------------------------------------------
//
// These re-exports expose the runtime system the radiation model runs
// on: the DAG task scheduler with its staged GPU queues, the host and
// GPU DataWarehouses (including the per-level database of contribution
// ii) and the simulated MPI layer.

// NewScheduler constructs a scheduler for one rank.
var NewScheduler = sched.NewScheduler

// DataWarehouse is one generation of the variable store.
type DataWarehouse = dw.DW

// NewDataWarehouse creates an empty warehouse generation.
var NewDataWarehouse = dw.New

// NewDevice creates a device with a memory capacity and cost model.
var NewDevice = gpu.NewDevice

// NewK20X returns the Titan device cost model.
var NewK20X = gpu.NewK20X

// K20XMemory is the 6 GB global memory of a Tesla K20X.
const K20XMemory = gpu.K20XMemory

// NewGPUDataWarehouse binds a GPU warehouse to a device.
var NewGPUDataWarehouse = gpudw.New

// Comm is the in-process message-passing layer with MPI semantics.
type Comm = simmpi.Comm

// NewComm creates a communicator over n ranks.
var NewComm = simmpi.NewComm

// GPURadiationSolve assembles the GPU multi-level RMCRT timestep as a
// task graph over a scheduler (properties -> coarsen -> staged GPU ray
// trace per patch).
type GPURadiationSolve = rmcrt.GPURadiationSolve

// LabelDivQ labels the radiative source term the task graph computes.
const LabelDivQ = rmcrt.LabelDivQ

// --- Output archive and production driver --------------------------------

// CreateArchive makes a new archive directory; OpenRepairArchive opens
// one and quarantines torn timesteps (the crash-recovery open path).
var (
	CreateArchive     = uda.Create
	OpenRepairArchive = uda.OpenRepair
)

// Typed archive corruption errors: a torn or damaged payload always
// fails as ErrArchiveCorrupt (with ErrArchiveTruncated /
// ErrArchiveChecksum as the specific causes).
var (
	ErrArchiveCorrupt   = uda.ErrCorrupt
	ErrArchiveTruncated = uda.ErrTruncated
	ErrArchiveChecksum  = uda.ErrChecksum
)

// DefaultProductionConfig returns a laptop-scale hot-box run.
var DefaultProductionConfig = production.DefaultConfig

// RunProduction executes the coupled multi-timestep simulation.
var RunProduction = production.Run

// --- Radiation service and observability ---------------------------------
//
// These re-exports expose the rmcrtd serving layer: a job manager that
// runs RMCRT solves on a bounded worker pool with admission control,
// single-flight coalescing, and a content-addressed result cache.

// SolveServiceConfig sizes the worker pool, queue, and cache.
type SolveServiceConfig = service.Config

// SolveSpec describes one solve request (benchmark or uniform medium,
// one or two levels).
type SolveSpec = service.Spec

// NewSolveService starts the worker pool.
var NewSolveService = service.New
