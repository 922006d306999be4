package rmcrt

import (
	"github.com/uintah-repro/rmcrt/internal/alloc"
	"github.com/uintah-repro/rmcrt/internal/commpool"
	"github.com/uintah-repro/rmcrt/internal/dw"
	"github.com/uintah-repro/rmcrt/internal/gpu"
	"github.com/uintah-repro/rmcrt/internal/gpudw"
	"github.com/uintah-repro/rmcrt/internal/metrics"
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
// ii), the simulated MPI layer, and the wait-free communication-record
// pool of contribution iii.

// Scheduler executes one rank's task graph for one timestep.
type Scheduler = sched.Scheduler

// Task is one schedulable unit of work.
type Task = sched.Task

// TaskDep declares a "requires" edge; TaskCompute a "computes".
type (
	TaskDep     = sched.Dep
	TaskCompute = sched.Compute
)

// TaskContext is handed to task bodies.
type TaskContext = sched.Context

// GPUStages are the H2D/kernel/D2H phases of a device task.
type GPUStages = sched.GPUStages

// ExternalRecv declares a variable arriving from another rank.
type ExternalRecv = sched.ExternalRecv

// GhostGlobal requests a whole-level ("infinite ghost cells") window.
const GhostGlobal = sched.GhostGlobal

// NewScheduler constructs a scheduler for one rank.
var NewScheduler = sched.NewScheduler

// RunRanks drives one scheduler per rank concurrently.
var RunRanks = sched.RunRanks

// DataWarehouse is one generation of the variable store.
type DataWarehouse = dw.DW

// NewDataWarehouse creates an empty warehouse generation.
var NewDataWarehouse = dw.New

// Device is the simulated K20X-class GPU.
type Device = gpu.Device

// DeviceCostModel prices simulated device operations.
type DeviceCostModel = gpu.CostModel

// NewDevice creates a device with a memory capacity and cost model.
var NewDevice = gpu.NewDevice

// NewK20X returns the Titan device cost model.
var NewK20X = gpu.NewK20X

// K20XMemory is the 6 GB global memory of a Tesla K20X.
const K20XMemory = gpu.K20XMemory

// GPUDataWarehouse is the device-side warehouse with the shared
// per-level database.
type GPUDataWarehouse = gpudw.DW

// NewGPUDataWarehouse binds a GPU warehouse to a device.
var NewGPUDataWarehouse = gpudw.New

// Comm is the in-process message-passing layer with MPI semantics.
type Comm = simmpi.Comm

// NewComm creates a communicator over n ranks.
var NewComm = simmpi.NewComm

// CommPool is the wait-free communication-record pool (Algorithm 1).
type CommPool = commpool.Pool

// CommRecord is one outstanding communication.
type CommRecord = commpool.Record

// NewCommPool returns an empty wait-free pool.
var NewCommPool = commpool.NewPool

// LegacyRequestVector is the pre-improvement container, for comparison.
type LegacyRequestVector = commpool.LegacyVector

// NewLegacyRequestVector returns an empty legacy container.
var NewLegacyRequestVector = commpool.NewLegacyVector

// GPURadiationSolve assembles the GPU multi-level RMCRT timestep as a
// task graph over a scheduler (properties -> coarsen -> staged GPU ray
// trace per patch).
type GPURadiationSolve = rmcrt.GPURadiationSolve

// PropsFunc supplies radiative properties to the radiation task graph.
type PropsFunc = rmcrt.PropsFunc

// Variable labels used by the radiation task graph.
const (
	LabelAbskg   = rmcrt.LabelAbskg
	LabelSigmaT4 = rmcrt.LabelSigmaT4
	LabelCellTyp = rmcrt.LabelCellTyp
	LabelDivQ    = rmcrt.LabelDivQ
)

// --- Output archive and production driver --------------------------------

// Archive is the UDA-style data archive (timestep output, checkpoints).
type Archive = uda.Archive

// CreateArchive makes a new archive directory; OpenArchive loads one;
// OpenRepairArchive additionally quarantines torn timesteps (the
// crash-recovery open path).
var (
	CreateArchive     = uda.Create
	OpenArchive       = uda.Open
	OpenRepairArchive = uda.OpenRepair
)

// Typed archive corruption errors: a torn or damaged payload always
// fails as ErrArchiveCorrupt (with ErrArchiveTruncated /
// ErrArchiveChecksum as the specific causes); a strict reader rejects
// non-finite cells with ErrArchiveNonFinite.
var (
	ErrArchiveCorrupt   = uda.ErrCorrupt
	ErrArchiveTruncated = uda.ErrTruncated
	ErrArchiveChecksum  = uda.ErrChecksum
	ErrArchiveNonFinite = uda.ErrNonFinite
)

// ProductionConfig configures the coupled energy+radiation driver.
type ProductionConfig = production.Config

// ProductionResult carries a production run's history and final state.
type ProductionResult = production.Result

// DefaultProductionConfig returns a laptop-scale hot-box run.
var DefaultProductionConfig = production.DefaultConfig

// RunProduction executes the coupled multi-timestep simulation.
var RunProduction = production.Run

// Radiometer is a virtual solid-angle-limited flux instrument.
type Radiometer = rmcrt.Radiometer

// RadiometerReading is the instrument output.
type RadiometerReading = rmcrt.RadiometerReading

// MemoryTracker records per-tag allocation peaks across scaling runs.
type MemoryTracker = alloc.Tracker

// NewMemoryTracker returns an empty tracker; FindNonScaling compares
// snapshots across node counts.
var (
	NewMemoryTracker = alloc.NewTracker
	FindNonScaling   = alloc.FindNonScaling
)

// MemorySnapshot is one run's per-tag peaks.
type MemorySnapshot = alloc.Snapshot

// --- Radiation service and observability ---------------------------------
//
// These re-exports expose the rmcrtd serving layer: a job manager that
// runs RMCRT solves on a bounded worker pool with admission control,
// single-flight coalescing, and a content-addressed result cache, plus
// the metrics registry the runtime publishes into.

// SolveService runs radiation solves as managed jobs.
type SolveService = service.Manager

// SolveServiceConfig sizes the worker pool, queue, and cache.
type SolveServiceConfig = service.Config

// SolveSpec describes one solve request (benchmark or uniform medium,
// one or two levels).
type SolveSpec = service.Spec

// SolveJobStatus is a point-in-time snapshot of a job.
type SolveJobStatus = service.JobStatus

// NewSolveService starts the worker pool; RecoverSolveService is the
// same start with journal replay surfaced as an error instead of a
// panic.
var (
	NewSolveService     = service.New
	RecoverSolveService = service.Recover
)

// SolveRecoveryStats reports what a journal replay rebuilt at startup.
type SolveRecoveryStats = service.RecoveryStats

// JobJournal is the service's write-ahead job journal; JournalRecord is
// one entry; ErrTornJournal marks a journal with a truncated or corrupt
// tail record (the residue of a crash mid-append).
type (
	JobJournal    = service.Journal
	JournalRecord = service.JournalRecord
)

// OpenJobJournal opens (creating if needed) a journal for appending;
// ReplayJobJournal reads one back.
var (
	OpenJobJournal   = service.OpenJournal
	ReplayJobJournal = service.ReplayJournal
	ErrTornJournal   = service.ErrTornJournal
)

// NewServiceHandler builds the rmcrtd job HTTP API around a service
// Manager, with its edge configuration.
var NewServiceHandler = service.NewHandlerConfig[service.JobStatus]

// ErrQueueFull is the typed admission-control rejection.
var ErrQueueFull = service.ErrQueueFull

// MetricsRegistry holds named counters, gauges, and histograms with a
// plain-text exposition format.
type MetricsRegistry = metrics.Registry

// NewMetricsRegistry returns an empty registry.
var NewMetricsRegistry = metrics.NewRegistry
