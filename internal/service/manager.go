package service

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/uintah-repro/rmcrt/internal/calib"
	"github.com/uintah-repro/rmcrt/internal/field"
	"github.com/uintah-repro/rmcrt/internal/metrics"
	"github.com/uintah-repro/rmcrt/internal/rmcrt"
)

// Admission and lifecycle errors.
var (
	// ErrQueueFull rejects a submission when the bounded queue already
	// holds its depth of work of the same or a more urgent class —
	// backpressure instead of unbounded growth. HTTP maps it to 429.
	ErrQueueFull = errors.New("service: submission queue full")
	// ErrClosed rejects submissions after Close has begun.
	ErrClosed = errors.New("service: manager closed")
	// ErrNotFound reports an unknown job ID.
	ErrNotFound = errors.New("service: no such job")
	// ErrJobFinished reports a cancel attempt on a terminal job.
	ErrJobFinished = errors.New("service: job already finished")
	// ErrTooLarge rejects a spec over the per-job cell budget.
	ErrTooLarge = errors.New("service: problem exceeds per-job cell budget")
	// ErrDeadlineExceeded fails a job whose solve outran the
	// per-job deadline (Config.JobDeadline) — the job is failed, not
	// cancelled: the client did not ask for it to stop.
	ErrDeadlineExceeded = errors.New("service: job deadline exceeded")
	// ErrDeadlineInfeasible rejects a submission whose predicted solve
	// time (Config.Calibration) already exceeds its remaining deadline
	// budget: it could not finish in time even on an idle worker, so
	// admitting it would only burn a slot to manufacture a guaranteed
	// deadline failure. HTTP maps it to 422 — retrying the same job
	// with the same deadline can never succeed.
	ErrDeadlineInfeasible = errors.New("service: deadline infeasible for predicted solve time")
)

// State is a job's lifecycle phase.
type State string

// Job lifecycle: queued → running → done | failed | cancelled.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final (done, failed or
// cancelled).
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Job is one tracked solve request: the shared lifecycle record plus
// the daemon's solve bookkeeping. A done job's result lives in the
// manager's result cache under its Key, not in the job. All fields are
// guarded by the manager's mutex; callers observe jobs through Status /
// Result / Wait.
type Job struct {
	JobRecord
	rays      int64
	steps     int64
	raysSaved int64
	fromCache bool
	coalesced bool
	ephemeral bool // terminal at submit (expired deadline): never journaled
	pinned    bool // done, holding its cache entry until first delivery

	fl *flight
}

// JobStatus is the externally visible snapshot of a job on either
// serving plane: the daemon's Manager and the router's Cluster answer
// with it, and Client decodes it. The router-only fields stay empty on
// a daemon, so each plane emits only its own keys.
type JobStatus struct {
	ID  string `json:"id"`
	Key string `json:"key"`
	// Class is the job's SLO class ("interactive" / "batch" /
	// "best-effort"); the cluster router schedules on it.
	Class string `json:"class,omitempty"`
	State State  `json:"state"`
	// Shard is where a router job is (or last was) placed.
	Shard string `json:"shard,omitempty"`
	// ShardJobID is the shard's own ID for a router job's placement.
	ShardJobID string `json:"shard_job_id,omitempty"`
	// Attempts counts a router job's placements; >1 means it was
	// rerouted.
	Attempts int `json:"attempts,omitempty"`
	// EstCostSteps is the router's predicted DDA cell-step count for the
	// job; EstSeconds the predicted wall-seconds derived from it, which
	// the deadline feasibility check holds against the budget.
	EstCostSteps float64   `json:"est_cost_steps,omitempty"`
	EstSeconds   float64   `json:"est_seconds,omitempty"`
	Submitted    time.Time `json:"submitted"`
	// QueueSeconds is time from submission to solve start (or to now /
	// terminal for jobs that never started).
	QueueSeconds float64 `json:"queue_seconds"`
	// RunSeconds is solve wall time (0 until started).
	RunSeconds float64 `json:"run_seconds"`
	Rays       int64   `json:"rays,omitempty"`
	Steps      int64   `json:"steps,omitempty"`
	// RaysSaved is how many rays the adaptive budget avoided tracing
	// versus the spec's AdaptiveMaxRays upper bound (0 for fixed-budget
	// solves, and for cache hits, which traced nothing either way).
	RaysSaved int64  `json:"rays_saved,omitempty"`
	FromCache bool   `json:"from_cache,omitempty"`
	Coalesced bool   `json:"coalesced,omitempty"`
	Error     string `json:"error,omitempty"`
}

// flight is one in-flight solve shared by every job with the same key
// (single-flight coalescing). refs counts attached non-terminal jobs;
// when the last one cancels, the solve's context is cancelled too.
type flight struct {
	key    string
	spec   Spec
	ctx    context.Context
	cancel context.CancelFunc
	jobs   []*Job
	refs   int
	// deadline bounds the solve (zero = unbounded). It is the loosest
	// deadline over the attached jobs — a coalesced job without one
	// makes the flight unbounded — so riding on a shared solve never
	// tightens what any job asked for. Guarded by the manager's mutex;
	// the solve snapshots it at dequeue.
	deadline time.Time
}

// Config sizes a Manager. Zero values take defaults.
type Config struct {
	// Workers is the solve worker pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the submission queue per class (default 16): a
	// fresh solve of class c fails with ErrQueueFull when QueueDepth
	// solves of class c or a more urgent one are already queued. With
	// the three classes Spec.Validate admits, at most 3 × QueueDepth
	// solves wait. Coalesced and cache-hit submissions take no slot,
	// and journal recovery queues past the bound.
	QueueDepth int
	// CacheEntries bounds the finished results kept after delivery
	// (default 64; negative keeps none and disables cache hits). A done
	// job's result stays resident until its first Result or Payload;
	// after that it is one of at most CacheEntries idle entries, serving
	// cache hits and repeat reads, and a repeat read after its eviction
	// finds no result (HTTP 410).
	CacheEntries int
	// MaxCells is the per-job fine-level cell budget (default 2²¹ ≈
	// 2.1M cells, a 128³ problem); larger specs are rejected with
	// ErrTooLarge.
	MaxCells int64
	// JobDeadline bounds one solve attempt's wall time (0 = none).
	// A job whose solve outruns it fails with ErrDeadlineExceeded —
	// typed degradation instead of a worker pinned forever.
	JobDeadline time.Duration
	// Solver overrides how a spec is solved (default: in-process, with
	// the engine's metrics, the shared packed tables and, when
	// CheckpointDir is set, per-problem checkpoints). The hook is the
	// seam for alternate backends and for fault-injection tests; it must
	// preserve Spec.Solve's determinism contract.
	Solver func(ctx context.Context, spec Spec) (*field.CC[float64], int64, int64, error)
	// Calibration, when set, predicts a spec's solve wall-seconds at
	// admission time (perfgate -calibrate measures one). Submissions
	// with a deadline whose prediction exceeds the remaining budget are
	// rejected with ErrDeadlineInfeasible; nil disables estimation
	// entirely.
	Calibration *calib.Calibration
	// Metrics receives the service's instrumentation (a fresh registry
	// is created when nil).
	Metrics *metrics.Registry
	// JournalPath, when set, enables the write-ahead job journal: every
	// accepted job is durably recorded before it runs, and Recover
	// replays the journal so queued and running jobs survive a daemon
	// crash ("" = no journal).
	JournalPath string
	// CheckpointDir, when set (and Solver is not overridden), makes
	// solves checkpoint per-problem progress under
	// CheckpointDir/<spec key>, so a recovered job resumes from its last
	// finished patch instead of re-solving from scratch ("" = no
	// checkpoints).
	CheckpointDir string
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 64
	}
	if c.MaxCells <= 0 {
		c.MaxCells = 1 << 21
	}
	if c.Metrics == nil {
		c.Metrics = metrics.NewRegistry()
	}
	return c
}

// Manager runs solve jobs: bounded class-ordered queue in front of a
// worker pool, per-job lifecycle tracking, content-addressed result
// cache and single-flight coalescing.
type Manager struct {
	cfg Config
	reg *metrics.Registry

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	mu   sync.Mutex
	jobs *JobTable[*Job]
	// queue holds the flights waiting for a worker, each ranked by its
	// lead job; workers wait on work for one to arrive.
	queue *Queue[*flight]
	work  *sync.Cond
	// inflight maps a content key to its queued or running solve
	// (single-flight): identical submissions attach instead of taking
	// a second worker.
	inflight map[string]*flight
	// results holds every finished result, one entry per key, priced 1
	// so that CacheEntries bounds the idle ones. Each done job pins its
	// key's entry until its first delivery through Result or Payload;
	// delivered entries sit idle, serving cache hits and repeat reads.
	results *store[*field.CC[float64]]
	journal *Journal

	recovery RecoveryStats

	mSubmitted, mRejected, mTooLarge            *metrics.Counter
	mCacheHit, mCacheMiss, mEvicted, mCoalesced *metrics.Counter
	mRays, mSteps, mRaysSaved                   *metrics.Counter
	mDeadline                                   *metrics.Counter
	mReplayed, mTornRecords, mRecovered         *metrics.Counter
	mResumedPatches                             *metrics.Counter
	gQueued, gRunning, gLastCkpt                *metrics.Gauge
	gResults, gResultBytes                      *metrics.Gauge
	hSolve                                      *metrics.Histogram
	trace                                       *rmcrt.TraceMetrics
	packed                                      *PackedCache
}

// RecoveryStats describes what Recover rebuilt from the journal.
type RecoveryStats struct {
	// RecordsReplayed counts the whole, checksum-valid journal records.
	RecordsReplayed int
	// JobsRecovered counts the jobs re-enqueued because they were still
	// queued or running at the crash.
	JobsRecovered int
	// TornTail reports that the journal ended in a torn record — the
	// normal residue of a crash mid-append; the record was discarded.
	TornTail bool
}

// New starts a Manager with cfg's worker pool running. It is
// Recover with journal problems treated as fatal; daemons that
// want to handle them use Recover directly.
func New(cfg Config) *Manager {
	m, err := Recover(cfg)
	if err != nil {
		panic(fmt.Sprintf("service: %v", err))
	}
	return m
}

// Recover starts a Manager, first replaying cfg.JournalPath (when set):
// jobs that were queued or running when the previous process died are
// re-created with their original IDs and re-enqueued — coalescing and
// the result cache apply as usual — before any worker starts. A torn
// journal tail (crash mid-append) is discarded and noted in
// RecoveryStats; any deeper journal damage is returned as an error. The
// journal is compacted to the live job set on the way up.
func Recover(cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	if cfg.Calibration != nil {
		if err := cfg.Calibration.Validate(); err != nil {
			return nil, err
		}
	}

	var recs []JournalRecord
	tornTail := false
	if cfg.JournalPath != "" {
		var err error
		recs, err = ReplayJournal(cfg.JournalPath)
		if err != nil {
			if !errors.Is(err, ErrTornJournal) {
				return nil, err
			}
			tornTail = true
		}
	}
	pending := pendingAfter(recs)

	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:        cfg,
		reg:        cfg.Metrics,
		baseCtx:    ctx,
		baseCancel: cancel,
		inflight:   make(map[string]*flight),
		results:    newStore[*field.CC[float64]](int64(cfg.CacheEntries)),
		queue:      NewQueue[*flight](cfg.QueueDepth),
	}
	m.work = sync.NewCond(&m.mu)
	if m.cfg.Solver == nil {
		m.cfg.Solver = m.solve
	}
	r := m.reg
	m.jobs = NewJobTable[*Job](&m.mu, r, "rmcrtd", "j")
	m.mSubmitted = r.Counter("rmcrtd_jobs_submitted_total", "jobs accepted into the queue")
	m.mRejected = r.Counter("rmcrtd_jobs_rejected_total", "jobs rejected because the queue was full")
	m.mTooLarge = r.Counter("rmcrtd_jobs_too_large_total", "jobs rejected by the per-job cell budget")
	m.mCacheHit = r.Counter("rmcrtd_cache_hits_total", "submissions served from the result cache")
	m.mCacheMiss = r.Counter("rmcrtd_cache_misses_total", "submissions that required a solve")
	m.mEvicted = r.Counter("rmcrtd_cache_evictions_total", "result cache LRU evictions")
	m.mCoalesced = r.Counter("rmcrtd_jobs_coalesced_total", "submissions coalesced onto an in-flight identical solve")
	m.mDeadline = r.Counter("rmcrtd_jobs_deadline_exceeded_total", "jobs failed by the per-job deadline")
	m.mRays = r.Counter("rmcrtd_rays_traced_total", "rays traced by completed solves")
	m.mSteps = r.Counter("rmcrtd_cell_steps_total", "DDA cell steps taken by completed solves")
	m.mRaysSaved = r.Counter("rmcrtd_adaptive_rays_saved_total", "rays the adaptive budget avoided tracing versus the AdaptiveMaxRays upper bound")
	m.mReplayed = r.Counter("rmcrtd_journal_records_replayed_total", "journal records replayed at startup")
	m.mTornRecords = r.Counter("rmcrtd_journal_torn_records_total", "torn journal tail records discarded at startup")
	m.mRecovered = r.Counter("rmcrtd_jobs_recovered_total", "jobs re-enqueued from the journal at startup")
	m.mResumedPatches = r.Counter("rmcrtd_ckpt_problems_resumed_total", "solve problems restored from checkpoints instead of recomputed")
	m.gQueued = r.Gauge("rmcrtd_queue_depth", "solves waiting in the submission queue")
	m.gRunning = r.Gauge("rmcrtd_jobs_running", "solves currently executing")
	m.gLastCkpt = r.Gauge("rmcrtd_checkpoint_last_unix_seconds", "unix time of the most recent checkpoint write")
	m.gResults = r.Gauge("rmcrtd_results_resident", "finished results held in memory: pinned until first delivery, plus at most -cache idle ones")
	m.gResultBytes = r.Gauge("rmcrtd_results_resident_bytes", "divQ bytes of the finished results held in memory")
	m.hSolve = r.Histogram("rmcrtd_solve_seconds", "solve wall time", metrics.DefBuckets)
	m.trace = rmcrt.NewTraceMetrics(r)
	// The shared packed-table cache (the level-database analog); the
	// default solver draws per-level tables from it.
	m.packed = NewPackedCache(defaultPackedRetainBytes, r)

	// Restore the pre-crash queue before workers exist, so recovered
	// flights run in their original class and submission order.
	m.recovery = RecoveryStats{RecordsReplayed: len(recs), JobsRecovered: len(pending), TornTail: tornTail}
	m.mReplayed.Add(int64(len(recs)))
	if tornTail {
		m.mTornRecords.Inc()
	}
	m.mRecovered.Add(int64(len(pending)))
	for _, rec := range pending {
		m.restoreJob(rec)
	}
	if cfg.JournalPath != "" {
		j, err := OpenJournal(cfg.JournalPath)
		if err != nil {
			cancel()
			return nil, err
		}
		// Compact away closed jobs (and the torn tail, if any); the live
		// submits were re-appended whole.
		if err := j.Compact(pending); err != nil {
			j.Close()
			cancel()
			return nil, err
		}
		m.journal = j
	}

	for w := 0; w < cfg.Workers; w++ {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			for fl := m.next(); fl != nil; fl = m.next() {
				m.runFlight(fl)
			}
		}()
	}
	return m, nil
}

// next blocks until a flight is queued and takes it, or returns nil
// once the manager is closed and its queue drained.
func (m *Manager) next() *flight {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if fl, ok := m.queue.Pop(); ok {
			m.gQueued.Dec()
			return fl
		}
		if m.jobs.ClosedLocked() {
			return nil
		}
		m.work.Wait()
	}
}

// Recovery reports what the startup journal replay rebuilt.
func (m *Manager) Recovery() RecoveryStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.recovery
}

// restoreJob re-creates one journaled job with its original ID and
// enqueues (or coalesces) it. Runs during Recover, before any worker or
// caller exists, so no locking is needed.
func (m *Manager) restoreJob(rec JournalRecord) {
	job := &Job{JobRecord: newJobRecord(rec.ID, 0, rec.Spec.Normalized(), time.Time{})}
	if rec.Key != "" {
		job.Key = rec.Key
	}
	m.jobs.RestoreLocked(job)
	if fl, ok := m.inflight[job.Key]; ok {
		m.attachLocked(fl, job) // recovered jobs carry no deadline: unbinds the flight
		return
	}
	m.queueFlightLocked(job)
}

// solve is the default solver: in-process, reporting into the
// manager's registry, drawing packed tables from the shared cache and,
// when Config.CheckpointDir is set, persisting per-problem progress
// under CheckpointDir/<key> so a recovered job re-solves only the
// problems its previous incarnation had not finished.
func (m *Manager) solve(ctx context.Context, spec Spec) (*field.CC[float64], int64, int64, error) {
	opt := CheckpointOptions{Trace: m.trace, Packed: m.packed}
	if m.cfg.CheckpointDir != "" {
		opt.Dir = filepath.Join(m.cfg.CheckpointDir, spec.Key())
		opt.OnCheckpoint = func(int) { m.gLastCkpt.Set(time.Now().Unix()) }
	}
	divQ, rays, steps, resumed, err := spec.SolveCheckpointed(ctx, opt)
	m.mResumedPatches.Add(int64(resumed))
	return divQ, rays, steps, err
}

// Registry returns the manager's metrics registry (for /metrics).
func (m *Manager) Registry() *metrics.Registry { return m.reg }

// Packed returns the manager's shared packed-table cache.
func (m *Manager) Packed() *PackedCache { return m.packed }

// Submit validates spec, applies admission control and returns the new
// job's status. The submission is served from the result cache when
// possible, attached to an identical in-flight solve when one exists
// (single-flight), and otherwise enqueued — or rejected with
// ErrQueueFull when the queue is full for the job's class.
func (m *Manager) Submit(spec Spec) (JobStatus, error) {
	return m.SubmitDeadline(spec, time.Time{})
}

// SubmitDeadline is Submit with a per-job absolute deadline (zero =
// none), as propagated over HTTP by DeadlineHeader. A job whose
// deadline has already expired is accepted but fast-failed with
// ErrDeadlineExceeded before touching a worker; a live deadline bounds
// the solve like Config.JobDeadline does, whichever is earlier.
func (m *Manager) SubmitDeadline(spec Spec, deadline time.Time) (JobStatus, error) {
	spec = spec.Normalized()
	if err := spec.Validate(); err != nil {
		return JobStatus{}, err
	}
	if spec.Cells() > m.cfg.MaxCells {
		m.mTooLarge.Inc()
		return JobStatus{}, fmt.Errorf("%w: %d cells > budget %d", ErrTooLarge, spec.Cells(), m.cfg.MaxCells)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.jobs.ClosedLocked() {
		return JobStatus{}, ErrClosed
	}
	job := &Job{JobRecord: m.jobs.NextLocked(spec, deadline)}
	// Cache hits are exempt from both deadline gates: a stored answer
	// is free, and free work meets any deadline.
	var divQ *field.CC[float64]
	if m.cfg.CacheEntries >= 0 {
		divQ = m.results.get(job.Key)
	}
	cached := divQ != nil

	// 0. Dead on arrival: the propagated deadline expired in transit.
	// Fail fast and typed without costing a queue slot, a journal write
	// or a worker.
	if !cached && Expired(deadline, time.Now()) {
		job.ephemeral = true
		m.jobs.AddLocked(job)
		m.finishLocked(job, StateFailed, nil, m.jobs.Expire("before solve start"))
		return job.Snapshot(), nil
	}

	// 0b. Deadline feasibility: with a cost model wired in, a job whose
	// predicted solve time already exceeds its remaining budget is
	// rejected up front — it cannot meet its deadline even on an idle
	// worker, so admitting it would only manufacture a guaranteed
	// deadline failure.
	if m.cfg.Calibration != nil && !cached {
		est := m.cfg.Calibration.Seconds(spec.Work())
		if err := m.jobs.Feasible(job.Class, est, deadline); err != nil {
			return JobStatus{}, err
		}
		m.jobs.Predicted(est)
	}

	// 1. Content-addressed cache: determinism means an equal key is the
	// same answer; serve it without tracing a single ray.
	if cached {
		m.mCacheHit.Inc()
		job.fromCache = true
		m.jobs.AddLocked(job)
		m.finishLocked(job, StateDone, divQ, nil)
		return job.Snapshot(), nil
	}
	m.mCacheMiss.Inc()

	// 2. Single-flight: an identical solve is already queued or running,
	// and the job attaches to it instead of burning a second worker.
	// Otherwise admission control: a fresh solve needs a queue slot for
	// its class.
	fl, coalesce := m.inflight[job.Key]
	if !coalesce {
		if err := m.queue.Admit(job.Class); err != nil {
			m.mRejected.Inc()
			m.jobs.Rejected(job.Class)
			return JobStatus{}, err
		}
	}

	// Write-ahead: the job is durably journaled before it can run, so a
	// crash between here and its terminal record replays it. A journal
	// that cannot take the record refuses the job — accepting work the
	// crash story cannot cover would be a silent downgrade.
	if m.journal != nil {
		if err := m.journal.Append(JournalRecord{Op: OpSubmit, ID: job.ID, Key: job.Key, Spec: &spec}); err != nil {
			return JobStatus{}, err
		}
	}

	if coalesce {
		m.attachLocked(fl, job)
		m.mCoalesced.Inc()
	} else {
		m.queueFlightLocked(job)
	}
	m.mSubmitted.Inc()
	m.jobs.AddLocked(job)
	return job.Snapshot(), nil
}

// queueFlightLocked queues a fresh solve for job j alone, bounded by
// j's deadline and ranked by j's class and Seq, and wakes a worker.
// Callers hold m.mu (or run single-threaded during Recover).
func (m *Manager) queueFlightLocked(j *Job) {
	ctx, cancel := context.WithCancel(m.baseCtx)
	fl := &flight{key: j.Key, spec: j.Spec, ctx: ctx, cancel: cancel, jobs: []*Job{j}, refs: 1, deadline: j.Deadline}
	j.fl = fl
	m.inflight[fl.key] = fl
	m.queue.Push(j.Class, j.Seq, fl)
	m.gQueued.Inc()
	m.work.Signal()
}

// attachLocked rides job j on the in-flight solve fl: j inherits the
// flight's running state, and the flight's deadline widens to cover j —
// a job without a deadline makes the flight unbounded, otherwise the
// flight keeps the latest deadline over its jobs. Callers hold m.mu (or
// run single-threaded during Recover).
func (m *Manager) attachLocked(fl *flight, j *Job) {
	j.fl = fl
	j.coalesced = true
	fl.jobs = append(fl.jobs, j)
	fl.refs++
	for _, lead := range fl.jobs {
		if lead.State == StateRunning {
			j.State = StateRunning
			j.Started = lead.Started
			break
		}
	}
	switch {
	case fl.deadline.IsZero():
	case j.Deadline.IsZero():
		fl.deadline = time.Time{}
	case j.Deadline.After(fl.deadline):
		fl.deadline = j.Deadline
	}
}

// runFlight executes one queued solve and resolves every attached job.
func (m *Manager) runFlight(fl *flight) {
	defer fl.cancel()
	if fl.ctx.Err() != nil {
		// Every attached job was cancelled as the flight left the queue,
		// or Close ran out of time.
		return
	}
	start := time.Now()
	m.mu.Lock()
	deadline := fl.deadline // snapshot under m.mu: attaches after dequeue miss this solve
	if Expired(deadline, start) {
		// The flight sat in the queue past every attached job's deadline:
		// fail them all without starting the solve.
		delete(m.inflight, fl.key)
		for _, j := range fl.jobs {
			if !j.State.Terminal() {
				m.finishLocked(j, StateFailed, nil, m.jobs.Expire("while queued"))
			}
		}
		m.mu.Unlock()
		return
	}
	for _, j := range fl.jobs {
		if j.State == StateQueued {
			j.State = StateRunning
			j.Started = start
		}
	}
	m.mu.Unlock()

	m.gRunning.Inc()
	divQ, rays, steps, err := m.solveAttempt(fl, deadline)
	m.gRunning.Dec()
	elapsed := time.Since(start).Seconds()
	m.mRays.Add(rays)
	m.mSteps.Add(steps)

	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.inflight, fl.key)
	st := StateDone
	var saved int64
	switch {
	case err == nil:
		m.hSolve.Observe(elapsed)
		// The flight's own pin keeps the result while its jobs pin it
		// below; released after them, it leaves the result idle in the
		// cache even when every job was cancelled meanwhile.
		m.pinResultLocked(fl.key, divQ)
		// Adaptive solves trace at most Cells × AdaptiveMaxRays rays;
		// the shortfall is the budget the variance-based stopping rule
		// saved. Clamped at zero: a Config.Solver may report more.
		if n := fl.spec.Normalized(); n.AdaptiveRelTol > 0 {
			saved = max(n.Cells()*int64(n.AdaptiveMaxRays)-rays, 0)
			m.mRaysSaved.Add(saved)
		}
	case errors.Is(err, context.Canceled):
		st, divQ, err = StateCancelled, nil, context.Canceled
	default:
		st, divQ = StateFailed, nil
	}
	for _, j := range fl.jobs {
		if st == StateDone && !j.State.Terminal() {
			j.rays, j.steps, j.raysSaved = rays, steps, saved
		}
		m.finishLocked(j, st, divQ, err)
	}
	if st == StateDone {
		m.unpinResultLocked(fl.key)
	}
}

// solveAttempt runs one solve attempt under the flight's context,
// bounded by the earlier of the configured per-job deadline
// (Config.JobDeadline) and the flight's propagated absolute deadline
// (zero = none), pre-snapshotted under m.mu by runFlight. Deadline
// expiry (as opposed to client cancellation) is translated into the
// typed ErrDeadlineExceeded.
func (m *Manager) solveAttempt(fl *flight, deadline time.Time) (*field.CC[float64], int64, int64, error) {
	ctx := fl.ctx
	cancel := context.CancelFunc(func() {})
	if d := m.cfg.JobDeadline; d > 0 {
		if at := time.Now().Add(d); deadline.IsZero() || at.Before(deadline) {
			deadline = at
		}
	}
	if !deadline.IsZero() {
		ctx, cancel = context.WithDeadline(ctx, deadline)
	}
	defer cancel()
	divQ, rays, steps, err := m.cfg.Solver(ctx, fl.spec)
	if err != nil && errors.Is(err, context.DeadlineExceeded) && fl.ctx.Err() == nil {
		m.mDeadline.Inc()
		err = fmt.Errorf("%w (deadline %s)", ErrDeadlineExceeded, time.Until(deadline).Round(time.Millisecond))
	}
	return divQ, rays, steps, err
}

// finishLocked moves a job to a terminal state once, pinning a done
// job's result in the cache until its first delivery and closing its
// journal entry. Callers hold m.mu.
func (m *Manager) finishLocked(j *Job, st State, divQ *field.CC[float64], err error) {
	if !m.jobs.FinishLocked(j, st, err) {
		return
	}
	if st == StateDone {
		m.pinResultLocked(j.Key, divQ)
		j.pinned = true
	}
	// Close the job's journal entry. Best-effort: a failed append only
	// means the (terminal, already-answered) job is replayed and
	// re-solved after a restart — wasted work, not a wrong answer.
	// Cache-hit jobs were never journaled (they finish inside Submit),
	// and neither were ephemeral ones (terminal at submit).
	if m.journal != nil && !j.fromCache && !j.ephemeral {
		rec := JournalRecord{ID: j.ID, Key: j.Key}
		switch st {
		case StateDone:
			rec.Op = OpDone
		case StateCancelled:
			rec.Op = OpCancelled
		default:
			rec.Op = OpFailed
			rec.Error = j.ErrText()
		}
		_ = m.journal.Append(rec)
	}
}

// pinResultLocked pins key's result, storing divQ when the key has none
// (an existing entry keeps its field: equal keys are equal bits).
// Callers hold m.mu.
func (m *Manager) pinResultLocked(key string, divQ *field.CC[float64]) {
	if m.results.insert(key, divQ, 1) {
		m.gResultBytes.Add(ResultBytes(divQ.Data()))
	}
	m.gResults.Set(m.results.cost)
}

// unpinResultLocked drops one pin on key's result, counting the idle
// results the CacheEntries bound evicts. Callers hold m.mu.
func (m *Manager) unpinResultLocked(key string) {
	evicted := m.results.unpin(key)
	for _, divQ := range evicted {
		m.gResultBytes.Add(-ResultBytes(divQ.Data()))
	}
	m.mEvicted.Add(int64(len(evicted)))
	m.gResults.Set(m.results.cost)
}

// Snapshot is the job's status. Callers hold the manager's mutex.
func (j *Job) Snapshot() JobStatus {
	st := JobStatus{
		ID: j.ID, Key: j.Key, Class: j.Class, State: j.State, Submitted: j.Submitted,
		Rays: j.rays, Steps: j.steps, RaysSaved: j.raysSaved,
		FromCache: j.fromCache, Coalesced: j.coalesced, Error: j.ErrText(),
	}
	st.QueueSeconds, st.RunSeconds = j.Seconds()
	return st
}

// Status returns a job's snapshot.
func (m *Manager) Status(id string) (JobStatus, error) { return m.jobs.Status(id) }

// Wait blocks until the job reaches a terminal state or ctx expires.
func (m *Manager) Wait(ctx context.Context, id string) (JobStatus, error) {
	return m.jobs.Wait(ctx, id)
}

// JobCount returns how many tracked jobs are in each state.
func (m *Manager) JobCount() map[State]int { return m.jobs.JobCount() }

// Result returns a finished job's divQ field (nil with the job's error
// for failed/cancelled jobs). The boolean reports whether the job is
// terminal yet. A done job's first call delivers its pinned result and
// releases the pin; later calls read the cache and find nil once the
// result has been evicted.
func (m *Manager) Result(id string) (*field.CC[float64], JobStatus, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, err := m.jobs.LookupLocked(id)
	if err != nil {
		return nil, JobStatus{}, false, err
	}
	if !j.State.Terminal() {
		return nil, j.Snapshot(), false, nil
	}
	if j.State != StateDone {
		return nil, j.Snapshot(), true, j.Err
	}
	divQ := m.results.get(j.Key)
	if j.pinned {
		j.pinned = false
		m.unpinResultLocked(j.Key)
	}
	return divQ, j.Snapshot(), true, nil
}

// Payload is Result in its JSON form: the divQ payload of a done job,
// nil for every other state and for a done job whose result has been
// evicted.
func (m *Manager) Payload(id string) (*ResultPayload, JobStatus, bool, error) {
	divQ, st, terminal, err := m.Result(id)
	if divQ == nil {
		return nil, st, terminal, err
	}
	p := newResultPayload(st.ID, st.Key, divQ)
	return &p, st, terminal, err
}

// HealthFields: a daemon's /healthz is its status and job counts alone.
func (m *Manager) HealthFields() map[string]any { return nil }

// Cancel stops a job. The job is marked cancelled immediately; the
// underlying solve's context is cancelled only when no other coalesced
// job still needs its result. Cancelling a terminal job returns
// ErrJobFinished.
func (m *Manager) Cancel(id string) (JobStatus, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, st, err := m.jobs.CancellableLocked(id)
	if err != nil {
		return st, err
	}
	m.finishLocked(j, StateCancelled, nil, context.Canceled)
	if fl := j.fl; fl != nil {
		if fl.refs--; fl.refs == 0 {
			// Last interested job: stop the solve. A still-queued flight
			// leaves the queue at once, freeing its slot, and is
			// forgotten so later identical submissions start fresh.
			delete(m.inflight, fl.key)
			fl.cancel()
			if m.queue.Remove(fl.jobs[0].Seq) {
				m.gQueued.Dec()
			}
		}
	}
	return j.Snapshot(), nil
}

// Close stops accepting submissions and drains queued and running
// solves. If ctx expires first, the remaining solves are cancelled
// cooperatively and Close returns ctx.Err() once the workers exit.
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	if !m.jobs.CloseLocked() {
		m.mu.Unlock()
		return nil
	}
	m.work.Broadcast()
	m.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		m.baseCancel()
		<-drained
		err = ctx.Err()
	}
	if m.journal != nil {
		if jerr := m.journal.Close(); err == nil {
			err = jerr
		}
	}
	return err
}
