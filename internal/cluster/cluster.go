// Package cluster is the sharded serving plane over N rmcrtd backends:
// a shard registry with health checking and draining, packed-table
// affinity routing, the class-ordered service.Queue as its dispatch
// queue, and retry-with-reroute on shard loss.
//
// The paper scales RMCRT by distributing patches over 16384 GPUs while
// every node shares one read-only level database; here the same idea is
// applied one level up: many rmcrtd daemons each hold a warm
// service.PackedCache, and the affinity router steers jobs whose
// property-shaping spec matches a shard's warm tables onto that shard.
// Because the solver is deterministic, a job rerouted after a shard
// dies produces the bitwise-identical divQ the lost shard would have,
// so a reroute is invisible in the answer.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"github.com/uintah-repro/rmcrt/internal/calib"
	"github.com/uintah-repro/rmcrt/internal/metrics"
	"github.com/uintah-repro/rmcrt/internal/resilience"
	"github.com/uintah-repro/rmcrt/internal/service"
)

// Placement errors. Admission and lookup failures are the service
// layer's (service.ErrQueueFull, ErrClosed, ErrNotFound,
// ErrDeadlineInfeasible), so both planes speak one error vocabulary.
var (
	// ErrShardLost fails a job whose placements kept landing on dying
	// shards — the cluster-level analog of the scheduler's ErrRankLost,
	// raised only after the reroute budget is spent.
	ErrShardLost = errors.New("cluster: shard lost")
	// ErrShardRejected carries a shard's own rejection (bad spec, too
	// large) back to the client unchanged in meaning.
	ErrShardRejected = errors.New("cluster: shard rejected job")
)

// Config sizes a Cluster. Zero values take defaults.
type Config struct {
	// Shards are the rmcrtd backends (required, at least one).
	Shards []ShardConfig
	// Policy names the routing policy; only PolicyAffinity (or "") is
	// accepted.
	Policy string
	// Sched names the dispatch order; only SchedPriority (or "") is
	// accepted.
	Sched string
	// QueueDepth bounds the router-side dispatch queue per class
	// (default 256): a class-c submission fails with ErrQueueFull when
	// QueueDepth jobs of class c or a more urgent one are already
	// queued. With the three classes Spec.Validate admits, at most
	// 3 × QueueDepth jobs wait; reroutes and backpressure requeues
	// re-enter past the bound.
	QueueDepth int
	// MaxInflightPerShard caps jobs dispatched to one shard at a time
	// (default 4; <=0 = unbounded). Shards also run their own
	// admission control; this cap is also the affinity spill point: a
	// job whose home shard is at the cap goes to the least-loaded
	// eligible shard.
	MaxInflightPerShard int
	// MaxAttempts bounds placements per job across shard losses
	// (default 3); beyond it the job fails with ErrShardLost.
	MaxAttempts int
	// PollInterval bounds a watcher's shard status calls (default
	// 250ms): each call long-polls the shard for at most this long
	// (GET /v1/jobs/{id}?wait=), and calls on one job start at least
	// this far apart.
	PollInterval time.Duration
	// HealthInterval is the shard health-probe period (default 1s).
	HealthInterval time.Duration
	// HealthFailThreshold is how many consecutive probe failures mark
	// a shard unhealthy (default 2).
	HealthFailThreshold int
	// Client performs all backend HTTP calls (default: 10s timeout —
	// never http.DefaultClient, which would hang on a stuck shard).
	Client *http.Client
	// Metrics receives the router's instrumentation (fresh registry
	// when nil).
	Metrics *metrics.Registry

	// BreakerThreshold is how many consecutive placement-path failures
	// trip a shard's circuit breaker (default 5; negative disables
	// breakers entirely). A tripped shard takes no placements until a
	// half-open probe succeeds, so affinity routing spills away from it
	// even while health probes still pass.
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit waits before
	// admitting a half-open probe placement (default 2s).
	BreakerCooldown time.Duration
	// RetryBudget bounds reroute volume cluster-wide: each
	// attempt-counting retry spends one token from a bucket of this
	// size (default 16; negative disables the budget). When the bucket
	// is dry the job fails with ErrShardLost instead of amplifying a
	// fleet-wide outage with retries.
	RetryBudget float64
	// RetryRefill is how much budget each completed job restores
	// (default 0.1) — retries are paid for by successes, so a healthy
	// cluster earns back its slack.
	RetryRefill float64
	// BackoffBase and BackoffCap bound the decorrelated-jitter delay
	// inserted before each attempt-counting retry (defaults 25ms / 1s).
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// Seed seeds the backoff jitter (default 1), so tests replaying a
	// fault schedule see a reproducible retry timeline.
	Seed uint64

	// Calibration prices jobs in predicted wall-seconds for the
	// est_seconds status field and the predicted-cost metrics. nil uses
	// calib.Default() — the uncalibrated steps-proportional model — and,
	// because default pricing is not host-accurate, disables the
	// admission-time deadline feasibility check; set a measured
	// calibration (perfgate -calibrate) to also reject jobs whose
	// predicted solve time already exceeds their deadline budget on an
	// idle shard.
	Calibration *calib.Calibration
}

// SchedPriority is the dispatch order: SLO class (interactive before
// batch before best-effort), then submission order within a class.
const SchedPriority = "priority"

// checkPolicies rejects any routing or scheduling policy name but the
// one each has.
func (c Config) checkPolicies() error {
	if c.Policy != "" && c.Policy != PolicyAffinity {
		return fmt.Errorf("cluster: unknown routing policy %q (want %s)", c.Policy, PolicyAffinity)
	}
	if c.Sched != "" && c.Sched != SchedPriority {
		return fmt.Errorf("cluster: unknown scheduling policy %q (want %s)", c.Sched, SchedPriority)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxInflightPerShard == 0 {
		c.MaxInflightPerShard = 4
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 250 * time.Millisecond
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = time.Second
	}
	if c.HealthFailThreshold <= 0 {
		c.HealthFailThreshold = 2
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 10 * time.Second}
	}
	if c.Metrics == nil {
		c.Metrics = metrics.NewRegistry()
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	if c.RetryBudget == 0 {
		c.RetryBudget = 16
	}
	if c.RetryRefill <= 0 {
		c.RetryRefill = 0.1
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 25 * time.Millisecond
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Job is one cluster-tracked solve: the shared lifecycle record plus
// the router's placement state. Its Deadline is checked at submit, at
// dispatch pop and before placement, and forwarded to the shard as
// remaining milliseconds. Mutable fields are guarded by the cluster
// mutex.
type Job struct {
	service.JobRecord
	affinityKey string
	// cost is the predicted wall-seconds (the est_seconds status field);
	// costSteps the predicted DDA cell-step count behind it.
	cost      float64
	costSteps float64

	shard    *Shard
	shardID  string
	attempts int
	// backoffPrev is the last reroute's backoff delay, feeding the
	// decorrelated jitter of the next one.
	backoffPrev time.Duration
	lastShard   service.JobStatus // latest status observed from the shard
	// result is the fetched payload, held only until the first Payload
	// delivers it; a repeat read re-fetches it from the shard.
	result    *service.ResultPayload
	cancelled bool
}

// JobStatus is a cluster job's snapshot: the one status shape of both
// serving planes, kept under this name for e2ebench's client.
type JobStatus = service.JobStatus

// Cluster fans rmcrtd jobs out across shards. Construct with New,
// serve through NewHandlerConfig (or call Submit/Status/Payload/Cancel
// directly), stop with Close.
type Cluster struct {
	cfg    Config
	reg    *metrics.Registry
	shards *ShardRegistry
	router *affinityRouter
	// cal is the resolved cost model (Config.Calibration or the
	// uncalibrated default); calibrated reports whether an explicit
	// measured calibration was supplied, which arms the deadline
	// feasibility rejection.
	cal        calib.Calibration
	calibrated bool

	baseCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	kick    chan struct{}

	mu    sync.Mutex
	jobs  *service.JobTable[*Job]
	queue *service.Queue[*Job] // jobs awaiting placement

	// retryBudget bounds reroute volume cluster-wide; backoff paces
	// each reroute with decorrelated jitter. Either may be nil when
	// disabled by configuration.
	retryBudget *resilience.Budget
	backoff     *resilience.Backoff

	mSubmitted, mRejected, mDispatched *metrics.Counter
	mRerouted, mBudgetDenied           *metrics.Counter
	mBreakerOpens, mBreakerCloses      *metrics.Counter
	mBreakerHalfOpens                  *metrics.Counter
	gQueued                            *metrics.Gauge
	gResults, gResultBytes             *metrics.Gauge
	gBudgetTokens                      *metrics.FloatGauge
	hClass                             map[string]*metrics.Histogram
	gJain                              *metrics.FloatGauge
}

// New builds and starts a Cluster: the dispatch loop and health
// checker run immediately.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.checkPolicies(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	reg := cfg.Metrics
	shards, err := NewShardRegistry(cfg.Shards, reg)
	if err != nil {
		return nil, err
	}

	ctx, cancel := context.WithCancel(context.Background())
	c := &Cluster{
		cfg:     cfg,
		reg:     reg,
		shards:  shards,
		router:  newAffinityRouter(shards, reg),
		queue:   service.NewQueue[*Job](cfg.QueueDepth),
		baseCtx: ctx,
		cancel:  cancel,
		kick:    make(chan struct{}, 1),
		hClass:  make(map[string]*metrics.Histogram),
		cal:     calib.Default(),
	}
	if cfg.Calibration != nil {
		if err := cfg.Calibration.Validate(); err != nil {
			cancel()
			return nil, err
		}
		c.cal = *cfg.Calibration
		c.calibrated = true
	}
	c.jobs = service.NewJobTable[*Job](&c.mu, reg, "router", "r")
	c.mSubmitted = reg.Counter("router_jobs_submitted_total", "jobs accepted by the router")
	c.mRejected = reg.Counter("router_jobs_rejected_total", "jobs rejected by router admission control")
	c.mDispatched = reg.Counter("router_dispatches_total", "job placements sent to shards (includes reroutes)")
	c.mRerouted = reg.Counter("router_jobs_rerouted_total", "placements retried on another shard after a shard loss")
	c.mBudgetDenied = reg.Counter("router_retry_budget_denied_total", "reroutes refused because the retry budget was dry; the job fails instead of amplifying the outage")
	c.mBreakerOpens = reg.Counter("router_breaker_opens_total", "shard circuit-breaker transitions to open")
	c.mBreakerCloses = reg.Counter("router_breaker_closes_total", "shard circuit-breaker transitions to closed")
	c.mBreakerHalfOpens = reg.Counter("router_breaker_half_opens_total", "shard circuit-breaker transitions to half-open (probe admitted)")
	c.gQueued = reg.Gauge("router_queue_depth", "jobs waiting in the dispatch queue")
	c.gResults = reg.Gauge("router_results_resident", "fetched results held for their first delivery")
	c.gResultBytes = reg.Gauge("router_results_resident_bytes", "divQ bytes of the fetched results held for their first delivery")
	c.gBudgetTokens = reg.FloatGauge("router_retry_budget_tokens", "retry-budget tokens remaining")
	c.gJain = reg.FloatGauge("router_class_fairness_jain", "Jain fairness index over per-class goodput fractions (1 = perfectly fair)")
	c.gJain.Set(1)
	for _, class := range service.Classes() {
		c.hClass[class] = reg.Histogram(
			"router_class_latency_seconds_"+strings.ReplaceAll(class, "-", "_"),
			"submit-to-terminal latency of "+class+" jobs", metrics.DefBuckets)
	}
	if cfg.RetryBudget > 0 {
		c.retryBudget = resilience.NewBudget(cfg.RetryBudget, cfg.RetryRefill)
		c.gBudgetTokens.Set(c.retryBudget.Tokens())
	}
	c.backoff = resilience.NewBackoff(cfg.BackoffBase, cfg.BackoffCap, cfg.Seed)
	for _, s := range shards.Shards() {
		s.api = service.NewClient(s.URL(), cfg.Client)
		if cfg.BreakerThreshold <= 0 {
			continue
		}
		mn := metricName(s.Name())
		gState := reg.Gauge("router_shard_"+mn+"_breaker_state",
			"circuit position of shard "+s.Name()+" (0 closed, 1 open, 2 half-open)")
		mOpens := reg.Counter("router_shard_"+mn+"_breaker_opens_total",
			"times shard "+s.Name()+"'s circuit opened")
		s.breaker = resilience.NewBreaker(resilience.BreakerConfig{
			FailureThreshold: cfg.BreakerThreshold,
			Cooldown:         cfg.BreakerCooldown,
			OnTransition: func(_, to resilience.BreakerState) {
				gState.Set(int64(to))
				switch to {
				case resilience.BreakerOpen:
					mOpens.Inc()
					c.mBreakerOpens.Inc()
				case resilience.BreakerHalfOpen:
					c.mBreakerHalfOpens.Inc()
				case resilience.BreakerClosed:
					c.mBreakerCloses.Inc()
				}
				c.kickDispatch()
			},
		})
	}

	c.wg.Add(2)
	go func() { defer c.wg.Done(); c.dispatchLoop() }()
	go func() { defer c.wg.Done(); c.healthLoop() }()
	return c, nil
}

// Registry returns the router's metrics registry (for /metrics).
func (c *Cluster) Registry() *metrics.Registry { return c.reg }

// Shards returns the shard registry (for admin surfaces and tests).
func (c *Cluster) Shards() *ShardRegistry { return c.shards }

// Submit validates spec, applies router admission control and enqueues
// the job for placement.
func (c *Cluster) Submit(spec service.Spec) (JobStatus, error) {
	return c.SubmitDeadline(spec, time.Time{})
}

// SubmitDeadline is Submit with a per-job absolute deadline (zero =
// none), as carried by service.DeadlineHeader. An already-expired
// deadline fast-fails the job with the typed deadline error before it
// costs a queue slot; a live one rides along to dispatch and is
// forwarded to the shard as its remaining milliseconds.
func (c *Cluster) SubmitDeadline(spec service.Spec, deadline time.Time) (JobStatus, error) {
	spec = spec.Normalized()
	if err := spec.Validate(); err != nil {
		return JobStatus{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.jobs.ClosedLocked() {
		return JobStatus{}, service.ErrClosed
	}
	work := spec.Work()
	est := c.cal.Seconds(work)
	expired := service.Expired(deadline, time.Now())
	// Deadline feasibility: with a measured calibration, a job whose
	// predicted solve time exceeds its entire remaining budget cannot
	// finish in time even on an idle shard — reject it at admission
	// instead of spending a queue slot and a solve on it. The default
	// model is not host-accurate, so uncalibrated clusters skip this.
	if c.calibrated && !expired {
		if err := c.jobs.Feasible(spec.Class, est, deadline); err != nil {
			c.mRejected.Inc()
			return JobStatus{}, err
		}
	}
	if !expired {
		if err := c.queue.Admit(spec.Class); err != nil {
			c.mRejected.Inc()
			c.jobs.Rejected(spec.Class)
			return JobStatus{}, err
		}
	}
	job := &Job{
		JobRecord:   c.jobs.NextLocked(spec, deadline),
		affinityKey: spec.AffinityKey(),
		cost:        est,
		costSteps:   c.cal.Steps(work),
	}
	c.jobs.Predicted(est)
	c.jobs.AddLocked(job)
	c.mSubmitted.Inc()
	if expired {
		// Dead on arrival: terminal now, without a queue slot or a
		// dispatch — the accounting identity still sees one submission
		// and exactly one terminal outcome.
		c.finishLocked(job, service.StateFailed, c.jobs.Expire("before placement"))
		return job.Snapshot(), nil
	}
	c.queue.Push(job.Class, job.Seq, job)
	c.syncQueueGaugeLocked()
	c.kickDispatch()
	return job.Snapshot(), nil
}

func (c *Cluster) kickDispatch() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// syncQueueGaugeLocked publishes the queue depth. Callers hold c.mu.
func (c *Cluster) syncQueueGaugeLocked() { c.gQueued.Set(int64(c.queue.Len())) }

// failStrandedLocked fails every queued job that already lost a
// placement when no shard accepts placements: the fleet is down, and
// the reroute would otherwise wait (paced by its backoff) in a queue
// nothing will ever drain. Never-placed jobs keep their places and
// wait for recovery, matching requeue's fleet-down rule. Callers hold
// c.mu.
func (c *Cluster) failStrandedLocked() {
	var keep []*Job
	for job, ok := c.queue.Pop(); ok; job, ok = c.queue.Pop() {
		if job.attempts > 0 {
			c.finishLocked(job, service.StateFailed,
				fmt.Errorf("%w: no healthy shards after %d placements", ErrShardLost, job.attempts))
		} else {
			keep = append(keep, job)
		}
	}
	for _, job := range keep {
		c.queue.Push(job.Class, job.Seq, job)
	}
	c.syncQueueGaugeLocked()
}

// dispatchLoop drains the queue whenever capacity or work appears: pop
// in class order, place by affinity.
func (c *Cluster) dispatchLoop() {
	for {
		select {
		case <-c.baseCtx.Done():
			return
		case <-c.kick:
		}
		for {
			candidates := c.shards.Placeable(c.cfg.MaxInflightPerShard)
			c.mu.Lock()
			if len(candidates) == 0 || c.queue.Len() == 0 {
				if c.queue.Len() > 0 && c.shards.Healthy() == 0 {
					c.failStrandedLocked()
				}
				c.mu.Unlock()
				break
			}
			job, _ := c.queue.Pop()
			c.syncQueueGaugeLocked()
			if service.Expired(job.Deadline, time.Now()) {
				// Expired while waiting in the dispatch queue: fail it here
				// instead of spending a shard slot on a doomed placement.
				c.finishLocked(job, service.StateFailed, c.jobs.Expire("in dispatch queue"))
				c.mu.Unlock()
				continue
			}
			shard := c.router.Pick(job, candidates)
			job.shard = shard
			job.attempts++
			c.mu.Unlock()
			shard.addInflight(1)
			c.mDispatched.Inc()
			c.wg.Add(1)
			go func() {
				defer c.wg.Done()
				c.place(job, shard)
			}()
		}
	}
}

// place submits the job's spec to the shard and, on acceptance,
// watches it to completion. Transport failures mark the shard lost and
// reroute; shard backpressure requeues without burning an attempt.
func (c *Cluster) place(job *Job, shard *Shard) {
	// Forward the remaining deadline budget, re-derived against the
	// local clock (relative milliseconds survive clock skew).
	var budget time.Duration
	if !job.Deadline.IsZero() {
		if budget = time.Until(job.Deadline); budget <= 0 {
			c.releaseAndFinish(job, shard, service.StateFailed, c.jobs.Expire("before placement"))
			return
		}
	}
	st, err := shard.api.Submit(c.baseCtx, job.Spec, "", budget)
	if c.closing(shard) {
		return
	}
	var rej *service.Rejection
	switch {
	case err == nil:
		shard.recordSuccess()
		c.mu.Lock()
		job.shardID = st.ID
		if job.Started.IsZero() {
			job.Started = time.Now()
		}
		c.mu.Unlock()
		c.watch(job, shard)
	case errors.As(err, new(*service.CallError)):
		// No answer, a torn one, or an accept without a valid job ID.
		c.shardLost(shard, err)
		c.requeue(job, shard, true)
	case !errors.As(err, &rej): // the spec did not encode; defensive only
		c.releaseAndFinish(job, shard, service.StateFailed, err)
	case rej.Code == http.StatusTooManyRequests || rej.Code == http.StatusServiceUnavailable:
		// Shard-side backpressure: not a loss, so no attempt is burned;
		// wait a beat so the retry does not spin against a full queue.
		select {
		case <-time.After(c.cfg.PollInterval):
		case <-c.baseCtx.Done():
		}
		c.requeue(job, shard, false)
	default:
		// The shard judged the job itself (bad spec, too large):
		// rerouting cannot change that verdict.
		c.releaseAndFinish(job, shard, service.StateFailed,
			fmt.Errorf("%w: %s (HTTP %d)", ErrShardRejected, rej.Error(), rej.Code))
	}
}

// watch long-polls the placement until it is terminal, fetching the
// result payload for successful jobs before declaring them done — so
// "done" in the router always means "result in hand", and a shard that
// dies after solving but before handing over the bits is still just a
// reroute. The first status call goes out at once; each asks the shard
// to hold it for up to PollInterval, and the next starts no sooner than
// PollInterval after the last, so a shard that ignores the wait is
// polled no faster than before.
func (c *Cluster) watch(job *Job, shard *Shard) {
	var last time.Time
	for {
		if !last.IsZero() {
			select {
			case <-c.baseCtx.Done():
				shard.addInflight(-1)
				return
			case <-time.After(time.Until(last.Add(c.cfg.PollInterval))):
			}
		}
		c.mu.Lock()
		terminal, cancelled, shardID := job.State.Terminal(), job.cancelled, job.shardID
		c.mu.Unlock()
		if terminal {
			// Whoever finished the job released the shard slot; this
			// watcher just steps aside.
			return
		}
		if cancelled {
			// Best-effort: stop the shard-side solve, then observe it.
			_ = shard.api.Cancel(c.baseCtx, shardID)
		}
		last = time.Now()
		st, err := shard.api.Status(c.baseCtx, shardID, c.statusWaitMs())
		if c.closing(shard) {
			return
		}
		switch {
		case service.TransportFailed(err):
			c.shardLost(shard, err)
			c.requeue(job, shard, true)
			return
		case errors.As(err, new(*service.CallError)):
			// The shard answered but the status body tore or is not a
			// status: a request fault, as in fetchResult. The breaker
			// counts it; the placement stands and the next call polls
			// again.
			shard.recordFailure(time.Now())
			continue
		case errors.Is(err, service.ErrNotFound):
			// The shard restarted without its journal: the placement is
			// gone even though the process answers.
			c.requeue(job, shard, true)
			return
		case err != nil:
			continue
		}
		c.mu.Lock()
		job.lastShard = st
		if !job.State.Terminal() && (st.State == service.StateQueued || st.State == service.StateRunning) {
			job.State = st.State
		}
		c.mu.Unlock()
		if !st.State.Terminal() {
			continue
		}
		switch st.State {
		case service.StateDone:
			if c.fetchResult(job, shard, shardID) {
				c.releaseAndFinish(job, shard, service.StateDone, nil)
			} // else: requeued by fetchResult; inflight already released
			return
		case service.StateCancelled:
			c.releaseAndFinish(job, shard, service.StateCancelled, context.Canceled)
			return
		default:
			// Prefixed with the shard's name; a shard-side deadline
			// failure still matches ErrDeadlineExceeded, so the router
			// counts it like its own.
			c.releaseAndFinish(job, shard, service.StateFailed,
				fmt.Errorf("cluster: shard %s: %w", shard.Name(), service.RemoteError(st.Error)))
			return
		}
	}
}

// fetchResult pulls the finished placement's divQ payload into the
// job, where it stays until its first delivery. Returns false, with
// the shard slot released, if the fetch failed (the job is requeued)
// or the router is closing.
func (c *Cluster) fetchResult(job *Job, shard *Shard, shardID string) bool {
	payload, err := c.getResult(job, shard, shardID)
	if c.closing(shard) {
		return false
	}
	switch {
	case service.TransportFailed(err):
		// The transport failed: the shard died between "done" and the
		// fetch.
		c.shardLost(shard, err)
		c.requeue(job, shard, true)
		return false
	case errors.As(err, new(*service.Rejection)):
		// Answered other than 200: the shard no longer has the result.
		c.requeue(job, shard, true)
		return false
	case err != nil:
		// The shard answered, but the body tore mid-read, ran past what
		// the job's cells can encode, or is corrupt: a request fault,
		// not shard loss. The breaker counts it (a shard that keeps
		// tearing trips open) and the placement is retried; health is
		// left alone, so a few transient tears cannot mark a whole fleet
		// down.
		shard.recordFailure(time.Now())
		c.requeue(job, shard, true)
		return false
	}
	shard.recordSuccess()
	c.mu.Lock()
	job.result = payload
	c.gResults.Add(1)
	c.gResultBytes.Add(service.ResultBytes(payload.DivQ))
	c.mu.Unlock()
	return true
}

// getResult reads a placement's result from its shard through the
// client, which bounds the body by what job's cells can encode, checks
// it against the job's key and cell count, and gives it the router's
// job ID. Its errors are the client's, or a mismatch with the job.
func (c *Cluster) getResult(job *Job, shard *Shard, shardID string) (*service.ResultPayload, error) {
	p := new(service.ResultPayload)
	if err := shard.api.Result(c.baseCtx, shardID, job.Spec, p); err != nil {
		return nil, err
	}
	if want := job.Spec.Cells(); p.Key != job.Key || int64(p.Cells) != want || int64(len(p.DivQ)) != want {
		return nil, fmt.Errorf("cluster: shard %s result is key %s with %d cells (%d values), want key %s with %d",
			shard.Name(), p.Key, p.Cells, len(p.DivQ), job.Key, want)
	}
	p.ID = job.ID
	return p, nil
}

// requeue returns a job to the dispatch queue after releasing its
// shard slot. countAttempt distinguishes shard loss (bounded by
// MaxAttempts and the cluster-wide retry budget, and paced by
// decorrelated-jitter backoff) from backpressure (retried indefinitely
// — the job is queued, not doomed).
func (c *Cluster) requeue(job *Job, shard *Shard, countAttempt bool) {
	shard.addInflight(-1)
	defer c.kickDispatch()
	c.mu.Lock()
	var fail error
	switch {
	case job.cancelled || job.State.Terminal():
		// Cancelled while placed (a no-op if already terminal).
		c.finishLocked(job, service.StateCancelled, context.Canceled)
		c.mu.Unlock()
		return
	case !countAttempt:
	case job.attempts >= c.cfg.MaxAttempts:
		fail = fmt.Errorf("%w after %d placements", ErrShardLost, job.attempts)
	case c.shards.Healthy() == 0:
		// The whole fleet is down: a job that already lost a shard fails
		// with the typed error now instead of waiting in a queue nothing
		// will ever drain. (Each lost placement marks its shard
		// unhealthy, so repeated losses converge here even when health
		// probes lag.) Never-placed jobs keep waiting for recovery.
		fail = fmt.Errorf("%w: no healthy shards after %d placements", ErrShardLost, job.attempts)
	case c.retryBudget != nil && !c.retryBudget.TryTake():
		// No budget: failing one job beats letting correlated failures
		// multiply traffic against an already-struggling fleet.
		c.mBudgetDenied.Inc()
		fail = fmt.Errorf("%w: retry budget exhausted after %d placements", ErrShardLost, job.attempts)
	}
	if countAttempt && c.retryBudget != nil {
		c.gBudgetTokens.Set(c.retryBudget.Tokens())
	}
	if fail != nil {
		c.finishLocked(job, service.StateFailed, fail)
		c.mu.Unlock()
		return
	}
	var delay time.Duration
	if countAttempt {
		c.mRerouted.Inc()
		delay = c.backoff.Next(job.backoffPrev)
		job.backoffPrev = delay
	}
	job.State = service.StateQueued
	job.shard = nil
	job.shardID = ""
	c.mu.Unlock()
	if delay > 0 {
		// Jittered pause before the reroute re-enters the queue, so a
		// burst of losses does not re-land in lockstep.
		select {
		case <-time.After(delay):
		case <-c.baseCtx.Done():
			return
		}
	}
	c.mu.Lock()
	if !job.State.Terminal() {
		c.queue.Push(job.Class, job.Seq, job)
		c.syncQueueGaugeLocked()
	}
	c.mu.Unlock()
}

// releaseAndFinish releases the shard slot and moves the job to a
// terminal state.
func (c *Cluster) releaseAndFinish(job *Job, shard *Shard, st service.State, err error) {
	shard.addInflight(-1)
	c.mu.Lock()
	c.finishLocked(job, st, err)
	c.mu.Unlock()
	c.kickDispatch()
}

// finishLocked moves a job to a terminal state exactly once and
// settles the router's own accounting: heap skip, retry-budget credit,
// class latency and fairness. Callers hold c.mu.
func (c *Cluster) finishLocked(job *Job, st service.State, err error) {
	if !c.jobs.FinishLocked(job, st, err) {
		return
	}
	if st == service.StateDone {
		if c.retryBudget != nil {
			// Successes earn back retry slack.
			c.retryBudget.Credit()
			c.gBudgetTokens.Set(c.retryBudget.Tokens())
		}
	}
	if h := c.hClass[job.Class]; h != nil {
		h.Observe(job.Finished.Sub(job.Submitted).Seconds())
	}
	c.gJain.Set(JainIndex(c.jobs.Goodputs()))
}

// JainIndex is Jain's fairness index over per-class goodput fractions
// x_i = done_i / submitted_i: (Σx)² / (n·Σx²). It is 1 when every class
// completes the same fraction of what it asked for and approaches 1/n
// as one class monopolizes the cluster. Classes with no submissions are
// excluded; an empty sample reads as 1 (nothing is unfair yet).
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// closing reports whether Close has begun, releasing the job's shard
// slot if so. A shard call that Close aborted says nothing about the
// shard: the job is left where it is, untracked, with no reroute and
// no mark against the shard's health or breaker.
func (c *Cluster) closing(shard *Shard) bool {
	if c.baseCtx.Err() == nil {
		return false
	}
	shard.addInflight(-1)
	return true
}

// statusWaitMs is the wait a watcher's status call asks of the shard:
// PollInterval, by service.StatusWaitMs.
func (c *Cluster) statusWaitMs() int64 {
	return service.StatusWaitMs(c.cfg.PollInterval, c.cfg.Client.Timeout)
}

// shardLost demotes a shard after a transport-level failure. Health
// probes will promote it back when it answers again — but the circuit
// breaker also counts the failure, so a shard that flaps (answers
// /healthz, loses placements) trips open and stays out of rotation
// until a half-open probe succeeds.
func (c *Cluster) shardLost(shard *Shard, _ error) {
	shard.recordFailure(time.Now())
	shard.setState(ShardUnhealthy)
	c.kickDispatch()
}

// healthLoop probes every shard's /healthz on a fixed period,
// demoting after consecutive failures and promoting recovered shards.
func (c *Cluster) healthLoop() {
	t := time.NewTicker(c.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-c.baseCtx.Done():
			return
		case <-t.C:
		}
		for _, s := range c.shards.Shards() {
			err := s.api.Health(c.baseCtx)
			s.mu.Lock()
			if err == nil {
				s.fails = 0
			} else {
				s.fails++
			}
			fails := s.fails
			s.mu.Unlock()
			if err == nil {
				s.setState(ShardHealthy) // no-op while draining
			} else if fails >= c.cfg.HealthFailThreshold {
				s.setState(ShardUnhealthy)
			}
		}
		c.kickDispatch()
	}
}

// Status returns a job's snapshot.
func (c *Cluster) Status(id string) (JobStatus, error) { return c.jobs.Status(id) }

// Wait blocks until the job reaches a terminal state or ctx expires.
func (c *Cluster) Wait(ctx context.Context, id string) (JobStatus, error) {
	return c.jobs.Wait(ctx, id)
}

// JobCount returns how many tracked jobs are in each state.
func (c *Cluster) JobCount() map[service.State]int { return c.jobs.JobCount() }

// Payload returns a done job's divQ payload (nil, with the job's
// error, for every other state). The boolean reports whether the job
// is terminal yet. The first call hands over the payload fetched at
// completion and the router drops it; a later call re-fetches it from
// the placement's shard and finds nil when the shard has evicted it,
// forgotten the job or is gone.
func (c *Cluster) Payload(id string) (*service.ResultPayload, JobStatus, bool, error) {
	c.mu.Lock()
	job, err := c.jobs.LookupLocked(id)
	if err != nil {
		c.mu.Unlock()
		return nil, JobStatus{}, false, err
	}
	st := job.Snapshot()
	if job.State != service.StateDone {
		c.mu.Unlock()
		return nil, st, st.State.Terminal(), job.Err
	}
	p, shard, shardID := job.result, job.shard, job.shardID
	if p != nil {
		job.result = nil
		c.gResults.Dec()
		c.gResultBytes.Add(-service.ResultBytes(p.DivQ))
	}
	c.mu.Unlock()
	if p == nil {
		// Delivered before: the router keeps no copy.
		p, _ = c.getResult(job, shard, shardID)
	}
	return p, st, true, nil
}

// Cancel stops a job. Queued jobs cancel immediately; dispatched jobs
// are marked and their shard-side solve is cancelled by the watcher.
func (c *Cluster) Cancel(id string) (JobStatus, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	job, st, err := c.jobs.CancellableLocked(id)
	if err != nil {
		return st, err
	}
	job.cancelled = true
	if job.shard == nil {
		// Still queued router-side: out of the queue and terminal now.
		c.queue.Remove(job.Seq)
		c.syncQueueGaugeLocked()
		c.finishLocked(job, service.StateCancelled, context.Canceled)
	}
	return job.Snapshot(), nil
}

// Snapshot is the job's status. Callers hold the cluster mutex.
func (job *Job) Snapshot() JobStatus {
	st := JobStatus{
		ID: job.ID, Key: job.Key, Class: job.Class, State: job.State,
		ShardJobID: job.shardID, Attempts: job.attempts,
		EstCostSteps: job.costSteps, EstSeconds: job.cost, Submitted: job.Submitted,
		Rays: job.lastShard.Rays, Steps: job.lastShard.Steps,
		FromCache: job.lastShard.FromCache, Error: job.ErrText(),
	}
	if job.shard != nil {
		st.Shard = job.shard.Name()
	}
	st.QueueSeconds, st.RunSeconds = job.Seconds()
	return st
}

// HealthFields adds the routing policy and the healthy-shard count to
// /healthz.
func (c *Cluster) HealthFields() map[string]any {
	return map[string]any{"policy": PolicyAffinity, "shards_up": c.shards.Healthy()}
}

// Close stops dispatching and waits for the loops and watchers to
// exit, or until ctx expires. Jobs still on shards keep running there;
// the router simply stops tracking them.
func (c *Cluster) Close(ctx context.Context) error {
	c.mu.Lock()
	first := c.jobs.CloseLocked()
	c.mu.Unlock()
	if !first {
		return nil
	}
	c.cancel()
	done := make(chan struct{})
	go func() {
		c.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
