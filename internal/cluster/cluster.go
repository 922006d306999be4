// Package cluster is the sharded serving plane over N rmcrtd backends:
// a shard registry with health checking and draining, pluggable routing
// (round-robin, least-loaded, packed-table affinity), an SLO-aware
// priority dispatch queue, and retry-with-reroute on shard loss.
//
// The paper scales RMCRT by distributing patches over 16384 GPUs while
// every node shares one read-only level database; here the same idea is
// applied one level up: many rmcrtd daemons each hold a warm
// service.PackedCache, and the affinity router steers jobs whose
// property-shaping spec matches a shard's warm tables onto that shard.
// Because the solver is deterministic, a job rerouted after a shard
// dies produces the bitwise-identical divQ the lost shard would have —
// the same argument that makes the service layer's retry-on-rank-loss
// sound.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/uintah-repro/rmcrt/internal/calib"

	"github.com/uintah-repro/rmcrt/internal/metrics"
	"github.com/uintah-repro/rmcrt/internal/resilience"
	"github.com/uintah-repro/rmcrt/internal/service"
)

// Admission and lifecycle errors.
var (
	// ErrQueueFull rejects a submission when the router's dispatch
	// queue is at capacity; HTTP maps it to 429.
	ErrQueueFull = errors.New("cluster: dispatch queue full")
	// ErrClosed rejects submissions after Close has begun.
	ErrClosed = errors.New("cluster: router closed")
	// ErrNotFound reports an unknown router job ID.
	ErrNotFound = errors.New("cluster: no such job")
	// ErrShardLost fails a job whose placements kept landing on dying
	// shards — the cluster-level analog of the scheduler's ErrRankLost,
	// raised only after the reroute budget is spent.
	ErrShardLost = errors.New("cluster: shard lost")
	// ErrShardRejected carries a shard's own rejection (bad spec, too
	// large) back to the client unchanged in meaning.
	ErrShardRejected = errors.New("cluster: shard rejected job")
	// ErrDeadlineInfeasible rejects a submission whose calibrated
	// predicted solve time already exceeds its deadline budget on an
	// idle shard — failing fast at admission instead of burning a queue
	// slot and a solve on a job that cannot finish in time. Only raised
	// when Config.Calibration is set; HTTP maps it to 422.
	ErrDeadlineInfeasible = errors.New("cluster: deadline infeasible for predicted solve time")
)

// Config sizes a Cluster. Zero values take defaults.
type Config struct {
	// Shards are the rmcrtd backends (required, at least one).
	Shards []ShardConfig
	// Policy is the routing policy: "affinity" (default),
	// "roundrobin" or "leastloaded".
	Policy string
	// Sched is the dispatch-queue scheduling policy: "priority"
	// (default), "fcfs" or "sjf".
	Sched string
	// QueueDepth bounds the router-side dispatch queue (default 256).
	QueueDepth int
	// MaxInflightPerShard caps jobs dispatched to one shard at a time
	// (default 4; <=0 = unbounded). Shards also run their own
	// admission control; this cap keeps the router's view of load
	// meaningful for least-loaded and spill decisions.
	MaxInflightPerShard int
	// HotThreshold is the affinity policy's spill point: when the home
	// shard's inflight count reaches it, the job spills to the
	// least-loaded eligible shard (default = MaxInflightPerShard).
	HotThreshold int
	// MaxAttempts bounds placements per job across shard losses
	// (default 3); beyond it the job fails with ErrShardLost.
	MaxAttempts int
	// PollInterval is the per-job shard status poll period
	// (default 250ms).
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

	// Calibration prices jobs in predicted wall-seconds for SJF
	// ordering, the est_seconds status field and the predicted-cost
	// metrics. nil uses calib.Default() — the uncalibrated
	// steps-proportional model — and, because default pricing is not
	// host-accurate, disables the admission-time deadline feasibility
	// check; set a measured calibration (perfgate -calibrate) to also
	// reject jobs whose predicted solve time already exceeds their
	// deadline budget on an idle shard.
	Calibration *calib.Calibration
}

func (c Config) withDefaults() Config {
	if c.Policy == "" {
		c.Policy = PolicyAffinity
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxInflightPerShard == 0 {
		c.MaxInflightPerShard = 4
	}
	if c.HotThreshold == 0 {
		c.HotThreshold = c.MaxInflightPerShard
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

// Job is one cluster-tracked solve. Mutable fields are guarded by the
// cluster mutex; terminalQueued additionally lets the lock-free heap
// skip cancelled entries.
type Job struct {
	id          string
	key         string
	class       string
	affinityKey string
	// cost is the predicted wall-seconds (the SJF ordering key);
	// costSteps the predicted DDA cell-step count behind it.
	cost      float64
	costSteps float64
	seq       int64
	spec      service.Spec

	state    service.State
	shard    *Shard
	shardID  string
	attempts int
	// deadline is the client's propagated absolute deadline (zero =
	// none): checked at submit, at dispatch pop and before placement,
	// and forwarded to the shard as remaining milliseconds.
	deadline time.Time
	// backoffPrev is the last reroute's backoff delay, feeding the
	// decorrelated jitter of the next one.
	backoffPrev time.Duration
	submitted   time.Time
	started     time.Time
	finished    time.Time
	lastShard   service.JobStatus // latest status observed from the shard
	result      *service.ResultPayload
	err         error
	cancelled   bool

	terminalQueued atomic.Bool
	done           chan struct{}
}

// JobStatus is the externally visible snapshot of a cluster job.
type JobStatus struct {
	ID    string        `json:"id"`
	Key   string        `json:"key"`
	Class string        `json:"class"`
	State service.State `json:"state"`
	// Shard is where the job is (or last was) placed.
	Shard string `json:"shard,omitempty"`
	// ShardJobID is the backend's own ID for the placement.
	ShardJobID string `json:"shard_job_id,omitempty"`
	// Attempts counts placements; >1 means the job was rerouted.
	Attempts int `json:"attempts,omitempty"`
	// EstCostSteps is the cost model's predicted DDA cell-step count;
	// EstSeconds the predicted wall-seconds derived from it — the SJF
	// ordering key and the deadline feasibility check's budget.
	EstCostSteps float64   `json:"est_cost_steps,omitempty"`
	EstSeconds   float64   `json:"est_seconds,omitempty"`
	Submitted    time.Time `json:"submitted"`
	QueueSeconds float64   `json:"queue_seconds"`
	RunSeconds   float64   `json:"run_seconds"`
	Rays         int64     `json:"rays,omitempty"`
	Steps        int64     `json:"steps,omitempty"`
	FromCache    bool      `json:"from_cache,omitempty"`
	Error        string    `json:"error,omitempty"`
}

// Cluster fans rmcrtd jobs out across shards. Construct with New,
// serve through NewHandler (or call Submit/Status/Result/Cancel
// directly), stop with Close.
type Cluster struct {
	cfg    Config
	reg    *metrics.Registry
	shards *ShardRegistry
	router Router
	queue  *dispatchQueue
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

	mu     sync.Mutex
	closed bool
	seq    int64
	jobs   map[string]*Job

	classStats map[string]*classStat

	// retryBudget bounds reroute volume cluster-wide; backoff paces
	// each reroute with decorrelated jitter. Either may be nil when
	// disabled by configuration.
	retryBudget *resilience.Budget
	backoff     *resilience.Backoff

	mSubmitted, mRejected, mDispatched  *metrics.Counter
	mRerouted, mDone, mFailed           *metrics.Counter
	mCancelled, mExpired, mBudgetDenied *metrics.Counter
	mBreakerOpens, mBreakerCloses       *metrics.Counter
	mBreakerHalfOpens, mInfeasible      *metrics.Counter
	fcPredictedSeconds                  *metrics.FloatCounter
	gQueued                             *metrics.Gauge
	gBudgetTokens                       *metrics.FloatGauge
	hClass                              map[string]*metrics.Histogram
	gJain                               *metrics.FloatGauge

	// Per-class overload accounting: which SLO class absorbed the
	// queue-full rejections, deadline failures and cancellations. Load
	// reports diff these to show class differentiation under overload.
	mClassSubmitted map[string]*metrics.Counter
	mClassDone      map[string]*metrics.Counter
	mClassFailed    map[string]*metrics.Counter
	mClassCancelled map[string]*metrics.Counter
	mClassRejected  map[string]*metrics.Counter
	mClassDeadline  map[string]*metrics.Counter
}

type classStat struct{ submitted, completed int64 }

// Classes the router tracks, in rank order.
var sloClasses = []string{service.ClassInteractive, service.ClassBatch, service.ClassBestEffort}

// New builds and starts a Cluster: the dispatch loop and health
// checker run immediately.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	sched, err := validSched(cfg.Sched)
	if err != nil {
		return nil, err
	}
	cfg.Sched = sched
	reg := cfg.Metrics
	shards, err := NewShardRegistry(cfg.Shards, reg)
	if err != nil {
		return nil, err
	}
	router, err := NewRouter(cfg.Policy, shards, cfg.HotThreshold, reg)
	if err != nil {
		return nil, err
	}

	ctx, cancel := context.WithCancel(context.Background())
	c := &Cluster{
		cfg:        cfg,
		reg:        reg,
		shards:     shards,
		router:     router,
		queue:      newDispatchQueue(cfg.Sched),
		baseCtx:    ctx,
		cancel:     cancel,
		kick:       make(chan struct{}, 1),
		jobs:       make(map[string]*Job),
		classStats: make(map[string]*classStat),
		hClass:     make(map[string]*metrics.Histogram),
		cal:        calib.Default(),
	}
	if cfg.Calibration != nil {
		if err := cfg.Calibration.Validate(); err != nil {
			cancel()
			return nil, err
		}
		c.cal = *cfg.Calibration
		c.calibrated = true
	}
	c.mSubmitted = reg.Counter("router_jobs_submitted_total", "jobs accepted by the router")
	c.mRejected = reg.Counter("router_jobs_rejected_total", "jobs rejected by router admission control")
	c.mDispatched = reg.Counter("router_dispatches_total", "job placements sent to shards (includes reroutes)")
	c.mRerouted = reg.Counter("router_jobs_rerouted_total", "placements retried on another shard after a shard loss")
	c.mDone = reg.Counter("router_jobs_done_total", "jobs completed successfully")
	c.mFailed = reg.Counter("router_jobs_failed_total", "jobs that ended in error")
	c.mCancelled = reg.Counter("router_jobs_cancelled_total", "jobs cancelled by the client or shutdown")
	c.mExpired = reg.Counter("router_jobs_expired_total", "jobs fast-failed because their propagated deadline expired before placement")
	c.mBudgetDenied = reg.Counter("router_retry_budget_denied_total", "reroutes refused because the retry budget was dry; the job fails instead of amplifying the outage")
	c.mBreakerOpens = reg.Counter("router_breaker_opens_total", "shard circuit-breaker transitions to open")
	c.mBreakerCloses = reg.Counter("router_breaker_closes_total", "shard circuit-breaker transitions to closed")
	c.mBreakerHalfOpens = reg.Counter("router_breaker_half_opens_total", "shard circuit-breaker transitions to half-open (probe admitted)")
	c.mInfeasible = reg.Counter("router_jobs_infeasible_total", "jobs rejected at admission because the calibrated predicted solve time exceeded the deadline budget")
	c.fcPredictedSeconds = reg.FloatCounter("router_predicted_seconds_total", "calibrated predicted wall-seconds of admitted jobs")
	c.gQueued = reg.Gauge("router_queue_depth", "jobs waiting in the dispatch queue")
	c.gBudgetTokens = reg.FloatGauge("router_retry_budget_tokens", "retry-budget tokens remaining")
	c.gJain = reg.FloatGauge("router_class_fairness_jain", "Jain fairness index over per-class goodput fractions (1 = perfectly fair)")
	c.gJain.Set(1)
	classCounters := func(what, help string) map[string]*metrics.Counter {
		out := make(map[string]*metrics.Counter, len(sloClasses))
		for _, class := range sloClasses {
			out[class] = reg.Counter(
				"router_class_"+what+"_total_"+strings.ReplaceAll(class, "-", "_"),
				help+" ("+class+")")
		}
		return out
	}
	c.mClassSubmitted = classCounters("submitted", "jobs accepted by the router")
	c.mClassDone = classCounters("done", "jobs completed successfully")
	c.mClassFailed = classCounters("failed", "jobs that ended in error")
	c.mClassCancelled = classCounters("cancelled", "jobs cancelled")
	c.mClassRejected = classCounters("rejected", "jobs rejected queue-full by router admission control")
	c.mClassDeadline = classCounters("deadline", "jobs that failed with a deadline-exceeded error")
	for _, class := range sloClasses {
		c.classStats[class] = &classStat{}
		c.hClass[class] = reg.Histogram(
			"router_class_latency_seconds_"+strings.ReplaceAll(class, "-", "_"),
			"submit-to-terminal latency of "+class+" jobs", metrics.DefBuckets)
	}
	if cfg.RetryBudget > 0 {
		c.retryBudget = resilience.NewBudget(cfg.RetryBudget, cfg.RetryRefill)
		c.gBudgetTokens.Set(c.retryBudget.Tokens())
	}
	c.backoff = resilience.NewBackoff(cfg.BackoffBase, cfg.BackoffCap, cfg.Seed)
	if cfg.BreakerThreshold > 0 {
		for _, s := range shards.Shards() {
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

// Policy returns the active routing policy name.
func (c *Cluster) Policy() string { return c.router.Name() }

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
	if c.closed {
		return JobStatus{}, ErrClosed
	}
	estSeconds := c.cal.Seconds(spec)
	expired := !deadline.IsZero() && !time.Now().Before(deadline)
	// Deadline feasibility: with a measured calibration, a job whose
	// predicted solve time exceeds its entire remaining budget cannot
	// finish in time even on an idle shard — reject it at admission
	// instead of spending a queue slot and a solve on it. The default
	// model is not host-accurate, so uncalibrated clusters skip this.
	if c.calibrated && !expired && !deadline.IsZero() && estSeconds > time.Until(deadline).Seconds() {
		c.mInfeasible.Inc()
		c.mRejected.Inc()
		if m, ok := c.mClassRejected[spec.Class]; ok {
			m.Inc()
		}
		return JobStatus{}, fmt.Errorf("%w: predicted %.3fs, budget %.3fs",
			ErrDeadlineInfeasible, estSeconds, time.Until(deadline).Seconds())
	}
	if !expired && c.queue.len() >= c.cfg.QueueDepth {
		c.mRejected.Inc()
		if m, ok := c.mClassRejected[spec.Class]; ok {
			m.Inc()
		}
		return JobStatus{}, fmt.Errorf("%w (depth %d)", ErrQueueFull, c.cfg.QueueDepth)
	}
	c.seq++
	job := &Job{
		id:          fmt.Sprintf("r-%06d", c.seq),
		key:         spec.Key(),
		class:       spec.Class,
		affinityKey: spec.AffinityKey(),
		cost:        estSeconds,
		costSteps:   c.cal.Steps(spec),
		seq:         c.seq,
		spec:        spec,
		state:       service.StateQueued,
		deadline:    deadline,
		submitted:   time.Now(),
		done:        make(chan struct{}),
	}
	c.fcPredictedSeconds.Add(estSeconds)
	c.jobs[job.id] = job
	c.mSubmitted.Inc()
	if m, ok := c.mClassSubmitted[job.class]; ok {
		m.Inc()
	}
	if st := c.classStats[job.class]; st != nil {
		st.submitted++
	}
	if expired {
		// Dead on arrival: terminal now, without a queue slot or a
		// dispatch — the accounting identity still sees one submission
		// and exactly one terminal outcome.
		c.mExpired.Inc()
		c.finishLocked(job, service.StateFailed,
			fmt.Errorf("%w: expired before placement", service.ErrDeadlineExceeded))
		return c.statusLocked(job), nil
	}
	c.queue.push(job)
	c.syncQueueGauge()
	c.kickDispatch()
	return c.statusLocked(job), nil
}

func (c *Cluster) kickDispatch() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

func (c *Cluster) syncQueueGauge() { c.gQueued.Set(int64(c.queue.len())) }

// failStranded fails every queued job that already lost a placement
// when no shard accepts placements: the fleet is down, and the reroute
// would otherwise wait (paced by its backoff) in a queue nothing will
// ever drain. Never-placed jobs keep their slots and wait for
// recovery, matching requeue's fleet-down rule.
func (c *Cluster) failStranded() {
	var keep []*Job
	for {
		job := c.queue.pop()
		if job == nil {
			break
		}
		c.mu.Lock()
		switch {
		case job.state.Terminal():
		case job.attempts > 0:
			c.finishLocked(job, service.StateFailed,
				fmt.Errorf("%w: no healthy shards after %d placements", ErrShardLost, job.attempts))
		default:
			keep = append(keep, job)
		}
		c.mu.Unlock()
	}
	for _, job := range keep {
		c.queue.push(job)
	}
	c.syncQueueGauge()
}

// dispatchLoop drains the queue whenever capacity or work appears: pop
// per scheduling policy, place per routing policy.
func (c *Cluster) dispatchLoop() {
	for {
		select {
		case <-c.baseCtx.Done():
			return
		case <-c.kick:
		}
		for {
			candidates := c.shards.Placeable(c.cfg.MaxInflightPerShard)
			if len(candidates) == 0 || c.queue.len() == 0 {
				if c.queue.len() > 0 && c.shards.Healthy() == 0 {
					c.failStranded()
				}
				break
			}
			job := c.queue.pop()
			c.syncQueueGauge()
			if job == nil {
				break
			}
			shard := c.router.Pick(job, candidates)
			c.mu.Lock()
			if job.state.Terminal() {
				c.mu.Unlock()
				continue
			}
			if !job.deadline.IsZero() && !time.Now().Before(job.deadline) {
				// Expired while waiting in the dispatch queue: fail it here
				// instead of spending a shard slot on a doomed placement.
				c.mExpired.Inc()
				c.finishLocked(job, service.StateFailed,
					fmt.Errorf("%w: expired in dispatch queue", service.ErrDeadlineExceeded))
				c.mu.Unlock()
				continue
			}
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
	body, err := json.Marshal(job.spec)
	if err != nil { // spec round-trips by construction; defensive only
		c.releaseAndFinish(job, shard, service.StateFailed, err)
		return
	}
	// Forward the remaining deadline budget, re-derived against the
	// local clock (relative milliseconds survive clock skew).
	var hdr map[string]string
	if !job.deadline.IsZero() {
		rem := time.Until(job.deadline)
		if rem <= 0 {
			c.mExpired.Inc()
			c.releaseAndFinish(job, shard, service.StateFailed,
				fmt.Errorf("%w: expired before placement", service.ErrDeadlineExceeded))
			return
		}
		hdr = map[string]string{
			service.DeadlineHeader: strconv.FormatInt(int64((rem+time.Millisecond-1)/time.Millisecond), 10),
		}
	}
	code, respBody, err := c.do(http.MethodPost, shard.URL()+"/v1/solve", body, hdr)
	switch {
	case err != nil:
		c.shardLost(shard, err)
		c.requeue(job, shard, true)
		return
	case code == http.StatusAccepted:
		var st service.JobStatus
		if err := json.Unmarshal(respBody, &st); err != nil || st.ID == "" {
			c.shardLost(shard, fmt.Errorf("cluster: shard %s returned unparseable accept: %v", shard.Name(), err))
			c.requeue(job, shard, true)
			return
		}
		shard.recordSuccess()
		c.mu.Lock()
		job.shardID = st.ID
		if job.started.IsZero() {
			job.started = time.Now()
		}
		c.mu.Unlock()
		c.watch(job, shard)
	case code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable:
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
			fmt.Errorf("%w: %s (HTTP %d)", ErrShardRejected, errorBody(respBody), code))
	}
}

// watch polls the placement until it is terminal, fetching the result
// payload for successful jobs before declaring them done — so "done"
// in the router always means "result in hand", and a shard that dies
// after solving but before handing over the bits is still just a
// reroute.
func (c *Cluster) watch(job *Job, shard *Shard) {
	for {
		select {
		case <-c.baseCtx.Done():
			shard.addInflight(-1)
			return
		case <-time.After(c.cfg.PollInterval):
		}
		c.mu.Lock()
		terminal, cancelled, shardID := job.state.Terminal(), job.cancelled, job.shardID
		c.mu.Unlock()
		if terminal {
			// Whoever finished the job released the shard slot; this
			// watcher just steps aside.
			return
		}
		if cancelled {
			// Best-effort: stop the shard-side solve, then observe it.
			_, _, _ = c.do(http.MethodDelete, shard.URL()+"/v1/jobs/"+shardID, nil, nil)
		}
		code, body, err := c.do(http.MethodGet, shard.URL()+"/v1/jobs/"+shardID, nil, nil)
		if err != nil {
			c.shardLost(shard, err)
			c.requeue(job, shard, true)
			return
		}
		if code == http.StatusNotFound {
			// The shard restarted without its journal: the placement is
			// gone even though the process answers.
			c.requeue(job, shard, true)
			return
		}
		if code != http.StatusOK {
			continue
		}
		var st service.JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			continue
		}
		c.mu.Lock()
		job.lastShard = st
		if !job.state.Terminal() && (st.State == service.StateQueued || st.State == service.StateRunning) {
			job.state = st.State
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
			c.releaseAndFinish(job, shard, service.StateFailed,
				fmt.Errorf("cluster: shard %s: %s", shard.Name(), st.Error))
			return
		}
	}
}

// fetchResult pulls the finished placement's divQ payload into the
// job, rewriting the IDs to the router's. Returns false after
// requeueing the job if the fetch failed.
func (c *Cluster) fetchResult(job *Job, shard *Shard, shardID string) bool {
	code, body, err := c.do(http.MethodGet, shard.URL()+"/v1/jobs/"+shardID+"/result", nil, nil)
	if err != nil && code == 0 {
		// The transport failed: the shard died between "done" and the
		// fetch.
		c.shardLost(shard, err)
		c.requeue(job, shard, true)
		return false
	}
	if err == nil && code != http.StatusOK {
		c.requeue(job, shard, true)
		return false
	}
	var payload service.ResultPayload
	if err != nil || json.Unmarshal(body, &payload) != nil {
		// The shard answered, but the body tore mid-read or is corrupt:
		// a request fault, not shard loss. The breaker counts it (a
		// shard that keeps tearing trips open) and the placement is
		// retried; health is left alone, so a few transient tears
		// cannot mark a whole fleet down.
		shard.recordFailure(time.Now())
		c.requeue(job, shard, true)
		return false
	}
	shard.recordSuccess()
	payload.ID = job.id
	c.mu.Lock()
	job.result = &payload
	c.mu.Unlock()
	return true
}

// requeue returns a job to the dispatch queue after releasing its
// shard slot. countAttempt distinguishes shard loss (bounded by
// MaxAttempts and the cluster-wide retry budget, and paced by
// decorrelated-jitter backoff) from backpressure (retried indefinitely
// — the job is queued, not doomed).
func (c *Cluster) requeue(job *Job, shard *Shard, countAttempt bool) {
	shard.addInflight(-1)
	c.mu.Lock()
	if job.state.Terminal() {
		c.mu.Unlock()
		c.kickDispatch()
		return
	}
	if job.cancelled {
		c.finishLocked(job, service.StateCancelled, context.Canceled)
		c.mu.Unlock()
		c.kickDispatch()
		return
	}
	if countAttempt && job.attempts >= c.cfg.MaxAttempts {
		c.finishLocked(job, service.StateFailed,
			fmt.Errorf("%w after %d placements", ErrShardLost, job.attempts))
		c.mu.Unlock()
		c.kickDispatch()
		return
	}
	if countAttempt && c.shards.Healthy() == 0 {
		// The whole fleet is down: a job that already lost a shard fails
		// with the typed error now instead of waiting in a queue nothing
		// will ever drain. (Each lost placement marks its shard
		// unhealthy, so repeated losses converge here even when health
		// probes lag.) Never-placed jobs keep waiting for recovery.
		c.finishLocked(job, service.StateFailed,
			fmt.Errorf("%w: no healthy shards after %d placements", ErrShardLost, job.attempts))
		c.mu.Unlock()
		c.kickDispatch()
		return
	}
	var delay time.Duration
	if countAttempt {
		if c.retryBudget != nil && !c.retryBudget.TryTake() {
			// No budget: failing one job beats letting correlated failures
			// multiply traffic against an already-struggling fleet.
			c.mBudgetDenied.Inc()
			c.gBudgetTokens.Set(c.retryBudget.Tokens())
			c.finishLocked(job, service.StateFailed,
				fmt.Errorf("%w: retry budget exhausted after %d placements", ErrShardLost, job.attempts))
			c.mu.Unlock()
			c.kickDispatch()
			return
		}
		if c.retryBudget != nil {
			c.gBudgetTokens.Set(c.retryBudget.Tokens())
		}
		c.mRerouted.Inc()
		delay = c.backoff.Next(job.backoffPrev)
		job.backoffPrev = delay
	}
	job.state = service.StateQueued
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
	if !job.state.Terminal() {
		c.queue.push(job)
		c.syncQueueGauge()
	}
	c.mu.Unlock()
	c.kickDispatch()
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
// settles the per-class accounting. Callers hold c.mu.
func (c *Cluster) finishLocked(job *Job, st service.State, err error) {
	if job.state.Terminal() {
		return
	}
	job.state = st
	job.err = err
	job.finished = time.Now()
	job.terminalQueued.Store(true)
	close(job.done)
	classInc := func(mm map[string]*metrics.Counter) {
		if m, ok := mm[job.class]; ok {
			m.Inc()
		}
	}
	switch st {
	case service.StateDone:
		c.mDone.Inc()
		classInc(c.mClassDone)
		if c.retryBudget != nil {
			// Successes earn back retry slack.
			c.retryBudget.Credit()
			c.gBudgetTokens.Set(c.retryBudget.Tokens())
		}
	case service.StateCancelled:
		c.mCancelled.Inc()
		classInc(c.mClassCancelled)
	default:
		c.mFailed.Inc()
		classInc(c.mClassFailed)
		// Shard errors arrive as strings over HTTP, so the typed
		// ErrDeadlineExceeded match is textual here.
		if err != nil && strings.Contains(err.Error(), "deadline exceeded") {
			classInc(c.mClassDeadline)
		}
	}
	if h := c.hClass[job.class]; h != nil {
		h.Observe(job.finished.Sub(job.submitted).Seconds())
	}
	if cs := c.classStats[job.class]; cs != nil && st == service.StateDone {
		cs.completed++
	}
	c.updateJainLocked()
}

// updateJainLocked recomputes the fairness gauge from per-class
// goodput fractions. Callers hold c.mu.
func (c *Cluster) updateJainLocked() {
	xs := make([]float64, 0, len(sloClasses))
	for _, class := range sloClasses {
		cs := c.classStats[class]
		if cs == nil || cs.submitted == 0 {
			continue
		}
		xs = append(xs, float64(cs.completed)/float64(cs.submitted))
	}
	c.gJain.Set(JainIndex(xs))
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
			_, _, err := c.do(http.MethodGet, s.URL()+"/healthz", nil, nil)
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

// do performs one backend HTTP call under the cluster's lifetime
// context and returns the status code and body. hdr adds extra request
// headers (nil for none). A non-nil error with code 0 means the
// transport failed — the shard, not the job, is suspect; with a nonzero
// code the shard answered but its body could not be read.
func (c *Cluster) do(method, url string, body []byte, hdr map[string]string) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(c.baseCtx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	// Result payloads are the largest legitimate body: divQ for the
	// per-job cell budget. 256 MiB bounds even absurd configurations
	// without letting a corrupt shard OOM the router.
	data, err := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, data, nil
}

// errorBody extracts the daemon's error string from a non-2xx body.
func errorBody(body []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(body))
}

// Status returns a job's snapshot.
func (c *Cluster) Status(id string) (JobStatus, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	job, ok := c.jobs[id]
	if !ok {
		return JobStatus{}, ErrNotFound
	}
	return c.statusLocked(job), nil
}

// Result returns a finished job's divQ payload (nil with the job's
// error for failed/cancelled jobs). The boolean reports whether the
// job is terminal yet.
func (c *Cluster) Result(id string) (*service.ResultPayload, JobStatus, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	job, ok := c.jobs[id]
	if !ok {
		return nil, JobStatus{}, false, ErrNotFound
	}
	st := c.statusLocked(job)
	if !job.state.Terminal() {
		return nil, st, false, nil
	}
	return job.result, st, true, job.err
}

// Wait blocks until the job reaches a terminal state or ctx expires.
func (c *Cluster) Wait(ctx context.Context, id string) (JobStatus, error) {
	c.mu.Lock()
	job, ok := c.jobs[id]
	c.mu.Unlock()
	if !ok {
		return JobStatus{}, ErrNotFound
	}
	select {
	case <-job.done:
	case <-ctx.Done():
		return JobStatus{}, ctx.Err()
	}
	return c.Status(id)
}

// Cancel stops a job. Queued jobs cancel immediately; dispatched jobs
// are marked and their shard-side solve is cancelled by the watcher.
func (c *Cluster) Cancel(id string) (JobStatus, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	job, ok := c.jobs[id]
	if !ok {
		return JobStatus{}, ErrNotFound
	}
	if job.state.Terminal() {
		return c.statusLocked(job), service.ErrJobFinished
	}
	job.cancelled = true
	if job.shard == nil {
		// Still queued router-side: terminal now; the heap skips it.
		c.finishLocked(job, service.StateCancelled, context.Canceled)
	}
	return c.statusLocked(job), nil
}

// statusLocked snapshots a job. Callers hold c.mu.
func (c *Cluster) statusLocked(job *Job) JobStatus {
	st := JobStatus{
		ID: job.id, Key: job.key, Class: job.class, State: job.state,
		ShardJobID: job.shardID, Attempts: job.attempts,
		EstCostSteps: job.costSteps, EstSeconds: job.cost, Submitted: job.submitted,
		Rays: job.lastShard.Rays, Steps: job.lastShard.Steps,
		FromCache: job.lastShard.FromCache,
	}
	if job.shard != nil {
		st.Shard = job.shard.Name()
	}
	now := time.Now()
	switch {
	case !job.started.IsZero():
		st.QueueSeconds = job.started.Sub(job.submitted).Seconds()
		end := now
		if !job.finished.IsZero() {
			end = job.finished
		}
		st.RunSeconds = end.Sub(job.started).Seconds()
	case !job.finished.IsZero():
		st.QueueSeconds = job.finished.Sub(job.submitted).Seconds()
	default:
		st.QueueSeconds = now.Sub(job.submitted).Seconds()
	}
	if job.err != nil {
		st.Error = job.err.Error()
	}
	return st
}

// JobCount returns how many tracked jobs are in each state.
func (c *Cluster) JobCount() map[service.State]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	counts := make(map[service.State]int, 5)
	for _, j := range c.jobs {
		counts[j.state]++
	}
	return counts
}

// Close stops dispatching and waits for the loops and watchers to
// exit, or until ctx expires. Jobs still on shards keep running there;
// the router simply stops tracking them.
func (c *Cluster) Close(ctx context.Context) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
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
