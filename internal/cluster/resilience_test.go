package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/uintah-repro/rmcrt/internal/resilience"
	"github.com/uintah-repro/rmcrt/internal/service"
)

// counterValue reads a router counter/gauge, failing on unknown names.
func counterValue(t *testing.T, c *Cluster, name string) float64 {
	t.Helper()
	v, ok := c.Registry().Value(name)
	if !ok {
		t.Fatalf("no metric %q", name)
	}
	return v
}

// TestClusterBreakerTripsAndRecovers: a flapping shard — health probes
// pass, placements fail — trips its circuit open (visible in the
// transition metrics) while jobs spill to the surviving shard; once
// the faults stop, a half-open probe placement closes it again.
func TestClusterBreakerTripsAndRecovers(t *testing.T) {
	// Fault only shard s0's placements; s1 keeps the fleet healthy so
	// rerouted jobs always have somewhere to land.
	var s0host atomic.Value
	ft := resilience.NewFaultTransport(nil, resilience.FaultTransportConfig{
		Seed: 1,
		Match: func(r *http.Request) bool {
			host, _ := s0host.Load().(string)
			return r.Method == http.MethodPost &&
				strings.HasSuffix(r.URL.Path, "/v1/solve") && r.URL.Host == host
		},
	})
	ft.ForceFail(-1)
	h := newTestHarness(t, 2, func(c *Config) {
		c.Client = &http.Client{Transport: ft, Timeout: 2 * time.Second}
		c.Policy = PolicyLeastLoaded // ties go to s0, so it keeps taking traffic
		c.MaxAttempts = 50
		c.RetryBudget = 1000
		c.BreakerThreshold = 2
		c.BreakerCooldown = 100 * time.Millisecond
		c.BackoffBase = time.Millisecond
		c.BackoffCap = 5 * time.Millisecond
		c.HealthInterval = 15 * time.Millisecond
	})
	s0host.Store(strings.TrimPrefix(h.shards[0].srv.URL, "http://"))

	// Submit jobs until s0 accrues enough consecutive lost placements to
	// trip; every job still completes by spilling to s1.
	deadline := time.Now().Add(20 * time.Second)
	seed := uint64(100)
	for counterValue(t, h.cluster, "router_shard_s0_breaker_opens_total") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("breaker never opened under forced placement failures")
		}
		seed++
		st, err := h.cluster.Submit(service.Spec{Kind: service.KindBenchmark, N: 12, Rays: 25, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		fin := waitDone(t, h.cluster, st.ID)
		if fin.Shard == "s0" {
			t.Fatalf("job %s completed on the faulted shard", fin.ID)
		}
	}
	if v := counterValue(t, h.cluster, "router_breaker_opens_total"); v < 1 {
		t.Fatalf("aggregate opens = %v, want >= 1", v)
	}
	if got := h.cluster.Shards().Get("s0").BreakerState(); got != resilience.BreakerOpen {
		t.Fatalf("s0 breaker %v after trip, want open", got)
	}

	// Faults stop; recovery must flow through a half-open probe
	// placement landing back on s0.
	ft.StopForcing()
	for counterValue(t, h.cluster, "router_breaker_closes_total") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("breaker never closed after faults stopped")
		}
		seed++
		st, err := h.cluster.Submit(service.Spec{Kind: service.KindBenchmark, N: 12, Rays: 25, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, h.cluster, st.ID)
	}
	if v := counterValue(t, h.cluster, "router_breaker_half_opens_total"); v < 1 {
		t.Fatalf("half-open transitions = %v, want >= 1", v)
	}
	if v := counterValue(t, h.cluster, "router_shard_s0_breaker_state"); v != 0 {
		t.Fatalf("final s0 breaker state = %v, want 0 (closed)", v)
	}
	if got := h.cluster.Shards().Get("s0").BreakerState(); got != resilience.BreakerClosed {
		t.Fatalf("shard breaker state %v, want closed", got)
	}
}

// TestClusterRetryBudgetExhausted: when every result fetch answers
// 503, reroutes burn the shared retry budget and the job fails with
// the typed error once it is dry — bounded retry volume instead of
// infinite amplification.
func TestClusterRetryBudgetExhausted(t *testing.T) {
	ft := resilience.NewFaultTransport(nil, resilience.FaultTransportConfig{
		Seed:  2,
		P5xx:  1,
		Match: func(r *http.Request) bool { return strings.HasSuffix(r.URL.Path, "/result") },
	})
	h := newTestHarness(t, 1, func(c *Config) {
		c.Client = &http.Client{Transport: ft, Timeout: 2 * time.Second}
		c.MaxAttempts = 100
		c.RetryBudget = 2
		c.RetryRefill = 0.0001 // successes must not mask exhaustion here
		c.BreakerThreshold = 100
		c.BackoffBase = time.Millisecond
		c.BackoffCap = 5 * time.Millisecond
	})

	st, err := h.cluster.Submit(service.Spec{Kind: service.KindBenchmark, N: 12, Rays: 25, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	fin, err := h.cluster.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != service.StateFailed || !strings.Contains(fin.Error, "retry budget exhausted") {
		t.Fatalf("job = %+v, want failed with the budget-exhausted error", fin)
	}
	if v := counterValue(t, h.cluster, "router_retry_budget_denied_total"); v != 1 {
		t.Fatalf("budget denials = %v, want 1", v)
	}
	if v := counterValue(t, h.cluster, "router_jobs_rerouted_total"); v != 2 {
		t.Fatalf("reroutes = %v, want exactly the 2 budgeted", v)
	}
}

// TestClusterTornBodyRecoversBitwise: a result fetch torn mid-body is
// retried, and the job's final divQ is bitwise-identical to a direct
// local solve — determinism makes the retry invisible in the answer.
func TestClusterTornBodyRecoversBitwise(t *testing.T) {
	var torn atomic.Int64
	ft := resilience.NewFaultTransport(nil, resilience.FaultTransportConfig{
		Seed:          3,
		PTruncate:     1,
		TruncateAfter: 16,
		Match: func(r *http.Request) bool {
			// Tear the first two result fetches, then heal.
			return strings.HasSuffix(r.URL.Path, "/result") && torn.Add(1) <= 2
		},
	})
	h := newTestHarness(t, 2, func(c *Config) {
		c.Client = &http.Client{Transport: ft, Timeout: 2 * time.Second}
		c.MaxAttempts = 10
		c.BackoffBase = time.Millisecond
		c.BackoffCap = 5 * time.Millisecond
	})

	spec := service.Spec{Kind: service.KindBenchmark, N: 12, Rays: 25, Seed: 13}
	st, err := h.cluster.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitDone(t, h.cluster, st.ID)
	if fin.Attempts < 2 {
		t.Fatalf("attempts = %d, want >= 2 (torn fetches must reroute)", fin.Attempts)
	}
	payload, _, _, err := h.cluster.Result(st.ID)
	if err != nil || payload == nil {
		t.Fatalf("result: %v / %v", payload, err)
	}
	want, _, _, err := spec.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range want.Data() {
		if payload.DivQ[i] != v {
			t.Fatalf("retried divQ differs from direct solve at %d: %g vs %g", i, payload.DivQ[i], v)
		}
	}
}

// TestClusterTornBodyIsNotShardLoss: result bodies that tear after the
// shard answered are request faults, not shard loss. Three torn fetches
// on one shard of a 2-shard fleet must neither mark a shard unhealthy
// nor fast-fail the job with "no healthy shards"; the job retries and
// finishes bitwise-identical to a direct solve.
func TestClusterTornBodyIsNotShardLoss(t *testing.T) {
	var (
		mu    sync.Mutex
		hosts []string // host of each torn fetch
	)
	ft := resilience.NewFaultTransport(nil, resilience.FaultTransportConfig{
		Seed:          5,
		PTruncate:     1,
		TruncateAfter: 16,
		Match: func(r *http.Request) bool {
			if !strings.HasSuffix(r.URL.Path, "/result") {
				return false
			}
			mu.Lock()
			defer mu.Unlock()
			if len(hosts) == 3 {
				return false
			}
			hosts = append(hosts, r.URL.Host)
			return true
		},
	})
	h := newTestHarness(t, 2, func(c *Config) {
		c.Client = &http.Client{Transport: ft, Timeout: 2 * time.Second}
		c.MaxAttempts = 10
		c.BackoffBase = time.Millisecond
		c.BackoffCap = 5 * time.Millisecond
	})

	spec := service.Spec{Kind: service.KindBenchmark, N: 12, Rays: 25, Seed: 17}
	st, err := h.cluster.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitDone(t, h.cluster, st.ID)
	mu.Lock()
	torn := append([]string(nil), hosts...)
	mu.Unlock()
	if len(torn) != 3 || torn[1] != torn[0] || torn[2] != torn[0] {
		t.Fatalf("torn fetches landed on %v, want 3 on one shard", torn)
	}
	if fin.Attempts < 4 {
		t.Fatalf("attempts = %d, want >= 4 (three torn fetches, then success)", fin.Attempts)
	}
	for _, s := range h.cluster.Shards().Shards() {
		if s.State() != ShardHealthy {
			t.Fatalf("shard %s is %v after torn bodies, want healthy", s.Name(), s.State())
		}
	}
	payload, _, _, err := h.cluster.Result(st.ID)
	if err != nil || payload == nil {
		t.Fatalf("result: %v / %v", payload, err)
	}
	want, _, _, err := spec.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range want.Data() {
		if payload.DivQ[i] != v {
			t.Fatalf("retried divQ differs from direct solve at %d: %g vs %g", i, payload.DivQ[i], v)
		}
	}
}

// TestClusterDeadlinePropagation: an expired deadline fast-fails at
// submit; a live one is forwarded to the shard as its remaining
// milliseconds; one that lapses while the dispatch queue is blocked
// fast-fails at pop without costing a placement.
func TestClusterDeadlinePropagation(t *testing.T) {
	var gotDeadline atomic.Value // string: the header the shard saw
	mgr := service.New(service.Config{Workers: 2, QueueDepth: 32})
	inner := service.NewHandler(mgr)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/v1/solve") {
			gotDeadline.Store(r.Header.Get(service.DeadlineHeader))
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		defer cancel()
		_ = mgr.Close(ctx)
	})
	c, err := New(Config{
		Shards:              []ShardConfig{{URL: srv.URL}},
		PollInterval:        10 * time.Millisecond,
		MaxInflightPerShard: 1,
		Client:              &http.Client{Timeout: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = c.Close(ctx)
	})

	// Expired at submit: terminal immediately, typed error, no queue slot.
	st, err := c.SubmitDeadline(service.Spec{Kind: service.KindBenchmark, N: 12, Seed: 1}, time.Now().Add(-time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateFailed || !strings.Contains(st.Error, "deadline") {
		t.Fatalf("expired submission = %+v, want immediately failed with deadline error", st)
	}
	if v := counterValue(t, c, "router_jobs_expired_total"); v != 1 {
		t.Fatalf("router_jobs_expired_total = %v, want 1", v)
	}

	// Live deadline: forwarded as remaining milliseconds.
	st, err = c.SubmitDeadline(service.Spec{Kind: service.KindBenchmark, N: 12, Seed: 2}, time.Now().Add(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, c, st.ID)
	hv, _ := gotDeadline.Load().(string)
	if hv == "" {
		t.Fatal("shard never saw the forwarded deadline header")
	}
	var ms int
	for _, ch := range hv {
		ms = ms*10 + int(ch-'0')
	}
	if ms <= 0 || ms > 5000 {
		t.Fatalf("forwarded deadline %q ms, want in (0, 5000]", hv)
	}

	// Lapses while blocked in the dispatch queue: the single shard slot
	// is held by a long solve; the deadlined job expires at pop.
	blocker, err := c.Submit(service.Spec{Kind: service.KindBenchmark, N: 16, Rays: 1200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	st, err = c.SubmitDeadline(service.Spec{Kind: service.KindBenchmark, N: 12, Seed: 4}, time.Now().Add(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	fin, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != service.StateFailed || !strings.Contains(fin.Error, "deadline") {
		t.Fatalf("queue-expired job = %+v, want failed with deadline error", fin)
	}
	if fin.Attempts != 0 {
		t.Fatalf("queue-expired job burned %d placements, want 0", fin.Attempts)
	}
	if v := counterValue(t, c, "router_jobs_expired_total"); v != 2 {
		t.Fatalf("router_jobs_expired_total = %v, want 2", v)
	}
	waitDone(t, c, blocker.ID)
}
