package chaos

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/uintah-repro/rmcrt/internal/cluster"
	"github.com/uintah-repro/rmcrt/internal/resilience"
	"github.com/uintah-repro/rmcrt/internal/service"
	"github.com/uintah-repro/rmcrt/internal/workload"
)

// httpChaosHarness is the HTTP suite's serving stack: 3 real rmcrtd
// managers on loopback behind one cluster whose backend client runs
// through a seeded FaultTransport, fronted by the router HTTP handler.
type httpChaosHarness struct {
	router *httptest.Server
	cl     *cluster.Cluster
	shards []*httptest.Server
	mgrs   []*service.Manager
	faults *resilience.FaultTransport
}

func newHTTPChaosHarness(t *testing.T, ftCfg resilience.FaultTransportConfig, mut func(*cluster.Config)) *httpChaosHarness {
	t.Helper()
	h := &httpChaosHarness{}
	var cfgs []cluster.ShardConfig
	for i := 0; i < 3; i++ {
		mgr := service.New(service.Config{Workers: 1, QueueDepth: 8})
		srv := httptest.NewServer(service.NewHandlerConfig(mgr, service.HandlerConfig{}))
		h.mgrs = append(h.mgrs, mgr)
		h.shards = append(h.shards, srv)
		cfgs = append(cfgs, cluster.ShardConfig{Name: "c" + string(rune('0'+i)), URL: srv.URL})
	}
	h.faults = resilience.NewFaultTransport(nil, ftCfg)
	cfg := cluster.Config{
		Shards:              cfgs,
		Sched:               cluster.SchedPriority,
		QueueDepth:          8,
		MaxInflightPerShard: 1,
		MaxAttempts:         10,
		PollInterval:        2 * time.Millisecond,
		HealthInterval:      25 * time.Millisecond,
		Client:              &http.Client{Transport: h.faults, Timeout: 10 * time.Second},
		BreakerThreshold:    4,
		BreakerCooldown:     150 * time.Millisecond,
		RetryBudget:         30,
		RetryRefill:         0.1,
		BackoffBase:         2 * time.Millisecond,
		BackoffCap:          20 * time.Millisecond,
	}
	if mut != nil {
		mut(&cfg)
	}
	cl, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.cl = cl
	h.router = httptest.NewServer(cluster.NewHandlerConfig(cl, cluster.HandlerConfig{}))
	return h
}

func (h *httpChaosHarness) close(t *testing.T) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	h.router.Close()
	if err := h.cl.Close(ctx); err != nil {
		t.Errorf("cluster close: %v", err)
	}
	for i := range h.mgrs {
		h.shards[i].Close()
		if err := h.mgrs[i].Close(ctx); err != nil {
			t.Errorf("shard %d close: %v", i, err)
		}
	}
}

func countFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc fd accounting: %v", err)
	}
	return len(ents)
}

// backendFaults matches the cluster→shard job traffic but leaves
// health probes clean: liveness and request-path failure are separate
// signals, and the suite wants jobs — not probe flaps — driving the
// error paths.
func backendFaults(r *http.Request) bool {
	return !strings.HasSuffix(r.URL.Path, "/healthz")
}

// TestHTTPChaosSoak floods the 3-shard cluster through its HTTP edge
// while the backend transport injects seeded resets, 503s, torn bodies
// and latency spikes, then checks the promises that must survive chaos:
//
//   - accounting identity: every submission lands in exactly one
//     outcome bucket, and router done-counters agree with the
//     client-observed completions;
//   - bounded amplification: reroute volume stays within the retry
//     budget plus success refills;
//   - breaker observability: the transition counter families are
//     exposed, and every breaker still open at rest was counted;
//   - priority holds under chaos: the interactive class keeps a
//     completion fraction at least as good as best-effort — it
//     degrades last;
//   - nothing leaks: goroutines and fds return to baseline.
func TestHTTPChaosSoak(t *testing.T) {
	baseGoroutines := runtime.NumGoroutine()
	baseFDs := countFDs(t)

	h := newHTTPChaosHarness(t, resilience.FaultTransportConfig{
		Seed:          17,
		PReset:        0.04,
		P5xx:          0.05,
		PTruncate:     0.04,
		PDelay:        0.08,
		TruncateAfter: 32,
		Delay:         func() { time.Sleep(3 * time.Millisecond) },
		Match:         backendFaults,
	}, nil)

	ws := workload.Spec{
		Name: "http-chaos-soak",
		Clients: []workload.ClientSpec{
			{
				Name: "fg", Jobs: 20, Class: service.ClassInteractive,
				Arrival: workload.Arrival{Process: workload.ArrivalPoisson, RateHz: 100},
				Job: workload.JobDist{
					N:    workload.IntDist{Const: 8},
					Rays: workload.IntDist{Const: 8}, DistinctSeeds: true,
				},
			},
			{
				Name: "be", Count: 2, Jobs: 25, Class: service.ClassBestEffort,
				Arrival: workload.Arrival{Process: workload.ArrivalPoisson, RateHz: 250},
				Job: workload.JobDist{
					N:    workload.IntDist{Const: 12},
					Rays: workload.IntDist{Const: 20}, DistinctSeeds: true,
				},
			},
		},
	}
	plan, err := workload.Generate(ws, 31)
	if err != nil {
		t.Fatal(err)
	}
	report, err := workload.Run(context.Background(), plan, workload.RunConfig{
		Target:     h.router.URL,
		JobTimeout: 2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Accounting identity: outcome buckets partition submissions.
	totalSubmitted := 0
	for class, c := range report.Classes {
		sum := c.Done + c.QueueFull + c.RateLimited + c.Rejected + c.Deadline +
			c.Failed + c.Cancelled + c.Transport + c.Timeout
		if sum != c.Submitted {
			t.Errorf("class %s: outcomes sum %d != submitted %d (%+v)", class, sum, c.Submitted, c)
		}
		totalSubmitted += c.Submitted
	}
	if totalSubmitted != len(plan.Subs) {
		t.Errorf("submitted %d != planned %d", totalSubmitted, len(plan.Subs))
	}
	// Router-side done accounting matches the client's view exactly.
	for class, key := range map[string]string{
		service.ClassInteractive: "router_class_done_total_interactive",
		service.ClassBestEffort:  "router_class_done_total_best_effort",
	} {
		if got, want := report.Counters[key], int64(report.Classes[class].Done); got != want {
			t.Errorf("%s = %d, client saw %d completions", key, got, want)
		}
	}

	// Bounded amplification: reroutes never exceed the initial budget
	// plus what completed jobs refunded.
	totalDone := int64(0)
	for _, c := range report.Classes {
		totalDone += int64(c.Done)
	}
	rerouted := report.Counters["router_jobs_rerouted_total"]
	if maxReroutes := int64(30) + totalDone/10 + 1; rerouted > maxReroutes {
		t.Errorf("reroutes %d exceed budget bound %d (done=%d)", rerouted, maxReroutes, totalDone)
	}

	// Breaker observability: the transition counter families exist.
	for _, key := range []string{
		"router_breaker_opens_total",
		"router_breaker_closes_total",
		"router_breaker_half_opens_total",
	} {
		if _, ok := report.Counters[key]; !ok {
			t.Errorf("metric %s missing from the router exposition", key)
		}
	}
	// No breaker ends the run stuck open without its open having been
	// counted.
	openNow := int64(0)
	for _, s := range h.cl.Shards().Shards() {
		if s.BreakerState() == resilience.BreakerOpen {
			openNow++
		}
	}
	if opens := report.Counters["router_breaker_opens_total"]; opens < openNow {
		t.Errorf("%d breakers open at rest but only %d opens counted", openNow, opens)
	}

	// Interactive degrades last — among *accepted* jobs. The bounded
	// queue sheds at the door class-blind, so the submitted-fraction
	// carries no priority signal; but once admitted, the priority
	// scheduler places interactive first, so its accepted-completion
	// fraction must be at least best-effort's (one-job slack on the
	// smaller sample absorbs a single fault-assigned terminal failure).
	fg, be := report.Classes[service.ClassInteractive], report.Classes[service.ClassBestEffort]
	if fg.Submitted == 0 || be.Submitted == 0 {
		t.Fatalf("both classes must submit: fg=%+v be=%+v", fg, be)
	}
	fgAcc := fg.Submitted - fg.QueueFull - fg.RateLimited
	beAcc := be.Submitted - be.QueueFull - be.RateLimited
	if fgAcc > 0 && beAcc > 0 {
		fgFrac := float64(fg.Done) / float64(fgAcc)
		beFrac := float64(be.Done) / float64(beAcc)
		if slack := 1.0 / float64(fgAcc); fgFrac < beFrac-slack {
			t.Errorf("interactive completed %.0f%% of accepted < best-effort %.0f%% — interactive did not degrade last",
				fgFrac*100, beFrac*100)
		}
	}
	t.Logf("chaos outcomes: fg %d/%d done (%d accepted), be %d/%d done (%d accepted), %d reroutes, %d budget denials, %d breaker opens",
		fg.Done, fg.Submitted, fgAcc, be.Done, be.Submitted, beAcc,
		rerouted, report.Counters["router_retry_budget_denied_total"], report.Counters["router_breaker_opens_total"])

	h.close(t)

	// Leak checks: everything returns to baseline (with retry slack for
	// finalizers and idle-connection reaping).
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		goroutines := runtime.NumGoroutine()
		fds := countFDs(t)
		if goroutines <= baseGoroutines+3 && fds <= baseFDs+3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("leak: %d goroutines (baseline %d), %d fds (baseline %d)",
				goroutines, baseGoroutines, fds, baseFDs)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// TestHTTPChaosBurstOutage injects a correlated placement-failure
// burst (BurstLen) and checks the cluster absorbs it: every accepted
// job still reaches a terminal state and total reroutes stay
// budget-bounded even when failures arrive back-to-back.
func TestHTTPChaosBurstOutage(t *testing.T) {
	h := newHTTPChaosHarness(t, resilience.FaultTransportConfig{
		Seed:     43,
		PReset:   0.10,
		BurstLen: 4,
		Match: func(r *http.Request) bool {
			return r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/v1/solve")
		},
	}, func(c *cluster.Config) {
		c.RetryBudget = 60
	})
	defer h.close(t)

	ws := workload.Spec{
		Name: "http-chaos-burst",
		Clients: []workload.ClientSpec{{
			Name: "steady", Jobs: 30, Class: service.ClassBatch, Mode: workload.ModeASAP, Inflight: 4,
			Job: workload.JobDist{
				N:    workload.IntDist{Const: 10},
				Rays: workload.IntDist{Const: 10}, DistinctSeeds: true,
			},
		}},
	}
	plan, err := workload.Generate(ws, 37)
	if err != nil {
		t.Fatal(err)
	}
	report, err := workload.Run(context.Background(), plan, workload.RunConfig{
		Target:     h.router.URL,
		JobTimeout: 2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := report.Classes[service.ClassBatch]
	sum := c.Done + c.QueueFull + c.RateLimited + c.Rejected + c.Deadline +
		c.Failed + c.Cancelled + c.Transport + c.Timeout
	if sum != c.Submitted || c.Submitted != 30 {
		t.Errorf("accounting identity broken under burst faults: %+v", c)
	}
	if c.Done == 0 {
		t.Errorf("no job survived the burst outage: %+v", c)
	}
	rerouted := report.Counters["router_jobs_rerouted_total"]
	if maxReroutes := int64(60) + int64(c.Done)/10 + 1; rerouted > maxReroutes {
		t.Errorf("reroutes %d exceed budget bound %d", rerouted, maxReroutes)
	}
	t.Logf("burst outcomes: %d/%d done, %d reroutes, %d breaker opens",
		c.Done, c.Submitted, rerouted, report.Counters["router_breaker_opens_total"])
}
