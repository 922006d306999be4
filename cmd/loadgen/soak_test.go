package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"testing"
	"time"

	"github.com/uintah-repro/rmcrt/internal/cluster"
	"github.com/uintah-repro/rmcrt/internal/resilience"
	"github.com/uintah-repro/rmcrt/internal/service"
	"github.com/uintah-repro/rmcrt/internal/workload"
	"github.com/uintah-repro/rmcrt/internal/workload/scenarios"
)

// soakHarness is a complete in-process 3-shard serving stack with
// deliberately tight capacity: one worker and one dispatch slot per
// shard, a small bounded router queue, priority scheduling. Overload
// has nowhere to hide.
type soakHarness struct {
	router *httptest.Server
	cl     *cluster.Cluster
	shards []*httptest.Server
	mgrs   []*service.Manager
}

func newSoakHarness(t *testing.T, queueDepth int, lim *resilience.Limiter) *soakHarness {
	t.Helper()
	h := &soakHarness{}
	var cfgs []cluster.ShardConfig
	for i := 0; i < 3; i++ {
		mgr := service.New(service.Config{Workers: 1, QueueDepth: 4})
		srv := httptest.NewServer(service.NewHandlerConfig(mgr, service.HandlerConfig{}))
		h.mgrs = append(h.mgrs, mgr)
		h.shards = append(h.shards, srv)
		cfgs = append(cfgs, cluster.ShardConfig{Name: "shard" + string(rune('0'+i)), URL: srv.URL})
	}
	cl, err := cluster.New(cluster.Config{
		Shards:              cfgs,
		Sched:               cluster.SchedPriority,
		QueueDepth:          queueDepth,
		MaxInflightPerShard: 1,
		PollInterval:        2 * time.Millisecond,
		HealthInterval:      50 * time.Millisecond,
		Client:              &http.Client{Timeout: 10 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	h.cl = cl
	h.router = httptest.NewServer(cluster.NewHandlerConfig(cl, cluster.HandlerConfig{Limiter: lim}))
	return h
}

func (h *soakHarness) close(t *testing.T) {
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

// TestOverloadSoak drives the overload scenario — an above-capacity
// best-effort flood with an interactive trickle — at its recorded
// open-loop timing into the tight 3-shard cluster, then checks the
// properties the serving stack promises under saturation:
//
//   - accounting identity: every submission lands in exactly one
//     outcome bucket, and the router's per-class rejected counters
//     agree exactly with the client-observed 429s;
//   - the bounded queue actually sheds load (queue-full > 0);
//   - priority scheduling differentiates: interactive p99 strictly
//     below best-effort p99;
//   - nothing leaks: goroutine and fd counts return to baseline after
//     teardown.
func TestOverloadSoak(t *testing.T) {
	baseGoroutines := runtime.NumGoroutine()
	baseFDs := countFDs(t)

	s, _ := scenarios.Get("overload")
	plan, err := workload.Generate(s.Spec, 23)
	if err != nil {
		t.Fatal(err)
	}
	h := newSoakHarness(t, 8, nil)
	report, err := workload.Run(context.Background(), plan, workload.RunConfig{
		Target:     h.router.URL,
		JobTimeout: 2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}

	totalSubmitted := 0
	for class, c := range report.Classes {
		sum := c.Done + c.QueueFull + c.Rejected + c.Deadline + c.Failed +
			c.Cancelled + c.Transport + c.Timeout
		if sum != c.Submitted {
			t.Errorf("class %s: outcomes sum %d != submitted %d (%+v)", class, sum, c.Submitted, c)
		}
		totalSubmitted += c.Submitted
	}
	if totalSubmitted != len(plan.Subs) {
		t.Errorf("submitted %d != planned %d", totalSubmitted, len(plan.Subs))
	}

	be := report.Classes[service.ClassBestEffort]
	fg := report.Classes[service.ClassInteractive]
	if be.QueueFull == 0 {
		t.Errorf("overload never filled the bounded queue: %+v", be)
	}
	if be.Done == 0 || fg.Done == 0 {
		t.Fatalf("need completions in both classes to compare latency: be=%+v fg=%+v", be, fg)
	}
	if fg.P99Ms >= be.P99Ms {
		t.Errorf("priority scheduling failed to differentiate: interactive p99 %.2fms >= best-effort p99 %.2fms",
			fg.P99Ms, be.P99Ms)
	}
	t.Logf("interactive: p50=%.2fms p95=%.2fms p99=%.2fms goodput=%.1f/s (%d done)",
		fg.P50Ms, fg.P95Ms, fg.P99Ms, fg.GoodputPerSec, fg.Done)
	t.Logf("best-effort: p50=%.2fms p95=%.2fms p99=%.2fms goodput=%.1f/s (%d done, %d queue-full)",
		be.P50Ms, be.P95Ms, be.P99Ms, be.GoodputPerSec, be.Done, be.QueueFull)

	// Client-observed 429s must agree exactly with the router's
	// per-class rejected counters.
	for class, key := range map[string]string{
		service.ClassInteractive: "router_class_rejected_total_interactive",
		service.ClassBestEffort:  "router_class_rejected_total_best_effort",
	} {
		if got, want := report.Counters[key], int64(report.Classes[class].QueueFull); got != want {
			t.Errorf("%s = %d, client saw %d queue-full rejections", key, got, want)
		}
	}
	// Router-side done accounting matches too.
	for class, key := range map[string]string{
		service.ClassInteractive: "router_class_done_total_interactive",
		service.ClassBestEffort:  "router_class_done_total_best_effort",
	} {
		if got, want := report.Counters[key], int64(report.Classes[class].Done); got != want {
			t.Errorf("%s = %d, client saw %d completions", key, got, want)
		}
	}

	h.close(t)

	// Leak checks: the stack must return to baseline. Both counts are
	// noisy (finalizers, http idle reaping), so retry with slack.
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

// TestDeadlineAccounting pins the per-class deadline counters: a job
// far too heavy for a 5ms deadline must fail with ErrDeadlineExceeded,
// be classified as a deadline outcome by the runner, and tick exactly
// the interactive deadline counter on the daemon.
func TestDeadlineAccounting(t *testing.T) {
	mgr := service.New(service.Config{Workers: 1, QueueDepth: 4, JobDeadline: 5 * time.Millisecond})
	srv := httptest.NewServer(service.NewHandlerConfig(mgr, service.HandlerConfig{}))
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Close()
		_ = mgr.Close(ctx)
	}()

	ws := workload.Spec{
		Name: "deadline-probe",
		Clients: []workload.ClientSpec{{
			Name: "heavy", Jobs: 1, Class: service.ClassInteractive, Mode: workload.ModeASAP,
			Job: workload.JobDist{
				N:    workload.IntDist{Const: 16},
				Rays: workload.IntDist{Const: 2000},
			},
		}},
	}
	plan, err := workload.Generate(ws, 29)
	if err != nil {
		t.Fatal(err)
	}
	report, err := workload.Run(context.Background(), plan, workload.RunConfig{
		Target:     srv.URL,
		JobTimeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	fg := report.Classes[service.ClassInteractive]
	if fg.Deadline != 1 {
		t.Fatalf("runner classified %+v, want exactly one deadline outcome", fg)
	}
	if got := report.Counters["rmcrtd_class_deadline_total_interactive"]; got != 1 {
		t.Fatalf("rmcrtd_class_deadline_total_interactive = %d, want 1", got)
	}
	if got := report.Counters["rmcrtd_jobs_deadline_exceeded_total"]; got != 1 {
		t.Fatalf("rmcrtd_jobs_deadline_exceeded_total = %d, want 1", got)
	}
}
