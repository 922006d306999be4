package cluster

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/uintah-repro/rmcrt/internal/calib"
	"github.com/uintah-repro/rmcrt/internal/field"
	"github.com/uintah-repro/rmcrt/internal/metrics"
	"github.com/uintah-repro/rmcrt/internal/service"
)

// lifecycleEnv is one serving plane under the accounting table: the
// plane's job API as closures, the gate its solves park on, and what
// the test expects the per-class families to read.
type lifecycleEnv struct {
	name   string
	prefix string // metric prefix: rmcrtd or router
	reg    *metrics.Registry
	gate   chan struct{}

	submit func(spec service.Spec, deadline time.Time) (id string, st service.State, err error)
	status func(id string) (service.State, string)
	cancel func(id string) error
	// handler serves the plane's job API under hc.
	handler func(hc service.HandlerConfig) http.Handler

	jobs     map[string]string // accepted job ID → class
	rejected map[string]int64  // expected class_rejected
	deadline map[string]int64  // expected class_deadline
	running  string            // the job holding the only slot
	queued   string            // the job waiting behind it
}

// gatedSolver parks every solve until the gate lets one through (then
// solves for real) or its context ends.
func gatedSolver(gate <-chan struct{}) func(context.Context, service.Spec) (*field.CC[float64], int64, int64, error) {
	return func(ctx context.Context, spec service.Spec) (*field.CC[float64], int64, int64, error) {
		select {
		case <-gate:
			return spec.Solve(ctx)
		case <-ctx.Done():
			return nil, 0, 0, ctx.Err()
		}
	}
}

// lcSpec is a small distinct job: seed picks the content key.
func lcSpec(seed uint64, class string) service.Spec {
	return service.Spec{Kind: service.KindBenchmark, N: 8, Rays: 10, Seed: seed, Class: class}
}

// lcCalibration prices lcSpec jobs at tens of microseconds and
// lcHopeless at about 8 s, on both planes.
var lcCalibration = &calib.Calibration{SecondsPerStep: 1e-9, StepsScale1: 1, StepsScale2: 1, Samples: 10}

// lcHopeless is priced far beyond any short deadline on both planes.
func lcHopeless(class string) service.Spec {
	return service.Spec{Kind: service.KindBenchmark, N: 64, Rays: 1000, Seed: 1, Class: class}
}

func startLifecycleDaemon(t *testing.T, cfg service.Config) (*service.Manager, *httptest.Server) {
	t.Helper()
	mgr := service.New(cfg)
	srv := httptest.NewServer(service.NewHandlerConfig(mgr, service.HandlerConfig{}))
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = mgr.Close(ctx)
	})
	return mgr, srv
}

func newLifecycleEnv(name, prefix string, reg *metrics.Registry, gate chan struct{}) *lifecycleEnv {
	return &lifecycleEnv{
		name: name, prefix: prefix, reg: reg, gate: gate,
		jobs:     make(map[string]string),
		rejected: make(map[string]int64),
		deadline: make(map[string]int64),
	}
}

// lifecycleDaemon is one rmcrtd with a single worker and a one-slot
// queue, so "running", "queued" and "queue full" are each one submit
// apart.
func lifecycleDaemon(t *testing.T) *lifecycleEnv {
	gate := make(chan struct{})
	t.Cleanup(func() { close(gate) })
	reg := metrics.NewRegistry()
	mgr, _ := startLifecycleDaemon(t, service.Config{
		Workers: 1, QueueDepth: 1, Metrics: reg,
		Solver:      gatedSolver(gate),
		Calibration: lcCalibration,
	})
	e := newLifecycleEnv("daemon", "rmcrtd", reg, gate)
	e.submit = func(spec service.Spec, deadline time.Time) (string, service.State, error) {
		st, err := mgr.SubmitDeadline(spec, deadline)
		return st.ID, st.State, err
	}
	e.status = func(id string) (service.State, string) {
		st, err := mgr.Status(id)
		if err != nil {
			t.Fatalf("status %s: %v", id, err)
		}
		return st.State, st.Error
	}
	e.cancel = func(id string) error { _, err := mgr.Cancel(id); return err }
	e.handler = func(hc service.HandlerConfig) http.Handler { return service.NewHandlerConfig(mgr, hc) }
	return e
}

// lifecycleRouter is a router over one gated rmcrtd shard, with one
// placement slot and a one-job dispatch queue, calibrated so small jobs
// are feasible under any deadline the table uses and lcHopeless is not.
func lifecycleRouter(t *testing.T) *lifecycleEnv {
	gate := make(chan struct{})
	t.Cleanup(func() { close(gate) })
	_, shard := startLifecycleDaemon(t, service.Config{Workers: 1, QueueDepth: 32, Solver: gatedSolver(gate)})
	reg := metrics.NewRegistry()
	c, err := New(Config{
		Shards:              []ShardConfig{{Name: "s0", URL: shard.URL}},
		QueueDepth:          1,
		MaxInflightPerShard: 1,
		PollInterval:        5 * time.Millisecond,
		HealthInterval:      50 * time.Millisecond,
		Client:              &http.Client{Timeout: 2 * time.Second},
		Metrics:             reg,
		Calibration:         lcCalibration,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = c.Close(ctx)
	})
	e := newLifecycleEnv("router", "router", reg, gate)
	e.submit = func(spec service.Spec, deadline time.Time) (string, service.State, error) {
		st, err := c.SubmitDeadline(spec, deadline)
		return st.ID, st.State, err
	}
	e.status = func(id string) (service.State, string) {
		st, err := c.Status(id)
		if err != nil {
			t.Fatalf("status %s: %v", id, err)
		}
		return st.State, st.Error
	}
	e.cancel = func(id string) error { _, err := c.Cancel(id); return err }
	e.handler = func(hc service.HandlerConfig) http.Handler { return NewHandlerConfig(c, hc) }
	return e
}

// accept submits and requires admission, recording the job's class.
func (e *lifecycleEnv) accept(t *testing.T, spec service.Spec, deadline time.Time) (string, service.State) {
	t.Helper()
	id, st, err := e.submit(spec, deadline)
	if err != nil {
		t.Fatalf("submit %+v: %v", spec, err)
	}
	e.jobs[id] = spec.Class
	return id, st
}

// reject submits and requires the typed rejection want.
func (e *lifecycleEnv) reject(t *testing.T, spec service.Spec, deadline time.Time, want error) {
	t.Helper()
	id, _, err := e.submit(spec, deadline)
	if !errors.Is(err, want) {
		t.Fatalf("submit %+v = %q, %v; want %v", spec, id, err, want)
	}
	e.rejected[spec.Class]++
}

// release lets exactly one parked solve run.
func (e *lifecycleEnv) release(t *testing.T) {
	t.Helper()
	select {
	case e.gate <- struct{}{}:
	case <-time.After(10 * time.Second):
		t.Fatal("no solve ever reached the gate")
	}
}

// waitState polls until job id reports want and returns its error text.
func (e *lifecycleEnv) waitState(t *testing.T, id string, want service.State) string {
	t.Helper()
	end := time.Now().Add(10 * time.Second)
	for {
		st, msg := e.status(id)
		if st == want {
			return msg
		}
		if time.Now().After(end) {
			t.Fatalf("job %s is %s (%q), want %s", id, st, msg, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// check asserts the per-class accounting identity
//
//	class_submitted = class_done + class_failed + class_cancelled + live
//
// and that rejections and deadline failures land exactly where expected.
func (e *lifecycleEnv) check(t *testing.T) {
	t.Helper()
	for _, class := range service.Classes() {
		get := func(what string) int64 {
			name := e.prefix + "_class_" + what + "_total_" + strings.ReplaceAll(class, "-", "_")
			v, ok := e.reg.Value(name)
			if !ok {
				t.Fatalf("%s not registered", name)
			}
			return int64(v)
		}
		var accepted, live int64
		for id, c := range e.jobs {
			if c != class {
				continue
			}
			accepted++
			if st, _ := e.status(id); !st.Terminal() {
				live++
			}
		}
		sub, done, failed, cancelled := get("submitted"), get("done"), get("failed"), get("cancelled")
		if sub != done+failed+cancelled+live {
			t.Errorf("%s: submitted %d != done %d + failed %d + cancelled %d + live %d",
				class, sub, done, failed, cancelled, live)
		}
		if sub != accepted {
			t.Errorf("%s: class_submitted %d, but %d submissions were accepted", class, sub, accepted)
		}
		if got := get("rejected"); got != e.rejected[class] {
			t.Errorf("%s: class_rejected %d, want %d", class, got, e.rejected[class])
		}
		if got := get("deadline"); got != e.deadline[class] {
			t.Errorf("%s: class_deadline %d, want %d", class, got, e.deadline[class])
		}
	}
}

// TestLifecycleAccounting drives one op mix through the daemon and the
// router and, after every op, checks the per-class job accounting:
// every accepted job is counted submitted once and, once terminal,
// exactly one of done / failed / cancelled; a rejected submission only
// ever reaches class_rejected; class_deadline counts exactly the
// deadline failures, including one a shard reports over HTTP.
func TestLifecycleAccounting(t *testing.T) {
	const (
		ia = service.ClassInteractive
		ba = service.ClassBatch
		be = service.ClassBestEffort
	)
	var none time.Time
	ops := []struct {
		name string
		only string // "" = both planes
		run  func(t *testing.T, e *lifecycleEnv)
	}{
		{"done", "", func(t *testing.T, e *lifecycleEnv) {
			id, _ := e.accept(t, lcSpec(1, ia), none)
			e.release(t)
			e.waitState(t, id, service.StateDone)
		}},
		{"running then cancelled", "", func(t *testing.T, e *lifecycleEnv) {
			id, _ := e.accept(t, lcSpec(2, ba), none)
			e.waitState(t, id, service.StateRunning)
			if err := e.cancel(id); err != nil {
				t.Fatal(err)
			}
			e.waitState(t, id, service.StateCancelled)
		}},
		{"queue full", "", func(t *testing.T, e *lifecycleEnv) {
			e.running, _ = e.accept(t, lcSpec(3, ia), none)
			e.waitState(t, e.running, service.StateRunning)
			e.queued, _ = e.accept(t, lcSpec(4, ba), none)
			e.reject(t, lcSpec(5, be), none, service.ErrQueueFull)
		}},
		{"queued then cancelled", "", func(t *testing.T, e *lifecycleEnv) {
			if st, _ := e.status(e.queued); st != service.StateQueued {
				t.Fatalf("job %s is %s, want queued", e.queued, st)
			}
			if err := e.cancel(e.queued); err != nil {
				t.Fatal(err)
			}
			e.waitState(t, e.queued, service.StateCancelled)
			e.release(t)
			e.waitState(t, e.running, service.StateDone)
		}},
		{"more urgent arrival past a full queue", "", func(t *testing.T, e *lifecycleEnv) {
			running, _ := e.accept(t, lcSpec(20, ba), none)
			e.waitState(t, running, service.StateRunning)
			behind, _ := e.accept(t, lcSpec(21, be), none)
			urgent, st := e.accept(t, lcSpec(22, ia), none)
			if st != service.StateQueued {
				t.Fatalf("interactive past a full queue answered %s, want queued", st)
			}
			e.reject(t, lcSpec(23, be), none, service.ErrQueueFull)
			e.check(t)
			// The interactive job overtakes the best-effort one queued
			// before it.
			e.release(t)
			e.waitState(t, running, service.StateDone)
			e.release(t)
			e.waitState(t, urgent, service.StateDone)
			e.release(t)
			e.waitState(t, behind, service.StateDone)
		}},
		{"coalesced", "daemon", func(t *testing.T, e *lifecycleEnv) {
			lead, _ := e.accept(t, lcSpec(6, ia), none)
			e.waitState(t, lead, service.StateRunning)
			rider, _ := e.accept(t, lcSpec(6, be), none)
			e.check(t)
			e.release(t)
			e.waitState(t, lead, service.StateDone)
			e.waitState(t, rider, service.StateDone)
		}},
		{"cache hit", "daemon", func(t *testing.T, e *lifecycleEnv) {
			if _, st := e.accept(t, lcSpec(6, ba), none); st != service.StateDone {
				t.Fatalf("cache hit answered %s, want done", st)
			}
		}},
		{"expired on arrival", "", func(t *testing.T, e *lifecycleEnv) {
			id, st := e.accept(t, lcSpec(7, be), time.Now().Add(-time.Second))
			if st != service.StateFailed {
				t.Fatalf("expired submission answered %s, want failed", st)
			}
			if msg := e.waitState(t, id, service.StateFailed); !strings.Contains(msg, "deadline exceeded") {
				t.Fatalf("expired job error %q", msg)
			}
			e.deadline[be]++
		}},
		{"shard deadline", "router", func(t *testing.T, e *lifecycleEnv) {
			// Feasible at the router, placed at once; the shard's solve
			// parks until the forwarded deadline ends it there.
			id, _ := e.accept(t, lcSpec(8, ia), time.Now().Add(300*time.Millisecond))
			msg := e.waitState(t, id, service.StateFailed)
			if !strings.HasPrefix(msg, "cluster: shard s0: "+service.ErrDeadlineExceeded.Error()) {
				t.Fatalf("shard deadline failure reads %q", msg)
			}
			e.deadline[ia]++
		}},
		{"infeasible", "", func(t *testing.T, e *lifecycleEnv) {
			e.reject(t, lcHopeless(ba), time.Now().Add(time.Second), service.ErrDeadlineInfeasible)
		}},
	}
	for _, start := range []func(*testing.T) *lifecycleEnv{lifecycleDaemon, lifecycleRouter} {
		e := start(t)
		t.Run(e.name, func(t *testing.T) {
			for _, op := range ops {
				if op.only != "" && op.only != e.name {
					continue
				}
				op.run(t, e)
				e.check(t)
				if t.Failed() {
					t.Fatalf("after op %q", op.name)
				}
			}
		})
	}
}

// TestCancelFreesQueueSlot: on both planes, a job cancelled while it
// waits in the one-deep queue gives its slot back at once, so the next
// submit is admitted, not refused as queue-full. The only worker (or
// shard slot) is held by a parked solve, so nothing drains the queue in
// between.
func TestCancelFreesQueueSlot(t *testing.T) {
	var none time.Time
	for _, start := range []func(*testing.T) *lifecycleEnv{lifecycleDaemon, lifecycleRouter} {
		e := start(t)
		t.Run(e.name, func(t *testing.T) {
			running, _ := e.accept(t, lcSpec(1, service.ClassInteractive), none)
			e.waitState(t, running, service.StateRunning)
			queued, _ := e.accept(t, lcSpec(2, service.ClassBatch), none)
			if err := e.cancel(queued); err != nil {
				t.Fatal(err)
			}
			e.waitState(t, queued, service.StateCancelled)
			next, st := e.accept(t, lcSpec(3, service.ClassBatch), none)
			if st != service.StateQueued {
				t.Fatalf("submit after the cancel answered %s, want queued", st)
			}
			e.reject(t, lcSpec(4, service.ClassBestEffort), none, service.ErrQueueFull)
			e.check(t)
			e.release(t)
			e.waitState(t, running, service.StateDone)
			e.release(t)
			e.waitState(t, next, service.StateDone)
			e.check(t)
		})
	}
}
