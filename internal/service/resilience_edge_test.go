package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/uintah-repro/rmcrt/internal/field"
	"github.com/uintah-repro/rmcrt/internal/metrics"
	"github.com/uintah-repro/rmcrt/internal/resilience"
)

// postSolveAs is postSolve with a client identity and an optional
// relative deadline header.
func postSolveAs(t *testing.T, srv *httptest.Server, spec Spec, client, deadlineMs string) *http.Response {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if client != "" {
		req.Header.Set(ClientIDHeader, client)
	}
	if deadlineMs != "" {
		req.Header.Set(DeadlineHeader, deadlineMs)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestE2EPerClientAdmission: an over-rate client is shed with 429 +
// Retry-After at the edge, before the body is decoded, while another
// client's bucket is untouched.
func TestE2EPerClientAdmission(t *testing.T) {
	m := New(Config{Workers: 1})
	lim := resilience.NewLimiter(resilience.LimiterConfig{
		Default: resilience.RateBurst{Rate: 0.001, Burst: 2},
	})
	srv := httptest.NewServer(NewHandlerConfig(m, HandlerConfig{Limiter: lim}))
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		_ = m.Close(ctx)
	})
	spec := Spec{Kind: KindBenchmark, N: 12}

	shed := 0
	for i := 0; i < 5; i++ {
		resp := postSolveAs(t, srv, spec, "abuser", "")
		if resp.StatusCode == http.StatusTooManyRequests {
			shed++
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without a Retry-After hint")
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil ||
				!strings.Contains(e.Error, "rate limited") {
				t.Fatalf("429 body %+v (%v), want the rate-limited error", e, err)
			}
		} else if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("request %d: %d, want 202 or 429", i, resp.StatusCode)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if shed != 3 {
		t.Fatalf("%d of 5 shed at burst 2, want 3", shed)
	}

	// A compliant client has its own bucket: still admitted.
	resp := postSolveAs(t, srv, spec, "compliant", "")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("compliant client got %d after abuser was shed", resp.StatusCode)
	}
	io.Copy(io.Discard, resp.Body)

	if allowed, shedN := lim.Stats(); allowed != 3 || shedN != 3 {
		t.Fatalf("limiter stats allowed=%d shed=%d, want 3/3", allowed, shedN)
	}
	if per := lim.ShedByClient(); per["abuser"] != 3 || per["compliant"] != 0 {
		t.Fatalf("per-client shed %v, want abuser=3 compliant=0", per)
	}
}

// TestE2EDeadlineHeader: a malformed deadline header is a 400; a job
// whose propagated deadline expires while it waits behind a busy worker
// is fast-failed with the typed deadline error and never runs.
func TestE2EDeadlineHeader(t *testing.T) {
	release := make(chan struct{})
	var once bool
	m := New(Config{Workers: 1, Solver: func(ctx context.Context, spec Spec) (*field.CC[float64], int64, int64, error) {
		if !once {
			once = true
			select {
			case <-release:
			case <-ctx.Done():
				return nil, 0, 0, ctx.Err()
			}
		}
		return spec.Solve(ctx)
	}})
	srv := httptest.NewServer(NewHandlerConfig(m, HandlerConfig{}))
	t.Cleanup(func() {
		srv.Close()
		close(release)
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = m.Close(ctx)
	})

	// Malformed, and too large for a Duration (the product would wrap
	// into the past and fast-fail the job as expired).
	for _, bad := range []string{"banana", "10000000000000", "9223372036854775807"} {
		resp := postSolveAs(t, srv, Spec{Kind: KindBenchmark, N: 12}, "", bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("malformed deadline header %q: %d, want 400", bad, resp.StatusCode)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	// Occupy the single worker, then submit a job with a 30ms budget: it
	// expires in the queue and must fast-fail without ever starting.
	blocker := postSolveAs(t, srv, Spec{Kind: KindBenchmark, N: 12, Seed: 1}, "", "")
	var bst JobStatus
	if err := json.NewDecoder(blocker.Body).Decode(&bst); err != nil {
		t.Fatal(err)
	}
	blocker.Body.Close()
	pollUntil(t, srv, bst.ID, StateRunning)

	resp := postSolveAs(t, srv, Spec{Kind: KindBenchmark, N: 12, Seed: 2}, "", "30")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("deadline submission: %d, want 202", resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	time.Sleep(50 * time.Millisecond) // let the 30ms budget lapse
	release <- struct{}{}             // free the worker; the expired flight is next

	deadline := time.Now().Add(5 * time.Second)
	var final JobStatus
	for {
		final = getStatus(t, srv, st.ID)
		if final.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("deadline job stuck in %s", final.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if final.State != StateFailed || !strings.Contains(final.Error, "deadline") {
		t.Fatalf("expired job ended %s (%q), want failed with the deadline error", final.State, final.Error)
	}
	if final.RunSeconds != 0 {
		t.Fatalf("expired job ran for %v seconds; it must not have touched a worker", final.RunSeconds)
	}
	if v, ok := m.Registry().Value("rmcrtd_jobs_expired_total"); !ok || v < 1 {
		t.Fatalf("rmcrtd_jobs_expired_total = %v (%v), want >= 1", v, ok)
	}
}

// TestSubmitDeadlineExpiredAtSubmit: a dead-on-arrival deadline is
// fast-failed inside Submit — terminal immediately, typed error, the
// expired counter bumped, the accounting identity (exactly one terminal
// outcome per submission) preserved.
func TestSubmitDeadlineExpiredAtSubmit(t *testing.T) {
	reg := metrics.NewRegistry()
	m := newTestManager(t, Config{Workers: 1, Metrics: reg})
	st, err := m.SubmitDeadline(Spec{Kind: KindBenchmark, N: 12}, time.Now().Add(-time.Second))
	if err != nil {
		t.Fatalf("expired submission rejected outright: %v", err)
	}
	if st.State != StateFailed || !strings.Contains(st.Error, "deadline") {
		t.Fatalf("status %+v, want immediately failed with the deadline error", st)
	}
	for name, want := range map[string]float64{
		"rmcrtd_jobs_expired_total": 1,
		"rmcrtd_jobs_failed_total":  1,
		"rmcrtd_cache_misses_total": 0, // never reached the solve path
	} {
		if v, _ := reg.Value(name); v != want {
			t.Errorf("%s = %v, want %v", name, v, want)
		}
	}

	// But a cached answer is free, and free work meets any deadline.
	if _, err := m.Submit(Spec{Kind: KindBenchmark, N: 12}); err != nil {
		t.Fatal(err)
	}
	waitIdle(t, m)
	st, err = m.SubmitDeadline(Spec{Kind: KindBenchmark, N: 12}, time.Now().Add(-time.Second))
	if err != nil || !st.FromCache || st.State != StateDone {
		t.Fatalf("expired-but-cached submission = %+v (%v), want cache-hit done", st, err)
	}
}

// TestFlightDeadlineLoosens: coalescing a no-deadline job onto a
// deadlined flight unbinds it — riding on a shared solve never
// tightens what any job asked for.
func TestFlightDeadlineLoosens(t *testing.T) {
	release := make(chan struct{})
	var once bool
	m := newTestManager(t, Config{Workers: 1, Solver: func(ctx context.Context, spec Spec) (*field.CC[float64], int64, int64, error) {
		if !once {
			once = true
			select {
			case <-release:
			case <-ctx.Done():
				return nil, 0, 0, ctx.Err()
			}
		}
		return spec.Solve(ctx)
	}})
	t.Cleanup(func() {
		select {
		case <-release:
		default:
			close(release)
		}
	})

	// Occupy the worker so the deadlined flight waits in the queue.
	blocker, err := m.Submit(Spec{Kind: KindBenchmark, N: 12, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, m, blocker.ID)

	spec := Spec{Kind: KindBenchmark, N: 12, Seed: 2}
	a, err := m.SubmitDeadline(spec, time.Now().Add(40*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Submit(spec) // no deadline: must loosen the shared flight
	if err != nil {
		t.Fatal(err)
	}
	if !b.Coalesced {
		t.Fatalf("identical submission not coalesced: %+v", b)
	}

	time.Sleep(60 * time.Millisecond) // outlive a's deadline while queued
	release <- struct{}{}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, id := range []string{a.ID, b.ID} {
		st, err := m.Wait(ctx, id)
		if err != nil || st.State != StateDone {
			t.Fatalf("job %s = %+v (%v), want done: the no-deadline rider must unbind the flight", id, st, err)
		}
	}
}

// TestSolveDeadlineBoundsRunningSolve: a live propagated deadline cuts
// off a solve in progress with the typed error, like Config.JobDeadline
// does.
func TestSolveDeadlineBoundsRunningSolve(t *testing.T) {
	reg := metrics.NewRegistry()
	m := newTestManager(t, Config{Workers: 1, Metrics: reg, Solver: func(ctx context.Context, spec Spec) (*field.CC[float64], int64, int64, error) {
		<-ctx.Done() // a solve that never finishes on its own
		return nil, 0, 0, ctx.Err()
	}})
	st, err := m.SubmitDeadline(Spec{Kind: KindBenchmark, N: 12}, time.Now().Add(30*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	final, err := m.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateFailed || !strings.Contains(final.Error, "deadline") {
		t.Fatalf("job = %+v, want failed with the deadline error", final)
	}
	if v, _ := reg.Value("rmcrtd_jobs_deadline_exceeded_total"); v != 1 {
		t.Fatalf("rmcrtd_jobs_deadline_exceeded_total = %v, want 1", v)
	}
}

// waitRunning polls until the job reports running.
func waitRunning(t *testing.T, m *Manager, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, err := m.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateRunning {
			return
		}
		if st.State.Terminal() {
			t.Fatalf("job %s terminal in %s while waiting for running", id, st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never started", id)
}

// waitIdle polls until no job is queued or running.
func waitIdle(t *testing.T, m *Manager) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		counts := m.JobCount()
		if counts[StateQueued] == 0 && counts[StateRunning] == 0 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("manager never went idle")
}
