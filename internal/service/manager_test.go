package service

import (
	"context"
	"errors"
	"testing"
	"time"
)

// fastSpec is small enough to solve in milliseconds.
func fastSpec(seed uint64) Spec {
	return Spec{Kind: KindBenchmark, N: 8, Rays: 10, Seed: seed}
}

// slowSpec takes many seconds uncancelled — long enough that tests can
// reliably observe the running state.
func slowSpec(seed uint64) Spec {
	return Spec{Kind: KindBenchmark, N: 20, Rays: 5000, Seed: seed}
}

func newTestManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m := New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		_ = m.Close(ctx)
	})
	return m
}

// waitState polls until the job reaches state st.
func waitState(t *testing.T, m *Manager, id string, st State) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		got, err := m.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if got.State == st {
			return
		}
		if got.State.Terminal() {
			t.Fatalf("job %s reached terminal state %s while waiting for %s (err %q)", id, got.State, st, got.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %s", id, st)
}

func TestSolveMatchesDirectBitwise(t *testing.T) {
	m := newTestManager(t, Config{Workers: 2})
	spec := Spec{Kind: KindBenchmark, N: 12, Rays: 25}
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final, err := m.Wait(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("state = %s (err %q), want done", final.State, final.Error)
	}
	if final.Rays == 0 || final.Steps == 0 {
		t.Fatalf("missing trace accounting: %+v", final)
	}
	divQ, _, terminal, err := m.Result(st.ID)
	if err != nil || !terminal {
		t.Fatalf("result: terminal=%v err=%v", terminal, err)
	}
	want, _, _, err := spec.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range want.Data() {
		if divQ.Data()[i] != v {
			t.Fatalf("service divQ differs from direct solve at %d: %g vs %g", i, divQ.Data()[i], v)
		}
	}
}

func TestTwoLevelSolveCompletes(t *testing.T) {
	m := newTestManager(t, Config{Workers: 2})
	st, err := m.Submit(Spec{Kind: KindUniform, N: 16, Levels: 2, PatchN: 8, RR: 2, Rays: 5})
	if err != nil {
		t.Fatal(err)
	}
	final, err := m.Wait(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("state = %s (err %q), want done", final.State, final.Error)
	}
}

func TestQueueFullReturnsTypedError(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, QueueDepth: 1})
	a, err := m.Submit(slowSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, a.ID, StateRunning) // worker busy; queue empty again
	if _, err := m.Submit(slowSpec(2)); err != nil {
		t.Fatalf("queued submission rejected: %v", err)
	}
	_, err = m.Submit(slowSpec(3))
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if got := m.reg.Counter("rmcrtd_jobs_rejected_total", "").Value(); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}
	if _, err := m.Cancel(a.ID); err != nil {
		t.Fatal(err)
	}
}

func TestCacheHitServesWithoutSolving(t *testing.T) {
	m := newTestManager(t, Config{Workers: 2})
	spec := fastSpec(7)
	a, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(context.Background(), a.ID); err != nil {
		t.Fatal(err)
	}
	raysBefore := m.reg.Counter("rmcrtd_rays_traced_total", "").Value()
	b, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !b.FromCache || b.State != StateDone {
		t.Fatalf("second submission not served from cache: %+v", b)
	}
	if got := m.reg.Counter("rmcrtd_cache_hits_total", "").Value(); got != 1 {
		t.Fatalf("cache hits = %d, want 1", got)
	}
	if after := m.reg.Counter("rmcrtd_rays_traced_total", "").Value(); after != raysBefore {
		t.Fatalf("cache hit traced rays: %d -> %d", raysBefore, after)
	}
	ra, _, _, _ := m.Result(a.ID)
	rb, _, _, _ := m.Result(b.ID)
	if ra != rb {
		t.Fatal("cache hit must share the stored field")
	}
}

func TestSingleFlightCoalesces(t *testing.T) {
	m := newTestManager(t, Config{Workers: 2})
	spec := slowSpec(11)
	a, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, a.ID, StateRunning)
	b, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Coalesced {
		t.Fatalf("identical concurrent submission not coalesced: %+v", b)
	}
	if b.State != StateRunning {
		t.Fatalf("follower state = %s, want running (mirrors the flight)", b.State)
	}
	if got := m.reg.Counter("rmcrtd_jobs_coalesced_total", "").Value(); got != 1 {
		t.Fatalf("coalesced counter = %d, want 1", got)
	}
	// Cancelling the first job must not kill the solve the second still
	// wants; cancelling both must.
	if _, err := m.Cancel(a.ID); err != nil {
		t.Fatal(err)
	}
	if st, _ := m.Status(b.ID); st.State != StateRunning {
		t.Fatalf("follower died with the leader: %s", st.State)
	}
	start := time.Now()
	if _, err := m.Cancel(b.ID); err != nil {
		t.Fatal(err)
	}
	// The worker must come free promptly now that nobody wants the solve.
	c, err := m.Submit(fastSpec(12))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(context.Background(), c.ID); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("worker not released promptly after full cancellation: %v", elapsed)
	}
}

func TestCancelRunningJobPromptly(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	a, err := m.Submit(slowSpec(21))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, a.ID, StateRunning)
	st, err := m.Cancel(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", st.State)
	}
	if _, err := m.Cancel(a.ID); !errors.Is(err, ErrJobFinished) {
		t.Fatalf("double cancel err = %v, want ErrJobFinished", err)
	}
	// The lone worker must be usable again promptly.
	b, err := m.Submit(fastSpec(22))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := m.Wait(ctx, b.ID); err != nil {
		t.Fatalf("worker still stuck after cancellation: %v", err)
	}
}

func TestAdmissionRejectsOversizedSpec(t *testing.T) {
	m := newTestManager(t, Config{MaxCells: 1000})
	_, err := m.Submit(Spec{N: 11}) // 1331 cells
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
	var se SpecError
	if _, err := m.Submit(Spec{N: 8, Levels: 3}); !errors.As(err, &se) {
		t.Fatalf("err = %v, want SpecError", err)
	}
}

func TestCloseDrainsQueuedJobs(t *testing.T) {
	m := New(Config{Workers: 1, QueueDepth: 4})
	var ids []string
	for i := 0; i < 3; i++ {
		st, err := m.Submit(fastSpec(uint64(30 + i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		st, err := m.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone {
			t.Fatalf("job %s = %s after drain, want done", id, st.State)
		}
	}
	if _, err := m.Submit(fastSpec(99)); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close err = %v, want ErrClosed", err)
	}
}

func TestCloseDeadlineCancelsRunningJobs(t *testing.T) {
	m := New(Config{Workers: 1})
	a, err := m.Submit(slowSpec(41))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, a.ID, StateRunning)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := m.Close(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Close err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Close took %v after deadline, want prompt cooperative cancel", elapsed)
	}
	st, err := m.Status(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCancelled {
		t.Fatalf("job state after deadline close = %s, want cancelled", st.State)
	}
}

// TestTraceMetricsFlowIntoRegistry: the manager's default solver runs
// observed — the tracing engine's rmcrt_trace_* series land in the same
// registry as the rmcrtd_* job metrics, and the per-tile-merged ray and
// step counters agree exactly with the job-level accounting.
func TestTraceMetricsFlowIntoRegistry(t *testing.T) {
	m := newTestManager(t, Config{Workers: 2})
	st, err := m.Submit(fastSpec(11))
	if err != nil {
		t.Fatal(err)
	}
	final, err := m.Wait(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("state = %s (err %q), want done", final.State, final.Error)
	}
	if tiles := m.reg.Counter("rmcrt_trace_tiles_total", "").Value(); tiles == 0 {
		t.Fatal("no tiles recorded by the tracing engine")
	}
	if rays := m.reg.Counter("rmcrt_trace_rays_total", "").Value(); rays != final.Rays {
		t.Fatalf("trace rays = %d, job rays = %d", rays, final.Rays)
	}
	if steps := m.reg.Counter("rmcrt_trace_steps_total", "").Value(); steps != final.Steps {
		t.Fatalf("trace steps = %d, job steps = %d", steps, final.Steps)
	}
}
