package service

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/uintah-repro/rmcrt/internal/field"
)

// TestJobDeadlineFailsTyped: a solve that outruns Config.JobDeadline
// fails with ErrDeadlineExceeded (typed degradation), it is not
// reported as a client cancellation.
func TestJobDeadlineFailsTyped(t *testing.T) {
	m := newTestManager(t, Config{
		Workers: 1, JobDeadline: 20 * time.Millisecond,
		Solver: func(ctx context.Context, spec Spec) (*field.CC[float64], int64, int64, error) {
			<-ctx.Done()
			return nil, 0, 0, ctx.Err()
		},
	})
	st, err := m.Submit(fastSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, st.ID, StateFailed)
	got, _ := m.Status(st.ID)
	if !strings.Contains(got.Error, ErrDeadlineExceeded.Error()) {
		t.Errorf("job error %q does not carry the deadline error", got.Error)
	}
	if n := m.mDeadline.Value(); n == 0 {
		t.Error("deadline metric not incremented")
	}
	if n := m.jobs.mCancelled.Value(); n != 0 {
		t.Errorf("deadline expiry recorded as %d cancellations", n)
	}
}

// TestTransientFailureRetriedOnce: a first-attempt rank loss is retried
// exactly once, and the retry's result is served as if nothing
// happened — determinism makes the two attempts interchangeable.
func TestTransientFailureRetriedOnce(t *testing.T) {
	var calls atomic.Int64
	m := newTestManager(t, Config{
		Workers: 1,
		Solver: func(ctx context.Context, spec Spec) (*field.CC[float64], int64, int64, error) {
			if calls.Add(1) == 1 {
				return nil, 0, 0, fmt.Errorf("timestep aborted: %w", ErrRankLost)
			}
			return spec.Solve(ctx)
		},
	})
	st, err := m.Submit(fastSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, st.ID, StateDone)
	if got := calls.Load(); got != 2 {
		t.Errorf("solver called %d times, want 2", got)
	}
	if got := m.mRetried.Value(); got != 1 {
		t.Errorf("retried metric = %d, want 1", got)
	}
	divQ, _, terminal, err := m.Result(st.ID)
	if err != nil || !terminal || divQ == nil {
		t.Fatalf("result after retry: divQ=%v terminal=%v err=%v", divQ, terminal, err)
	}
	want, _, _, err := fastSpec(2).Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range divQ.Data() {
		if v != want.Data()[i] {
			t.Fatalf("retried result differs from direct solve at %d", i)
		}
	}
}

// TestTransientFailureGivesUpAfterOneRetry: rank loss on both attempts
// fails the job with the typed error; the retry budget is one.
func TestTransientFailureGivesUpAfterOneRetry(t *testing.T) {
	var calls atomic.Int64
	m := newTestManager(t, Config{
		Workers: 1,
		Solver: func(ctx context.Context, spec Spec) (*field.CC[float64], int64, int64, error) {
			calls.Add(1)
			return nil, 0, 0, fmt.Errorf("timestep aborted: %w", ErrRankLost)
		},
	})
	st, err := m.Submit(fastSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, st.ID, StateFailed)
	if got := calls.Load(); got != 2 {
		t.Errorf("solver called %d times, want 2 (one retry)", got)
	}
	got, _ := m.Status(st.ID)
	if !strings.Contains(got.Error, ErrRankLost.Error()) {
		t.Errorf("job error %q does not carry ErrRankLost", got.Error)
	}
}

// TestDisableRetrySkipsRetry: with DisableRetry the first transient
// failure is final.
func TestDisableRetrySkipsRetry(t *testing.T) {
	var calls atomic.Int64
	m := newTestManager(t, Config{
		Workers: 1, DisableRetry: true,
		Solver: func(ctx context.Context, spec Spec) (*field.CC[float64], int64, int64, error) {
			calls.Add(1)
			return nil, 0, 0, ErrRankLost
		},
	})
	st, err := m.Submit(fastSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, st.ID, StateFailed)
	if got := calls.Load(); got != 1 {
		t.Errorf("solver called %d times, want 1", got)
	}
	if got := m.mRetried.Value(); got != 0 {
		t.Errorf("retried metric = %d, want 0", got)
	}
}

// TestIsTransientClassification: only rank loss is transient; spec
// errors, cancellation and deadline expiry are not.
func TestIsTransientClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{ErrRankLost, true},
		{fmt.Errorf("wrapped: %w", ErrRankLost), true},
		{context.Canceled, false},
		{context.DeadlineExceeded, false},
		{ErrDeadlineExceeded, false},
		{SpecError("bad"), false},
		{nil, false},
	}
	for _, c := range cases {
		if got := IsTransient(c.err); got != c.want {
			t.Errorf("IsTransient(%v) = %v, want %v", c.err, got, c.want)
		}
	}
	if !errors.Is(fmt.Errorf("x: %w", ErrRankLost), ErrRankLost) {
		t.Error("ErrRankLost does not survive wrapping")
	}
}
