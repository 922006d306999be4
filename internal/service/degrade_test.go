package service

import (
	"context"
	"strings"
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
