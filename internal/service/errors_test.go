package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/uintah-repro/rmcrt/internal/field"
	"github.com/uintah-repro/rmcrt/internal/sched"
)

// The errors.Is contract: failures the service manufactures must wrap
// the package's typed sentinels with %w all the way out, so callers
// (and the chaos harness) can match them without string comparison —
// and the HTTP layer must carry the sentinel's message to remote
// clients, for whom the string IS the contract.

// TestResultWrapsDeadlineExceeded: a job killed by the per-job deadline
// reports an error chain containing ErrDeadlineExceeded (and the
// underlying context.DeadlineExceeded is translated away).
func TestResultWrapsDeadlineExceeded(t *testing.T) {
	m := newTestManager(t, Config{
		Workers: 1, CacheEntries: -1,
		JobDeadline: 10 * time.Millisecond,
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
	_, _, terminal, err := m.Result(st.ID)
	if !terminal {
		t.Fatal("job not terminal")
	}
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Errorf("result error %v does not wrap ErrDeadlineExceeded", err)
	}
}

// TestResultWrapsRankLost: a backend failure carrying sched.ErrRankLost
// stays matchable via the sched sentinel.
func TestResultWrapsRankLost(t *testing.T) {
	m := newTestManager(t, Config{
		Workers: 1, CacheEntries: -1,
		Solver: func(ctx context.Context, spec Spec) (*field.CC[float64], int64, int64, error) {
			return nil, 0, 0, fmt.Errorf("solve step 3: %w", sched.ErrRankLost)
		},
	})
	st, err := m.Submit(fastSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, st.ID, StateFailed)
	_, _, _, err = m.Result(st.ID)
	if !errors.Is(err, sched.ErrRankLost) {
		t.Errorf("result error %v does not wrap sched.ErrRankLost", err)
	}
}

// submitAndAwaitFailure drives one job through the HTTP API until its
// result endpoint reports a terminal failure, returning the 410 body.
func submitAndAwaitFailure(t *testing.T, srv *httptest.Server, spec Spec) JobStatus {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		var got JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusGone {
			return got
		}
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("result status %d mid-poll", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never failed")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHTTPCarriesDeadlineError: the end-to-end mapping — a deadline
// failure surfaces to an HTTP client as 410 with the typed sentinel's
// message in the error field.
func TestHTTPCarriesDeadlineError(t *testing.T) {
	m := newTestManager(t, Config{
		Workers: 1, CacheEntries: -1,
		JobDeadline: 10 * time.Millisecond,
		Solver: func(ctx context.Context, spec Spec) (*field.CC[float64], int64, int64, error) {
			<-ctx.Done()
			return nil, 0, 0, ctx.Err()
		},
	})
	srv := httptest.NewServer(NewHandlerConfig(m, HandlerConfig{}))
	defer srv.Close()
	st := submitAndAwaitFailure(t, srv, fastSpec(3))
	if st.State != StateFailed {
		t.Fatalf("state = %s, want failed", st.State)
	}
	if !strings.Contains(st.Error, ErrDeadlineExceeded.Error()) {
		t.Errorf("HTTP error %q does not carry %q", st.Error, ErrDeadlineExceeded.Error())
	}
}

// TestHTTPCarriesRankLostError: same for the scheduler's rank-loss
// sentinel.
func TestHTTPCarriesRankLostError(t *testing.T) {
	m := newTestManager(t, Config{
		Workers: 1, CacheEntries: -1,
		Solver: func(ctx context.Context, spec Spec) (*field.CC[float64], int64, int64, error) {
			return nil, 0, 0, fmt.Errorf("timestep 7: %w", sched.ErrRankLost)
		},
	})
	srv := httptest.NewServer(NewHandlerConfig(m, HandlerConfig{}))
	defer srv.Close()
	st := submitAndAwaitFailure(t, srv, fastSpec(4))
	if st.State != StateFailed {
		t.Fatalf("state = %s, want failed", st.State)
	}
	if !strings.Contains(st.Error, sched.ErrRankLost.Error()) {
		t.Errorf("HTTP error %q does not carry %q", st.Error, sched.ErrRankLost.Error())
	}
}
