package service

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/uintah-repro/rmcrt/internal/calib"
	"github.com/uintah-repro/rmcrt/internal/metrics"
)

// hopeless prices every solve at 3600 s: the per-step rate is too small
// to move the fixed cost.
var hopeless = &calib.Calibration{SecondsPerStep: 1e-300, SecondsBase: 3600}

// TestCostModelFeasibility: with an admission-time cost model wired in
// (Config.Calibration), a submission whose predicted solve time exceeds
// its remaining deadline budget is rejected with the typed error before
// it costs a queue slot or a journal write; jobs without a deadline are
// admitted and accumulate the predicted-seconds counter; and a cached
// answer stays exempt — free work meets any deadline.
func TestCostModelFeasibility(t *testing.T) {
	reg := metrics.NewRegistry()
	m := newTestManager(t, Config{
		Workers: 1, Metrics: reg,
		Calibration: hopeless,
	})
	spec := Spec{Kind: KindBenchmark, N: 12, Seed: 9}

	_, err := m.SubmitDeadline(spec, time.Now().Add(time.Second))
	if !errors.Is(err, ErrDeadlineInfeasible) {
		t.Fatalf("hopeless deadline err = %v, want ErrDeadlineInfeasible", err)
	}
	for name, want := range map[string]float64{
		"rmcrtd_jobs_infeasible_total":   1,
		"rmcrtd_jobs_submitted_total":    0, // rejected before admission
		"rmcrtd_predicted_seconds_total": 0,
	} {
		if v, _ := reg.Value(name); v != want {
			t.Errorf("%s = %v, want %v", name, v, want)
		}
	}

	// No deadline: admitted, and the prediction lands in the counter.
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, st.ID, StateDone)
	if v, _ := reg.Value("rmcrtd_predicted_seconds_total"); v != 3600 {
		t.Errorf("rmcrtd_predicted_seconds_total = %v, want 3600", v)
	}

	// Cached answer: the same spec under the same hopeless prediction is
	// served from cache — estimation never prices free work.
	st, err = m.SubmitDeadline(spec, time.Now().Add(50*time.Millisecond))
	if err != nil || !st.FromCache || st.State != StateDone {
		t.Fatalf("cached submission = %+v (%v), want cache-hit done", st, err)
	}
}

// TestHTTPDeadlineInfeasible422: the daemon's edge maps the feasibility
// rejection to 422 Unprocessable Entity — a typed "never retry this"
// distinct from queue-full's 429.
func TestHTTPDeadlineInfeasible422(t *testing.T) {
	m := newTestManager(t, Config{
		Workers:     1,
		Calibration: hopeless,
	})
	srv := httptest.NewServer(NewHandlerConfig(m, HandlerConfig{}))
	defer srv.Close()

	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/solve",
		strings.NewReader(`{"kind":"benchmark","n":12}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(DeadlineHeader, "500")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422", resp.StatusCode)
	}
}

// TestRecoverRejectsInvalidCalibration: a calibration that cannot price
// work (here the zero value, with no per-step cost) refuses to start
// the daemon, as it refuses to start the router.
func TestRecoverRejectsInvalidCalibration(t *testing.T) {
	if m, err := Recover(Config{Workers: 1, Calibration: &calib.Calibration{}}); err == nil {
		_ = m.Close(context.Background())
		t.Fatal("Recover accepted a calibration with seconds_per_step 0")
	}
}
