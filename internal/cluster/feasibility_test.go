package cluster

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/uintah-repro/rmcrt/internal/calib"
	"github.com/uintah-repro/rmcrt/internal/service"
)

// TestClusterDeadlineInfeasible: a router configured with a measured
// calibration rejects jobs whose predicted solve time exceeds their
// remaining deadline budget — they could not finish on an idle shard,
// so placing them only manufactures a deadline failure downstream. The
// rejection is typed, counted, and mapped to 422 at the HTTP edge;
// uncalibrated routers never reject (the default model's magnitude is
// not trustworthy enough to refuse work).
func TestClusterDeadlineInfeasible(t *testing.T) {
	// One second per cell-step: any real solve predicts hours.
	slow := &calib.Calibration{SecondsPerStep: 1, StepsScale1: 1, StepsScale2: 1, Samples: 10}
	h := newTestHarness(t, 1, func(cfg *Config) { cfg.Calibration = slow })
	c := h.cluster

	spec := service.Spec{Kind: service.KindBenchmark, N: 12, Seed: 1}
	_, err := c.SubmitDeadline(spec, time.Now().Add(time.Second))
	if !errors.Is(err, service.ErrDeadlineInfeasible) {
		t.Fatalf("err = %v, want ErrDeadlineInfeasible", err)
	}
	if v := counterValue(t, c, "router_jobs_infeasible_total"); v != 1 {
		t.Fatalf("router_jobs_infeasible_total = %v, want 1", v)
	}

	// No deadline: admitted and priced — the predicted-seconds counter
	// moves and the job status carries the estimate.
	st, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.EstSeconds <= 0 {
		t.Fatalf("EstSeconds = %v, want > 0", st.EstSeconds)
	}
	if v := counterValue(t, c, "router_predicted_seconds_total"); v <= 0 {
		t.Fatalf("router_predicted_seconds_total = %v, want > 0", v)
	}
	waitDone(t, c, st.ID)

	// 422 at the edge, with no Retry-After: retrying cannot succeed.
	srv := httptest.NewServer(NewHandlerConfig(c, HandlerConfig{}))
	defer srv.Close()
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/solve",
		strings.NewReader(`{"kind":"benchmark","n":12,"seed":2}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(service.DeadlineHeader, "500")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		t.Fatalf("Retry-After = %q, want unset", ra)
	}
}

// TestUncalibratedClusterNeverRejectsFeasibility: without an explicit
// Calibration the default model still orders SJF, but its magnitude
// never refuses work — a live deadline is admitted as before.
func TestUncalibratedClusterNeverRejectsFeasibility(t *testing.T) {
	h := newTestHarness(t, 1, nil)
	spec := service.Spec{Kind: service.KindBenchmark, N: 12, Seed: 3}
	st, err := h.cluster.SubmitDeadline(spec, time.Now().Add(10*time.Second))
	if err != nil {
		t.Fatalf("uncalibrated cluster rejected a live deadline: %v", err)
	}
	waitDone(t, h.cluster, st.ID)
}
