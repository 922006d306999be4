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

	"github.com/uintah-repro/rmcrt/internal/rmcrt"
)

func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *Manager) {
	t.Helper()
	m := New(cfg)
	srv := httptest.NewServer(NewHandlerConfig(m, HandlerConfig{}))
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		_ = m.Close(ctx)
	})
	return srv, m
}

func postSolve(t *testing.T, srv *httptest.Server, spec Spec) (*http.Response, JobStatus) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp, st
}

func getStatus(t *testing.T, srv *httptest.Server, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(srv.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: %d", id, resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func pollUntil(t *testing.T, srv *httptest.Server, id string, want State) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, srv, id)
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s terminal in state %s (err %q) while polling for %s", id, st.State, st.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return JobStatus{}
}

// TestE2EBenchmarkDeterminism is the issue's acceptance path: submit
// the 12³ Burns & Christon benchmark over HTTP, poll to completion,
// fetch the result, and require it to match a direct SolveRegion call
// bitwise (JSON float64 round-trips exactly).
func TestE2EBenchmarkDeterminism(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 2})
	resp, st := postSolve(t, srv, Spec{Kind: KindBenchmark, N: 12})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/solve: %d", resp.StatusCode)
	}
	pollUntil(t, srv, st.ID, StateDone)

	rr, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Body.Close()
	if rr.StatusCode != http.StatusOK {
		t.Fatalf("GET result: %d", rr.StatusCode)
	}
	var payload ResultPayload
	if err := json.NewDecoder(rr.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}

	d, g, err := rmcrt.NewBenchmarkDomain(12)
	if err != nil {
		t.Fatal(err)
	}
	opts := rmcrt.DefaultOptions()
	want, err := d.SolveRegion(g.Levels[0].IndexBox(), &opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(payload.DivQ) != len(want.Data()) {
		t.Fatalf("payload has %d cells, want %d", len(payload.DivQ), len(want.Data()))
	}
	for i, v := range want.Data() {
		if payload.DivQ[i] != v {
			t.Fatalf("served divQ differs from direct solve at %d: %g vs %g (determinism broken)", i, payload.DivQ[i], v)
		}
	}
}

// TestE2EAdmissionControl: submissions beyond queue capacity get 429.
func TestE2EAdmissionControl(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	_, a := postSolve(t, srv, slowSpec(101))
	pollUntil(t, srv, a.ID, StateRunning)
	if resp, _ := postSolve(t, srv, slowSpec(102)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submission: %d, want 202", resp.StatusCode)
	}
	resp, _ := postSolve(t, srv, slowSpec(103))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submission: %d, want 429", resp.StatusCode)
	}
	// Cancel the running job via the API to free the worker.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+a.ID, nil)
	dr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer dr.Body.Close()
	if dr.StatusCode != http.StatusOK {
		t.Fatalf("DELETE running job: %d, want 200", dr.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(dr.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.State != StateCancelled {
		t.Fatalf("state after DELETE = %s, want cancelled", st.State)
	}
}

// TestE2ESingleFlightAndCache: duplicate concurrent requests coalesce
// onto one solve; a later duplicate is a cache hit; /metrics shows both.
func TestE2ESingleFlightAndCache(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 2})
	spec := Spec{Kind: KindBenchmark, N: 14, Rays: 400, Seed: 201}
	_, a := postSolve(t, srv, spec)
	pollUntil(t, srv, a.ID, StateRunning)
	_, b := postSolve(t, srv, spec)
	if !b.Coalesced {
		t.Fatalf("duplicate in-flight submission not coalesced: %+v", b)
	}
	pollUntil(t, srv, a.ID, StateDone)
	bst := pollUntil(t, srv, b.ID, StateDone)
	if bst.Error != "" {
		t.Fatalf("coalesced job failed: %q", bst.Error)
	}
	_, c := postSolve(t, srv, spec)
	if !c.FromCache || c.State != StateDone {
		t.Fatalf("post-completion duplicate not served from cache: %+v", c)
	}

	mr, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	text, err := io.ReadAll(mr.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"rmcrtd_cache_hits_total 1",
		"rmcrtd_jobs_coalesced_total 1",
		"# TYPE rmcrtd_solve_seconds histogram",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}
}

// TestE2EErrorsAndHealth covers the remaining endpoints: 404s, result
// polling conflict, bad specs, healthz.
func TestE2EErrorsAndHealth(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 1})
	if resp, err := http.Get(srv.URL + "/v1/jobs/nope"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		// "nope" is not a generated ID shape, so the hardened edge
		// rejects it before any lookup.
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("malformed job id: %d, want 400", resp.StatusCode)
		}
	}
	if resp, err := http.Get(srv.URL + "/v1/jobs/j-999999"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown job: %d, want 404", resp.StatusCode)
		}
	}
	if resp, _ := postSolve(t, srv, Spec{N: 1}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid spec: %d, want 400", resp.StatusCode)
	}
	if resp, _ := postSolve(t, srv, Spec{N: 512}); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized spec: %d, want 413", resp.StatusCode)
	}

	_, a := postSolve(t, srv, slowSpec(301))
	pollUntil(t, srv, a.ID, StateRunning)
	rr, err := http.Get(srv.URL + "/v1/jobs/" + a.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusConflict {
		t.Fatalf("result of a running job: %d, want 409", rr.StatusCode)
	}

	hr, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var health struct {
		Status string        `json:"status"`
		Jobs   map[State]int `json:"jobs"`
	}
	if err := json.NewDecoder(hr.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Jobs[StateRunning] != 1 {
		t.Fatalf("healthz = %+v, want ok with 1 running", health)
	}
}
