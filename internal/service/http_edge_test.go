package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/uintah-repro/rmcrt/internal/field"
)

func deleteJob(t *testing.T, srv *httptest.Server, id string) (*http.Response, JobStatus) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	_ = json.NewDecoder(resp.Body).Decode(&st)
	return resp, st
}

func getResult(t *testing.T, srv *httptest.Server, id string) (*http.Response, ResultPayload) {
	t.Helper()
	resp, err := http.Get(srv.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pl ResultPayload
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&pl); err != nil {
			t.Fatal(err)
		}
	}
	return resp, pl
}

// TestHTTPCancelAfterComplete: DELETE on a finished job is a 409 with
// the job's (unchanged) terminal status, not a silent success — the
// client learns the work already happened.
func TestHTTPCancelAfterComplete(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 1})
	_, st := postSolve(t, srv, fastSpec(21))
	pollUntil(t, srv, st.ID, StateDone)

	resp, got := deleteJob(t, srv, st.ID)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("DELETE finished job: status %d, want %d", resp.StatusCode, http.StatusConflict)
	}
	if got.State != StateDone {
		t.Errorf("conflict body reports state %q, want %q", got.State, StateDone)
	}
	if after := getStatus(t, srv, st.ID); after.State != StateDone {
		t.Errorf("job state mutated to %q by rejected cancel", after.State)
	}
}

// TestHTTPDuplicateSubmitCoalesces: an identical spec submitted while
// the first is still solving attaches to the in-flight solve (Batcher
// single-flight): one solver call, two done jobs, bitwise-equal
// results.
func TestHTTPDuplicateSubmitCoalesces(t *testing.T) {
	release := make(chan struct{})
	calls := 0
	srv, m := newTestServer(t, Config{
		Workers: 2,
		Solver: func(ctx context.Context, spec Spec) (*field.CC[float64], int64, int64, error) {
			calls++
			<-release
			return spec.Solve(ctx)
		},
	})

	_, first := postSolve(t, srv, fastSpec(22))
	pollUntil(t, srv, first.ID, StateRunning)
	_, second := postSolve(t, srv, fastSpec(22))
	if first.ID == second.ID {
		t.Fatal("duplicate submit returned the same job id")
	}
	if !second.Coalesced {
		t.Error("second submission not marked coalesced")
	}
	close(release)

	pollUntil(t, srv, first.ID, StateDone)
	pollUntil(t, srv, second.ID, StateDone)
	if calls != 1 {
		t.Errorf("solver ran %d times for two identical submissions, want 1", calls)
	}
	if got := m.mCoalesced.Value(); got != 1 {
		t.Errorf("coalesced metric = %d, want 1", got)
	}
	_, plA := getResult(t, srv, first.ID)
	_, plB := getResult(t, srv, second.ID)
	if plA.Key != plB.Key {
		t.Fatalf("coalesced jobs report different keys %s / %s", plA.Key, plB.Key)
	}
	if len(plA.DivQ) == 0 || len(plA.DivQ) != len(plB.DivQ) {
		t.Fatalf("payload sizes differ: %d vs %d", len(plA.DivQ), len(plB.DivQ))
	}
	for i := range plA.DivQ {
		if plA.DivQ[i] != plB.DivQ[i] {
			t.Fatalf("coalesced results differ at %d", i)
		}
	}
}

// TestHTTPResultAfterCacheEviction: with a one-entry cache, delivering
// a second result evicts the first, delivered one — the cache is the
// only copy, so the first job's repeat read answers 410 with its done
// status — and a resubmission of the evicted spec is an honest cache
// miss that recomputes to the same bytes.
func TestHTTPResultAfterCacheEviction(t *testing.T) {
	srv, m := newTestServer(t, Config{Workers: 1, CacheEntries: 1})

	_, a := postSolve(t, srv, fastSpec(31))
	pollUntil(t, srv, a.ID, StateDone)
	_, plA := getResult(t, srv, a.ID)

	_, b := postSolve(t, srv, fastSpec(32))
	pollUntil(t, srv, b.ID, StateDone)
	if got := m.mEvicted.Value(); got != 0 {
		t.Fatalf("eviction metric = %d before b is delivered, want 0 (undelivered results are pinned)", got)
	}
	if resp, _ := getResult(t, srv, b.ID); resp.StatusCode != http.StatusOK {
		t.Fatalf("result of b: status %d, want 200", resp.StatusCode)
	}
	if got := m.mEvicted.Value(); got != 1 {
		t.Fatalf("eviction metric = %d, want 1 (cache holds one delivered entry)", got)
	}

	// The evicted result is gone: its job answers 410 with its status.
	resp, err := http.Get(srv.URL + "/v1/jobs/" + a.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var gone JobStatus
	err = json.NewDecoder(resp.Body).Decode(&gone)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone || err != nil || gone.ID != a.ID || gone.State != StateDone {
		t.Fatalf("result of evicted job: status %d body %+v (%v), want 410 with its done status", resp.StatusCode, gone, err)
	}

	// Resubmitting the evicted spec recomputes (no stale cache hit) and
	// reproduces the result bitwise.
	_, a2 := postSolve(t, srv, fastSpec(31))
	st := pollUntil(t, srv, a2.ID, StateDone)
	if st.FromCache {
		t.Error("resubmission of evicted spec claims a cache hit")
	}
	_, plA3 := getResult(t, srv, a2.ID)
	if plA3.Key != plA.Key {
		t.Fatalf("resubmission keyed %s, original %s", plA3.Key, plA.Key)
	}
	for i := range plA.DivQ {
		if plA.DivQ[i] != plA3.DivQ[i] {
			t.Fatalf("recomputed result differs from original at %d", i)
		}
	}
}
