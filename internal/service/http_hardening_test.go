package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// Submit bodies over the configured limit answer 413 with the typed
// ErrBodyTooLarge, and the daemon keeps serving afterwards.
func TestHTTPSubmitBodyLimit(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	srv := httptest.NewServer(NewHandlerConfig(m, HandlerConfig{MaxBody: 128}))
	t.Cleanup(srv.Close)

	big := []byte(`{"kind":"benchmark","n":8,"rays":10,"seed":` + strings.Repeat("7", 300) + `}`)
	resp, err := http.Post(srv.URL+"/v1/solve", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize submit: HTTP %d, want 413", resp.StatusCode)
	}
	var e errorPayload
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Error, ErrBodyTooLarge.Error()) {
		t.Fatalf("413 body %q does not carry ErrBodyTooLarge", e.Error)
	}

	ok, err := http.Post(srv.URL+"/v1/solve", "application/json",
		bytes.NewReader([]byte(`{"n":8,"rays":10}`)))
	if err != nil {
		t.Fatal(err)
	}
	ok.Body.Close()
	if ok.StatusCode != http.StatusAccepted {
		t.Fatalf("normal submit after 413: HTTP %d", ok.StatusCode)
	}
}

// Malformed job IDs — including path-traversal shapes — are rejected at
// the HTTP edge of the daemon, never reaching a job lookup with
// attacker-controlled strings.
func TestHTTPRejectsMalformedJobIDs(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 1})
	bad := []string{
		"nope",
		"j-1",
		"j-12345",   // five digits: below the generated minimum
		"q-123456",  // foreign prefix
		"j-123456x", // trailing junk
		"j--123456", // doubled dash
		"..%2f..%2fjournal",
		"j-123456%2fresult%2f..",
		"%2e%2e%2fckpt",
	}
	for _, id := range bad {
		for _, probe := range []struct{ method, path string }{
			{http.MethodGet, "/v1/jobs/" + id},
			{http.MethodGet, "/v1/jobs/" + id + "/result"},
			{http.MethodDelete, "/v1/jobs/" + id},
		} {
			req, err := http.NewRequest(probe.method, srv.URL+probe.path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			// Escaped traversal sequences may be answered by the mux
			// itself (404/301 after path cleaning); plain malformed IDs
			// must get the validator's 400. Nothing may answer 200.
			if resp.StatusCode == http.StatusOK {
				t.Errorf("%s %s: HTTP 200 for malformed id", probe.method, probe.path)
			}
			if !strings.Contains(id, "%") && resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s: HTTP %d, want 400", probe.method, probe.path, resp.StatusCode)
			}
		}
	}
}

// ValidJobID accepts exactly the generated formats.
func TestValidJobID(t *testing.T) {
	for _, ok := range []string{"j-000001", "j-123456", "r-000042", "r-12345678901234567890"} {
		if !ValidJobID(ok) {
			t.Errorf("ValidJobID(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "j-", "j-12345", "J-123456", "j-123456 ", " j-123456",
		"r-123456789012345678901", "j-12a456", "jr-123456", "../j-123456"} {
		if ValidJobID(bad) {
			t.Errorf("ValidJobID(%q) = true", bad)
		}
	}
}

// SLO classes round-trip Submit → Status, default to batch, and do not
// shape the result key: the same problem solved under two classes is
// one cache entry.
func TestClassRoundTrip(t *testing.T) {
	m := newTestManager(t, Config{Workers: 2})
	st, err := m.Submit(Spec{Kind: KindBenchmark, N: 8, Rays: 10, Class: ClassInteractive})
	if err != nil {
		t.Fatal(err)
	}
	if st.Class != ClassInteractive {
		t.Fatalf("class = %q, want interactive", st.Class)
	}
	def, err := m.Submit(Spec{Kind: KindBenchmark, N: 8, Rays: 11})
	if err != nil {
		t.Fatal(err)
	}
	if def.Class != ClassBatch {
		t.Fatalf("default class = %q, want batch", def.Class)
	}
	if _, err := m.Submit(Spec{Kind: KindBenchmark, N: 8, Rays: 10, Class: "gold"}); err == nil {
		t.Fatal("unknown class accepted")
	}

	a := Spec{Kind: KindBenchmark, N: 8, Rays: 10, Class: ClassInteractive}
	b := Spec{Kind: KindBenchmark, N: 8, Rays: 10, Class: ClassBestEffort}
	if a.Key() != b.Key() {
		t.Fatal("class changed the result key; cache sharing across classes broken")
	}
	if a.AffinityKey() != b.AffinityKey() {
		t.Fatal("class changed the affinity key")
	}

	fin, err := m.Wait(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateDone || fin.Class != ClassInteractive {
		t.Fatalf("final: %+v", fin)
	}
}
