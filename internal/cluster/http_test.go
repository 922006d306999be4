package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/uintah-repro/rmcrt/internal/service"
)

// newRouterServer stands up a 2-shard harness behind the router's real
// HTTP handler.
func newRouterServer(t *testing.T, maxBody int64) (*httptest.Server, *testHarness) {
	t.Helper()
	h := newTestHarness(t, 2, nil)
	srv := httptest.NewServer(NewHandlerConfig(h.cluster, HandlerConfig{MaxBody: maxBody}))
	t.Cleanup(srv.Close)
	return srv, h
}

func routerPost(t *testing.T, srv *httptest.Server, path string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func routerGet(t *testing.T, srv *httptest.Server, path string) *http.Response {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// The full client journey over HTTP: submit, poll, fetch result.
func TestRouterHTTPEndToEnd(t *testing.T) {
	srv, _ := newRouterServer(t, 0)
	resp := routerPost(t, srv, "/v1/solve",
		[]byte(`{"kind":"benchmark","n":12,"rays":25,"seed":5,"class":"interactive"}`))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(st.ID, "r-") || st.Class != service.ClassInteractive {
		t.Fatalf("accept payload: %+v", st)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		r := routerGet(t, srv, "/v1/jobs/"+st.ID)
		if r.StatusCode != http.StatusOK {
			t.Fatalf("status: HTTP %d", r.StatusCode)
		}
		var got JobStatus
		if err := json.NewDecoder(r.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		if got.State == service.StateDone {
			break
		}
		if got.State.Terminal() {
			t.Fatalf("job ended %s: %s", got.State, got.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}

	r := routerGet(t, srv, "/v1/jobs/"+st.ID+"/result")
	if r.StatusCode != http.StatusOK {
		t.Fatalf("result: HTTP %d", r.StatusCode)
	}
	var payload service.ResultPayload
	if err := json.NewDecoder(r.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	if payload.ID != st.ID || payload.Cells != 12*12*12 || len(payload.DivQ) != payload.Cells {
		t.Fatalf("payload: id=%s cells=%d len=%d", payload.ID, payload.Cells, len(payload.DivQ))
	}
}

// IDs that are not the generated format — path traversal shapes
// included — answer 400 on every job route, before any lookup happens.
func TestRouterHTTPRejectsMalformedJobIDs(t *testing.T) {
	srv, _ := newRouterServer(t, 0)
	bad := []string{
		"nope",
		"j-1",       // too few digits
		"r-12345",   // still too few
		"x-123456",  // wrong prefix
		"r-123456a", // trailing junk
		"..%2f..%2fetc%2fpasswd",
		"r-123456%2f..%2f..",
		"%2e%2e%2fsecrets",
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
			// 400 from validation; the mux itself answers 404/301 for
			// paths whose traversal dots restructure the route. Either
			// way the ID must never reach a handler as a lookup key —
			// what must not happen is 200.
			if resp.StatusCode == http.StatusOK {
				t.Errorf("%s %s: HTTP 200 for malformed id", probe.method, probe.path)
			}
			if !strings.Contains(id, "%") && resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s: HTTP %d, want 400", probe.method, probe.path, resp.StatusCode)
			}
		}
	}
	// Well-formed but unknown: 404, proving validation happens first.
	if r := routerGet(t, srv, "/v1/jobs/r-999999"); r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown well-formed id: HTTP %d, want 404", r.StatusCode)
	}
}

// Submit bodies over the limit answer 413 with the typed error, and the
// job surface stays up afterwards.
func TestRouterHTTPBodyLimit(t *testing.T) {
	srv, _ := newRouterServer(t, 256)
	big := []byte(`{"kind":"benchmark","n":8,"rays":10,"seed":` +
		strings.Repeat("1", 400) + `}`)
	resp := routerPost(t, srv, "/v1/solve", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize submit: HTTP %d, want 413", resp.StatusCode)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Error, service.ErrBodyTooLarge.Error()) {
		t.Fatalf("413 body %q does not carry the typed error", e.Error)
	}
	if r := routerPost(t, srv, "/v1/solve", []byte(`{"n":8,"rays":10}`)); r.StatusCode != http.StatusAccepted {
		t.Fatalf("normal submit after 413: HTTP %d", r.StatusCode)
	}
}

// Bad specs and unknown fields answer 400; queue saturation answers
// 429 with Retry-After.
func TestRouterHTTPSubmitErrors(t *testing.T) {
	srv, _ := newRouterServer(t, 0)
	for _, body := range []string{
		`{"n":-4}`,
		`{"class":"platinum","n":8}`,
		`{"n":8,"mystery":1}`,
		`not json`,
	} {
		if r := routerPost(t, srv, "/v1/solve", []byte(body)); r.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %q: HTTP %d, want 400", body, r.StatusCode)
		}
	}
}

// Shard admin: listing reflects state; drain/undrain flip it; unknown
// shards 404.
func TestRouterHTTPShardAdmin(t *testing.T) {
	srv, h := newRouterServer(t, 0)
	r := routerGet(t, srv, "/v1/shards")
	var infos []shardInfo
	if err := json.NewDecoder(r.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 || infos[0].Name != "s0" || infos[0].State != ShardHealthy {
		t.Fatalf("shard listing: %+v", infos)
	}

	if r := routerPost(t, srv, "/v1/shards/s1/drain", nil); r.StatusCode != http.StatusOK {
		t.Fatalf("drain: HTTP %d", r.StatusCode)
	}
	if got := h.cluster.Shards().Get("s1").State(); got != ShardDraining {
		t.Fatalf("s1 state %s after drain", got)
	}
	if r := routerPost(t, srv, "/v1/shards/s1/undrain", nil); r.StatusCode != http.StatusOK {
		t.Fatalf("undrain: HTTP %d", r.StatusCode)
	}
	if got := h.cluster.Shards().Get("s1").State(); got != ShardHealthy {
		t.Fatalf("s1 state %s after undrain", got)
	}
	if r := routerPost(t, srv, "/v1/shards/ghost/drain", nil); r.StatusCode != http.StatusNotFound {
		t.Fatalf("drain ghost: HTTP %d, want 404", r.StatusCode)
	}

	hz := routerGet(t, srv, "/healthz")
	var health struct {
		Status   string `json:"status"`
		Policy   string `json:"policy"`
		ShardsUp int    `json:"shards_up"`
	}
	if err := json.NewDecoder(hz.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Policy != PolicyAffinity || health.ShardsUp != 2 {
		t.Fatalf("healthz: %+v", health)
	}

	m := routerGet(t, srv, "/metrics")
	buf := new(bytes.Buffer)
	if _, err := buf.ReadFrom(m.Body); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"router_queue_depth", "router_shard_s0_inflight", "router_class_fairness_jain"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// The router's submit decode is the shared service.ParseSubmit: strict,
// normalizing and validating.
func TestParseSubmit(t *testing.T) {
	spec, err := service.ParseSubmit(strings.NewReader(`{"kind":"benchmark","n":8,"rays":10,"class":"best-effort"}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Class != service.ClassBestEffort || spec.N != 8 {
		t.Fatalf("parsed: %+v", spec)
	}
	for _, bad := range []string{`{"n":8,"extra":1}`, `{"n":0}`, `garbage`, ``} {
		if _, err := service.ParseSubmit(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseSubmit(%q) accepted", bad)
		}
	}
	if _, err := service.ParseSubmit(strings.NewReader(fmt.Sprintf(`{"n":8,"class":%q}`, "gold"))); err == nil {
		t.Error("unknown class accepted")
	}
}
