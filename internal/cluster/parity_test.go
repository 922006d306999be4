package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/uintah-repro/rmcrt/internal/calib"
	"github.com/uintah-repro/rmcrt/internal/field"
	"github.com/uintah-repro/rmcrt/internal/resilience"
	"github.com/uintah-repro/rmcrt/internal/service"
)

// parityOpts shapes one plane fixture of the HTTP parity table.
type parityOpts struct {
	maxBody    int64 // submit-body limit (0 = default)
	limit      bool  // per-client limiter at burst 1, refilling ~never
	calibrated bool  // every deadlined submission is predicted infeasible
	block      bool  // solves block until the fixture closes
	queue      int   // daemon queue / router dispatch queue depth (0 = default)
	cache      int   // the daemon's (or the shard's) CacheEntries (0 = default)
}

// parityEnv is one running plane: its base URL, its job API handler
// (for serving it again behind another server) and a way to close the
// backend behind the still-serving HTTP edge.
type parityEnv struct {
	url   string
	h     http.Handler
	close func()
	// first is a setup's first result body, for rows that read again.
	first []byte
}

// parityPlane builds a fresh fixture of one serving plane.
type parityPlane struct {
	name  string
	start func(t *testing.T, o parityOpts) *parityEnv
}

// limiter is the per-client limiter o asks for (nil when none).
func (o parityOpts) limiter() *resilience.Limiter {
	if !o.limit {
		return nil
	}
	return resilience.NewLimiter(resilience.LimiterConfig{
		Default: resilience.RateBurst{Rate: 0.001, Burst: 1},
	})
}

// startParityDaemon serves an in-process rmcrtd manager. With block,
// every solve parks until the manager closes.
func startParityDaemon(t *testing.T, o parityOpts, limiter *resilience.Limiter) (*service.Manager, *httptest.Server) {
	t.Helper()
	cfg := service.Config{Workers: 1, QueueDepth: 32, CacheEntries: o.cache}
	if o.queue > 0 {
		cfg.QueueDepth = o.queue
	}
	if o.block {
		cfg.Solver = func(ctx context.Context, _ service.Spec) (*field.CC[float64], int64, int64, error) {
			<-ctx.Done()
			return nil, 0, 0, ctx.Err()
		}
	}
	if o.calibrated {
		cfg.Calibration = &calib.Calibration{SecondsPerStep: 1e-300, SecondsBase: 1e6}
	}
	mgr := service.New(cfg)
	srv := httptest.NewServer(service.NewHandlerConfig(mgr, service.HandlerConfig{MaxBody: o.maxBody, Limiter: limiter}))
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
		defer cancel()
		_ = mgr.Close(ctx)
	})
	return mgr, srv
}

var parityPlanes = []parityPlane{
	{"daemon", func(t *testing.T, o parityOpts) *parityEnv {
		mgr, srv := startParityDaemon(t, o, o.limiter())
		return &parityEnv{url: srv.URL, h: srv.Config.Handler, close: func() { _ = mgr.Close(context.Background()) }}
	}},
	{"router", func(t *testing.T, o parityOpts) *parityEnv {
		// One shard behind the router; the shard itself is unlimited and
		// uncalibrated, so every edge verdict below is the router's own.
		_, shard := startParityDaemon(t, parityOpts{block: o.block, cache: o.cache}, nil)
		cfg := Config{
			Shards:              []ShardConfig{{Name: "s0", URL: shard.URL}},
			QueueDepth:          o.queue,
			MaxInflightPerShard: 1,
			PollInterval:        5 * time.Millisecond,
			HealthInterval:      50 * time.Millisecond,
			Client:              &http.Client{Timeout: 2 * time.Second},
		}
		if o.calibrated {
			cfg.Calibration = &calib.Calibration{SecondsPerStep: 1, StepsScale1: 1, StepsScale2: 1, Samples: 10}
		}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(NewHandlerConfig(c, HandlerConfig{MaxBody: o.maxBody, Limiter: o.limiter()}))
		closeRouter := func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = c.Close(ctx)
		}
		t.Cleanup(func() {
			srv.Close()
			closeRouter()
		})
		return &parityEnv{url: srv.URL, h: srv.Config.Handler, close: closeRouter}
	}},
}

// do sends one request to the plane and returns the response with its
// body read in full.
func (e *parityEnv) do(t *testing.T, method, path, body string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, e.url+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// submit posts a spec and returns the HTTP status and the job ID (""
// unless accepted).
func (e *parityEnv) submit(t *testing.T, spec string, hdr map[string]string) (int, string) {
	t.Helper()
	resp, data := e.do(t, http.MethodPost, "/v1/solve", spec, hdr)
	if resp.StatusCode != http.StatusAccepted {
		return resp.StatusCode, ""
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &st); err != nil || st.ID == "" {
		t.Fatalf("accept body %q: %v", data, err)
	}
	return resp.StatusCode, st.ID
}

// mustSubmit submits and requires 202.
func (e *parityEnv) mustSubmit(t *testing.T, spec string) string {
	t.Helper()
	code, id := e.submit(t, spec, nil)
	if code != http.StatusAccepted {
		t.Fatalf("setup submit %s: HTTP %d", spec, code)
	}
	return id
}

// waitState polls the job until it reports state want.
func (e *parityEnv) waitState(t *testing.T, id string, want service.State) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, data := e.do(t, http.MethodGet, "/v1/jobs/"+id, "", nil)
		var st struct {
			State service.State `json:"state"`
		}
		if resp.StatusCode == http.StatusOK && json.Unmarshal(data, &st) == nil && st.State == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
}

const (
	paritySpec = `{"kind":"benchmark","n":8,"rays":10}`
	jsonType   = "application/json"
)

// parityRow is one request of the matrix. setup prepares the fixture
// and returns the job ID substituted for {id} in path.
type parityRow struct {
	name        string
	opts        parityOpts
	setup       func(t *testing.T, e *parityEnv) string
	method      string
	path        string
	hdr         map[string]string
	body        string
	code        int
	retryAfter  bool
	contentType string
	// errBody: the non-2xx body carries a non-empty "error" string.
	// Rows without it (409) answer with the job's status snapshot.
	errBody bool
	// check makes row-specific assertions on the response body.
	check func(t *testing.T, e *parityEnv, body []byte)
	// minElapsed and maxElapsed bound the request's round trip (zero =
	// unchecked): a long-poll must hold for its wait, or not at all.
	minElapsed, maxElapsed time.Duration
}

// submitDone submits the parity spec and waits for it to finish.
func submitDone(t *testing.T, e *parityEnv) string {
	id := e.mustSubmit(t, paritySpec)
	e.waitState(t, id, service.StateDone)
	return id
}

// getResultOK reads a job's result, requiring 200.
func getResultOK(t *testing.T, e *parityEnv, id string) []byte {
	t.Helper()
	resp, body := e.do(t, http.MethodGet, "/v1/jobs/"+id+"/result", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("setup result %s: HTTP %d (body %q)", id, resp.StatusCode, body)
	}
	return body
}

// deliveredEvicted finishes and delivers two jobs on a plane whose
// daemon (or shard) keeps one delivered result, so the first job's
// result is evicted by the second's delivery; it returns the first.
func deliveredEvicted(t *testing.T, e *parityEnv) string {
	first := submitDone(t, e)
	getResultOK(t, e, first)
	second := e.mustSubmit(t, `{"kind":"benchmark","n":8,"rays":10,"seed":300}`)
	e.waitState(t, second, service.StateDone)
	getResultOK(t, e, second)
	return first
}

// fillQueue parks one job on the (single, blocked) worker, then
// submits distinct specs until the queue behind it answers 429.
func fillQueue(t *testing.T, e *parityEnv) string {
	first := e.mustSubmit(t, `{"kind":"benchmark","n":8,"rays":10,"seed":100}`)
	e.waitState(t, first, service.StateRunning)
	for i := 0; i < 8; i++ {
		if code, _ := e.submit(t, fmt.Sprintf(`{"kind":"benchmark","n":8,"rays":10,"seed":%d}`, 101+i), nil); code == http.StatusTooManyRequests {
			return ""
		}
	}
	t.Fatal("queue never filled")
	return ""
}

// queueBestEffort parks one job on the (single, blocked) worker and
// queues one best-effort job behind it, filling a one-deep queue for
// every class but interactive.
func queueBestEffort(t *testing.T, e *parityEnv) string {
	first := e.mustSubmit(t, `{"kind":"benchmark","n":8,"rays":10,"seed":100}`)
	e.waitState(t, first, service.StateRunning)
	e.mustSubmit(t, `{"kind":"benchmark","n":8,"rays":10,"seed":201,"class":"best-effort"}`)
	return ""
}

const urgentSpec = `{"kind":"benchmark","n":8,"rays":10,"seed":202,"class":"interactive"}`

// wantState checks that a status body reports state want.
func wantState(want service.State) func(t *testing.T, e *parityEnv, body []byte) {
	return func(t *testing.T, _ *parityEnv, body []byte) {
		var st struct {
			State service.State `json:"state"`
		}
		if err := json.Unmarshal(body, &st); err != nil || st.State != want {
			t.Errorf("status body %q, want state %s", body, want)
		}
	}
}

// malformedJobIDs is the union of the ID shapes both planes must refuse
// before any lookup: path-traversal shapes, foreign prefixes, too few
// digits and trailing junk.
var malformedJobIDs = []string{
	"nope",
	"j-1",
	"j-12345",   // five digits: below the generated minimum
	"r-12345",   // still too few
	"q-123456",  // foreign prefix
	"x-123456",  // wrong prefix
	"j-123456x", // trailing junk
	"r-123456a",
	"j--123456", // doubled dash
	"..%2f..%2fjournal",
	"..%2f..%2fetc%2fpasswd",
	"j-123456%2fresult%2f..",
	"r-123456%2f..%2f..",
	"%2e%2e%2fckpt",
	"%2e%2e%2fsecrets",
}

func parityRows() []parityRow {
	rows := []parityRow{
		{name: "submit/accepted", method: "POST", path: "/v1/solve", body: paritySpec, code: 202},
		{name: "submit/bad-json", method: "POST", path: "/v1/solve", body: `{"n":`, code: 400, errBody: true},
		{name: "submit/unknown-field", method: "POST", path: "/v1/solve", body: `{"n":8,"bogus":1}`, code: 400, errBody: true},
		{name: "submit/invalid-spec", method: "POST", path: "/v1/solve", body: `{"class":"platinum","n":8}`, code: 400, errBody: true},
		{
			name: "submit/body-too-large", opts: parityOpts{maxBody: 128}, method: "POST", path: "/v1/solve",
			body: `{"kind":"benchmark","n":8,"rays":10,"seed":` + strings.Repeat("7", 400) + `}`,
			code: 413, errBody: true,
			check: func(t *testing.T, e *parityEnv, body []byte) {
				if !strings.Contains(string(body), service.ErrBodyTooLarge.Error()) {
					t.Errorf("413 body %q does not carry ErrBodyTooLarge", body)
				}
				// The edge keeps serving after refusing an oversize body.
				if code, _ := e.submit(t, `{"n":8,"rays":10}`, nil); code != http.StatusAccepted {
					t.Errorf("normal submit after 413: HTTP %d", code)
				}
			},
		},
		{name: "submit/bad-deadline", method: "POST", path: "/v1/solve", body: paritySpec,
			hdr: map[string]string{service.DeadlineHeader: "banana"}, code: 400, errBody: true},
		// Deadlines past a Duration's range would wrap into the past.
		{name: "submit/huge-deadline", method: "POST", path: "/v1/solve", body: paritySpec,
			hdr: map[string]string{service.DeadlineHeader: "10000000000000"}, code: 400, errBody: true},
		{name: "submit/max-int-deadline", method: "POST", path: "/v1/solve", body: paritySpec,
			hdr: map[string]string{service.DeadlineHeader: "9223372036854775807"}, code: 400, errBody: true},
		{name: "submit/queue-full", opts: parityOpts{block: true, queue: 1}, setup: fillQueue,
			method: "POST", path: "/v1/solve", body: `{"kind":"benchmark","n":8,"rays":10,"seed":200}`,
			code: 429, retryAfter: true, errBody: true},
		// The queue bounds each class by the work at least as urgent: a
		// more urgent arrival gets past a queue full for best-effort,
		// after which best-effort is still refused.
		{name: "submit/urgent-past-full", opts: parityOpts{block: true, queue: 1}, setup: queueBestEffort,
			method: "POST", path: "/v1/solve", body: urgentSpec, code: 202},
		{name: "submit/full-after-urgent", opts: parityOpts{block: true, queue: 1},
			setup: func(t *testing.T, e *parityEnv) string {
				queueBestEffort(t, e)
				e.mustSubmit(t, urgentSpec)
				return ""
			},
			method: "POST", path: "/v1/solve", body: `{"kind":"benchmark","n":8,"rays":10,"seed":203,"class":"best-effort"}`,
			code: 429, retryAfter: true, errBody: true},
		{
			name: "submit/rate-limited", opts: parityOpts{limit: true},
			setup: func(t *testing.T, e *parityEnv) string {
				if code, _ := e.submit(t, paritySpec, map[string]string{service.ClientIDHeader: "hog"}); code != http.StatusAccepted {
					t.Fatalf("first submit within burst: HTTP %d", code)
				}
				return ""
			},
			method: "POST", path: "/v1/solve", body: paritySpec,
			hdr:  map[string]string{service.ClientIDHeader: "hog"},
			code: 429, retryAfter: true, errBody: true,
			check: func(t *testing.T, _ *parityEnv, body []byte) {
				if !strings.Contains(string(body), "rate limited") {
					t.Errorf("429 body %q does not say rate limited", body)
				}
			},
		},
		{name: "submit/infeasible", opts: parityOpts{calibrated: true}, method: "POST", path: "/v1/solve",
			body: paritySpec, hdr: map[string]string{service.DeadlineHeader: "1000"}, code: 422, errBody: true},
		{
			name:   "submit/closed",
			setup:  func(t *testing.T, e *parityEnv) string { e.close(); return "" },
			method: "POST", path: "/v1/solve", body: paritySpec, code: 503, errBody: true,
		},

		{name: "status/ok", setup: func(t *testing.T, e *parityEnv) string { return e.mustSubmit(t, paritySpec) },
			method: "GET", path: "/v1/jobs/{id}", code: 200},
		{name: "status/unknown", method: "GET", path: "/v1/jobs/j-999999", code: 404, errBody: true},
		{name: "status/unknown-router-id", method: "GET", path: "/v1/jobs/r-999999", code: 404, errBody: true},
		// Long-poll: a finished job answers at once, even at a wait far
		// above the cap (clamped, not refused); a running one answers
		// its non-terminal status when the wait elapses.
		{name: "status/wait-finished", setup: submitDone, method: "GET", path: "/v1/jobs/{id}?wait=30000",
			code: 200, maxElapsed: time.Second, check: wantState(service.StateDone)},
		{name: "status/wait-clamped", setup: submitDone, method: "GET", path: "/v1/jobs/{id}?wait=99999999",
			code: 200, maxElapsed: time.Second, check: wantState(service.StateDone)},
		{name: "status/wait-timeout", opts: parityOpts{block: true},
			setup:  func(t *testing.T, e *parityEnv) string { return e.mustSubmit(t, paritySpec) },
			method: "GET", path: "/v1/jobs/{id}?wait=100", code: 200, minElapsed: 100 * time.Millisecond,
			check: func(t *testing.T, _ *parityEnv, body []byte) {
				var st struct {
					State service.State `json:"state"`
				}
				if err := json.Unmarshal(body, &st); err != nil || st.State.Terminal() {
					t.Errorf("timed-out wait answered %q, want a non-terminal status", body)
				}
			}},
		{name: "status/wait-unknown", method: "GET", path: "/v1/jobs/r-999999?wait=50", code: 404, errBody: true},

		{
			name: "result/done", setup: submitDone, method: "GET", path: "/v1/jobs/{id}/result", code: 200,
			check: func(t *testing.T, _ *parityEnv, body []byte) {
				var p service.ResultPayload
				if err := json.Unmarshal(body, &p); err != nil {
					t.Fatal(err)
				}
				if p.Cells != 8*8*8 || len(p.DivQ) != p.Cells || !service.ValidJobID(p.ID) {
					t.Errorf("payload: id=%q cells=%d len=%d", p.ID, p.Cells, len(p.DivQ))
				}
			},
		},
		{name: "result/not-finished", opts: parityOpts{block: true},
			setup:  func(t *testing.T, e *parityEnv) string { return e.mustSubmit(t, paritySpec) },
			method: "GET", path: "/v1/jobs/{id}/result", code: 409},
		{
			name: "result/cancelled", opts: parityOpts{block: true},
			setup: func(t *testing.T, e *parityEnv) string {
				id := e.mustSubmit(t, paritySpec)
				if resp, _ := e.do(t, http.MethodDelete, "/v1/jobs/"+id, "", nil); resp.StatusCode != http.StatusOK {
					t.Fatalf("setup cancel: HTTP %d", resp.StatusCode)
				}
				e.waitState(t, id, service.StateCancelled)
				return id
			},
			method: "GET", path: "/v1/jobs/{id}/result", code: 410, errBody: true,
		},
		{name: "result/unknown", method: "GET", path: "/v1/jobs/r-999999/result", code: 404, errBody: true},
		// A repeat read answers the same bytes: the daemon from its
		// cache, the router by re-fetching from the shard.
		{
			name: "result/second-read",
			setup: func(t *testing.T, e *parityEnv) string {
				id := submitDone(t, e)
				e.first = getResultOK(t, e, id)
				return id
			},
			method: "GET", path: "/v1/jobs/{id}/result", code: 200,
			check: func(t *testing.T, e *parityEnv, body []byte) {
				if !bytes.Equal(body, e.first) {
					t.Errorf("second read %q differs from the first %q", body, e.first)
				}
			},
		},
		// Once delivered and evicted from the (shard's) cache, a done
		// job's result is gone: 410 with the job's done status.
		{name: "result/evicted", opts: parityOpts{cache: 1}, setup: deliveredEvicted,
			method: "GET", path: "/v1/jobs/{id}/result", code: 410, check: wantState(service.StateDone)},

		{name: "cancel/ok", opts: parityOpts{block: true},
			setup:  func(t *testing.T, e *parityEnv) string { return e.mustSubmit(t, paritySpec) },
			method: "DELETE", path: "/v1/jobs/{id}", code: 200},
		{name: "cancel/finished", setup: submitDone, method: "DELETE", path: "/v1/jobs/{id}", code: 409},
		{name: "cancel/unknown", method: "DELETE", path: "/v1/jobs/r-999999", code: 404, errBody: true},

		{
			name: "healthz", method: "GET", path: "/healthz", code: 200,
			check: func(t *testing.T, _ *parityEnv, body []byte) {
				var h struct {
					Status string         `json:"status"`
					Jobs   map[string]int `json:"jobs"`
				}
				if err := json.Unmarshal(body, &h); err != nil || h.Status != "ok" || h.Jobs == nil {
					t.Errorf("healthz body %q: %v", body, err)
				}
			},
		},
		{
			name: "metrics", method: "GET", path: "/metrics", code: 200, contentType: "text/plain; version=0.0.4",
			check: func(t *testing.T, _ *parityEnv, body []byte) {
				if !bytes.Contains(body, []byte("_jobs_submitted_total")) {
					t.Errorf("/metrics lacks a jobs-submitted counter")
				}
			},
		},
	}
	// Malformed waits are refused before any lookup, with the typed
	// error: not an integer, empty, zero, negative, or past a
	// Duration's range.
	for _, wait := range []string{"banana", "", "0", "-5", "1.5", "10000000000000", "9223372036854775807", "99999999999999999999"} {
		rows = append(rows, parityRow{
			name: "status/bad-wait/" + wait, method: "GET", path: "/v1/jobs/j-999999?wait=" + wait,
			code: 400, errBody: true,
			check: func(t *testing.T, _ *parityEnv, body []byte) {
				if !strings.Contains(string(body), service.ErrBadWait.Error()) {
					t.Errorf("400 body %q does not carry ErrBadWait", body)
				}
			},
		})
	}
	// Malformed job IDs on every job route. Plain malformed IDs get the
	// validator's 400; escaped traversal shapes are unescaped by the mux
	// and must be refused the same way — never 200, never a lookup.
	for _, id := range malformedJobIDs {
		for _, probe := range []struct{ method, suffix string }{
			{"GET", ""}, {"GET", "/result"}, {"DELETE", ""},
		} {
			rows = append(rows, parityRow{
				name:   "malformed-id/" + probe.method + "/" + id + probe.suffix,
				method: probe.method, path: "/v1/jobs/" + id + probe.suffix,
				code: 400, errBody: true,
			})
		}
	}
	return rows
}

// TestHTTPParity pins the job API contract on both serving planes: the
// same request matrix goes to an in-process daemon and to a router in
// front of one shard, and each request must get the same status code,
// Retry-After presence, Content-Type and error-body shape on both.
func TestHTTPParity(t *testing.T) {
	for _, row := range parityRows() {
		for _, plane := range parityPlanes {
			t.Run(plane.name+"/"+row.name, func(t *testing.T) {
				e := plane.start(t, row.opts)
				id := ""
				if row.setup != nil {
					id = row.setup(t, e)
				}
				start := time.Now()
				resp, body := e.do(t, row.method, strings.ReplaceAll(row.path, "{id}", id), row.body, row.hdr)
				elapsed := time.Since(start)
				if row.minElapsed > 0 && elapsed < row.minElapsed {
					t.Errorf("answered after %v, want at least %v", elapsed, row.minElapsed)
				}
				if row.maxElapsed > 0 && elapsed > row.maxElapsed {
					t.Errorf("answered after %v, want at most %v", elapsed, row.maxElapsed)
				}
				if resp.StatusCode != row.code {
					t.Fatalf("HTTP %d, want %d (body %q)", resp.StatusCode, row.code, body)
				}
				if got := resp.Header.Get("Retry-After") != ""; got != row.retryAfter {
					t.Errorf("Retry-After present = %v, want %v", got, row.retryAfter)
				}
				ct := row.contentType
				if ct == "" {
					ct = jsonType
				}
				if got := resp.Header.Get("Content-Type"); got != ct {
					t.Errorf("Content-Type %q, want %q", got, ct)
				}
				if ct == jsonType && !json.Valid(body) {
					t.Errorf("body %q is not JSON", body)
				}
				if row.code >= 300 {
					var e struct {
						Error *string       `json:"error"`
						State service.State `json:"state"`
					}
					if err := json.Unmarshal(body, &e); err != nil {
						t.Fatalf("non-2xx body %q: %v", body, err)
					}
					switch {
					case row.errBody && (e.Error == nil || *e.Error == ""):
						t.Errorf("body %q lacks a non-empty \"error\"", body)
					case !row.errBody && e.State == "":
						t.Errorf("body %q is neither an error nor a job status", body)
					}
				}
				if row.check != nil {
					row.check(t, e, body)
				}
			})
		}
	}
}
