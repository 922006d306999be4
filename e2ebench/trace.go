package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/uintah-repro/rmcrt/internal/service"
)

// span is one timed call at a layer boundary. Times are nanoseconds
// since the recorder's epoch. Spans of one job join on the router job
// ID (Job), on the shard name plus the shard's own job ID (Shard,
// ShardJob), and for solves on the spec key (Key).
type span struct {
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Job      string `json:"job,omitempty"`
	Shard    string `json:"shard,omitempty"`
	ShardJob string `json:"shard_job,omitempty"`
	Key      string `json:"key,omitempty"`
	Code     int    `json:"code,omitempty"`
	Bytes    int64  `json:"bytes,omitempty"`
	// Done marks a status response that reported the job done.
	Done  bool  `json:"done,omitempty"`
	Rays  int64 `json:"rays,omitempty"`
	Steps int64 `json:"steps,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder(epoch time.Time) *recorder { return &recorder{epoch: epoch} }

func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores the spans as JSON lines under path.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// apiOp names a call on the job API by method and path.
func apiOp(method, path string) (op, id string) {
	switch {
	case method == http.MethodPost && path == "/v1/solve":
		return "submit", ""
	case strings.HasPrefix(path, "/v1/jobs/"):
		rest := strings.TrimPrefix(path, "/v1/jobs/")
		if id, ok := strings.CutSuffix(rest, "/result"); ok {
			return "result", id
		}
		if method == http.MethodDelete {
			return "cancel", rest
		}
		return "status", rest
	case path == "/healthz":
		return "health", ""
	}
	return "other", ""
}

// captureWriter counts response bytes and keeps the start of a submit
// response, which carries the new job's ID.
type captureWriter struct {
	http.ResponseWriter
	code    int
	n       int64
	capture bool
	head    bytes.Buffer
}

func (w *captureWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *captureWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	if w.capture && w.head.Len() < 4096 {
		w.head.Write(p)
	}
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// traceHandler wraps a router or shard handler with one span per
// request: layer is "cluster" for the router and "service" for a shard.
func traceHandler(rec *recorder, layer, shard string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		op, id := apiOp(r.Method, r.URL.Path)
		cw := &captureWriter{ResponseWriter: w, capture: op == "submit"}
		h.ServeHTTP(cw, r)
		end := time.Now()
		if op == "submit" {
			var st struct {
				ID string `json:"id"`
			}
			_ = json.Unmarshal(cw.head.Bytes(), &st) // a refusal has no ID
			id = st.ID
		}
		s := span{Name: layer + ".http." + op, Layer: layer, Start: rec.since(start), End: rec.since(end),
			Shard: shard, Code: cw.code, Bytes: cw.n}
		if layer == "cluster" {
			s.Job = id
		} else {
			s.ShardJob = id
		}
		rec.add(s)
	})
}

// traceTransport wraps the router's client to shards: one span per
// placement, status poll and result fetch.
type traceTransport struct {
	rec         *recorder
	base        http.RoundTripper
	shardByHost map[string]string
}

// routerOp maps a router-to-shard call to its span name.
var routerOp = map[string]string{"submit": "place", "status": "poll", "result": "fetch"}

func (t *traceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	op, id := apiOp(req.Method, req.URL.Path)
	name := routerOp[op]
	if name == "" {
		name = op
	}
	s := span{Name: "cluster.rt." + name, Layer: "cluster", Shard: t.shardByHost[req.URL.Host], ShardJob: id,
		Start: t.rec.since(start)}
	if op == "submit" && req.GetBody != nil {
		if body, err := req.GetBody(); err == nil {
			var spec service.Spec
			if json.NewDecoder(body).Decode(&spec) == nil {
				s.Key = spec.Key()
			}
		}
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		s.End = t.rec.since(time.Now())
		t.rec.add(s)
		return resp, err
	}
	s.Code = resp.StatusCode
	switch op {
	case "submit", "status":
		// Small JSON bodies: read them here to learn the shard job ID
		// and whether the poll found the job done, then hand the router
		// an identical body.
		b, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(b))
		s.End = t.rec.since(time.Now())
		s.Bytes = int64(len(b))
		if rerr == nil {
			var st service.JobStatus
			if json.Unmarshal(b, &st) == nil {
				if op == "submit" {
					s.ShardJob = st.ID
				}
				s.Done = st.State == service.StateDone
			}
		}
		t.rec.add(s)
	case "result":
		// The fetch ends when the router has read the whole body.
		resp.Body = &spanBody{ReadCloser: resp.Body, rec: t.rec, s: s}
	default:
		s.End = t.rec.since(time.Now())
		t.rec.add(s)
	}
	return resp, nil
}

// spanBody closes its span when the body is drained or closed.
type spanBody struct {
	io.ReadCloser
	rec  *recorder
	s    span
	once sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.s.Bytes += int64(n)
	if err != nil {
		b.finish()
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

func (b *spanBody) finish() {
	b.once.Do(func() {
		b.s.End = b.rec.since(time.Now())
		b.rec.add(b.s)
	})
}
