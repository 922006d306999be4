package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"time"

	"github.com/uintah-repro/rmcrt/internal/field"
	"github.com/uintah-repro/rmcrt/internal/metrics"
	"github.com/uintah-repro/rmcrt/internal/resilience"
)

// HTTP-plane hardening errors (ROADMAP item 5).
var (
	// ErrBodyTooLarge rejects a submit body over the configured limit;
	// HTTP maps it to 413.
	ErrBodyTooLarge = errors.New("service: request body exceeds limit")
	// ErrBadJobID rejects a job ID that does not match the generated
	// format; HTTP maps it to 400 before the ID reaches any lookup.
	ErrBadJobID = errors.New("service: malformed job id")
	// ErrBadWait rejects a status long-poll whose wait parameter is not
	// a positive integer number of milliseconds; HTTP maps it to 400.
	ErrBadWait = errors.New("service: bad wait")
)

// DefaultMaxBodyBytes bounds a submit request body. Specs are a few
// hundred bytes of JSON; 1 MiB is generous headroom, not an invitation.
const DefaultMaxBodyBytes int64 = 1 << 20

// Serving-plane request headers, shared by daemon and router.
const (
	// ClientIDHeader names the submitting client for per-client
	// admission control; requests without it share the anonymous
	// bucket.
	ClientIDHeader = "X-Client-ID"
	// DeadlineHeader carries a job's remaining time budget in integer
	// milliseconds. Relative rather than absolute so clock skew between
	// client, router and shard cannot corrupt it; each hop re-derives
	// the remainder before forwarding.
	DeadlineHeader = "X-Job-Deadline-Ms"
	// AnonymousClient is the admission bucket for requests without a
	// ClientIDHeader.
	AnonymousClient = "anonymous"
)

// ParseDeadline reads DeadlineHeader into an absolute deadline against
// the local clock. Absent header → zero time, nil error. A malformed,
// non-positive or unrepresentably large value is a client error (HTTP
// 400).
func ParseDeadline(r *http.Request) (time.Time, error) {
	h := r.Header.Get(DeadlineHeader)
	if h == "" {
		return time.Time{}, nil
	}
	ms, err := strconv.ParseInt(h, 10, 64)
	// Past MaxInt64 nanoseconds the Duration product wraps into the past.
	if err != nil || ms <= 0 || ms > math.MaxInt64/int64(time.Millisecond) {
		return time.Time{}, fmt.Errorf("service: bad %s %q: want positive integer milliseconds", DeadlineHeader, h)
	}
	return time.Now().Add(time.Duration(ms) * time.Millisecond), nil
}

// MaxStatusWait caps how long GET /v1/jobs/{id}?wait= holds a request:
// longer waits are clamped to it, well inside NewHTTPServer's 60 s
// WriteTimeout.
const MaxStatusWait = 30 * time.Second

// ParseWait reads the status long-poll's wait query parameter. Absent
// parameter → zero, nil error. A malformed, non-positive or
// unrepresentably large value is a client error (HTTP 400, ErrBadWait);
// a value above MaxStatusWait is clamped to it.
func ParseWait(r *http.Request) (time.Duration, error) {
	q := r.URL.Query()
	if !q.Has("wait") {
		return 0, nil
	}
	v := q.Get("wait")
	ms, err := strconv.ParseInt(v, 10, 64)
	if err != nil || ms <= 0 || ms > math.MaxInt64/int64(time.Millisecond) {
		return 0, fmt.Errorf("%w %q: want positive integer milliseconds", ErrBadWait, v)
	}
	return min(time.Duration(ms)*time.Millisecond, MaxStatusWait), nil
}

// StatusWaitMs is the wait a client's status call asks the server to
// hold it for: wait, held under half the client's timeout so a
// long-poll is never cut off as a transport failure, in whole
// milliseconds rounded up, at least 1.
func StatusWaitMs(wait, clientTimeout time.Duration) int64 {
	if clientTimeout > 0 && wait > clientTimeout/2 {
		wait = clientTimeout / 2
	}
	return max(int64((wait+time.Millisecond-1)/time.Millisecond), 1)
}

// clientID extracts the admission-control identity of a request.
func clientID(r *http.Request) string {
	if id := r.Header.Get(ClientIDHeader); id != "" {
		return id
	}
	return AnonymousClient
}

// retryAfterSeconds renders a Retry-After header value: whole seconds,
// rounded up, at least 1 — the coarsest grain HTTP/1.1 clients all
// honor.
func retryAfterSeconds(d time.Duration) string {
	s := int64(math.Ceil(d.Seconds()))
	if s < 1 {
		s = 1
	}
	return strconv.FormatInt(s, 10)
}

// admitClient applies per-client admission control, answering 429 with
// a Retry-After hint and the typed resilience.ErrRateLimited when the
// client is over its rate. A nil limiter admits everything.
func admitClient(lim *resilience.Limiter, w http.ResponseWriter, r *http.Request) bool {
	if lim == nil {
		return true
	}
	client := clientID(r)
	ok, retryAfter := lim.Allow(client, time.Now())
	if !ok {
		w.Header().Set("Retry-After", retryAfterSeconds(retryAfter))
		WriteError(w, http.StatusTooManyRequests,
			fmt.Errorf("%w (client %q)", resilience.ErrRateLimited, client))
	}
	return ok
}

// jobIDPattern is the generated job-ID alphabet: daemon IDs are
// j-NNNNNN, cluster-router IDs are r-NNNNNN. Anything else — path
// dots, slashes, escapes — is rejected at the HTTP edge.
var jobIDPattern = regexp.MustCompile(`^[jr]-[0-9]{6,20}$`)

// ValidJobID reports whether id matches the generated job-ID format.
func ValidJobID(id string) bool { return jobIDPattern.MatchString(id) }

// pathJobID extracts and validates the {id} path segment, answering 400
// with the typed error itself when the ID could not have been issued by
// a daemon or router.
func pathJobID(w http.ResponseWriter, r *http.Request) (string, bool) {
	id := r.PathValue("id")
	if !ValidJobID(id) {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("%w: %q", ErrBadJobID, id))
		return "", false
	}
	return id, true
}

// NewHTTPServer returns an http.Server hardened for the serving plane:
// header/read/write/idle timeouts and a bounded header size, so a slow
// or malicious client cannot pin a connection (or its memory) forever.
// Request contexts end when Shutdown begins, so a pending status
// long-poll answers at once instead of holding the drain open.
// Both rmcrtd and rmcrtrouter serve through it.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	base, cancel := context.WithCancel(context.Background())
	srv := &http.Server{
		Addr:        addr,
		Handler:     h,
		BaseContext: func(net.Listener) context.Context { return base },
		// Cuts off a client that dribbles its request line and headers
		// (slow loris).
		ReadHeaderTimeout: 5 * time.Second,
		// Bounds the whole request read, body included: a byte-at-a-time
		// body cannot pin a connection past it.
		ReadTimeout:    30 * time.Second,
		WriteTimeout:   60 * time.Second,
		IdleTimeout:    120 * time.Second,
		MaxHeaderBytes: 1 << 20,
	}
	srv.RegisterOnShutdown(cancel)
	return srv
}

// ResultPayload is the JSON form of a finished solve's divQ field:
// the covered index box plus the data slice in the field's z-fastest
// layout. float64 values survive the JSON round trip bitwise (Go emits
// the shortest representation that parses back exactly).
type ResultPayload struct {
	ID    string    `json:"id"`
	Key   string    `json:"key"`
	Lo    [3]int    `json:"lo"`
	Hi    [3]int    `json:"hi"`
	DivQ  []float64 `json:"divq"`
	Cells int       `json:"cells"`
}

func newResultPayload(id, key string, divQ *field.CC[float64]) ResultPayload {
	b := divQ.Box()
	return ResultPayload{
		ID: id, Key: key,
		Lo:    [3]int{b.Lo.X, b.Lo.Y, b.Lo.Z},
		Hi:    [3]int{b.Hi.X, b.Hi.Y, b.Hi.Z},
		DivQ:  divQ.Data(),
		Cells: len(divQ.Data()),
	}
}

// ResultBodyLimit is the longest result body spec's cells can
// legitimately encode: one JSON number per cell, which encoding/json
// writes in at most 25 bytes (-0.0000012345678901234567) plus its
// separator, and a few hundred bytes of fields around the array.
func ResultBodyLimit(spec Spec) int64 { return spec.Cells()*26 + 4<<10 }

// ResultBytes is the memory a result's divQ values take.
func ResultBytes(divQ []float64) int64 { return 8 * int64(len(divQ)) }

// errorPayload is every non-2xx body that is not a job status.
type errorPayload struct {
	Error string `json:"error"`
}

// WriteJSON answers with code and v as a JSON body.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError answers with code and err as the {"error": ...} body.
func WriteError(w http.ResponseWriter, code int, err error) {
	WriteJSON(w, code, errorPayload{Error: err.Error()})
}

// apiErrors is the job API's typed-error vocabulary on the wire: each
// error and the HTTP status a handler answers it with. Handlers look an
// error up by errors.Is (statusOf); Client maps a status, and the error
// text where one status carries two, back to the error (typedAs). Code
// 0 marks an error that reaches a client only as a failed job's status
// text.
var apiErrors = []struct {
	err  error
	code int
}{
	{ErrQueueFull, http.StatusTooManyRequests},
	{resilience.ErrRateLimited, http.StatusTooManyRequests},
	{ErrTooLarge, http.StatusRequestEntityTooLarge},
	{ErrBodyTooLarge, http.StatusRequestEntityTooLarge},
	{ErrDeadlineInfeasible, http.StatusUnprocessableEntity},
	{ErrClosed, http.StatusServiceUnavailable},
	{ErrNotFound, http.StatusNotFound},
	{ErrDeadlineExceeded, 0},
}

// statusOf is the HTTP status a handler answers err with: its
// apiErrors code, else fallback.
func statusOf(err error, fallback int) int {
	for _, e := range apiErrors {
		if e.code != 0 && errors.Is(err, e.err) {
			return e.code
		}
	}
	return fallback
}

// typedAs is the apiErrors error that a reply with HTTP status code
// (0 for a job's status text) and error text msg started from: the
// first entry of that code whose text msg carries, else the code's
// first entry; nil when the code has none.
func typedAs(code int, msg string) (typed error) {
	for _, e := range apiErrors {
		if e.code == code && (strings.Contains(msg, e.err.Error()) || typed == nil && code != 0) {
			typed = e.err
		}
	}
	return typed
}

// ParseSubmit decodes and validates a submit body into a normalized
// Spec: strict JSON (unknown fields rejected) so typos fail loudly
// instead of silently solving the wrong problem. Both serving planes
// decode POST /v1/solve through it, and both fuzz targets hammer it:
// every input either returns an error or a spec that Validate accepts.
func ParseSubmit(body io.Reader) (Spec, error) {
	var spec Spec
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return Spec{}, err
	}
	spec = spec.Normalized()
	if err := spec.Validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

// Backend is what the job API serves: the daemon's Manager or the
// cluster router's Cluster, each answering with JobStatus snapshots.
type Backend interface {
	// SubmitDeadline admits a normalized spec under an absolute
	// deadline (zero = none).
	SubmitDeadline(spec Spec, deadline time.Time) (JobStatus, error)
	Status(id string) (JobStatus, error)
	// Wait blocks until the job is terminal or ctx ends.
	Wait(ctx context.Context, id string) (JobStatus, error)
	// Payload returns a job's divQ payload — nil unless the job is done
	// — with its status; the boolean reports whether it is terminal.
	Payload(id string) (*ResultPayload, JobStatus, bool, error)
	Cancel(id string) (JobStatus, error)
	JobCount() map[State]int
	Registry() *metrics.Registry
	// HealthFields are added to /healthz beside "status" and "jobs"
	// (nil for none).
	HealthFields() map[string]any
}

// HandlerConfig shapes the HTTP edge beyond the backend's own admission
// control.
type HandlerConfig struct {
	// MaxBody is the submit-body byte limit (0 = DefaultMaxBodyBytes).
	MaxBody int64
	// Limiter, when set, applies per-client token-bucket admission
	// before the body is even read: over-rate clients get 429 +
	// Retry-After without costing a JSON decode.
	Limiter *resilience.Limiter
}

// NewHandlerConfig exposes a backend as the job API — the one route
// table of rmcrtd and rmcrtrouter, so clients move between a daemon
// and a cluster by changing one base URL:
//
//	POST   /v1/solve            submit a Spec (JSON); 202 + status,
//	                            429 when the queue is full
//	GET    /v1/jobs/{id}        job status + timings; ?wait=ms holds
//	                            the call until the job is terminal
//	                            or the wait (≤ MaxStatusWait) elapses
//	GET    /v1/jobs/{id}/result divQ payload once done
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /healthz             liveness + job counts
//	GET    /metrics             plain-text metrics exposition
//
// The returned mux is open for a backend's own extra routes.
func NewHandlerConfig(b Backend, hc HandlerConfig) *http.ServeMux {
	maxBody := hc.MaxBody
	if maxBody <= 0 {
		maxBody = DefaultMaxBodyBytes
	}
	mux := http.NewServeMux()

	mux.HandleFunc("POST /v1/solve", func(w http.ResponseWriter, r *http.Request) {
		if !admitClient(hc.Limiter, w, r) {
			return
		}
		deadline, err := ParseDeadline(r)
		if err != nil {
			WriteError(w, http.StatusBadRequest, err)
			return
		}
		spec, err := ParseSubmit(http.MaxBytesReader(w, r.Body, maxBody))
		if err != nil {
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				err = fmt.Errorf("%w (limit %d bytes)", ErrBodyTooLarge, mbe.Limit)
			}
			WriteError(w, statusOf(err, http.StatusBadRequest), err)
			return
		}
		st, err := b.SubmitDeadline(spec, deadline)
		switch {
		case err == nil:
			WriteJSON(w, http.StatusAccepted, st)
		case errors.Is(err, ErrQueueFull):
			// A load problem: worth retrying shortly. An infeasible
			// deadline (422) is not — the same job with the same deadline
			// can never succeed — so it gets no Retry-After.
			w.Header().Set("Retry-After", "1")
			WriteError(w, http.StatusTooManyRequests, err)
		default: // SpecError and friends are 400
			WriteError(w, statusOf(err, http.StatusBadRequest), err)
		}
	})

	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, ok := pathJobID(w, r)
		if !ok {
			return
		}
		wait, err := ParseWait(r)
		if err != nil {
			WriteError(w, http.StatusBadRequest, err)
			return
		}
		if wait > 0 {
			// Terminal, timed out or the request ended: either way the
			// answer is the status as it stands now.
			ctx, cancel := context.WithTimeout(r.Context(), wait)
			_, _ = b.Wait(ctx, id)
			cancel()
		}
		st, err := b.Status(id)
		if err != nil {
			WriteError(w, http.StatusNotFound, err)
			return
		}
		WriteJSON(w, http.StatusOK, st)
	})

	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		id, ok := pathJobID(w, r)
		if !ok {
			return
		}
		payload, st, terminal, err := b.Payload(id)
		switch {
		case errors.Is(err, ErrNotFound):
			WriteError(w, http.StatusNotFound, err)
		case !terminal:
			// Not finished yet: tell the client to keep polling.
			WriteJSON(w, http.StatusConflict, st)
		case payload == nil:
			WriteJSON(w, http.StatusGone, st)
		default:
			WriteJSON(w, http.StatusOK, payload)
		}
	})

	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, ok := pathJobID(w, r)
		if !ok {
			return
		}
		st, err := b.Cancel(id)
		switch {
		case err == nil:
			WriteJSON(w, http.StatusOK, st)
		case errors.Is(err, ErrJobFinished):
			WriteJSON(w, http.StatusConflict, st)
		default:
			WriteError(w, statusOf(err, http.StatusInternalServerError), err)
		}
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		health := map[string]any{"status": "ok", "jobs": b.JobCount()}
		for k, v := range b.HealthFields() {
			health[k] = v
		}
		WriteJSON(w, http.StatusOK, health)
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = b.Registry().WriteText(w)
	})

	return mux
}
