package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Client is the one client of the job API that NewHandlerConfig
// serves: it owns the paths, the ClientIDHeader and DeadlineHeader
// request headers, the ?wait= long-poll, bounded reads of every reply,
// and the mapping from a refusal back to the typed error the server
// started from. rmcrtrouter reaches its shards through it and loadgen
// its target; a call does the same whoever makes it. A job ID a server
// hands back goes into a URL only once ValidJobID accepts it.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a client of the job API at base URL (no trailing
// slash) whose calls go through hc, which should carry a timeout: a
// stuck server would otherwise hold a call forever.
func NewClient(base string, hc *http.Client) *Client { return &Client{base: base, hc: hc} }

// statusBodyLimit bounds an accept, status or error body — a few
// hundred bytes of JSON; result bodies are bounded by ResultBodyLimit.
const statusBodyLimit = 64 << 10

// CallError is a call that got no usable reply. Code is 0 when the
// transport failed before any answer — the server, not the job, is
// suspect. Otherwise Code is the server's HTTP status and the body
// tore, ran past its limit, or is not the reply that status promises
// (an accept without a valid job ID among them).
type CallError struct {
	Code int
	Err  error
}

func (e *CallError) Error() string {
	return fmt.Sprintf("service: job API call (HTTP %d): %v", e.Code, e.Err)
}
func (e *CallError) Unwrap() error { return e.Err }

// TransportFailed reports whether err is a call that got no answer at
// all (a CallError with Code 0).
func TransportFailed(err error) bool {
	var ce *CallError
	return errors.As(err, &ce) && ce.Code == 0
}

// Rejection is a well-formed reply other than the one asked for: the
// server's HTTP status, its Retry-After header and its error text (the
// {"error": ...} field, else the whole body). Error is that text, and
// errors.Is matches the typed error it started from (see apiErrors).
type Rejection struct {
	Code       int
	RetryAfter string
	remoteError
}

// remoteError is an error another process reported as text: Error is
// the text unchanged, Unwrap the typed error it names (nil for none).
type remoteError struct {
	msg   string
	typed error
}

func (e remoteError) Error() string { return e.msg }
func (e remoteError) Unwrap() error { return e.typed }

// RemoteError is the error a job status reported as msg (its "error"
// field), with errors.Is matching the typed error msg carries —
// ErrDeadlineExceeded, also under a router's "cluster: shard …:"
// prefix — so a client classifies a failure as the server did.
func RemoteError(msg string) error { return remoteError{msg, typedAs(0, msg)} }

// Submit posts spec to POST /v1/solve as client (ClientIDHeader; ""
// sends none) with budget as the job's remaining deadline
// (DeadlineHeader, whole milliseconds rounded up; 0 sends none), and
// returns the accepted job's status.
func (c *Client) Submit(ctx context.Context, spec Spec, client string, budget time.Duration) (JobStatus, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return JobStatus{}, err
	}
	hdr := http.Header{"Content-Type": {"application/json"}}
	if client != "" {
		hdr.Set(ClientIDHeader, client)
	}
	if budget > 0 {
		hdr.Set(DeadlineHeader, strconv.FormatInt(int64((budget+time.Millisecond-1)/time.Millisecond), 10))
	}
	var st JobStatus
	if err := c.call(ctx, http.MethodPost, "/v1/solve", body, hdr, statusBodyLimit, http.StatusAccepted, &st); err != nil {
		return JobStatus{}, err
	}
	if !ValidJobID(st.ID) {
		return JobStatus{}, &CallError{Code: http.StatusAccepted, Err: fmt.Errorf("%w in accept: %q", ErrBadJobID, st.ID)}
	}
	return st, nil
}

// Status long-polls GET /v1/jobs/{id}?wait=waitMs: the server answers
// when the job turns terminal or after waitMs, whichever is first.
func (c *Client) Status(ctx context.Context, id string, waitMs int64) (st JobStatus, err error) {
	err = c.job(ctx, http.MethodGet, id, "?wait="+strconv.FormatInt(waitMs, 10), statusBodyLimit, &st)
	return st, err
}

// Result reads GET /v1/jobs/{id}/result, bounded by what spec's cells
// can encode (ResultBodyLimit), and decodes it into p — or, with p nil,
// drops it undecoded: a server holds a done job's result until its
// first read, so a client that wants only the outcome still reads it.
func (c *Client) Result(ctx context.Context, id string, spec Spec, p *ResultPayload) error {
	if p == nil {
		return c.job(ctx, http.MethodGet, id, "/result", ResultBodyLimit(spec), nil)
	}
	return c.job(ctx, http.MethodGet, id, "/result", ResultBodyLimit(spec), p)
}

// Cancel sends DELETE /v1/jobs/{id}.
func (c *Client) Cancel(ctx context.Context, id string) error {
	return c.job(ctx, http.MethodDelete, id, "", statusBodyLimit, nil)
}

// Health probes GET /healthz: any reply that reads in full is an
// answer, whatever its status.
func (c *Client) Health(ctx context.Context) error {
	return c.call(ctx, http.MethodGet, "/healthz", nil, nil, statusBodyLimit, 0, nil)
}

// job calls /v1/jobs/{id} plus suffix, wanting 200, for an id
// ValidJobID accepts.
func (c *Client) job(ctx context.Context, method, id, suffix string, limit int64, out any) error {
	if !ValidJobID(id) {
		return fmt.Errorf("%w: %q", ErrBadJobID, id)
	}
	return c.call(ctx, method, "/v1/jobs/"+id+suffix, nil, nil, limit, http.StatusOK, out)
}

// call sends one request and reads its reply, up to limit bytes. A
// want status (0 = any) decodes the body into out (nil = drop it
// undecoded); any other status is a *Rejection. Transport failures and
// bodies that tear, run past limit or do not decode are *CallErrors.
func (c *Client) call(ctx context.Context, method, path string, body []byte, hdr http.Header, limit int64, want int, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return &CallError{Err: err}
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return &CallError{Err: err}
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	var dst io.Writer = &buf
	if out == nil && (want == 0 || resp.StatusCode == want) {
		dst = io.Discard
	}
	// One byte past the limit tells an over-long body from one that
	// fits exactly, without letting a corrupt server OOM the caller.
	n, err := io.Copy(dst, io.LimitReader(resp.Body, limit+1))
	switch {
	case err != nil:
		return &CallError{Code: resp.StatusCode, Err: err}
	case n > limit:
		return &CallError{Code: resp.StatusCode, Err: fmt.Errorf("service: body from %s exceeds the %d-byte read limit", req.URL, limit)}
	case want != 0 && resp.StatusCode != want:
		return rejection(resp, buf.Bytes())
	case out != nil:
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			return &CallError{Code: resp.StatusCode, Err: err}
		}
	}
	return nil
}

// rejection reads a refusal: its status, Retry-After and error text.
func rejection(resp *http.Response, body []byte) *Rejection {
	msg := strings.TrimSpace(string(body))
	var e errorPayload
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		msg = e.Error
	}
	return &Rejection{
		Code:        resp.StatusCode,
		RetryAfter:  resp.Header.Get("Retry-After"),
		remoteError: remoteError{msg, typedAs(resp.StatusCode, msg)},
	}
}
