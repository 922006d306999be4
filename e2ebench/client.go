package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"runtime"
	"time"

	"github.com/uintah-repro/rmcrt/internal/cluster"
	"github.com/uintah-repro/rmcrt/internal/service"
)

// pollInterval is the client's one fixed status poll period. Its cost
// is reported as loadgen.polls_per_job.
const pollInterval = 10 * time.Millisecond

// jobTimeout bounds one job from send to verified result.
const jobTimeout = 120 * time.Second

// job is one generated submission.
type job struct {
	idx  int
	spec service.Spec
	key  string
	kind string // kernel path: gray, scatter, spectral or adaptive
	// work is fine cells × requested rays per cell × bands, from the
	// spec fields (the ray cap for adaptive jobs).
	work float64
	// keep asks the client to hold the divQ for the bitwise check.
	keep bool
}

func newJob(idx int, spec service.Spec) job {
	n := spec.Normalized()
	kind := "gray"
	switch {
	case n.SpectralBands >= 2:
		kind = "spectral"
	case n.AdaptiveRelTol > 0:
		kind = "adaptive"
	case n.ScatterCoeff > 0:
		kind = "scatter"
	}
	return job{idx: idx, spec: spec, key: spec.Key(), kind: kind, work: workOf(spec)}
}

// workOf returns a spec's requested work in cell-rays: fine cells ×
// rays per cell (the adaptive cap for adaptive solves) × bands.
func workOf(s service.Spec) float64 {
	n := s.Normalized()
	rays := n.Rays
	if n.AdaptiveRelTol > 0 {
		rays = n.AdaptiveMaxRays
	}
	bands := 1
	if n.SpectralBands >= 2 {
		bands = n.SpectralBands
	}
	return float64(n.N) * float64(n.N) * float64(n.N) * float64(rays) * float64(bands)
}

// jobRecord is the client's one small record per job. Times are
// nanoseconds since the run epoch.
type jobRecord struct {
	idx  int
	kind string
	key  string
	work float64
	ok   bool
	// wrong marks a result that failed an output check.
	wrong  bool
	reason string

	due, send, doneSeen, resEnd, end int64
	polls                            int
	decodeNs                         int64

	routerID, shard, shardJob string
	digest                    uint64
	divq                      []float64 // only for jobs in the bitwise subset
	// shardStatus is the shard's own status of the job, fetched after
	// the job is verified (traced runs only).
	shardStatus *service.JobStatus
}

func (r *jobRecord) latencyMs() float64 { return float64(r.end-r.due) / 1e6 }

// client is the benchmark's load generator: HTTP to the router with
// at most nproc connections.
type client struct {
	base  string
	hc    *http.Client
	epoch time.Time
	// shardURL, when set, lets the client read the shard's status of a
	// finished job (traced runs).
	shardURL func(name string) string
}

func newClient(base string, epoch time.Time) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     runtime.NumCPU(),
		MaxIdleConnsPerHost: runtime.NumCPU(),
		IdleConnTimeout:     30 * time.Second,
	}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, epoch: epoch}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) since(t time.Time) int64 { return int64(t.Sub(c.epoch)) }

func (c *client) do(method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// run sends one job at (or after) due, polls the router until the job
// is done, fetches and verifies the result.
func (c *client) run(j job, due time.Time) jobRecord {
	rec := jobRecord{idx: j.idx, kind: j.kind, key: j.key, work: j.work, due: c.since(due)}
	fail := func(format string, args ...any) jobRecord {
		rec.reason = fmt.Sprintf(format, args...)
		rec.end = c.since(time.Now())
		return rec
	}
	body, err := json.Marshal(j.spec)
	if err != nil {
		return fail("encode spec: %v", err)
	}
	send := time.Now()
	rec.send = c.since(send)
	code, b, err := c.do(http.MethodPost, c.base+"/v1/solve", body)
	if err != nil {
		return fail("submit: %v", err)
	}
	if code != http.StatusAccepted {
		return fail("refused: HTTP %d: %s", code, bytes.TrimSpace(b))
	}
	var st cluster.JobStatus
	if err := json.Unmarshal(b, &st); err != nil || st.ID == "" {
		return fail("submit response: %v", err)
	}
	rec.routerID = st.ID
	for st.State != service.StateDone {
		if time.Since(send) > jobTimeout {
			return fail("timed out in state %s", st.State)
		}
		time.Sleep(pollInterval)
		code, b, err = c.do(http.MethodGet, c.base+"/v1/jobs/"+rec.routerID, nil)
		rec.polls++
		if err != nil {
			return fail("status: %v", err)
		}
		if code != http.StatusOK {
			return fail("status: HTTP %d", code)
		}
		if err := json.Unmarshal(b, &st); err != nil {
			return fail("status response: %v", err)
		}
		if st.State == service.StateFailed || st.State == service.StateCancelled {
			return fail("job %s: %s", st.State, st.Error)
		}
	}
	rec.doneSeen = c.since(time.Now())
	rec.shard, rec.shardJob = st.Shard, st.ShardJobID
	code, b, err = c.do(http.MethodGet, c.base+"/v1/jobs/"+rec.routerID+"/result", nil)
	rec.resEnd = c.since(time.Now())
	if err != nil {
		return fail("result: %v", err)
	}
	if code != http.StatusOK {
		return fail("result: HTTP %d", code)
	}
	t0 := time.Now()
	var p service.ResultPayload
	if err := json.Unmarshal(b, &p); err != nil {
		rec.wrong = true
		return fail("result body: %v", err)
	}
	if err := checkResult(&p, j); err != nil {
		rec.wrong = true
		return fail("%v", err)
	}
	rec.digest = digest(p.DivQ)
	if j.keep {
		rec.divq = p.DivQ
	}
	end := time.Now()
	rec.decodeNs = int64(end.Sub(t0))
	rec.end = c.since(end)
	rec.ok = true
	if c.shardURL != nil {
		c.readShardStatus(&rec)
	}
	return rec
}

// readShardStatus joins the router's job to the shard's record of it.
func (c *client) readShardStatus(rec *jobRecord) {
	base := c.shardURL(rec.shard)
	if base == "" {
		return
	}
	code, b, err := c.do(http.MethodGet, base+"/v1/jobs/"+rec.shardJob, nil)
	if err != nil || code != http.StatusOK {
		return
	}
	var st service.JobStatus
	if json.Unmarshal(b, &st) == nil {
		rec.shardStatus = &st
	}
}

// checkResult checks one result body: cell count, key and finite
// values.
func checkResult(p *service.ResultPayload, j job) error {
	n := j.spec.Normalized().N
	want := n * n * n
	switch {
	case p.Cells != want || len(p.DivQ) != want:
		return fmt.Errorf("wrong result: %d cells (%d values), want %d", p.Cells, len(p.DivQ), want)
	case p.Key != j.key:
		return fmt.Errorf("wrong result: key %s, want %s", p.Key, j.key)
	}
	for i, v := range p.DivQ {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("wrong result: divQ[%d] = %v", i, v)
		}
	}
	return nil
}

// digest hashes the bits of a divQ field.
func digest(xs []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range xs {
		u := math.Float64bits(x)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// errMismatch reports a result that differs from its reference.
var errMismatch = errors.New("divQ differs from the reference solve")

// bitwiseEqual compares two fields bit for bit and names the first
// differing cell.
func bitwiseEqual(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%w: %d values, want %d", errMismatch, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("%w: cell %d: %v != %v", errMismatch, i, got[i], want[i])
		}
	}
	return nil
}
