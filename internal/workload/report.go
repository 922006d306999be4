package workload

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"strings"

	"github.com/uintah-repro/rmcrt/internal/mathutil"
	"github.com/uintah-repro/rmcrt/internal/service"
)

// Outcome is the terminal classification of one submission as the
// load generator observed it.
type Outcome string

const (
	// OutcomeDone: accepted and completed successfully.
	OutcomeDone Outcome = "done"
	// OutcomeQueueFull: rejected 429 because the server's submission
	// queue was at capacity.
	OutcomeQueueFull Outcome = "queue-full"
	// OutcomeRateLimited: rejected 429 by per-client admission — this
	// client exceeded its token-bucket allowance, independent of queue
	// state.
	OutcomeRateLimited Outcome = "rate-limited"
	// OutcomeRejected: rejected 4xx for any other reason (bad spec,
	// body too large).
	OutcomeRejected Outcome = "rejected"
	// OutcomeDeadline: failed with a deadline-exceeded error.
	OutcomeDeadline Outcome = "deadline"
	// OutcomeFailed: failed with any other error.
	OutcomeFailed Outcome = "failed"
	// OutcomeCancelled: ended cancelled.
	OutcomeCancelled Outcome = "cancelled"
	// OutcomeTransport: the submission got no usable answer
	// (connection refused or reset, a torn accept, or an accept whose
	// job ID the API never issues).
	OutcomeTransport Outcome = "transport"
	// OutcomeTimeout: accepted, but not terminal before the runner's
	// per-job wait budget expired.
	OutcomeTimeout Outcome = "timeout"
)

// ClassReport aggregates one SLO class's outcomes and latency.
type ClassReport struct {
	Submitted   int `json:"submitted"`
	Done        int `json:"done"`
	QueueFull   int `json:"queue_full,omitempty"`
	RateLimited int `json:"rate_limited,omitempty"`
	// RetryHinted counts 429s that carried a Retry-After header — the
	// server told this client when to come back.
	RetryHinted int `json:"retry_hinted,omitempty"`
	Rejected    int `json:"rejected,omitempty"`
	Deadline    int `json:"deadline,omitempty"`
	Failed      int `json:"failed,omitempty"`
	Cancelled   int `json:"cancelled,omitempty"`
	Transport   int `json:"transport,omitempty"`
	Timeout     int `json:"timeout,omitempty"`
	// Submit→terminal latency of done jobs, milliseconds.
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MeanMs float64 `json:"mean_ms"`
	// GoodputPerSec is done jobs per wall second.
	GoodputPerSec float64 `json:"goodput_per_sec"`

	latencies []float64 // milliseconds, done jobs only
}

// Report is one run's result: per-class outcome accounting, latency
// percentiles, goodput, and the server-side counter deltas (packed
// cache builds/hits, per-class overload counters) scraped from
// /metrics before and after.
type Report struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Target   string `json:"target,omitempty"`
	Jobs     int    `json:"jobs"`
	Replayed bool   `json:"replayed,omitempty"`
	// WallSeconds is run wall time (zeroed by Normalize).
	WallSeconds float64 `json:"wall_seconds"`
	// Classes maps SLO class → aggregate. JSON maps marshal in sorted
	// key order, so the rendering is deterministic.
	Classes map[string]*ClassReport `json:"classes"`
	// Counters holds server counter deltas over the run for series
	// matching the rmcrt_packed_/rmcrtd_/router_ families.
	Counters map[string]int64 `json:"counters,omitempty"`
}

func newReport(plan *Plan) *Report {
	r := &Report{
		Workload: plan.Workload,
		Seed:     plan.Seed,
		Jobs:     len(plan.Subs),
		Classes:  make(map[string]*ClassReport, 3),
	}
	for _, class := range service.Classes() {
		r.Classes[class] = &ClassReport{}
	}
	return r
}

func (r *Report) class(name string) *ClassReport {
	c, ok := r.Classes[name]
	if !ok {
		c = &ClassReport{}
		r.Classes[name] = c
	}
	return c
}

// record folds one observed outcome into the report. retryHinted marks
// a 429 that carried a Retry-After header.
func (r *Report) record(class string, o Outcome, latencyMs float64, retryHinted bool) {
	c := r.class(class)
	c.Submitted++
	if retryHinted {
		c.RetryHinted++
	}
	switch o {
	case OutcomeDone:
		c.Done++
		c.latencies = append(c.latencies, latencyMs)
	case OutcomeQueueFull:
		c.QueueFull++
	case OutcomeRateLimited:
		c.RateLimited++
	case OutcomeRejected:
		c.Rejected++
	case OutcomeDeadline:
		c.Deadline++
	case OutcomeFailed:
		c.Failed++
	case OutcomeCancelled:
		c.Cancelled++
	case OutcomeTransport:
		c.Transport++
	case OutcomeTimeout:
		c.Timeout++
	}
}

// finalize computes the derived latency and goodput figures.
func (r *Report) finalize(wallSeconds float64) {
	r.WallSeconds = wallSeconds
	for _, c := range r.Classes {
		if len(c.latencies) > 0 {
			sort.Float64s(c.latencies)
			c.P50Ms = mathutil.Quantile(c.latencies, 0.50)
			c.P95Ms = mathutil.Quantile(c.latencies, 0.95)
			c.P99Ms = mathutil.Quantile(c.latencies, 0.99)
			c.MeanMs = mathutil.Mean(c.latencies)
		}
		if wallSeconds > 0 {
			c.GoodputPerSec = float64(c.Done) / wallSeconds
		}
	}
}

// Normalize zeroes every wall-clock-dependent field, leaving only the
// deterministic accounting: same (spec, seed) against a fresh server
// yields byte-identical normalized reports, which is the loadgen
// acceptance criterion.
func (r *Report) Normalize() {
	r.Target = ""
	r.WallSeconds = 0
	for _, c := range r.Classes {
		c.P50Ms, c.P95Ms, c.P99Ms, c.MeanMs = 0, 0, 0, 0
		c.GoodputPerSec = 0
	}
}

// WriteJSON renders the report with stable two-space indentation
// (matching the cmd/scaling golden encoding).
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// counterPrefixes are the server metric families a report snapshots.
var counterPrefixes = []string{"rmcrt_packed_", "rmcrtd_", "router_"}

// parseCounters extracts counter-typed series from a plain-text
// /metrics exposition, keeping only the families a workload report
// cares about. Gauges and histograms are skipped: gauges snapshot
// wall-clock state (queue depth, unix timestamps) that is not a delta,
// and histogram sums are floats.
func parseCounters(r io.Reader) (map[string]int64, error) {
	out := make(map[string]int64)
	isCounter := make(map[string]bool)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) == 4 && parts[3] == "counter" {
				isCounter[parts[2]] = true
			}
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, valStr, ok := strings.Cut(line, " ")
		if !ok || !isCounter[name] {
			continue
		}
		keep := false
		for _, p := range counterPrefixes {
			if strings.HasPrefix(name, p) {
				keep = true
				break
			}
		}
		if !keep {
			continue
		}
		v, err := strconv.ParseInt(valStr, 10, 64)
		if err != nil {
			continue
		}
		out[name] = v
	}
	return out, sc.Err()
}

// counterDelta subtracts the before snapshot from after, keeping every
// series seen after (missing-before reads as 0).
func counterDelta(before, after map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(after))
	for name, v := range after {
		out[name] = v - before[name]
	}
	return out
}
