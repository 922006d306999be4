package workload

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/uintah-repro/rmcrt/internal/service"
)

// RunConfig configures one run of a plan against a live server.
type RunConfig struct {
	// Target is the server base URL (rmcrtd or rmcrtrouter — both
	// speak the same /v1 job API).
	Target string
	// ASAP ignores the plan's timeline and issues every client's
	// submissions back-to-back: as-fast-as-possible replay.
	ASAP bool
	// JobTimeout bounds how long the runner waits for one accepted job
	// to turn terminal (default 60s).
	JobTimeout time.Duration
	// Client is the HTTP client (default: http.DefaultClient with a
	// 30s request timeout clone).
	Client *http.Client
}

func (c RunConfig) withDefaults() RunConfig {
	if c.JobTimeout <= 0 {
		c.JobTimeout = 60 * time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 30 * time.Second}
	}
	return c
}

// jobStatus is the subset of the daemon/router job snapshot the runner
// decodes — both serving planes emit these fields.
type jobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Error string `json:"error,omitempty"`
}

// Run executes the plan against cfg.Target and aggregates the
// per-class report. Each client instance runs as one goroutine issuing
// its submissions in plan order: open-loop clients fire at their
// planned offsets, closed-loop clients treat gaps as think time and
// bound their outstanding jobs, asap clients (or ASAP replay) issue
// back-to-back. ctx cancels the whole run.
func Run(ctx context.Context, plan *Plan, cfg RunConfig) (*Report, error) {
	cfg = cfg.withDefaults()
	if len(plan.Subs) == 0 {
		return nil, fmt.Errorf("workload: empty plan")
	}

	modes := make(map[string]PlanClient, len(plan.Clients))
	for _, pc := range plan.Clients {
		modes[pc.Name] = pc
	}
	byClient := make(map[string][]Submission)
	var order []string
	for _, sub := range plan.Subs {
		if _, ok := byClient[sub.Client]; !ok {
			order = append(order, sub.Client)
		}
		byClient[sub.Client] = append(byClient[sub.Client], sub)
	}

	report := newReport(plan)
	var mu sync.Mutex
	record := func(class string, o Outcome, latencyMs float64, retryHinted bool) {
		mu.Lock()
		report.record(class, o, latencyMs, retryHinted)
		mu.Unlock()
	}

	before, berr := scrapeCounters(ctx, cfg, plan)
	start := time.Now()
	var wg sync.WaitGroup
	for _, name := range order {
		subs := byClient[name]
		pc, ok := modes[name]
		if !ok {
			pc = PlanClient{Name: name, Mode: ModeOpen, Inflight: 1}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			runClient(ctx, cfg, pc, subs, start, record)
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()

	if after, aerr := scrapeCounters(ctx, cfg, plan); berr == nil && aerr == nil {
		report.Counters = counterDelta(before, after)
	}
	report.Target = cfg.Target
	report.finalize(wall)
	return report, ctx.Err()
}

// runClient issues one client instance's submissions in order.
func runClient(ctx context.Context, cfg RunConfig, pc PlanClient, subs []Submission, start time.Time, record func(string, Outcome, float64, bool)) {
	mode := pc.Mode
	if cfg.ASAP {
		mode = ModeASAP
	}
	inflight := pc.Inflight
	if inflight < 1 {
		inflight = 1
	}
	// Open-loop clients do not bound outstanding jobs; model that as a
	// slot per submission.
	if mode == ModeOpen {
		inflight = len(subs)
	}
	slots := make(chan struct{}, inflight)
	for i := 0; i < inflight; i++ {
		slots <- struct{}{}
	}
	var wg sync.WaitGroup
	prev := time.Duration(0)
	for _, sub := range subs {
		switch mode {
		case ModeOpen:
			// Fire at the planned absolute offset.
			if !sleepUntil(ctx, start.Add(sub.At)) {
				record(sub.Class, OutcomeTransport, 0, false)
				continue
			}
		case ModeClosed:
			// The planned gap is think time before the next issue; the
			// slot wait below applies the inflight bound.
			gap := sub.At - prev
			prev = sub.At
			if !sleepFor(ctx, gap) {
				record(sub.Class, OutcomeTransport, 0, false)
				continue
			}
		}
		select {
		case <-slots:
		case <-ctx.Done():
			record(sub.Class, OutcomeTransport, 0, false)
			continue
		}
		wg.Add(1)
		go func(sub Submission) {
			defer wg.Done()
			defer func() { slots <- struct{}{} }()
			o, latency, hinted := issue(ctx, cfg, sub)
			record(sub.Class, o, latency, hinted)
		}(sub)
	}
	wg.Wait()
}

func sleepUntil(ctx context.Context, t time.Time) bool {
	return sleepFor(ctx, time.Until(t))
}

func sleepFor(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// issue submits one job and waits for its terminal state, classifying
// the outcome. Latency is submit→observed-terminal in milliseconds.
// The third return marks a 429 that carried a Retry-After hint.
func issue(ctx context.Context, cfg RunConfig, sub Submission) (Outcome, float64, bool) {
	body, err := json.Marshal(sub.Spec)
	if err != nil {
		return OutcomeRejected, 0, false
	}
	submitAt := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, cfg.Target+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		return OutcomeTransport, 0, false
	}
	req.Header.Set("Content-Type", "application/json")
	// Identify ourselves so per-client admission keys on this client
	// instance, and attach the planned deadline budget when one is set.
	req.Header.Set(service.ClientIDHeader, sub.Client)
	if sub.DeadlineMs > 0 {
		req.Header.Set(service.DeadlineHeader, strconv.Itoa(sub.DeadlineMs))
	}
	resp, err := cfg.Client.Do(req)
	if err != nil {
		return OutcomeTransport, 0, false
	}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		// Both admission paths answer 429; the body says which. A
		// rate-limited client was personally over allowance — a
		// queue-full one just hit a busy server.
		hinted := resp.Header.Get("Retry-After") != ""
		if strings.Contains(string(raw), "rate limited") {
			return OutcomeRateLimited, 0, hinted
		}
		return OutcomeQueueFull, 0, hinted
	}
	var st jobStatus
	decodeErr := json.Unmarshal(raw, &st)
	switch {
	case resp.StatusCode >= 400:
		return OutcomeRejected, 0, false
	case decodeErr != nil || st.ID == "":
		return OutcomeTransport, 0, false
	}
	if terminalState(st.State) {
		// Cache hits come back already terminal.
		return settle(ctx, cfg, sub, st, submitAt)
	}

	// Each status call is held by the server until the job is terminal
	// or the wait (the job's remaining budget, capped by
	// service.StatusWaitMs) runs out: one call per wait window, not per
	// poll period.
	deadline := time.Now().Add(cfg.JobTimeout)
	for {
		left := time.Until(deadline)
		if left <= 0 {
			return OutcomeTimeout, 0, false
		}
		cur, err := pollJob(ctx, cfg, st.ID, service.StatusWaitMs(left, cfg.Client.Timeout))
		switch {
		case ctx.Err() != nil:
			return OutcomeTransport, 0, false
		case err != nil:
			// Transient status failure: pause, then keep polling until
			// the budget runs out.
			sleepFor(ctx, failedPollPause)
		case terminalState(cur.State):
			return settle(ctx, cfg, sub, cur, submitAt)
		}
	}
}

// failedPollPause spaces status calls after one fails, so an unreachable
// target is not hammered; a successful call paces itself by long-polling.
const failedPollPause = 10 * time.Millisecond

// settle classifies a terminal job, then reads and discards a done
// job's result: a server keeps a result resident until its first read,
// so a load generator that never read one would grow its target by one
// result per job. Latency is taken before the read: submit→terminal.
func settle(ctx context.Context, cfg RunConfig, sub Submission, st jobStatus, submitAt time.Time) (Outcome, float64, bool) {
	latencyMs := time.Since(submitAt).Seconds() * 1e3
	if st.State == "done" {
		discardResult(ctx, cfg, st.ID, service.ResultBodyLimit(sub.Spec))
	}
	return classify(st), latencyMs, false
}

// discardResult reads up to limit bytes of a job's result and drops
// them. A failed read changes nothing the runner reports.
func discardResult(ctx context.Context, cfg RunConfig, id string, limit int64) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, cfg.Target+"/v1/jobs/"+id+"/result", nil)
	if err != nil {
		return
	}
	resp, err := cfg.Client.Do(req)
	if err != nil {
		return
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, limit))
	resp.Body.Close()
}

// pollJob long-polls one job's status: the server answers when the job
// turns terminal or after waitMs, whichever is first.
func pollJob(ctx context.Context, cfg RunConfig, id string, waitMs int64) (jobStatus, error) {
	url := cfg.Target + "/v1/jobs/" + id + "?wait=" + strconv.FormatInt(waitMs, 10)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return jobStatus{}, err
	}
	resp, err := cfg.Client.Do(req)
	if err != nil {
		return jobStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return jobStatus{}, fmt.Errorf("workload: job status %d", resp.StatusCode)
	}
	var st jobStatus
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&st); err != nil {
		return jobStatus{}, err
	}
	return st, nil
}

func terminalState(s string) bool {
	return s == "done" || s == "failed" || s == "cancelled"
}

func classify(st jobStatus) Outcome {
	switch st.State {
	case "done":
		return OutcomeDone
	case "cancelled":
		return OutcomeCancelled
	}
	// A deadline failure reaches a client as text only, so match its
	// wording. (The router, which also reads shard errors as text,
	// re-wraps them as service.ErrDeadlineExceeded and classifies with
	// errors.Is.)
	if strings.Contains(st.Error, "deadline exceeded") {
		return OutcomeDeadline
	}
	return OutcomeFailed
}

// scrapeCounters snapshots the target's counter families.
func scrapeCounters(ctx context.Context, cfg RunConfig, _ *Plan) (map[string]int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, cfg.Target+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("workload: metrics status %d", resp.StatusCode)
	}
	return parseCounters(io.LimitReader(resp.Body, 4<<20))
}
