package workload

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"github.com/uintah-repro/rmcrt/internal/resilience"
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

	api := service.NewClient(cfg.Target, cfg.Client)
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
			runClient(ctx, cfg, api, pc, subs, start, record)
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
func runClient(ctx context.Context, cfg RunConfig, api *service.Client, pc PlanClient, subs []Submission, start time.Time, record func(string, Outcome, float64, bool)) {
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
			if !sleepFor(ctx, time.Until(start.Add(sub.At))) {
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
			o, latency, hinted := issue(ctx, cfg, api, sub)
			record(sub.Class, o, latency, hinted)
		}(sub)
	}
	wg.Wait()
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
func issue(ctx context.Context, cfg RunConfig, api *service.Client, sub Submission) (Outcome, float64, bool) {
	submitAt := time.Now()
	// The client ID keys per-client admission on this client instance;
	// the planned deadline budget rides along when one is set.
	st, err := api.Submit(ctx, sub.Spec, sub.Client, time.Duration(sub.DeadlineMs)*time.Millisecond)
	if err != nil {
		return refused(err)
	}
	// Cache hits come back already terminal. Otherwise each status call
	// is held by the server until the job is terminal or the wait (the
	// job's remaining budget, capped by service.StatusWaitMs) runs out:
	// one call per wait window, not per poll period.
	deadline := time.Now().Add(cfg.JobTimeout)
	for !st.State.Terminal() {
		left := time.Until(deadline)
		if left <= 0 {
			return OutcomeTimeout, 0, false
		}
		cur, err := api.Status(ctx, st.ID, service.StatusWaitMs(left, cfg.Client.Timeout))
		switch {
		case ctx.Err() != nil:
			return OutcomeTransport, 0, false
		case err != nil:
			// Transient status failure: pause, then keep polling until
			// the budget runs out.
			sleepFor(ctx, failedPollPause)
		default:
			st = cur
		}
	}
	return settle(ctx, api, sub, st, submitAt)
}

// refused classifies a submission that was not accepted. Both admission
// paths answer 429, told apart by the typed error the client maps the
// reply back to: a rate-limited client was personally over allowance, a
// queue-full one just hit a busy server.
func refused(err error) (Outcome, float64, bool) {
	var rej *service.Rejection
	switch {
	case errors.As(err, new(*service.CallError)):
		return OutcomeTransport, 0, false
	case !errors.As(err, &rej):
		return OutcomeRejected, 0, false
	case errors.Is(err, resilience.ErrRateLimited):
		return OutcomeRateLimited, 0, rej.RetryAfter != ""
	case errors.Is(err, service.ErrQueueFull):
		return OutcomeQueueFull, 0, rej.RetryAfter != ""
	}
	return OutcomeRejected, 0, false
}

// failedPollPause spaces status calls after one fails, so an unreachable
// target is not hammered; a successful call paces itself by long-polling.
const failedPollPause = 10 * time.Millisecond

// settle classifies a terminal job, then reads and discards a done
// job's result: a server keeps a result resident until its first read,
// so a load generator that never read one would grow its target by one
// result per job. A failed read changes nothing the runner reports.
// Latency is taken before the read: submit→terminal.
func settle(ctx context.Context, api *service.Client, sub Submission, st service.JobStatus, submitAt time.Time) (Outcome, float64, bool) {
	latencyMs := time.Since(submitAt).Seconds() * 1e3
	if st.State == service.StateDone {
		_ = api.Result(ctx, st.ID, sub.Spec, nil)
	}
	return classify(st), latencyMs, false
}

func classify(st service.JobStatus) Outcome {
	switch {
	case st.State == service.StateDone:
		return OutcomeDone
	case st.State == service.StateCancelled:
		return OutcomeCancelled
	case errors.Is(service.RemoteError(st.Error), service.ErrDeadlineExceeded):
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
