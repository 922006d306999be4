package main

import (
	"context"
	"testing"
	"time"

	"github.com/uintah-repro/rmcrt/internal/resilience"
	"github.com/uintah-repro/rmcrt/internal/service"
	"github.com/uintah-repro/rmcrt/internal/workload"
	"github.com/uintah-repro/rmcrt/internal/workload/scenarios"
)

// abuseLimiter is the edge admission used by both abuse-soak runs: the
// same allowance for every client, sized so the compliant 50 Hz
// interactive client never touches its bucket while the 500 Hz abuser
// blows through it almost immediately.
func abuseLimiter() *resilience.Limiter {
	return resilience.NewLimiter(resilience.LimiterConfig{
		Default: resilience.RateBurst{Rate: 60, Burst: 8},
	})
}

// runAbuseSpec runs spec at its recorded open-loop timing against a
// fresh limiter-equipped soak harness and returns the report plus the
// limiter for shed inspection.
func runAbuseSpec(t *testing.T, spec workload.Spec, seed uint64) (*workload.Report, *resilience.Limiter) {
	t.Helper()
	plan, err := workload.Generate(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	lim := abuseLimiter()
	h := newSoakHarness(t, 8, lim)
	defer h.close(t)
	report, err := workload.Run(context.Background(), plan, workload.RunConfig{
		Target:     h.router.URL,
		JobTimeout: 2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	return report, lim
}

// TestAbuseIsolationSoak is the per-client admission isolation soak:
// one client at ~10x the compliant interactive rate against an edge
// with identical per-client allowances. The promises:
//
//   - the abuser is shed at admission (429 + Retry-After before any
//     shard sees the job), visible both to the client (rate-limited
//     outcomes, every one Retry-After-hinted) and in the limiter's
//     per-client shed counters;
//   - the compliant client is never rate-limited — its bucket is
//     untouched by the abuser's;
//   - isolation holds end-to-end: compliant interactive p99 under
//     abuse stays within 2x its no-abuse baseline (plus a fixed
//     scheduling-noise floor for the 12-sample percentile).
func TestAbuseIsolationSoak(t *testing.T) {
	s, ok := scenarios.Get("abuse")
	if !ok {
		t.Fatal("abuse scenario not registered")
	}

	// Baseline: the compliant client alone on an identical stack.
	var compliantOnly workload.Spec
	compliantOnly.Name = "abuse-baseline"
	for _, c := range s.Spec.Clients {
		if c.Name == "compliant" {
			compliantOnly.Clients = append(compliantOnly.Clients, c)
		}
	}
	if len(compliantOnly.Clients) != 1 {
		t.Fatalf("abuse scenario lost its compliant client: %+v", s.Spec.Clients)
	}
	baseline, _ := runAbuseSpec(t, compliantOnly, 41)
	base := baseline.Classes[service.ClassInteractive]
	if base.Done != base.Submitted || base.Done == 0 {
		t.Fatalf("baseline must complete every compliant job: %+v", base)
	}

	// Abuse run: same stack, same seed family, abuser riding along.
	report, lim := runAbuseSpec(t, s.Spec, 41)

	totalSubmitted := 0
	for class, c := range report.Classes {
		sum := c.Done + c.QueueFull + c.RateLimited + c.Rejected + c.Deadline +
			c.Failed + c.Cancelled + c.Transport + c.Timeout
		if sum != c.Submitted {
			t.Errorf("class %s: outcomes sum %d != submitted %d (%+v)", class, sum, c.Submitted, c)
		}
		totalSubmitted += c.Submitted
	}
	abuser := report.Classes[service.ClassBestEffort]
	fg := report.Classes[service.ClassInteractive]

	// The abuser is shed at admission, with retry hints on every shed.
	if abuser.RateLimited == 0 {
		t.Errorf("abuser was never rate-limited: %+v", abuser)
	}
	if abuser.RetryHinted < abuser.RateLimited {
		t.Errorf("only %d of %d abuser rate-limits carried Retry-After", abuser.RetryHinted, abuser.RateLimited)
	}
	// The compliant client never touches its allowance.
	if fg.RateLimited != 0 {
		t.Errorf("compliant client was rate-limited %d times: %+v", fg.RateLimited, fg)
	}
	// The limiter's per-client shed ledger agrees exactly with the
	// client-observed rate-limited outcomes.
	shed := lim.ShedByClient()
	if shed["abuser"] != int64(abuser.RateLimited) {
		t.Errorf("limiter shed %d for abuser, client observed %d rate-limits", shed["abuser"], abuser.RateLimited)
	}
	if shed["compliant"] != 0 {
		t.Errorf("limiter shed %d for the compliant client", shed["compliant"])
	}

	// Isolation: compliant p99 under abuse within 2x no-abuse baseline.
	// The +100ms floor absorbs 12-sample percentile noise on a
	// milliseconds-scale baseline; the 2x factor is the claim.
	if fg.Done == 0 {
		t.Fatalf("no compliant completions under abuse: %+v", fg)
	}
	if limit := 2*base.P99Ms + 100; fg.P99Ms > limit {
		t.Errorf("compliant p99 %.2fms under abuse exceeds 2x baseline %.2fms + 100ms",
			fg.P99Ms, base.P99Ms)
	}
	t.Logf("baseline compliant: p50=%.2fms p99=%.2fms (%d done)", base.P50Ms, base.P99Ms, base.Done)
	t.Logf("under abuse: compliant p50=%.2fms p99=%.2fms (%d/%d done), abuser %d rate-limited / %d queue-full / %d done",
		fg.P50Ms, fg.P99Ms, fg.Done, fg.Submitted,
		abuser.RateLimited, abuser.QueueFull, abuser.Done)
}
