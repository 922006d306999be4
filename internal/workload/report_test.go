package workload

import "testing"

// TestReportPercentilesNearestRank: over 18 done jobs p95 is the 18th
// latency (nearest rank ⌈0.95·18⌉ = 18), not the 17th that rounding
// 0.95·18 = 17.1 gives.
func TestReportPercentilesNearestRank(t *testing.T) {
	r := newReport(&Plan{})
	for ms := 18; ms >= 1; ms-- {
		r.record("interactive", OutcomeDone, float64(ms), false)
	}
	r.finalize(1)
	c := r.Classes["interactive"]
	if c.P50Ms != 9 || c.P95Ms != 18 || c.P99Ms != 18 {
		t.Fatalf("p50/p95/p99 = %g/%g/%g ms, want 9/18/18", c.P50Ms, c.P95Ms, c.P99Ms)
	}
}
