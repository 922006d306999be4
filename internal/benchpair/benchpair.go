// Package benchpair times a program path against a partner path inside
// one benchmark binary, so that what a benchmark reports is a ratio
// that host speed, load and drift cancel out of. cmd/perfgate gates
// these ratios; it holds no absolute time.
package benchpair

import (
	"runtime"
	"sort"
	"testing"
	"time"

	"github.com/uintah-repro/rmcrt/internal/mathutil"
)

// MinPairs is the fewest pairs a run times, whatever b.N is: a slow
// pair (a full solve on each side) would otherwise stop at one or two
// pairs under a short -benchtime, and the median of two ratios is no
// median.
const MinPairs = 25

// Run times b.N pairs (at least MinPairs) of one program op and one
// partner op, alternating them one op each and flipping which runs
// first every pair, so that drift within the run lands on both sides
// alike. It reports the median of the per-pair ratios partner/program
// as "ratio" (above 1 when the program path is the faster) with its
// quartiles as "ratio_q1" and "ratio_q3". ns/op, B/op and allocs/op
// are per pair. Set-up done before Run is not timed.
func Run(b *testing.B, program, partner func()) {
	n := max(b.N, MinPairs)
	ratios := make([]float64, n)
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := range ratios {
		var tProg, tPart time.Duration
		if i%2 == 0 {
			tProg = timeOp(program)
			tPart = timeOp(partner)
		} else {
			tPart = timeOp(partner)
			tProg = timeOp(program)
		}
		ratios[i] = float64(tPart) / float64(max(tProg, 1))
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)

	sort.Float64s(ratios)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/op")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(n), "allocs/op")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(n), "B/op")
	b.ReportMetric(mathutil.Quantile(ratios, 0.25), "ratio_q1")
	b.ReportMetric(mathutil.Quantile(ratios, 0.5), "ratio")
	b.ReportMetric(mathutil.Quantile(ratios, 0.75), "ratio_q3")
}

func timeOp(op func()) time.Duration {
	start := time.Now()
	op()
	return time.Since(start)
}
