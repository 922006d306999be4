package main

import (
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"github.com/uintah-repro/rmcrt/internal/service"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the helpers must sort
	}
	return xs
}

func TestTailRuleKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		value  float64
		pct    float64
		beyond int
		ok     bool
	}{
		{n: 25, value: 15, pct: 60, beyond: 10, ok: true},
		{n: 200, value: 190, pct: 95, beyond: 10, ok: true},
		{n: 11, value: 1, pct: 100.0 / 11, beyond: 10, ok: true},
		{n: 10, value: 10, pct: 100, beyond: 0, ok: false},
	} {
		v, pct, beyond, ok := tail(seq(tc.n))
		if v != tc.value || math.Abs(pct-tc.pct) > 1e-9 || beyond != tc.beyond || ok != tc.ok {
			t.Errorf("tail(1..%d) = %v, p%v, %d beyond, %v; want %v, p%v, %d, %v",
				tc.n, v, pct, beyond, ok, tc.value, tc.pct, tc.beyond, tc.ok)
		}
	}
}

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	// statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{[]float64{16, 1, 8, 2, 4}, [3]float64{1.5, 4, 12}},
		{[]float64{5, 7}, [3]float64{4.5, 6, 7.5}},
	} {
		if got := quartiles(tc.xs); got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestCellRayAccounting(t *testing.T) {
	amr := service.Spec{Levels: 2, PatchN: 16, RR: 4}
	for _, tc := range []struct {
		name string
		spec service.Spec
		want float64
	}{
		{"gray", service.Spec{N: 12, Rays: 8}, 12 * 12 * 12 * 8},
		{"default rays", service.Spec{N: 12}, 12 * 12 * 12 * 100},
		{"spectral bands", service.Spec{N: 32, Rays: 16, SpectralBands: 4}, 32 * 32 * 32 * 16 * 4},
		{"adaptive cap", service.Spec{N: 48, Rays: 64, AdaptiveRelTol: 0.05}, 48 * 48 * 48 * 64},
		{"adaptive explicit cap", service.Spec{N: 32, Rays: 16, AdaptiveRelTol: 0.05, AdaptiveMaxRays: 40}, 32 * 32 * 32 * 40},
		{"2-level counts fine cells", func() service.Spec { s := amr; s.N, s.Rays = 48, 16; return s }(), 48 * 48 * 48 * 16},
	} {
		if got := workOf(tc.spec); got != tc.want {
			t.Errorf("%s: workOf = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// mkSpan builds a span over [start, end) in milliseconds.
func mkSpan(start, end float64) *span {
	return &span{Start: int64(start * 1e6), End: int64(end * 1e6)}
}

// routedJob is a job whose stages are laid out back to back (ms):
// due 0, send 1, router accepts 3 (handler 2.5-3), placed 4-6 (shard
// handler 5-5.5), solve 7-20, router sees done 250, fetch ends 260
// (shard handler 252-258), client sees done 265, result read 270
// (router handler 266-268), verified 272.
func routedJob() jobTrace {
	ms := func(x float64) int64 { return int64(x * 1e6) }
	r := &jobRecord{ok: true, due: 0, send: ms(1), doneSeen: ms(265), resEnd: ms(270), end: ms(272)}
	return jobTrace{r: r,
		routerSubmit: mkSpan(2.5, 3), place: mkSpan(4, 6), shardSubmit: mkSpan(5, 5.5),
		solve: mkSpan(7, 20), donePoll: mkSpan(249, 250), fetch: mkSpan(250.5, 260),
		shardResult: mkSpan(252, 258), routerResult: mkSpan(266, 268),
	}
}

func TestSpanSelfTimeReconciles(t *testing.T) {
	jt := routedJob()
	if !jt.complete() {
		t.Fatal("job with every span reported incomplete")
	}
	a := jt.account()
	if !a.reconciled() || a.sum != a.latency || a.overlap != 0 {
		t.Fatalf("sum %d, latency %d, overlap %d: not reconciled", a.sum, a.latency, a.overlap)
	}
	ms := func(x float64) int64 { return int64(math.Round(x * 1e6)) }
	want := map[string][2]int64{ // layer: self, wait
		// submit 1-3 minus handler 0.5, result 265-270 minus handler 2, decode 270-272
		"loadgen": {ms(1.5 + 3 + 2), ms(1 + 5)},
		// handler 0.5, place 4-6 minus 0.5, fetch 250-260 minus 6, relay 2; dispatch 3-4, notice 20-250
		"cluster": {ms(0.5 + 1.5 + 4 + 2), ms(1 + 230)},
		"service": {ms(0.5 + 6), ms(1)}, // handlers; queue 6-7
		"rmcrt":   {ms(13), 0},
	}
	var total int64
	for l, w := range want {
		if a.self[l] != w[0] || a.wait[l] != w[1] {
			t.Errorf("%s: self %d wait %d, want %d %d", l, a.self[l], a.wait[l], w[0], w[1])
		}
		total += a.self[l] + a.wait[l]
	}
	if total != a.latency {
		t.Errorf("layer times sum to %d, latency %d", total, a.latency)
	}
	if got := a.stages[bSolveEnd]; got != ms(230) {
		t.Errorf("notice lag %d, want 230ms", got)
	}
}

func TestMisjoinedSpanFailsReconciliation(t *testing.T) {
	jt := routedJob()
	// A fetch span from another job, ending after this job was verified.
	jt.fetch = mkSpan(250.5, 300)
	if a := jt.account(); a.reconciled() {
		t.Errorf("fetch ending after the client verified the result reconciled (sum %d, latency %d, overlap %d)",
			a.sum, a.latency, a.overlap)
	}
}

func TestPlacementBeforeSubmitResponseReconciles(t *testing.T) {
	jt := routedJob()
	jt.routerSubmit = mkSpan(2.5, 8) // still writing the 202 when placement starts at 4
	a := jt.account()
	if !a.reconciled() {
		t.Fatalf("placement overlapping the submit response not reconciled: overlap %d", a.overlap)
	}
	if got, want := a.stages[bSend], int64(3e6); got != want {
		t.Errorf("client submit stage %d, want %d (send to placement start)", got, want)
	}
}

func TestCoalescedSolveStartsAtPlacement(t *testing.T) {
	jt := routedJob()
	jt.solve = mkSpan(-50, 20) // an identical solve already running
	a := jt.account()
	if !a.reconciled() {
		t.Fatalf("coalesced job not reconciled: overlap %d", a.overlap)
	}
	if got, want := a.self["rmcrt"], int64(14e6); got != want {
		t.Errorf("coalesced solve self time %d, want %d (placement end to solve end)", got, want)
	}
}

func TestFlippedBitIsCaught(t *testing.T) {
	spec := service.Spec{N: 8, Rays: 4, Seed: 3}
	divQ, _, _, err := spec.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := divQ.Data()
	got := append([]float64(nil), want...)
	if err := bitwiseEqual(got, want); err != nil {
		t.Fatalf("identical fields differ: %v", err)
	}
	got[17] = math.Float64frombits(math.Float64bits(got[17]) ^ 1)
	if err := bitwiseEqual(got, want); !errors.Is(err, errMismatch) {
		t.Fatalf("one flipped bit: err = %v, want errMismatch", err)
	}

	// The post-run check marks the job wrong.
	j := newJob(0, spec)
	rec := &jobRecord{idx: 0, ok: true, key: j.key, divq: got, digest: digest(got)}
	if _, err := verifyServe([]*jobRecord{rec}, func(int) service.Spec { return spec }); err != nil {
		t.Fatal(err)
	}
	if rec.ok || !rec.wrong {
		t.Errorf("flipped bit passed verification: ok %v wrong %v", rec.ok, rec.wrong)
	}

	// Two results with one key must agree.
	a := &jobRecord{ok: true, key: j.key, digest: digest(want)}
	b := &jobRecord{ok: true, key: j.key, digest: digest(got)}
	if _, err := verifyServe([]*jobRecord{a, b}, nil); err != nil {
		t.Fatal(err)
	}
	if !b.wrong {
		t.Error("results of one key with different bits were not flagged")
	}
}

func TestCheckResult(t *testing.T) {
	j := newJob(0, service.Spec{N: 2, Rays: 4})
	good := service.ResultPayload{Key: j.key, Cells: 8, DivQ: make([]float64, 8)}
	if err := checkResult(&good, j); err != nil {
		t.Fatalf("good result rejected: %v", err)
	}
	for name, p := range map[string]service.ResultPayload{
		"short":  {Key: j.key, Cells: 7, DivQ: make([]float64, 7)},
		"key":    {Key: "other", Cells: 8, DivQ: make([]float64, 8)},
		"nan":    {Key: j.key, Cells: 8, DivQ: []float64{0, 0, math.NaN(), 0, 0, 0, 0, 0}},
		"inf":    {Key: j.key, Cells: 8, DivQ: []float64{0, 0, 0, 0, 0, 0, 0, math.Inf(1)}},
		"counts": {Key: j.key, Cells: 8, DivQ: make([]float64, 9)},
	} {
		if err := checkResult(&p, j); err == nil {
			t.Errorf("%s: bad result accepted", name)
		}
	}
}

func TestSmallJobsMix(t *testing.T) {
	a, b := smallJobs(7, 200), smallJobs(7, 200)
	repeats, kept := 0, 0
	seen := map[string]bool{}
	for i := range a {
		if a[i].key != b[i].key {
			t.Fatalf("job %d differs between two generations with one seed", i)
		}
		if seen[a[i].key] {
			repeats++
		}
		seen[a[i].key] = true
		if a[i].keep {
			kept++
		}
	}
	if repeats != 20 {
		t.Errorf("%d repeats in 200 jobs, want 20", repeats)
	}
	if kept != 4 {
		t.Errorf("%d jobs kept for the bitwise check, want 4", kept)
	}
	if c := smallJobs(8, 200); c[0].key == a[0].key {
		t.Error("seeds 7 and 8 generated the same first job")
	}
}

func TestPoissonTimesSortedInSpan(t *testing.T) {
	ts := poissonTimes(rand.New(rand.NewPCG(1, 2)), 300, 30*time.Second)
	if len(ts) != 300 {
		t.Fatalf("%d arrivals, want 300", len(ts))
	}
	for i, at := range ts {
		if at < 0 || at >= 30*time.Second || (i > 0 && at < ts[i-1]) {
			t.Fatalf("arrival %d at %v out of order or span", i, at)
		}
	}
}

func TestAPIOp(t *testing.T) {
	for _, tc := range []struct{ method, path, op, id string }{
		{"POST", "/v1/solve", "submit", ""},
		{"GET", "/v1/jobs/j-000001", "status", "j-000001"},
		{"GET", "/v1/jobs/r-000002/result", "result", "r-000002"},
		{"DELETE", "/v1/jobs/j-000003", "cancel", "j-000003"},
		{"GET", "/healthz", "health", ""},
	} {
		if op, id := apiOp(tc.method, tc.path); op != tc.op || id != tc.id {
			t.Errorf("apiOp(%s %s) = %s %s, want %s %s", tc.method, tc.path, op, id, tc.op, tc.id)
		}
	}
}
