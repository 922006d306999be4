package main

import (
	"fmt"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: github.com/uintah-repro/rmcrt/internal/rmcrt
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSolveRegion           	       1	 281778754 ns/op	         1.700 ratio	         1.650 ratio_q1	         1.760 ratio_q3	  685121 B/op	      37 allocs/op
BenchmarkSolveRegion-4         	       1	 281417692 ns/op	         1.800 ratio	         1.700 ratio_q1	         1.900 ratio_q3	  684596 B/op	      36 allocs/op
BenchmarkCounterContention-4   	     620	    606122 ns/op	         2.823 ratio	         2.497 ratio_q1	         3.528 ratio_q3	    1881 B/op	      20 allocs/op
BenchmarkAdaptiveSolve         	       1	 127399116 ns/op	        11.30 ratio	        10.78 ratio_q1	        12.48 ratio_q3	        91.92 rays_saved_pct	   82268 B/op	      44 allocs/op
PASS
ok  	github.com/uintah-repro/rmcrt/internal/rmcrt	49.210s
pkg: github.com/uintah-repro/rmcrt
BenchmarkServiceSolveEndToEnd  	      52	   6436264 ns/op	         0.9918 ratio	         0.9830 ratio_q1	         1.000 ratio_q3	  174204 B/op	      93 allocs/op
PASS
`

func parseSample(t *testing.T) map[string]*Result {
	t.Helper()
	res, err := parseBenchOutput(sampleOutput)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestParseBenchOutput(t *testing.T) {
	res := parseSample(t)
	tile, ok := res["rmcrt/internal/rmcrt:BenchmarkSolveRegion"]
	if !ok {
		t.Fatalf("SolveRegion missing; have %v", keys(res))
	}
	if m := tile.Metrics; m["ratio"] != 1.7 || m["ratio_q1"] != 1.65 || m["ratio_q3"] != 1.76 {
		t.Errorf("SolveRegion ratio metrics = %v", m)
	}
	if tile.AllocsPerOp != 37 || tile.BytesPerOp != 685121 {
		t.Errorf("SolveRegion mem = %g B/op, %g allocs/op", tile.BytesPerOp, tile.AllocsPerOp)
	}
	if got := res["rmcrt/internal/rmcrt:BenchmarkAdaptiveSolve"].Metrics["rays_saved_pct"]; got != 91.92 {
		t.Errorf("rays_saved_pct = %g", got)
	}
	if _, ok := res["rmcrt:BenchmarkServiceSolveEndToEnd"]; !ok {
		t.Errorf("end-to-end benchmark not namespaced to root pkg; have %v", keys(res))
	}
	if len(res) != 5 {
		t.Errorf("parsed %d results, want 5: %v", len(res), keys(res))
	}
}

func baselineFromSample(t *testing.T) *Baseline {
	return &Baseline{Benchmarks: parseSample(t)}
}

// withRatio replaces m[name] with a copy whose median ratio is r.
func withRatio(m map[string]*Result, name string, r float64) {
	mod := *m[name]
	mod.Metrics = map[string]float64{"ratio": r}
	m[name] = &mod
}

func TestCompareIdenticalRunPasses(t *testing.T) {
	if problems := compareResults(baselineFromSample(t), parseSample(t)); len(problems) != 0 {
		t.Errorf("identical run flagged: %v", problems)
	}
}

// TestCompareFailsOnSyntheticSlowdown is the gate's own acceptance
// test: a synthetic 2× slowdown of the tile engine halves its paired
// ratio against the seed engine, and that must trip the comparison on
// every SolveRegion row. (The live equivalent — a slowdown injected
// into the program side of every pair — is checked against the short
// gate when the gate changes; this test keeps the property checked
// forever.)
func TestCompareFailsOnSyntheticSlowdown(t *testing.T) {
	base := baselineFromSample(t)
	cur := parseSample(t)
	for name, r := range cur {
		if strings.Contains(name, "SolveRegion") {
			withRatio(cur, name, r.Metrics["ratio"]/2)
		}
	}
	problems := compareResults(base, cur)
	if len(problems) != 2 {
		t.Fatalf("2x slowdown produced %d problems, want 2 (every SolveRegion variant): %v",
			len(problems), problems)
	}
	for _, p := range problems {
		if !strings.Contains(p, "below recorded") {
			t.Errorf("problem %q is not the band check", p)
		}
	}
}

func TestCompareFlagsAllocRegression(t *testing.T) {
	base := baselineFromSample(t)
	cur := parseSample(t)
	name := "rmcrt:BenchmarkServiceSolveEndToEnd"
	mod := *cur[name]
	mod.AllocsPerOp = mod.AllocsPerOp*2 + 100
	cur[name] = &mod
	problems := compareResults(base, cur)
	if len(problems) != 1 || !strings.Contains(problems[0], "allocs/op") {
		t.Errorf("alloc regression not flagged: %v", problems)
	}
}

// The claim floor holds on its own: a tile engine slower than the seed
// engine fails even when its recorded ratio was as low, at every cpu
// count.
func TestRatioGuardTripsWhenTileSlower(t *testing.T) {
	for _, name := range []string{
		"rmcrt/internal/rmcrt:BenchmarkSolveRegion",
		"rmcrt/internal/rmcrt:BenchmarkSolveRegion-4",
	} {
		base := baselineFromSample(t)
		cur := parseSample(t)
		withRatio(base.Benchmarks, name, 0.75)
		withRatio(cur, name, 0.7)
		problems := compareResults(base, cur)
		if len(problems) != 1 || !strings.Contains(problems[0], "claim floor") {
			t.Errorf("%s: claim floor did not trip alone: %v", name, problems)
		}
	}
}

// A baseline row the run did not produce is skipped: a -short sweep
// runs no cpu=16 rows.
func TestRatioGuardSkipsMissingEndpoints(t *testing.T) {
	base := baselineFromSample(t)
	base.Benchmarks["rmcrt/internal/rmcrt:BenchmarkSolveRegion-16"] = &Result{Metrics: map[string]float64{"ratio": 1.9}}
	if problems := compareResults(base, parseSample(t)); len(problems) != 0 {
		t.Errorf("baseline row absent from the run should be skipped: %v", problems)
	}
}

// A pinned benchmark that ran but has no recorded entry fails: it
// would otherwise run ungated. A benchmark that reports no ratio fails
// too.
func TestCompareFailsOnMissingBaselineRow(t *testing.T) {
	base := baselineFromSample(t)
	delete(base.Benchmarks, "rmcrt/internal/rmcrt:BenchmarkCounterContention-4")
	problems := compareResults(base, parseSample(t))
	if len(problems) != 1 || !strings.Contains(problems[0], "BenchmarkCounterContention-4: no recorded entry") {
		t.Errorf("missing baseline row not flagged: %v", problems)
	}

	cur := parseSample(t)
	cur["rmcrt/internal/rmcrt:BenchmarkMarch"] = &Result{}
	problems = compareResults(baselineFromSample(t), cur)
	if len(problems) != 1 || !strings.Contains(problems[0], "reports no paired ratio") {
		t.Errorf("ratio-less result not flagged: %v", problems)
	}
}

func keys(m map[string]*Result) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// The MarchExp floor passes while the inlined exp is faster than the
// call it replaced or only somewhat slower, and trips once it is
// grossly slower.
func TestExpInlineGuard(t *testing.T) {
	const name = "rmcrt/internal/rmcrt:BenchmarkMarchExp"
	base := &Baseline{Benchmarks: map[string]*Result{name: {Metrics: map[string]float64{"ratio": 0.6}}}}
	for _, c := range []struct {
		ratio float64
		trips bool
	}{{1.2, false}, {0.75, false}, {0.5, true}} {
		cur, err := parseBenchOutput(fmt.Sprintf("pkg: github.com/uintah-repro/rmcrt/internal/rmcrt\n"+
			"BenchmarkMarchExp \t 1\t 400000000 ns/op\t %g ratio\n", c.ratio))
		if err != nil {
			t.Fatal(err)
		}
		problems := compareResults(base, cur)
		if tripped := len(problems) == 1 && strings.Contains(problems[0], "claim floor 0.6"); tripped != c.trips || len(problems) > 1 {
			t.Errorf("ratio %g: problems %v, want tripped=%v", c.ratio, problems, c.trips)
		}
	}
}
