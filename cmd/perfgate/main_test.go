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
BenchmarkSolveRegion/engine=tile         	       8	 128699241 ns/op	        22.36 Msteps/s	  262444 B/op	       6 allocs/op
BenchmarkSolveRegion/engine=tile-4       	       8	 130545908 ns/op	        22.04 Msteps/s	  265296 B/op	      16 allocs/op
BenchmarkSolveRegion/engine=slab         	       8	 134358258 ns/op	        21.42 Msteps/s	  262412 B/op	       6 allocs/op
BenchmarkSolveRegion/engine=slab-4       	       8	 138521741 ns/op	        20.77 Msteps/s	  263984 B/op	      21 allocs/op
BenchmarkCounterContention/atomicPerStep-4 	  720649	      1645 ns/op
BenchmarkCounterContention/perTileMerge-4  	  795589	      1570 ns/op
PASS
ok  	github.com/uintah-repro/rmcrt/internal/rmcrt	49.210s
pkg: github.com/uintah-repro/rmcrt
BenchmarkPerfCalibration                 	  100000	     10000 ns/op
BenchmarkServiceSolveEndToEnd            	     100	  10200000 ns/op	  500000 B/op	    4000 allocs/op
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
	tile, ok := res["rmcrt/internal/rmcrt:BenchmarkSolveRegion/engine=tile"]
	if !ok {
		t.Fatalf("tile benchmark missing; have %v", keys(res))
	}
	if tile.NsPerOp != 128699241 {
		t.Errorf("tile ns/op = %g", tile.NsPerOp)
	}
	if tile.AllocsPerOp != 6 || tile.BytesPerOp != 262444 {
		t.Errorf("tile mem = %g B/op, %g allocs/op", tile.BytesPerOp, tile.AllocsPerOp)
	}
	if got := tile.Metrics["Msteps/s"]; got != 22.36 {
		t.Errorf("tile Msteps/s = %g", got)
	}
	if _, ok := res["rmcrt:BenchmarkPerfCalibration"]; !ok {
		t.Errorf("calibration benchmark not namespaced to root pkg; have %v", keys(res))
	}
	if len(res) != 8 {
		t.Errorf("parsed %d results, want 8: %v", len(res), keys(res))
	}
}

func TestParseKeepsFastestOfRepeats(t *testing.T) {
	out := `pkg: github.com/uintah-repro/rmcrt
BenchmarkPerfCalibration 	 100	 12000 ns/op
BenchmarkPerfCalibration 	 100	 10000 ns/op
BenchmarkPerfCalibration 	 100	 11000 ns/op
`
	res, err := parseBenchOutput(out)
	if err != nil {
		t.Fatal(err)
	}
	if got := res["rmcrt:BenchmarkPerfCalibration"].NsPerOp; got != 10000 {
		t.Errorf("kept %g ns/op, want the fastest 10000", got)
	}
}

func baselineFromSample(t *testing.T) *Baseline {
	return &Baseline{
		Benchmarks:  parseSample(t),
		RatioGuards: defaultRatioGuards(),
	}
}

func TestCompareIdenticalRunPasses(t *testing.T) {
	base := baselineFromSample(t)
	cur := parseSample(t)
	if problems := compareResults(base, cur, 0.25); len(problems) != 0 {
		t.Errorf("identical run flagged: %v", problems)
	}
	if problems := checkRatioGuards(base.RatioGuards, cur); len(problems) != 0 {
		t.Errorf("ratio guards failed on sample data: %v", problems)
	}
}

// TestCompareFailsOnSyntheticSlowdown is the gate's own acceptance
// test: a synthetic 2× slowdown of the tracing benchmarks must trip the
// comparison at the CI tolerance. (The live equivalent — a time.Sleep
// injected into the solve loop — was verified once while landing the
// gate and then removed; this test keeps the property checked forever.)
func TestCompareFailsOnSyntheticSlowdown(t *testing.T) {
	base := baselineFromSample(t)
	cur := parseSample(t)
	for name, r := range cur {
		if strings.Contains(name, "SolveRegion") {
			slowed := *r
			slowed.NsPerOp *= 2
			cur[name] = &slowed
		}
	}
	problems := compareResults(base, cur, 0.30)
	if len(problems) != 4 {
		t.Fatalf("2x slowdown produced %d problems, want 4 (every SolveRegion variant): %v",
			len(problems), problems)
	}
}

// TestCompareNormalizesByCalibration: the same 2× slowdown is NOT a
// regression when the calibration benchmark slowed 2× as well — that is
// a slower host, not slower code.
func TestCompareNormalizesByCalibration(t *testing.T) {
	base := baselineFromSample(t)
	cur := parseSample(t)
	for name, r := range cur {
		slowed := *r
		slowed.NsPerOp *= 2
		cur[name] = &slowed
	}
	if problems := compareResults(base, cur, 0.30); len(problems) != 0 {
		t.Errorf("uniformly slower host flagged as regression: %v", problems)
	}
}

// TestFasterCalibrationDoesNotTighten: a quieter host (calibration runs
// faster than baseline) must not shrink the band below the baseline —
// the clamp that keeps calibration noise from making the gate flaky.
func TestFasterCalibrationDoesNotTighten(t *testing.T) {
	base := baselineFromSample(t)
	cur := parseSample(t)
	cal := *cur["rmcrt:BenchmarkPerfCalibration"]
	cal.NsPerOp /= 2
	cur["rmcrt:BenchmarkPerfCalibration"] = &cal
	if problems := compareResults(base, cur, 0.30); len(problems) != 0 {
		t.Errorf("faster calibration tightened the gate: %v", problems)
	}
}

func TestCompareFlagsAllocRegression(t *testing.T) {
	base := baselineFromSample(t)
	cur := parseSample(t)
	name := "rmcrt:BenchmarkServiceSolveEndToEnd"
	mod := *cur[name]
	mod.AllocsPerOp = mod.AllocsPerOp*2 + 100
	cur[name] = &mod
	problems := compareResults(base, cur, 0.30)
	if len(problems) != 1 || !strings.Contains(problems[0], "allocs/op") {
		t.Errorf("alloc regression not flagged: %v", problems)
	}
}

func TestRatioGuardTripsWhenTileSlower(t *testing.T) {
	base := baselineFromSample(t)
	cur := parseSample(t)
	name := "rmcrt/internal/rmcrt:BenchmarkSolveRegion/engine=tile"
	mod := *cur[name]
	mod.NsPerOp *= 3 // tile 3× slower than slab → ratio 0.35 < 0.85
	cur[name] = &mod
	problems := checkRatioGuards(base.RatioGuards, cur)
	if len(problems) != 1 || !strings.Contains(problems[0], "tile_vs_slab_cpu1") {
		t.Errorf("ratio guard did not trip: %v", problems)
	}
}

func TestRatioGuardSkipsMissingEndpoints(t *testing.T) {
	guards := []RatioGuard{{Name: "missing", Num: "nope", Den: "also-nope", Min: 1}}
	if problems := checkRatioGuards(guards, parseSample(t)); len(problems) != 0 {
		t.Errorf("guard with missing endpoints should be skipped: %v", problems)
	}
}

func keys(m map[string]*Result) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// The exp_inline_cpu1 guard passes while the inlined exp is faster than
// the call it replaced and trips once it is grossly slower.
func TestExpInlineGuard(t *testing.T) {
	out := func(inline, call int) string {
		return fmt.Sprintf("pkg: github.com/uintah-repro/rmcrt/internal/rmcrt\n"+
			"BenchmarkMarchExp/path=inline \t 2\t %d ns/op\n"+
			"BenchmarkMarchExp/path=call   \t 2\t %d ns/op\n", inline, call)
	}
	for _, c := range []struct {
		inline, call int
		trips        bool
	}{{300, 360, false}, {400, 300, false}, {600, 300, true}} {
		cur, err := parseBenchOutput(out(c.inline, c.call))
		if err != nil {
			t.Fatal(err)
		}
		problems := checkRatioGuards(defaultRatioGuards(), cur)
		if tripped := len(problems) == 1 && strings.Contains(problems[0], "exp_inline_cpu1"); tripped != c.trips || len(problems) > 1 {
			t.Errorf("inline %d, call %d ns/op: problems %v, want tripped=%v", c.inline, c.call, problems, c.trips)
		}
	}
}
