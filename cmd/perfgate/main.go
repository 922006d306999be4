// Command perfgate is the repo's performance-regression gate: it runs
// the pinned benchmark set (the tracing-engine benchmarks in
// internal/rmcrt plus the service end-to-end and calibration benchmarks
// in the root package), and either records the results as a baseline
// (-update) or compares them against a checked-in baseline (-compare),
// exiting non-zero when a benchmark regresses beyond the tolerance
// band.
//
// Usage:
//
//	go run ./cmd/perfgate -update BENCH_rmcrt.json          # record baseline
//	go run ./cmd/perfgate -compare BENCH_rmcrt.json         # gate (CI)
//	go run ./cmd/perfgate -compare BENCH_rmcrt.json -short  # cheap PR gate
//
// Because absolute ns/op is host-dependent, every run also executes
// BenchmarkPerfCalibration — a fixed scalar workload — and time
// comparisons are normalized by the calibration ratio between the two
// hosts. Allocation counts are compared unnormalized (they are
// host-independent), and the baseline additionally carries ratio
// guards: host-independent invariants like "the tile engine is not
// slower than the frozen seed slab engine", evaluated within a single
// run so no calibration is needed at all.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// pinnedSets is the fixed benchmark matrix. Adding or renaming a
// benchmark here (or in the _test files) is a baseline-breaking change:
// regenerate BENCH_rmcrt.json in the same commit.
var pinnedSets = []benchSet{
	{
		Pkg:   "./internal/rmcrt/",
		Match: "^(BenchmarkSolveRegion|BenchmarkTraceRayPinned|BenchmarkMultiLevelWalk|BenchmarkCounterContention|BenchmarkPackedDDA|BenchmarkMarch|BenchmarkMarchExp|BenchmarkAdaptiveSolve)$",
	},
	{
		Pkg:   "./internal/service/",
		Match: "^BenchmarkPackedCacheAcquire$",
	},
	{
		Pkg:   ".",
		Match: "^(BenchmarkServiceSolveEndToEnd|BenchmarkPerfCalibration)$",
	},
}

// calibrationKey is the benchmark used to normalize host speed; the
// cpu=1 variant is always present because every sweep includes 1.
const calibrationKey = "rmcrt:BenchmarkPerfCalibration"

type benchSet struct {
	Pkg   string
	Match string
}

// Result is one benchmark measurement. Name is "<pkg base>:<bench name
// as printed by go test>", e.g. "rmcrt/internal/rmcrt:BenchmarkSolveRegion/engine=tile-4".
type Result struct {
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// RatioGuard is a host-independent invariant between two benchmarks of
// the same run: Num's ns/op divided by Den's ns/op must be at least
// Min. Guards whose endpoints are absent from a run (e.g. a -short
// sweep without cpu=16) are skipped.
type RatioGuard struct {
	Name string  `json:"name"`
	Num  string  `json:"num"`
	Den  string  `json:"den"`
	Min  float64 `json:"min"`
	Desc string  `json:"desc,omitempty"`
}

// Baseline is the checked-in BENCH_rmcrt.json.
type Baseline struct {
	GoVersion   string             `json:"go_version"`
	GOOS        string             `json:"goos"`
	GOARCH      string             `json:"goarch"`
	NumCPU      int                `json:"num_cpu"`
	CPUs        string             `json:"cpus"`
	Benchtime   string             `json:"benchtime"`
	Benchmarks  map[string]*Result `json:"benchmarks"`
	RatioGuards []RatioGuard       `json:"ratio_guards,omitempty"`
}

// defaultRatioGuards encode the tentpole's claims in host-independent
// form. The bounds are deliberately loose — they must hold on a loaded
// single-core CI runner, where there is no cross-core contention to
// eliminate and run-to-run noise is ±15%. On a real multi-core box the
// tile/slab ratio sits well above 1 (the slab engine serializes
// thin-in-X regions and its per-step atomics bounce a cache line
// between every worker); the guards only catch the tile engine becoming
// outright slower than the seed.
func defaultRatioGuards() []RatioGuard {
	return []RatioGuard{
		{
			Name: "tile_vs_slab_cpu1",
			Num:  "rmcrt/internal/rmcrt:BenchmarkSolveRegion/engine=slab",
			Den:  "rmcrt/internal/rmcrt:BenchmarkSolveRegion/engine=tile",
			Min:  0.80,
			Desc: "tile engine not materially slower than the frozen seed slab engine on one core",
		},
		{
			Name: "tile_vs_slab_cpu4",
			Num:  "rmcrt/internal/rmcrt:BenchmarkSolveRegion/engine=slab-4",
			Den:  "rmcrt/internal/rmcrt:BenchmarkSolveRegion/engine=tile-4",
			Min:  0.80,
			Desc: "tile engine not materially slower than the seed slab engine at GOMAXPROCS=4",
		},
		{
			Name: "contention_cpu4",
			Num:  "rmcrt/internal/rmcrt:BenchmarkCounterContention/atomicPerStep-4",
			Den:  "rmcrt/internal/rmcrt:BenchmarkCounterContention/perTileMerge-4",
			Min:  0.70,
			Desc: "per-worker counters not grossly slower than atomic-per-step under parallel load",
		},
		{
			Name: "packed_dda_cpu1",
			Num:  "rmcrt/internal/rmcrt:BenchmarkPackedDDA/layout=unpacked",
			Den:  "rmcrt/internal/rmcrt:BenchmarkPackedDDA/layout=packed",
			Min:  1.0,
			Desc: "packed stride-incremental march beats the frozen seed per-field march (measured ~1.5x)",
		},
		{
			Name: "packed_cache_hit_cpu1",
			Num:  "rmcrt/internal/service:BenchmarkPackedCacheAcquire/acquire=build",
			Den:  "rmcrt/internal/service:BenchmarkPackedCacheAcquire/acquire=hit",
			Min:  10,
			Desc: "a shared-cache hit is at least an order of magnitude cheaper than re-packing the level (measured ~100x)",
		},
		{
			Name: "exp_inline_cpu1",
			Num:  "rmcrt/internal/rmcrt:BenchmarkMarchExp/path=call",
			Den:  "rmcrt/internal/rmcrt:BenchmarkMarchExp/path=inline",
			Min:  0.6,
			Desc: "the step loops' inlined exp not grossly slower than the math.Exp call on the 4-band march (20 short-sweep ratios on a noisy 2-core host: 0.70-1.66, median 1.24)",
		},
	}
}

func main() {
	var (
		update    = flag.String("update", "", "run benchmarks and write the baseline to this file")
		compare   = flag.String("compare", "", "run benchmarks and compare against this baseline")
		short     = flag.Bool("short", false, "cheap mode: shorter benchtime, cpu sweep 1,4 only")
		tolerance = flag.Float64("tolerance", 0.30, "allowed fractional slowdown vs baseline after calibration")
		cpus      = flag.String("cpus", "", "GOMAXPROCS sweep (default 1,4,16; short mode 1,4)")
		benchtime = flag.String("benchtime", "", "per-benchmark time (default 1s; short mode 0.3s)")
		count     = flag.Int("count", 1, "benchmark repetitions; the fastest sample is kept (use >1 when recording a baseline on a noisy host)")
		verbose   = flag.Bool("v", false, "print every benchmark line as it is parsed")
		pprofdir  = flag.String("pprofdir", "", "write per-package cpu/mem profiles and test binaries into this directory")
		summary   = flag.Bool("summary", false, "with -compare: print a benchstat-style before/after table")
		calibrate = flag.String("calibrate", "", "run the observe-predict-calibrate loop and write calibration+report JSON to this file")
		calReps   = flag.Int("calibrate-repeats", 2, "with -calibrate: solves per config, fastest kept")
	)
	flag.Parse()
	if *calibrate != "" {
		if *update != "" || *compare != "" {
			fmt.Fprintln(os.Stderr, "perfgate: -calibrate excludes -update and -compare")
			os.Exit(2)
		}
		if err := runCalibrate(*calibrate, *calReps, *verbose); err != nil {
			fmt.Fprintf(os.Stderr, "perfgate: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if (*update == "") == (*compare == "") {
		fmt.Fprintln(os.Stderr, "perfgate: exactly one of -update, -compare or -calibrate is required")
		flag.Usage()
		os.Exit(2)
	}
	sweep := *cpus
	bt := *benchtime
	if sweep == "" {
		if *short {
			sweep = "1,4"
		} else {
			sweep = "1,4,16"
		}
	}
	if bt == "" {
		if *short {
			bt = "0.3s"
		} else {
			bt = "1s"
		}
	}

	results, err := runPinned(sweep, bt, *count, *pprofdir, *verbose)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfgate: %v\n", err)
		os.Exit(1)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "perfgate: no benchmark results parsed")
		os.Exit(1)
	}

	if *update != "" {
		b := &Baseline{
			GoVersion:   runtime.Version(),
			GOOS:        runtime.GOOS,
			GOARCH:      runtime.GOARCH,
			NumCPU:      runtime.NumCPU(),
			CPUs:        sweep,
			Benchtime:   bt,
			Benchmarks:  results,
			RatioGuards: defaultRatioGuards(),
		}
		if err := writeBaseline(*update, b); err != nil {
			fmt.Fprintf(os.Stderr, "perfgate: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("perfgate: wrote %d benchmarks to %s\n", len(results), *update)
		return
	}

	base, err := readBaseline(*compare)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfgate: %v\n", err)
		os.Exit(1)
	}
	if *summary {
		printSummary(base, results)
	}
	problems := compareResults(base, results, *tolerance)
	problems = append(problems, checkRatioGuards(base.RatioGuards, results)...)
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "perfgate: %d regression(s) vs %s:\n", len(problems), *compare)
		for _, p := range problems {
			fmt.Fprintf(os.Stderr, "  FAIL %s\n", p)
		}
		os.Exit(1)
	}
	fmt.Printf("perfgate: OK — %d benchmarks within %.0f%% of %s (calibration-normalized), %d ratio guards hold\n",
		countCompared(base, results), *tolerance*100, *compare, len(base.RatioGuards))
}

// runPinned executes every pinned benchmark set and merges the parsed
// results. A non-empty pprofdir additionally captures a cpu and heap
// profile (and the test binary pprof needs to symbolize them) per
// package, for offline analysis of a gate failure.
func runPinned(cpus, benchtime string, count int, pprofdir string, verbose bool) (map[string]*Result, error) {
	if pprofdir != "" {
		if err := os.MkdirAll(pprofdir, 0o755); err != nil {
			return nil, err
		}
	}
	if count < 1 {
		count = 1
	}
	merged := make(map[string]*Result)
	for _, set := range pinnedSets {
		args := []string{
			"test", "-run", "^$",
			"-bench", set.Match,
			"-benchmem",
			"-benchtime", benchtime,
			"-count", fmt.Sprint(count),
			"-cpu", cpus,
		}
		if pprofdir != "" {
			name := profileName(set.Pkg)
			args = append(args,
				"-cpuprofile", name+".cpu.pprof",
				"-memprofile", name+".mem.pprof",
				"-outputdir", pprofdir,
				"-o", filepath.Join(pprofdir, name+".test"),
			)
		}
		args = append(args, set.Pkg)
		cmd := exec.Command("go", args...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, out)
		}
		res, err := parseBenchOutput(string(out))
		if err != nil {
			return nil, err
		}
		for k, v := range res {
			if verbose {
				fmt.Printf("  %s: %.0f ns/op\n", k, v.NsPerOp)
			}
			merged[k] = v
		}
	}
	return merged, nil
}

// profileName flattens a package path into a profile file stem:
// "./internal/rmcrt/" → "internal_rmcrt", "." → "root".
func profileName(pkg string) string {
	p := strings.Trim(strings.TrimPrefix(pkg, "./"), "/.")
	if p == "" {
		return "root"
	}
	return strings.ReplaceAll(p, "/", "_")
}

// printSummary emits a benchstat-style before/after table for every
// benchmark present in both the baseline and the current run. Current
// times are divided by the calibration scale so the delta column reads
// as a same-host change; the gate's pass/fail stays with
// compareResults.
func printSummary(base *Baseline, cur map[string]*Result) {
	scale := calibrationScale(base, cur)
	var names []string
	for name := range base.Benchmarks {
		if _, ok := cur[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Printf("perfgate summary vs baseline (calibration scale %.2f):\n", scale)
	fmt.Printf("  %-72s %12s %12s %8s %12s\n", "benchmark", "old ns/op", "new ns/op", "delta", "rays_saved%")
	for _, name := range names {
		b, c := base.Benchmarks[name], cur[name]
		norm := c.NsPerOp / scale
		delta := "~"
		if b.NsPerOp > 0 {
			delta = fmt.Sprintf("%+.1f%%", (norm-b.NsPerOp)/b.NsPerOp*100)
		}
		// Adaptive-budget benches report the fraction of the fixed ray
		// budget they did not trace; host-independent, so unnormalized.
		saved := "-"
		if v, ok := c.Metrics["rays_saved_pct"]; ok {
			saved = fmt.Sprintf("%.1f", v)
		}
		fmt.Printf("  %-72s %12.0f %12.0f %8s %12s\n", name, b.NsPerOp, norm, delta, saved)
	}
}

// parseBenchOutput parses `go test -bench` output into named results,
// tracking `pkg:` lines so benchmarks from different packages cannot
// collide. Names use the short module-relative package path.
func parseBenchOutput(out string) (map[string]*Result, error) {
	results := make(map[string]*Result)
	pkg := ""
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		if p, ok := strings.CutPrefix(line, "pkg:"); ok {
			p = strings.TrimSpace(p)
			// Shorten github.com/owner/module/sub → module/sub (the
			// module root shortens to its bare name).
			if parts := strings.SplitN(p, "/", 3); len(parts) == 3 {
				pkg = parts[2]
			} else {
				pkg = p
			}
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name  N  ns/op-value "ns/op"  [pairs...]
		if len(fields) < 4 || fields[3] != "ns/op" {
			continue
		}
		r := &Result{}
		if _, err := fmt.Sscanf(fields[2], "%g", &r.NsPerOp); err != nil {
			return nil, fmt.Errorf("bad ns/op in %q: %v", line, err)
		}
		for i := 4; i+1 < len(fields); i += 2 {
			var v float64
			if _, err := fmt.Sscanf(fields[i], "%g", &v); err != nil {
				continue
			}
			switch fields[i+1] {
			case "B/op":
				r.BytesPerOp = v
			case "allocs/op":
				r.AllocsPerOp = v
			default:
				if r.Metrics == nil {
					r.Metrics = make(map[string]float64)
				}
				r.Metrics[fields[i+1]] = v
			}
		}
		name := fields[0]
		if pkg != "" {
			name = pkg + ":" + name
		}
		// -count>1 repeats lines; keep the fastest (least noisy) sample.
		if prev, ok := results[name]; !ok || r.NsPerOp < prev.NsPerOp {
			results[name] = r
		}
	}
	return results, nil
}

// calibrationScale returns current-host-time / baseline-host-time from
// the shared calibration benchmark, or 1 if either side lacks it. The
// scale is clamped at 1: a slower host widens the band proportionally,
// but a faster (or momentarily less loaded) host never tightens it
// below the baseline — otherwise noise in the calibration itself would
// make the gate flaky.
func calibrationScale(base *Baseline, cur map[string]*Result) float64 {
	b, okB := lookupCalibration(base.Benchmarks)
	c, okC := lookupCalibration(cur)
	if !okB || !okC || b <= 0 || c <= 0 {
		return 1
	}
	if s := c / b; s > 1 {
		return s
	}
	return 1
}

func lookupCalibration(m map[string]*Result) (float64, bool) {
	// The cpu=1 variant carries no -N suffix; prefer it, but accept any
	// variant — a single-threaded scalar loop measures the same thing at
	// every GOMAXPROCS.
	if r, ok := m[calibrationKey]; ok {
		return r.NsPerOp, true
	}
	for name, r := range m {
		if strings.Contains(name, "BenchmarkPerfCalibration") {
			return r.NsPerOp, true
		}
	}
	return 0, false
}

// compareResults returns one problem string per benchmark that
// regressed beyond tolerance. Only benchmarks present on both sides are
// compared; the calibration benchmark itself is exempt (it defines the
// scale).
func compareResults(base *Baseline, cur map[string]*Result, tolerance float64) []string {
	scale := calibrationScale(base, cur)
	var problems []string
	for name, b := range base.Benchmarks {
		if strings.Contains(name, "BenchmarkPerfCalibration") {
			continue
		}
		c, ok := cur[name]
		if !ok {
			continue
		}
		allowed := b.NsPerOp * scale * (1 + tolerance)
		if c.NsPerOp > allowed {
			problems = append(problems, fmt.Sprintf(
				"%s: %.0f ns/op exceeds %.0f (baseline %.0f × calibration %.2f × band %.0f%%)",
				name, c.NsPerOp, allowed, b.NsPerOp, scale, tolerance*100))
		}
		// Allocations are host-independent: a material increase is a
		// regression regardless of CPU speed. The +16 absolute headroom
		// ignores noise in tiny counts.
		if c.AllocsPerOp > b.AllocsPerOp*1.25+16 {
			problems = append(problems, fmt.Sprintf(
				"%s: %.0f allocs/op vs baseline %.0f",
				name, c.AllocsPerOp, b.AllocsPerOp))
		}
	}
	return problems
}

// checkRatioGuards evaluates the host-independent invariants within the
// current run.
func checkRatioGuards(guards []RatioGuard, cur map[string]*Result) []string {
	var problems []string
	for _, g := range guards {
		num, okN := cur[g.Num]
		den, okD := cur[g.Den]
		if !okN || !okD || den.NsPerOp <= 0 {
			continue // sweep did not produce both endpoints
		}
		if ratio := num.NsPerOp / den.NsPerOp; ratio < g.Min {
			problems = append(problems, fmt.Sprintf(
				"ratio guard %s: %s/%s = %.3f < %.3f (%s)",
				g.Name, g.Num, g.Den, ratio, g.Min, g.Desc))
		}
	}
	return problems
}

func countCompared(base *Baseline, cur map[string]*Result) int {
	n := 0
	for name := range base.Benchmarks {
		if _, ok := cur[name]; ok {
			n++
		}
	}
	return n
}

func writeBaseline(path string, b *Baseline) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if len(b.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: baseline has no benchmarks", path)
	}
	return &b, nil
}
