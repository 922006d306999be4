// Command perfgate is the repo's performance-regression gate. It runs
// the pinned benchmark set — the tracing-engine benchmarks in
// internal/rmcrt, the packed-cache benchmark in internal/service and
// the service end-to-end benchmark in the root package — and either
// records the results as a baseline (-update) or compares them against
// a checked-in baseline (-compare), exiting non-zero on a regression.
//
// Usage:
//
//	go run ./cmd/perfgate -update BENCH_rmcrt.json          # record baseline
//	go run ./cmd/perfgate -compare BENCH_rmcrt.json         # gate (CI)
//	go run ./cmd/perfgate -compare BENCH_rmcrt.json -short  # cheap PR gate
//
// perfgate holds no absolute time. Each pinned benchmark alternates its
// program path with a partner path in the same binary, one op each
// (internal/benchpair), and reports the median of the per-pair ratios
// partner/program; host speed and load hit both sides of a pair alike
// and cancel out of it. -compare fails when a median falls more than
// band below its recorded value, when it falls below its claim floor,
// when a benchmark that ran has no recorded entry, or when its
// allocations grow.
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
		Pkg: "./internal/rmcrt/",
		Pairs: []pair{
			{"BenchmarkSolveRegion", 0.8, "tile engine not materially slower than the frozen seed slab engine"},
			{"BenchmarkTraceRayPinned", 0, "TraceRay against the frozen seed march of the same ray"},
			{"BenchmarkMultiLevelWalk", 0, "2-level TraceRay against the frozen seed march of the same ray"},
			{"BenchmarkCounterContention", 0.7, "per-walker counters not grossly slower than the seed's atomic per step under parallel load"},
			{"BenchmarkPackedDDA", 1.0, "packed stride-incremental march beats the frozen seed per-field march"},
			{"BenchmarkMarch", 0, "walker solve against the frozen seed engine at threshold 1e-6"},
			{"BenchmarkMarchExp", 0.6, "the step loops' inlined exp not grossly slower than the math.Exp call on the 4-band march"},
			{"BenchmarkAdaptiveSolve", 0, "adaptive ray budget against the fixed-budget solve"},
		},
	},
	{
		Pkg: "./internal/service/",
		Pairs: []pair{
			// The program op is 32 hits, so 10/32 is "a hit costs under a
			// tenth of a re-pack".
			{"BenchmarkPackedCacheAcquire", 10.0 / 32, "a shared-cache hit at least an order of magnitude cheaper than re-packing the level"},
		},
	},
	{
		Pkg: ".",
		Pairs: []pair{
			{"BenchmarkServiceSolveEndToEnd", 0, "Manager submit/wait against a bare Spec.Solve"},
		},
	},
}

// band is how far a median ratio may fall below its recorded value.
// A 1.5× slowdown of the program side divides the ratio by 1.5, to
// 0.67 of its recorded value; unchanged code read 0.82–1.31 of it over
// 20 short runs on an otherwise idle 2-core host (one further row fell
// to 0.53 while another process held a core). The bound sits between
// the two.
const band = 0.2

type benchSet struct {
	Pkg   string
	Pairs []pair
}

// pair is one pinned benchmark. Min is its claim floor: the median
// ratio partner/program must not fall below it on any host (0 for a
// pair that claims nothing beyond its recorded value).
type pair struct {
	Bench string
	Min   float64
	Desc  string
}

// Result is one benchmark measurement. Its key is "<pkg base>:<bench
// name as printed by go test>", e.g.
// "rmcrt/internal/rmcrt:BenchmarkSolveRegion-4". Metrics holds the
// pair's "ratio" (the median) with "ratio_q1" and "ratio_q3", and any
// other metric the benchmark reports; allocations are per pair.
type Result struct {
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Baseline is the checked-in BENCH_rmcrt.json.
type Baseline struct {
	GoVersion  string             `json:"go_version"`
	GOOS       string             `json:"goos"`
	GOARCH     string             `json:"goarch"`
	NumCPU     int                `json:"num_cpu"`
	CPUs       string             `json:"cpus"`
	Benchtime  string             `json:"benchtime"`
	Benchmarks map[string]*Result `json:"benchmarks"`
}

func main() {
	var (
		update    = flag.String("update", "", "run benchmarks and write the baseline to this file")
		compare   = flag.String("compare", "", "run benchmarks and compare against this baseline")
		short     = flag.Bool("short", false, "cheap mode: shorter benchtime, cpu sweep 1,4 only")
		cpus      = flag.String("cpus", "", "GOMAXPROCS sweep (default 1,4,16; short mode 1,4)")
		benchtime = flag.String("benchtime", "", "per-benchmark time (default 1s; short mode 0.3s)")
		verbose   = flag.Bool("v", false, "print every benchmark line as it is parsed")
		pprofdir  = flag.String("pprofdir", "", "write per-package cpu/mem profiles and test binaries into this directory")
		summary   = flag.Bool("summary", false, "with -compare: print each pair's median ratio, quartiles, recorded value and verdict")
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

	results, err := runPinned(sweep, bt, *pprofdir, *verbose)
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
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			NumCPU:     runtime.NumCPU(),
			CPUs:       sweep,
			Benchtime:  bt,
			Benchmarks: results,
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
	if problems := compareResults(base, results); len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "perfgate: %d regression(s) vs %s:\n", len(problems), *compare)
		for _, p := range problems {
			fmt.Fprintf(os.Stderr, "  FAIL %s\n", p)
		}
		os.Exit(1)
	}
	fmt.Printf("perfgate: OK — %d paired ratios within %.0f%% of %s and above their claim floors\n",
		len(results), band*100, *compare)
}

// runPinned executes every pinned benchmark set and merges the parsed
// results. Each GOMAXPROCS of the sweep runs in its own go test
// process: a benchmark's first, sizing run happens at the GOMAXPROCS
// the testing package set last, and the heap it leaves behind moves the
// next ratios (the packed-cache pair read ~40 at cpu=1 alone and ~62
// after a cpu=16 sizing run), so in one process a row would depend on
// which counts the sweep has. A non-empty pprofdir additionally
// captures a cpu and heap profile (and the test binary pprof needs to
// symbolize them) per package and GOMAXPROCS, for offline analysis of
// a gate failure.
func runPinned(cpus, benchtime, pprofdir string, verbose bool) (map[string]*Result, error) {
	if pprofdir != "" {
		if err := os.MkdirAll(pprofdir, 0o755); err != nil {
			return nil, err
		}
	}
	merged := make(map[string]*Result)
	for _, set := range pinnedSets {
		names := make([]string, len(set.Pairs))
		for i, p := range set.Pairs {
			names[i] = p.Bench
		}
		for _, cpu := range strings.Split(cpus, ",") {
			args := []string{
				"test", "-run", "^$",
				"-bench", "^(" + strings.Join(names, "|") + ")$",
				"-benchmem",
				"-benchtime", benchtime,
				"-cpu", cpu,
			}
			if pprofdir != "" {
				name := profileName(set.Pkg) + "-cpu" + cpu
				args = append(args,
					"-cpuprofile", name+".cpu.pprof",
					"-memprofile", name+".mem.pprof",
					"-outputdir", pprofdir,
					"-o", filepath.Join(pprofdir, name+".test"),
				)
			}
			args = append(args, set.Pkg)
			out, err := exec.Command("go", args...).CombinedOutput()
			if err != nil {
				return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, out)
			}
			res, err := parseBenchOutput(string(out))
			if err != nil {
				return nil, err
			}
			for k, v := range res {
				if verbose {
					fmt.Printf("  %s: ratio %.3g\n", k, v.Metrics["ratio"])
				}
				merged[k] = v
			}
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

// parseBenchOutput parses `go test -bench` output into named results,
// tracking `pkg:` lines so benchmarks from different packages cannot
// collide. Names use the short module-relative package path. The ns/op
// column is not kept: a pair's time is host-dependent, its ratio is
// not.
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
		results[name] = r
	}
	return results, nil
}

// claimOf returns the pinned pair a result key names, stripping the
// package prefix and the "-N" GOMAXPROCS suffix go test appends.
func claimOf(key string) (pair, bool) {
	_, bench, _ := strings.Cut(key, ":")
	if i := strings.LastIndexByte(bench, '-'); i >= 0 && strings.Trim(bench[i+1:], "0123456789") == "" {
		bench = bench[:i]
	}
	for _, set := range pinnedSets {
		for _, p := range set.Pairs {
			if p.Bench == bench {
				return p, true
			}
		}
	}
	return pair{}, false
}

// check returns the problems with one result of the current run. A
// baseline row the run did not produce (a -short sweep has no cpu=16)
// is never looked at; a result with no baseline row fails, so a pinned
// benchmark cannot run ungated.
func check(base *Baseline, name string, c *Result) []string {
	ratio, ok := c.Metrics["ratio"]
	if !ok {
		return []string{fmt.Sprintf("%s: reports no paired ratio", name)}
	}
	var problems []string
	if p, ok := claimOf(name); ok && ratio < p.Min {
		problems = append(problems, fmt.Sprintf(
			"%s: median ratio %.3f below its claim floor %.3g (%s)", name, ratio, p.Min, p.Desc))
	}
	b, ok := base.Benchmarks[name]
	if !ok {
		return append(problems, fmt.Sprintf(
			"%s: no recorded entry in the baseline (re-record it with -update)", name))
	}
	if rec := b.Metrics["ratio"]; ratio < rec*(1-band) {
		problems = append(problems, fmt.Sprintf(
			"%s: median ratio %.3f below recorded %.3f by more than %.0f%%", name, ratio, rec, band*100))
	}
	// Allocations are host-independent: a material increase is a
	// regression regardless of CPU speed. The +16 absolute headroom
	// ignores noise in tiny counts.
	if c.AllocsPerOp > b.AllocsPerOp*1.25+16 {
		problems = append(problems, fmt.Sprintf(
			"%s: %.0f allocs/op vs baseline %.0f", name, c.AllocsPerOp, b.AllocsPerOp))
	}
	return problems
}

// compareResults returns every problem with the current run, in name
// order.
func compareResults(base *Baseline, cur map[string]*Result) []string {
	var problems []string
	for _, name := range sortedNames(cur) {
		problems = append(problems, check(base, name, cur[name])...)
	}
	return problems
}

// printSummary prints, for each pair of the current run, its median
// ratio with quartiles, the recorded median and the verdict.
func printSummary(base *Baseline, cur map[string]*Result) {
	fmt.Printf("perfgate summary (ratio = partner/program time, median of per-pair ratios; fails below recorded × %.2f or below its floor):\n", 1-band)
	fmt.Printf("  %-60s %8s %17s %9s %6s  %s\n", "benchmark", "ratio", "quartiles", "recorded", "floor", "verdict")
	for _, name := range sortedNames(cur) {
		m := cur[name].Metrics
		rec := "-"
		if b, ok := base.Benchmarks[name]; ok {
			rec = fmt.Sprintf("%.3f", b.Metrics["ratio"])
		}
		p, _ := claimOf(name)
		verdict := "ok"
		if len(check(base, name, cur[name])) > 0 {
			verdict = "FAIL"
		}
		fmt.Printf("  %-60s %8.3f %8.3f–%-8.3f %9s %6.3g  %s\n",
			name, m["ratio"], m["ratio_q1"], m["ratio_q3"], rec, p.Min, verdict)
	}
}

func sortedNames(m map[string]*Result) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
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
