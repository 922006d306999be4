// Command e2ebench is the repository's end-to-end benchmark. It runs
// one named workload for a fixed time, checks every output, and prints
// a report followed by one JSON line of metrics:
//
//	bash e2ebench/run.sh --workload serve-small --seed 1 --seconds 30 --trace 0
//
// Workloads: serve-small and serve-amr drive an in-process rmcrtrouter
// in front of two rmcrtd shards over loopback HTTP; amr-timestep runs
// distributed 2-level radiation timesteps through the task scheduler.
// With --trace 0 the JSON holds the end-to-end metrics; with --trace 1
// the run measures half its time untraced and half traced, and the JSON
// holds the per-layer metrics. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// metric is one reported value with its unit, the number of samples
// behind it and an optional note (the tail percentile, or why a layer
// did no work).
type metric struct {
	Value float64
	Unit  string
	N     int
	Note  string
}

// result is what one run reports.
type result struct {
	attempted int
	failed    int
	wrong     int
	metrics   map[string]metric
	report    []string
}

func newResult() *result { return &result{metrics: map[string]metric{}} }

func (r *result) set(name string, v float64, unit string, n int, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v, note = 0, strings.TrimPrefix(note+"; no samples", "; ")
	}
	r.metrics[name] = metric{Value: v, Unit: unit, N: n, Note: note}
}

func (r *result) printf(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

// Metric names, in the order BENCHMARK.json lists them.
var (
	endToEndNames = []string{"latency_p50_ms", "latency_tail_ms", "throughput_mcellrays_s", "setup_s", "peak_rss_mb"}
	perLayerNames = []string{
		"cluster.submit_ms.p50", "cluster.dispatch_wait_ms.p50", "cluster.place_ms.p50",
		"cluster.notice_lag_ms.p50", "cluster.polls_per_job", "cluster.poll_useful_ratio",
		"cluster.fetch_ms.p50", "cluster.result_ms.p50", "cluster.reroutes", "cluster.affinity_hit_ratio",
		"cluster.self_ms", "cluster.wait_ms",
		"resilience.breaker_opens",
		"service.submit_ms.p50", "service.queue_wait_ms.p50", "service.queue_wait_ms.tail",
		"service.result_encode_ms.p50", "service.result_bytes.p50", "service.result_cache_hit_ratio",
		"service.coalesced_ratio", "service.packed_hit_ratio", "service.rejected",
		"service.self_ms", "service.wait_ms",
		"rmcrt.solve_ms.p50", "rmcrt.ns_per_step.gray", "rmcrt.ns_per_step.scatter",
		"rmcrt.ns_per_step.spectral", "rmcrt.ns_per_step.adaptive", "rmcrt.steps", "rmcrt.steps_per_ray",
		"rmcrt.rays_saved_ratio", "rmcrt.bytes_per_step_computed", "rmcrt.self_ms",
		"rmcrt.serial_step_ms",
		"sched.raytrace_share", "sched.nonkernel_task_ms", "sched.worker_idle_share", "sched.parallel_eff",
		"commpool.comm_ms_per_step", "simmpi.msgs_per_step", "simmpi.bytes_per_step",
		"gpu.peak_mem_mb", "gpu.makespan_s_simulated", "gpudw.saved_mb",
		"loadgen.lag_p99_ms", "loadgen.polls_per_job", "loadgen.decode_ms.p50",
		"loadgen.self_ms", "loadgen.wait_ms",
		"trace.reconciled_ratio", "trace_overhead_ratio",
	}
)

var workloads = []string{"serve-small", "serve-amr", "amr-timestep"}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 30, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	spansDir := fs.String("spans-dir", ".bench_build/spans", "where a traced run writes its spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	traced := *trace == 1
	var (
		res *result
		err error
	)
	switch *workload {
	case "serve-small", "serve-amr":
		res, err = runServe(*workload, *seed, *seconds, traced, *spansDir)
	case "amr-timestep":
		res, err = runTimestep(*seed, *seconds, traced)
	default:
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloads, ", "))
		return 2
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", *workload, err)
		return 1
	}
	if res.metrics["loadgen.lag_p99_ms"].Value > lagLimitMs {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: INVALID run: generator lag p99 %.1f ms exceeds the %.0f ms limit; not scored\n",
			*workload, res.metrics["loadgen.lag_p99_ms"].Value, lagLimitMs)
		return 3
	}
	rss := peakRSSMB()
	res.set("peak_rss_mb", rss, "MB", 1, "VmHWM of the benchmark process")

	names := endToEndNames
	if traced {
		names = perLayerNames
	}
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	stamp := envStamp(*workload, *seed, *seconds, traced, res.attempted)
	fmt.Fprintf(out, "# env %s\n", stamp)
	for _, line := range res.report {
		fmt.Fprintln(out, line)
	}
	printMetrics(out, res, names)
	fmt.Fprintf(out, "fail_ratio = %.4f (%d of %d attempted failed; %d wrong results)\n",
		ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted, res.wrong)

	correct := res.wrong == 0
	ms := map[string]any{}
	for _, name := range names {
		m, ok := res.metrics[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "e2ebench: internal error: metric %s not computed\n", name)
			return 1
		}
		ms[name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": res.attempted, "failed": res.failed, "metrics": ms,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Fprintln(out, string(line))
	if !correct {
		out.Flush()
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %d wrong results\n", *workload, res.wrong)
		return 1
	}
	return 0
}

// printMetrics prints each metric by name with its unit, sample count
// and note.
func printMetrics(w *bufio.Writer, res *result, names []string) {
	fmt.Fprintf(w, "%-32s %14s %-10s %6s  %s\n", "metric", "value", "unit", "n", "note")
	for _, name := range names {
		m := res.metrics[name]
		fmt.Fprintf(w, "%-32s %14.4f %-10s %6d  %s\n", name, m.Value, m.Unit, m.N, m.Note)
	}
	// What the run measured beyond the JSON set follows: step_p50_ms,
	// and on untraced runs the load generator's validity checks.
	var extra []string
	for name := range res.metrics {
		if !contains(names, name) {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	fmt.Fprintln(w, "also measured:")
	for _, name := range extra {
		m := res.metrics[name]
		fmt.Fprintf(w, "%-32s %14.4f %-10s %6d  %s\n", name, m.Value, m.Unit, m.N, m.Note)
	}
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// layerAbsent fills every named metric the workload did not measure
// with zero and the reason.
func (r *result) layerAbsent(note string, names ...string) {
	for _, n := range names {
		if _, ok := r.metrics[n]; !ok {
			r.metrics[n] = metric{Unit: unitOf(n), Note: note}
		}
	}
}

// unitOf derives a per-layer metric's unit from its name.
func unitOf(name string) string {
	switch {
	case strings.Contains(name, "_ms"):
		return "ms"
	case strings.Contains(name, "ns_per_step"):
		return "ns"
	case strings.Contains(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "_s_simulated"):
		return "s"
	case strings.Contains(name, "bytes"):
		return "bytes"
	case strings.Contains(name, "ratio"), strings.Contains(name, "share"), strings.Contains(name, "_eff"):
		return "ratio"
	}
	return "count"
}
