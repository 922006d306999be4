// Command capacity is the planner that answers the paper's scaling
// question as a product question: what fleet serves this workload at
// this SLO? It sweeps fleet size × workload spec through a
// deterministic queueing simulation priced by the calibrated cost
// model (internal/calib) and reports per-class latency percentiles,
// fleet utilization, and the smallest fleet meeting every SLO target.
//
//	capacity -scenario smoke -slo interactive=0.5,batch=5
//	capacity -scenario overload -calibration cal.json -max-shards 32 -json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"github.com/uintah-repro/rmcrt/internal/calib"
	"github.com/uintah-repro/rmcrt/internal/service"
	"github.com/uintah-repro/rmcrt/internal/workload"
	"github.com/uintah-repro/rmcrt/internal/workload/scenarios"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "capacity:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("capacity", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		scenario  = fs.String("scenario", "", "named workload scenario (see -list)")
		specPath  = fs.String("spec", "", "workload spec JSON file (alternative to -scenario)")
		list      = fs.Bool("list", false, "list named scenarios and exit")
		seed      = fs.Uint64("seed", 7, "workload generation seed")
		calPath   = fs.String("calibration", "", "calibration JSON from perfgate -calibrate (default: uncalibrated model)")
		minShards = fs.Int("min-shards", 1, "smallest fleet to sweep")
		maxShards = fs.Int("max-shards", 8, "largest fleet to sweep")
		workers   = fs.Int("workers", 1, "solver workers per shard")
		sloFlag   = fs.String("slo", "", "per-class p95 targets in seconds, e.g. interactive=0.5,batch=5")
		jsonOut   = fs.Bool("json", false, "emit the full plan as JSON instead of the table")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, name := range scenarios.Names() {
			sc, _ := scenarios.Get(name)
			fmt.Fprintf(stdout, "%-18s %s\n", name, sc.Description)
		}
		return nil
	}

	var w workload.Spec
	switch {
	case *scenario != "" && *specPath != "":
		return fmt.Errorf("set -scenario or -spec, not both")
	case *scenario != "":
		sc, ok := scenarios.Get(*scenario)
		if !ok {
			return fmt.Errorf("unknown scenario %q (try -list)", *scenario)
		}
		w = sc.Spec
	case *specPath != "":
		b, err := os.ReadFile(*specPath)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &w); err != nil {
			return fmt.Errorf("%s: %w", *specPath, err)
		}
	default:
		return fmt.Errorf("need -scenario or -spec (or -list)")
	}

	cal := calib.Default()
	if *calPath != "" {
		var err error
		if cal, err = calib.Load(*calPath); err != nil {
			return err
		}
	}
	slo, err := parseSLO(*sloFlag)
	if err != nil {
		return err
	}

	res, err := Plan(PlanOptions{
		Workload: w, Seed: *seed,
		MinShards: *minShards, MaxShards: *maxShards,
		WorkersPerShard: *workers,
		SLO:             slo, Cal: cal,
	})
	if err != nil {
		return err
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	writeTable(stdout, res, slo)
	return nil
}

// parseSLO parses "class=seconds,class=seconds".
func parseSLO(s string) (map[string]float64, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]float64)
	for _, part := range strings.Split(s, ",") {
		class, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("bad -slo entry %q (want class=seconds)", part)
		}
		sec, err := strconv.ParseFloat(val, 64)
		if err != nil || sec <= 0 {
			return nil, fmt.Errorf("bad -slo target %q (want seconds > 0)", part)
		}
		out[class] = sec
	}
	return out, nil
}

// writeTable renders the plan deterministically: classes in rank
// order, fixed float widths, no wall-clock or host content.
func writeTable(w io.Writer, res *PlanResult, slo map[string]float64) {
	fmt.Fprintf(w, "workload %q seed %d: %d jobs, %.4fs predicted single-worker work\n",
		res.Workload, res.Seed, res.Jobs, res.PredictedWorkSeconds)
	if len(slo) > 0 {
		classes := make([]string, 0, len(slo))
		for c := range slo {
			classes = append(classes, c)
		}
		sort.Slice(classes, func(i, j int) bool { return service.ClassRank(classes[i]) < service.ClassRank(classes[j]) })
		parts := make([]string, 0, len(classes))
		for _, c := range classes {
			parts = append(parts, fmt.Sprintf("%s p95 <= %gs", c, slo[c]))
		}
		fmt.Fprintf(w, "SLO: %s\n", strings.Join(parts, ", "))
	}
	fmt.Fprintf(w, "%6s %7s %5s %10s  %-12s %5s %9s %9s %9s %9s %5s\n",
		"shards", "workers", "util", "makespan", "class", "jobs", "mean", "p50", "p95", "max", "slo")
	for _, pt := range res.Points {
		first := true
		for _, class := range service.Classes() {
			st, ok := pt.ByClass[class]
			if !ok {
				continue
			}
			lead := fmt.Sprintf("%6d %7d %5.2f %9.3fs", pt.Shards, pt.Workers, pt.Utilization, pt.MakespanSeconds)
			if !first {
				lead = strings.Repeat(" ", len(lead))
			}
			first = false
			verdict := "-"
			if st.TargetP95 > 0 {
				verdict = "ok"
				if !st.Met {
					verdict = "MISS"
				}
			}
			fmt.Fprintf(w, "%s  %-12s %5d %8.4fs %8.4fs %8.4fs %8.4fs %5s\n",
				lead, class, st.Count, st.Mean, st.P50, st.P95, st.Max, verdict)
		}
	}
	switch {
	case len(slo) == 0:
		fmt.Fprintln(w, "no SLO given: informational sweep only")
	case res.RecommendedShards > 0:
		fmt.Fprintf(w, "recommended fleet: %d shard(s) x %d worker(s) — smallest swept fleet meeting every SLO\n",
			res.RecommendedShards, res.Points[0].Workers)
	default:
		fmt.Fprintln(w, "no swept fleet meets the SLO — raise -max-shards, add workers, or relax targets")
	}
}
