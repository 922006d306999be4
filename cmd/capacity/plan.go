package main

import (
	"fmt"
	"math"
	"sort"

	"github.com/uintah-repro/rmcrt/internal/calib"
	"github.com/uintah-repro/rmcrt/internal/mathutil"
	"github.com/uintah-repro/rmcrt/internal/service"
	"github.com/uintah-repro/rmcrt/internal/workload"
)

// PlanOptions asks the capacity question: what fleet serves this
// workload at this SLO? The planner sweeps shard counts through a
// deterministic queueing simulation whose per-job service times come
// from the calibrated cost model — the paper's scaling study rerun
// against production traffic instead of a fixed benchmark.
type PlanOptions struct {
	// Workload is the traffic description (an internal/workload spec,
	// e.g. a named scenario).
	Workload workload.Spec
	// Seed drives workload generation; (Workload, Seed) names one exact
	// submission timeline, which makes the plan reproducible.
	Seed uint64
	// MinShards..MaxShards is the swept fleet range (defaults 1..16).
	MinShards, MaxShards int
	// WorkersPerShard is each shard's solver concurrency (default 1).
	WorkersPerShard int
	// SLO maps SLO class → p95 latency target in seconds. Classes
	// absent from the map are unconstrained. Empty means every point is
	// feasible and the plan is purely informational.
	SLO map[string]float64
	// Cal prices each job. The zero value is replaced by
	// calib.Default().
	Cal calib.Calibration
}

// ClassStats summarizes one class's simulated latency at one fleet size.
type ClassStats struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean_sec"`
	P50   float64 `json:"p50_sec"`
	P95   float64 `json:"p95_sec"`
	Max   float64 `json:"max_sec"`
	// TargetP95 echoes the SLO target (0 = unconstrained); Met reports
	// whether P95 ≤ TargetP95.
	TargetP95 float64 `json:"target_p95_sec,omitempty"`
	Met       bool    `json:"met"`
}

// FleetPoint is one swept fleet size.
type FleetPoint struct {
	Shards  int `json:"shards"`
	Workers int `json:"workers_per_shard"`
	// ByClass holds stats for every class that submitted jobs.
	ByClass map[string]ClassStats `json:"by_class"`
	// MakespanSeconds is when the last job completes.
	MakespanSeconds float64 `json:"makespan_sec"`
	// Utilization is busy-seconds over (makespan × total workers).
	Utilization float64 `json:"utilization"`
	// Feasible reports whether every SLO-constrained class met its
	// target at this fleet size.
	Feasible bool `json:"feasible"`
}

// PlanResult is the full sweep plus the answer.
type PlanResult struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Jobs     int    `json:"jobs"`
	// PredictedWorkSeconds is the calibrated total solve time of the
	// workload on one worker — the lower bound no fleet can beat ÷ K.
	PredictedWorkSeconds float64      `json:"predicted_work_sec"`
	Points               []FleetPoint `json:"points"`
	// RecommendedShards is the smallest swept fleet meeting every SLO
	// target; 0 when none does.
	RecommendedShards int `json:"recommended_shards"`
}

// Plan generates the workload timeline and simulates it at every fleet
// size in the range. The simulation is a deterministic event-driven
// queue: jobs arrive at their planned instants, dispatch FCFS to the
// earliest-available of Shards×Workers identical workers (lowest index
// on ties), and hold a worker for the calibrated predicted solve time.
// Closed-loop clients are simulated on their planned think-time
// schedule — an optimistic open-loop approximation; the trade is
// determinism, which is what makes the golden test possible.
func Plan(opts PlanOptions) (*PlanResult, error) {
	minS, maxS := opts.MinShards, opts.MaxShards
	if minS <= 0 {
		minS = 1
	}
	if maxS < minS {
		maxS = minS * 16
	}
	workers := opts.WorkersPerShard
	if workers <= 0 {
		workers = 1
	}
	cal := opts.Cal
	if cal == (calib.Calibration{}) {
		cal = calib.Default()
	}
	if err := cal.Validate(); err != nil {
		return nil, err
	}
	for class := range opts.SLO {
		if service.ClassRank(class) > 2 {
			return nil, fmt.Errorf("unknown SLO class %q", class)
		}
	}

	plan, err := workload.Generate(opts.Workload, opts.Seed)
	if err != nil {
		return nil, err
	}
	svc := make([]float64, len(plan.Subs))
	totalWork := 0.0
	for i, sub := range plan.Subs {
		svc[i] = cal.Seconds(sub.Spec.Work())
		totalWork += svc[i]
	}

	res := &PlanResult{
		Workload:             plan.Workload,
		Seed:                 plan.Seed,
		Jobs:                 len(plan.Subs),
		PredictedWorkSeconds: totalWork,
	}
	for shards := minS; shards <= maxS; shards++ {
		pt := simulateFleet(plan, svc, shards, workers, opts.SLO)
		res.Points = append(res.Points, pt)
		if pt.Feasible && res.RecommendedShards == 0 && len(opts.SLO) > 0 {
			res.RecommendedShards = shards
		}
	}
	return res, nil
}

// simulateFleet runs the timeline against shards×workers workers.
func simulateFleet(plan *workload.Plan, svc []float64, shards, workers int, slo map[string]float64) FleetPoint {
	n := shards * workers
	avail := make([]float64, n) // next free instant per worker
	perClass := make(map[string][]float64)
	makespan, busy := 0.0, 0.0
	for i, sub := range plan.Subs {
		at := sub.At.Seconds()
		// Earliest-available worker, lowest index on ties.
		w := 0
		for j := 1; j < n; j++ {
			if avail[j] < avail[w] {
				w = j
			}
		}
		start := math.Max(at, avail[w])
		finish := start + svc[i]
		avail[w] = finish
		busy += svc[i]
		if finish > makespan {
			makespan = finish
		}
		perClass[sub.Class] = append(perClass[sub.Class], finish-at)
	}

	pt := FleetPoint{Shards: shards, Workers: workers, ByClass: make(map[string]ClassStats), MakespanSeconds: makespan, Feasible: true}
	if makespan > 0 {
		pt.Utilization = busy / (makespan * float64(n))
	}
	for _, class := range service.Classes() {
		lats := perClass[class]
		if len(lats) == 0 {
			continue
		}
		sort.Float64s(lats)
		sum := 0.0
		for _, l := range lats {
			sum += l
		}
		st := ClassStats{
			Count: len(lats),
			Mean:  sum / float64(len(lats)),
			P50:   mathutil.Quantile(lats, 0.50),
			P95:   mathutil.Quantile(lats, 0.95),
			Max:   lats[len(lats)-1],
			Met:   true,
		}
		if target, ok := slo[class]; ok {
			st.TargetP95 = target
			st.Met = st.P95 <= target
			if !st.Met {
				pt.Feasible = false
			}
		}
		pt.ByClass[class] = st
	}
	return pt
}
