package main

import (
	"encoding/json"
	"testing"

	"github.com/uintah-repro/rmcrt/internal/workload"
	"github.com/uintah-repro/rmcrt/internal/workload/scenarios"
)

func smokeWorkload(t *testing.T) workload.Spec {
	t.Helper()
	sc, ok := scenarios.Get("smoke")
	if !ok {
		t.Fatal("smoke scenario missing")
	}
	return sc.Spec
}

// The plan is a pure function of (workload, seed, sweep, calibration):
// two runs must agree byte-for-byte, which is the property the
// cmd/capacity golden test builds on.
func TestPlanDeterministic(t *testing.T) {
	opts := PlanOptions{
		Workload:  smokeWorkload(t),
		Seed:      7,
		MinShards: 1, MaxShards: 6,
		SLO: map[string]float64{"interactive": 0.5, "batch": 5},
	}
	a, err := Plan(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Plan(opts)
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Fatal("two identical Plan calls disagree")
	}
}

// Adding workers can only start jobs earlier under the greedy
// earliest-available dispatch, so per-class p95 must be non-increasing
// in fleet size and the recommended fleet must be the smallest
// feasible point.
func TestPlanMoreShardsNeverHurt(t *testing.T) {
	res, err := Plan(PlanOptions{
		Workload:  smokeWorkload(t),
		Seed:      7,
		MinShards: 1, MaxShards: 8,
		SLO: map[string]float64{"interactive": 60, "batch": 600},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs == 0 || res.PredictedWorkSeconds <= 0 {
		t.Fatalf("empty plan: %+v", res)
	}
	for i := 1; i < len(res.Points); i++ {
		prev, cur := res.Points[i-1], res.Points[i]
		for class, st := range cur.ByClass {
			if p, ok := prev.ByClass[class]; ok && st.P95 > p.P95+1e-9 {
				t.Errorf("class %s p95 grew from %.4f to %.4f when shards went %d -> %d",
					class, p.P95, st.P95, prev.Shards, cur.Shards)
			}
		}
		if cur.MakespanSeconds > prev.MakespanSeconds+1e-9 {
			t.Errorf("makespan grew with more shards: %.4f -> %.4f", prev.MakespanSeconds, cur.MakespanSeconds)
		}
	}
	if res.RecommendedShards != 0 {
		var rec *FleetPoint
		for i := range res.Points {
			if res.Points[i].Shards == res.RecommendedShards {
				rec = &res.Points[i]
			}
			if res.Points[i].Shards < res.RecommendedShards && res.Points[i].Feasible {
				t.Errorf("shards=%d already feasible but recommendation is %d",
					res.Points[i].Shards, res.RecommendedShards)
			}
		}
		if rec == nil || !rec.Feasible {
			t.Errorf("recommended fleet %d is not a feasible swept point", res.RecommendedShards)
		}
	}
}

// An SLO no fleet in the sweep can meet must yield no recommendation
// rather than a misleading one; unknown classes are rejected.
func TestPlanInfeasibleAndValidation(t *testing.T) {
	res, err := Plan(PlanOptions{
		Workload:  smokeWorkload(t),
		Seed:      7,
		MinShards: 1, MaxShards: 2,
		SLO: map[string]float64{"batch": 1e-9},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RecommendedShards != 0 {
		t.Errorf("impossible SLO recommended %d shards, want 0", res.RecommendedShards)
	}
	if _, err := Plan(PlanOptions{Workload: smokeWorkload(t), SLO: map[string]float64{"platinum": 1}}); err == nil {
		t.Error("unknown SLO class accepted")
	}
}
