package service

import (
	"context"
	"math"
	"testing"
)

// Service-level coverage of the adaptive ray-budget and K-band spectral
// spec fields: pricing, cache-key distinctness, validation, and the
// solve + accounting path through the manager.

func TestCostRaysPricing(t *testing.T) {
	fixed := Spec{N: 8, Rays: 40}
	if got := fixed.CostRays(); got != 40 {
		t.Fatalf("fixed CostRays = %d, want 40", got)
	}
	adaptive := Spec{N: 8, Rays: 40, AdaptiveRelTol: 0.05, AdaptiveMaxRays: 64}
	if got := adaptive.CostRays(); got != 64 {
		t.Fatalf("adaptive CostRays = %d, want the AdaptiveMaxRays cap 64", got)
	}
	// Adaptive with an unset cap prices at the fixed budget (the
	// normalized default AdaptiveMaxRays = Rays).
	capless := Spec{N: 8, Rays: 40, AdaptiveRelTol: 0.05}
	if got := capless.CostRays(); got != 40 {
		t.Fatalf("capless adaptive CostRays = %d, want 40", got)
	}
	spectral := Spec{N: 8, Rays: 40, SpectralBands: 4}
	if got := spectral.CostRays(); got != 160 {
		t.Fatalf("spectral CostRays = %d, want 40 rays x 4 bands = 160", got)
	}
}

func TestKeyAdaptiveSpectralSensitivity(t *testing.T) {
	base := Spec{N: 12}
	variants := []Spec{
		{N: 12, AdaptiveRelTol: 0.05},
		{N: 12, AdaptiveRelTol: 0.1},
		{N: 12, AdaptiveRelTol: 0.05, AdaptiveMinRays: 16},
		{N: 12, AdaptiveRelTol: 0.05, AdaptiveMaxRays: 32},
		{N: 12, SpectralBands: 2},
		{N: 12, SpectralBands: 4},
		{N: 12, SpectralBands: 2, SpectralSpread: 8},
	}
	seen := map[string]bool{base.Key(): true}
	for _, v := range variants {
		k := v.Key()
		if seen[k] {
			t.Fatalf("spec %+v collides with an earlier key", v)
		}
		seen[k] = true
	}
	// Sub-gray band counts normalize away: K=1 is a gray solve and must
	// share its cache entry.
	if (Spec{N: 12, SpectralBands: 1}).Key() != base.Key() {
		t.Fatal("SpectralBands=1 must key identically to the gray spec")
	}
	// Spelling out the normalized adaptive defaults changes nothing.
	implicit := Spec{N: 12, Rays: 40, AdaptiveRelTol: 0.05}
	explicit := Spec{N: 12, Rays: 40, AdaptiveRelTol: 0.05, AdaptiveMinRays: 8, AdaptiveMaxRays: 40}
	if implicit.Key() != explicit.Key() {
		t.Fatal("implicit and explicit adaptive defaults key differently")
	}
}

func TestAdaptiveSpectralValidation(t *testing.T) {
	bad := []Spec{
		{N: 8, AdaptiveRelTol: -0.1},
		{N: 8, AdaptiveRelTol: 0.05, AdaptiveMinRays: 50, AdaptiveMaxRays: 10},
		{N: 8, SpectralBands: 17},
		{N: 8, SpectralBands: 2, SpectralSpread: 0.5},
		{N: 8, AdaptiveRelTol: 0.05, SpectralBands: 2},
		{N: 8, AdaptiveRelTol: math.Inf(1)},
		{N: 8, SpectralBands: 2, SpectralSpread: math.NaN()},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %+v validated, want error", s)
		}
	}
	good := []Spec{
		{N: 8, AdaptiveRelTol: 0.05},
		{N: 8, AdaptiveRelTol: 0.05, AdaptiveMinRays: 4, AdaptiveMaxRays: 32},
		{N: 8, SpectralBands: 2},
		{N: 8, SpectralBands: 16, SpectralSpread: 32},
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("spec %+v rejected: %v", s, err)
		}
	}
}

// TestAdaptiveJobReportsRaysSaved: an adaptive job through the manager
// must finish with fewer traced rays than its priced cap, report the
// difference in its status, and feed the same number into the
// rmcrtd_adaptive_rays_saved_total counter.
func TestAdaptiveJobReportsRaysSaved(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	spec := Spec{N: 10, Rays: 64, AdaptiveRelTol: 0.05, Seed: 33}
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final, err := m.Wait(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("state = %s (err %q), want done", final.State, final.Error)
	}
	budget := spec.Normalized().Cells() * int64(spec.CostRays())
	if final.Rays >= budget {
		t.Fatalf("adaptive job traced %d rays, budget cap %d — no savings", final.Rays, budget)
	}
	if want := budget - final.Rays; final.RaysSaved != want {
		t.Fatalf("status rays_saved = %d, want %d", final.RaysSaved, want)
	}
	if got := m.reg.Counter("rmcrtd_adaptive_rays_saved_total", "").Value(); got != final.RaysSaved {
		t.Fatalf("rays-saved counter = %d, status reports %d", got, final.RaysSaved)
	}

	// A fixed-budget job reports no savings.
	st2, err := m.Submit(fastSpec(34))
	if err != nil {
		t.Fatal(err)
	}
	if final, err = m.Wait(context.Background(), st2.ID); err != nil {
		t.Fatal(err)
	}
	if final.RaysSaved != 0 {
		t.Fatalf("fixed-budget job reports rays_saved = %d, want 0", final.RaysSaved)
	}
}

// TestSpectralJobSolves: a K-band spectral spec runs through the fused
// K-band ray walk end to end; the synthetic κ ladder preserves the
// Planck mean, so the banded divQ stays on the gray solution's scale
// while differing from it (the non-gray window effect).
func TestSpectralJobSolves(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	gray := Spec{N: 10, Rays: 16, Seed: 35}
	banded := Spec{N: 10, Rays: 16, Seed: 35, SpectralBands: 4, SpectralSpread: 16}

	results := make(map[string][]float64)
	for name, spec := range map[string]Spec{"gray": gray, "banded": banded} {
		st, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		final, err := m.Wait(context.Background(), st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != StateDone {
			t.Fatalf("%s: state = %s (err %q), want done", name, final.State, final.Error)
		}
		divQ, _, ok, err := m.Result(st.ID)
		if err != nil || !ok || divQ == nil {
			t.Fatalf("%s: result: ok=%v err=%v", name, ok, err)
		}
		results[name] = divQ.Data()
	}
	differs := false
	for i, g := range results["gray"] {
		if results["banded"][i] != g {
			differs = true
			break
		}
	}
	if !differs {
		t.Fatal("4-band spectral divQ is bitwise identical to gray — band ladder had no effect")
	}
}
