package calib

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func loadSamples(t *testing.T) []Sample {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "samples.json"))
	if err != nil {
		t.Fatal(err)
	}
	var samples []Sample
	if err := json.Unmarshal(b, &samples); err != nil {
		t.Fatal(err)
	}
	if len(samples) < 8 {
		t.Fatalf("fixture has %d samples, want >= 8", len(samples))
	}
	return samples
}

// The fit is a pure function of its samples, so the coefficients
// derived from the checked-in instrumented sweep are pinned as a
// golden file: any change to the fitting math shows up as a readable
// coefficient diff. Regenerate with -update in the same commit as a
// deliberate model change.
func TestFitGoldenCoefficients(t *testing.T) {
	samples := loadSamples(t)
	c, err := Fit(samples)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "calibration.golden.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if string(got) != string(want) {
		t.Errorf("fitted coefficients drifted from golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// Default() must preserve the pre-calibration SJF behavior exactly:
// it is a fixed positive multiple of the analytical step count, so
// ordering by Default().Seconds is ordering by ModelSteps.
func TestDefaultPreservesStepOrder(t *testing.T) {
	samples := loadSamples(t)
	d := Default()
	for _, a := range samples {
		for _, b := range samples {
			sa, sb := ModelSteps(a.Work), ModelSteps(b.Work)
			pa, pb := d.Seconds(a.Work), d.Seconds(b.Work)
			if (sa < sb) != (pa < pb) {
				t.Fatalf("Default() reorders %s vs %s: steps %g vs %g, seconds %g vs %g",
					a.Name, b.Name, sa, sb, pa, pb)
			}
		}
	}
	if d.Seconds(samples[0].Work) <= 0 {
		t.Fatal("Default() prices valid work at <= 0 seconds")
	}
}

// Degenerate sweeps (every sample the same size) make the full and
// 2-parameter systems singular; Fit must still produce a valid
// calibration via the through-origin fallback rather than erroring.
func TestFitDegenerateFallsBack(t *testing.T) {
	w := Work{N: 8, Levels: 1, PatchN: 8, RR: 2, Halo: 4, Rays: 8}
	samples := []Sample{
		{Name: "a", Work: w, Steps: 1000, Rays: 100, Seconds: 0.010},
		{Name: "b", Work: w, Steps: 1000, Rays: 100, Seconds: 0.012},
	}
	c, err := Fit(samples)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.SecondsPerStep <= 0 {
		t.Fatalf("SecondsPerStep = %g, want > 0", c.SecondsPerStep)
	}
}

func TestFitRejectsBadSamples(t *testing.T) {
	if _, err := Fit(nil); err == nil {
		t.Error("Fit(nil) succeeded, want error")
	}
	bad := []Sample{
		{Name: "a", Steps: 1000, Seconds: 0.01},
		{Name: "zero-wall", Steps: 1000, Seconds: 0},
	}
	if _, err := Fit(bad); err == nil {
		t.Error("Fit with zero wall time succeeded, want error")
	}
}

func TestSaveLoadRoundtrip(t *testing.T) {
	samples := loadSamples(t)
	c, err := Fit(samples)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cal.json")
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != c {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", got, c)
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"seconds_per_step": -1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); err == nil {
		t.Error("Load accepted a negative per-step cost")
	}
}

func TestPearsonAndMAPE(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{2, 4, 6, 8}
	if r := PearsonR(x, y); math.Abs(r-1) > 1e-12 {
		t.Errorf("PearsonR of perfectly linear data = %g, want 1", r)
	}
	if r := PearsonR(x, []float64{1, 1, 1, 1}); r != 0 {
		t.Errorf("PearsonR with degenerate y = %g, want 0", r)
	}
	if m := MAPE([]float64{110, 90}, []float64{100, 100}); math.Abs(m-10) > 1e-12 {
		t.Errorf("MAPE = %g, want 10", m)
	}
}
