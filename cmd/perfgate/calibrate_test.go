package main

import (
	"fmt"
	"strings"
	"testing"

	"github.com/uintah-repro/rmcrt/internal/calib"
)

var gateCal = calib.Calibration{SecondsPerStep: 1e-6, StepsScale1: 1, StepsScale2: 1}

// gateSweep builds a synthetic measured sweep: one single-level
// configuration per ray budget, each measured so that its prediction
// under gateCal misses by exactly errs[i] of the measured time.
func gateSweep(rays []int, errs []float64) []calib.Sample {
	samples := make([]calib.Sample, len(rays))
	for i, r := range rays {
		w := calib.Work{N: 8, Levels: 1, PatchN: 8, RR: 2, Halo: 4, Rays: r}
		samples[i] = calib.Sample{Name: fmt.Sprintf("n8-r%d-1L", r), Work: w, Seconds: gateCal.Seconds(w) / (1 + errs[i])}
	}
	return samples
}

// alternating returns n errors of ±e.
func alternating(n int, e float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = e
		if i%2 == 1 {
			out[i] = -e
		}
	}
	return out
}

// TestCalibrationGate: the -calibrate exit conditions over synthetic
// sweeps. A sweep that meets every bound passes; each failing sweep
// misses exactly one bound and names it.
func TestCalibrationGate(t *testing.T) {
	doubling := []int{10, 20, 40, 80, 160, 320, 640, 1280}
	narrow := []int{100, 110, 120, 130, 140, 150, 160, 170}
	inverted := gateSweep(doubling, alternating(8, 0.1))
	// The cheapest configuration measures 1.6× slower than the next.
	inverted[0].Seconds = 1.6 * inverted[1].Seconds

	if err := calibrationGate(gateCal, calib.Evaluate(gateCal, gateSweep(doubling, alternating(8, 0.1)))); err != nil {
		t.Fatalf("passing sweep (MAPE 10%%, r 0.996) failed the gate: %v", err)
	}
	for _, c := range []struct {
		name    string
		samples []calib.Sample
		want    string
	}{
		{"7 rows", gateSweep(doubling[:7], alternating(7, 0.1)), "covers 7 configurations"},
		{"MAPE 31%", gateSweep(doubling, []float64{.31, .31, .31, .31, .31, .31, .31, .31}), "MAPE 31.00%"},
		// ±10 % over a 1.7× work span: r 0.888.
		{"r 0.89", gateSweep(narrow, alternating(8, 0.1)), "Pearson r 0.8884"},
		{"inverted pair", inverted, "SJF inversion: n8-r20-1L"},
	} {
		err := calibrationGate(gateCal, calib.Evaluate(gateCal, c.samples))
		if err == nil {
			t.Errorf("%s: passed the gate", c.name)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, c.want) || strings.Contains(msg, "\n") {
			t.Errorf("%s: gate error %q, want exactly one reason containing %q", c.name, msg, c.want)
		}
	}
	if err := calibrationGate(calib.Calibration{}, calib.Evaluate(gateCal, gateSweep(doubling, alternating(8, 0.1)))); err == nil {
		t.Error("an invalid calibration passed the gate")
	}
}
