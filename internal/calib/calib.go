// Package calib closes the observe-predict-calibrate loop between the
// analytical cost model (internal/perfmodel) and real measurements: it
// derives per-step/per-ray/per-solve cost coefficients from
// instrumented runs (the tracer's DDA step and ray counters plus wall
// time), packages them as a Calibration that predicts wall-seconds for
// a solve's Work before the solve runs, and validates the prediction
// with MAPE and Pearson-r against held measurements.
//
// The calibration surface is deliberately minimal — three fitted
// coefficients plus one steps-model scale factor per level count —
// following the "literature-backed model, few calibrated parameters,
// MAPE/Pearson-validated" discipline rather than a lookup table: small
// surfaces transfer across hosts and stay diagnosable when they drift.
//
// The package is a leaf of the serving stack: it prices a small value
// type and imports nothing but the analytical model. One model serves
// everything downstream: the cluster router's shortest-job-first
// ordering key and deadline feasibility check (internal/cluster), the
// daemon's admission-time estimator (internal/service), the capacity
// planner (cmd/capacity) and the calibration gate (perfgate
// -calibrate), which measures the sweep the coefficients are fitted
// from.
package calib

import (
	"encoding/json"
	"fmt"
	"math"
	"os"

	"github.com/uintah-repro/rmcrt/internal/perfmodel"
)

// Work is what the cost model prices: the few quantities of one solve
// that decide its cost, read from a normalized spec. The JSON names
// are the spec's, so a recorded spec decodes as its Work.
type Work struct {
	// N is the fine-level resolution (N³ cells).
	N int `json:"n"`
	// Levels is 1 (single fine mesh) or 2 (fine patches over a coarse
	// radiation mesh).
	Levels int `json:"levels"`
	// PatchN, RR and Halo shape a 2-level solve: the fine patch size,
	// the fine→coarse refinement ratio and the fine-level halo.
	PatchN int `json:"patch_n"`
	RR     int `json:"rr"`
	Halo   int `json:"halo"`
	// Rays is the per-cell ray budget the solve is priced at: the
	// adaptive upper bound for adaptive solves, times the band count
	// for spectral ones, so predictions stay feasibility-safe upper
	// bounds for those modes.
	Rays int `json:"rays"`
}

// Cells returns the fine-level cell count.
func (w Work) Cells() int64 {
	n := int64(w.N)
	return n * n * n
}

// Calibration prices a solve before running it: predicted wall-seconds
// as an affine function of the analytically predicted step and ray
// counts. The zero value predicts 0 for everything; use Default or Fit.
type Calibration struct {
	// SecondsPerStep is the fitted marginal cost of one DDA cell-step
	// in a single-level solve (all steps on the walker's fast path).
	SecondsPerStep float64 `json:"seconds_per_step"`
	// SecondsPerStep2 is the fitted marginal per-step cost of 2-level
	// solves. Fine-ROI steps run on the walker's fast path while level
	// crossings take its cold tail, so the blended per-step cost of a
	// multi-level march is systematically higher than a single-level
	// one; a shared rate would mis-rank specs across the level
	// classes. 0 means "unfitted, use
	// SecondsPerStep" (degenerate sweeps, pre-existing calibration
	// files).
	SecondsPerStep2 float64 `json:"seconds_per_step_2,omitempty"`
	// SecondsPerRay is the fitted marginal cost of one ray (launch,
	// direction sampling, result merge) beyond its stepping.
	SecondsPerRay float64 `json:"seconds_per_ray"`
	// SecondsBase is the fitted per-solve fixed cost (grid build,
	// property fill, scheduling).
	SecondsBase float64 `json:"seconds_base"`
	// StepsScale1 and StepsScale2 are measured-over-model step-count
	// ratios for single-level and 2-level solves: they absorb the
	// systematic error of the mean-chord step model so the fitted
	// per-step cost applies to an unbiased step estimate. 0 means
	// "uncalibrated, use 1".
	StepsScale1 float64 `json:"steps_scale_1"`
	StepsScale2 float64 `json:"steps_scale_2"`

	// Provenance of the fit (informational).
	Host       string `json:"host,omitempty"`
	GoMaxProcs int    `json:"gomaxprocs,omitempty"`
	Samples    int    `json:"samples,omitempty"`
}

// Default returns the uncalibrated model: pure steps-proportional at
// Titan's per-core CPU tracing rate (internal/perfmodel). Because it is
// a fixed positive multiple of the analytical step count, SJF ordering
// under Default is identical to ordering by raw predicted cell-steps —
// the pre-calibration behavior — while still reading as seconds.
func Default() Calibration {
	return Calibration{
		SecondsPerStep: 1 / perfmodel.Titan().CPUThroughput,
		StepsScale1:    1,
		StepsScale2:    1,
	}
}

// ModelSteps predicts the total DDA cell-step count of a solve from
// internal/perfmodel's mean-chord model: for 2-level configurations
// the per-patch kernel work times the patch count, and for
// single-level solves cells × rays × the mean-chord step count of the
// cube. This is the analytical half of the loop — no measured
// quantities.
func ModelSteps(w Work) float64 {
	if w.Levels == 2 && w.RR > 0 && w.N%w.RR == 0 && w.PatchN > 0 && w.N%w.PatchN == 0 {
		p := perfmodel.Problem{
			FineN: w.N, CoarseN: w.N / w.RR, PatchN: w.PatchN,
			Rays: w.Rays, Props: 3, Halo: w.Halo,
		}
		// Guard the model output: extreme-but-valid work can overflow
		// the integer patch count, and a poisoned ordering key would
		// corrupt the SJF heap invariant downstream.
		if p.Validate() == nil {
			if m := p.KernelWork() * float64(p.FinePatches()); m > 0 && !math.IsInf(m, 0) {
				return m
			}
		}
	}
	// Single level: rays originate anywhere in the cube and march to a
	// wall — half the mean chord, 1.5 axis steps per chord cell. All
	// float math: N³ in int64 overflows long before float64 loses the
	// ordering.
	steps := 0.66 * 1.5 * float64(w.N) / 2
	cells := float64(w.N) * float64(w.N) * float64(w.N)
	return cells * float64(w.Rays) * steps
}

// modelRays predicts the ray count of a solve: one priced ray budget
// per fine cell, both single- and 2-level (rays originate on the fine
// level only).
func modelRays(w Work) float64 {
	return float64(w.Cells()) * float64(w.Rays)
}

// stepsScale returns the level-appropriate model correction.
func (c Calibration) stepsScale(levels int) float64 {
	s := c.StepsScale1
	if levels == 2 {
		s = c.StepsScale2
	}
	if s <= 0 || math.IsInf(s, 0) || math.IsNaN(s) {
		return 1
	}
	return s
}

// Steps predicts the solve's DDA cell-step count with the calibrated
// model correction applied.
func (c Calibration) Steps(w Work) float64 {
	return c.stepsScale(w.Levels) * ModelSteps(w)
}

// perStep returns the level-appropriate fitted step rate.
func (c Calibration) perStep(levels int) float64 {
	if levels == 2 && c.SecondsPerStep2 > 0 && !math.IsInf(c.SecondsPerStep2, 0) {
		return c.SecondsPerStep2
	}
	return c.SecondsPerStep
}

// Seconds predicts the solve's wall time on the calibrated host.
func (c Calibration) Seconds(w Work) float64 {
	return c.SecondsBase + c.perStep(w.Levels)*c.Steps(w) + c.SecondsPerRay*modelRays(w)
}

// Validate checks that the calibration prices work sanely: positive
// finite per-step cost, non-negative finite everything else.
func (c Calibration) Validate() error {
	if !(c.SecondsPerStep > 0) || math.IsInf(c.SecondsPerStep, 0) {
		return fmt.Errorf("calib: seconds_per_step = %g (want finite > 0)", c.SecondsPerStep)
	}
	for _, v := range []struct {
		name string
		x    float64
	}{
		{"seconds_per_step_2", c.SecondsPerStep2},
		{"seconds_per_ray", c.SecondsPerRay},
		{"seconds_base", c.SecondsBase},
	} {
		if v.x < 0 || math.IsInf(v.x, 0) || math.IsNaN(v.x) {
			return fmt.Errorf("calib: %s = %g (want finite >= 0)", v.name, v.x)
		}
	}
	return nil
}

// Save writes the calibration as indented JSON.
func (c Calibration) Save(path string) error {
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Load reads a calibration and validates it. It accepts both a bare
// Calibration (written by Save) and the perfgate -calibrate artifact,
// which nests the coefficients under a "calibration" member next to
// their predicted-vs-measured report — so the nightly artifact can be
// handed straight to rmcrtd/rmcrtrouter/capacity -calibration.
func Load(path string) (Calibration, error) {
	var c Calibration
	b, err := os.ReadFile(path)
	if err != nil {
		return c, err
	}
	var envelope struct {
		Calibration *Calibration `json:"calibration"`
	}
	if err := json.Unmarshal(b, &envelope); err == nil && envelope.Calibration != nil {
		c = *envelope.Calibration
		if err := c.Validate(); err != nil {
			return c, fmt.Errorf("calib: %s: %w", path, err)
		}
		return c, nil
	}
	if err := json.Unmarshal(b, &c); err != nil {
		return c, fmt.Errorf("calib: %s: %w", path, err)
	}
	if err := c.Validate(); err != nil {
		return c, fmt.Errorf("calib: %s: %w", path, err)
	}
	return c, nil
}
