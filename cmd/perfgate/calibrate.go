package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"github.com/uintah-repro/rmcrt/internal/calib"
	"github.com/uintah-repro/rmcrt/internal/service"
)

// CalibrationArtifact is what -calibrate writes: the fitted
// coefficients next to the predicted-vs-measured evidence for them.
// calib.Load understands this envelope, so the nightly artifact is one
// self-contained file that both documents the model's accuracy and can
// be handed straight to rmcrtd/rmcrtrouter/capacity -calibration.
type CalibrationArtifact struct {
	Calibration calib.Calibration `json:"calibration"`
	Report      calib.Report      `json:"report"`
}

// Gate bounds of the calibrated model over the measured sweep: it must
// cover at least gateRows configurations, predict measured wall time
// within gateMAPE percent and correlate at r ≥ gatePearson, and never
// rank a configuration that measured gateSJFGap× slower as cheaper
// (shortest-job-first dispatch orders by the prediction).
const (
	gateRows    = 8
	gateMAPE    = 30.0
	gatePearson = 0.9
	gateSJFGap  = 1.5
)

// calibrationSpecs is the calibration sweep: ≥8 configurations
// spanning ~50× in predicted work across resolutions, ray budgets and
// both level structures, so the fit is anchored at both ends of the
// sizes the serving path admits and the level-specific model
// corrections each see several points.
func calibrationSpecs() []service.Spec {
	return []service.Spec{
		{Kind: service.KindBenchmark, N: 8, Rays: 6, Seed: 11},
		{Kind: service.KindBenchmark, N: 8, Rays: 24, Seed: 12},
		{Kind: service.KindBenchmark, N: 12, Rays: 8, Seed: 13},
		{Kind: service.KindBenchmark, N: 12, Rays: 24, Seed: 14},
		{Kind: service.KindBenchmark, N: 16, Rays: 8, Seed: 15},
		{Kind: service.KindBenchmark, N: 16, Rays: 24, Seed: 16},
		{Kind: service.KindBenchmark, N: 16, Levels: 2, PatchN: 8, RR: 2, Rays: 8, Seed: 17},
		{Kind: service.KindBenchmark, N: 16, Levels: 2, PatchN: 8, RR: 2, Rays: 24, Seed: 18},
		{Kind: service.KindBenchmark, N: 24, Rays: 8, Seed: 19},
		{Kind: service.KindBenchmark, N: 24, Levels: 2, PatchN: 8, RR: 2, Rays: 12, Seed: 20},
	}
}

// specName renders a compact configuration label for reports.
func specName(spec service.Spec) string {
	n := spec.Normalized()
	if n.Levels == 2 {
		return fmt.Sprintf("n%d-p%d-rr%d-r%d-2L", n.N, n.PatchN, n.RR, n.Rays)
	}
	return fmt.Sprintf("n%d-r%d-1L", n.N, n.Rays)
}

// measure runs the instrumented sweep: after one untimed warm-up solve
// (page faults, CPU frequency ramp, allocator warm-up), each spec is
// solved repeats times through the real engine, and the fastest wall
// time together with the engine's exact step/ray counters becomes one
// sample. The counters are deterministic for a given spec (seeded
// solver); only the wall time is host-dependent.
func measure(ctx context.Context, specs []service.Spec, repeats int) ([]calib.Sample, error) {
	if _, _, _, err := specs[0].Solve(ctx); err != nil {
		return nil, fmt.Errorf("warmup solve: %w", err)
	}
	samples := make([]calib.Sample, 0, len(specs))
	for _, spec := range specs {
		var best calib.Sample
		for rep := 0; rep < max(repeats, 1); rep++ {
			start := time.Now()
			_, rays, steps, err := spec.Solve(ctx)
			wall := time.Since(start).Seconds()
			if err != nil {
				return nil, fmt.Errorf("solve %s: %w", specName(spec), err)
			}
			if rep == 0 || wall < best.Seconds {
				best = calib.Sample{
					Name:    specName(spec),
					Work:    spec.Work(),
					Steps:   float64(steps),
					Rays:    float64(rays),
					Seconds: wall,
				}
			}
		}
		samples = append(samples, best)
	}
	return samples, nil
}

// runCalibrate executes the observe-predict-calibrate loop in-process:
// solve the sweep through the real engine, fit coefficients, score
// predicted vs measured on the very sweep they were fitted from, and
// write calibration + report JSON. It exits non-zero when the fit
// misses the gate, making the calibrate-and-validate job a real gate
// rather than a data dump.
func runCalibrate(out string, repeats int, verbose bool) error {
	samples, err := measure(context.Background(), calibrationSpecs(), repeats)
	if err != nil {
		return err
	}
	cal, err := calib.Fit(samples)
	if err != nil {
		return err
	}
	cal.Host, _ = os.Hostname()
	cal.GoMaxProcs = runtime.GOMAXPROCS(0)
	rep := calib.Evaluate(cal, samples)
	if verbose {
		for _, row := range rep.Rows {
			fmt.Printf("  %-20s measured %8.4fs predicted %8.4fs err %6.2f%%\n",
				row.Name, row.MeasuredSec, row.PredictedSec, row.AbsPctErr)
		}
	}
	fmt.Printf("perfgate: calibration over %d configs at GOMAXPROCS %d: %.3g s/step, %.3g s/ray, %.3g s base\n",
		len(rep.Rows), cal.GoMaxProcs, cal.SecondsPerStep, cal.SecondsPerRay, cal.SecondsBase)
	fmt.Printf("perfgate: MAPE %.2f%% (gate <= %.0f%%), Pearson r %.4f (gate >= %.1f)\n",
		rep.MAPE, gateMAPE, rep.PearsonR, gatePearson)

	b, err := json.MarshalIndent(CalibrationArtifact{Calibration: cal, Report: rep}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("perfgate: wrote %s\n", out)
	if err := calibrationGate(cal, rep); err != nil {
		return fmt.Errorf("calibration misses the gate:\n%w", err)
	}
	return nil
}

// calibrationGate holds a fitted calibration and its report to the
// gate bounds, naming every bound it misses.
func calibrationGate(cal calib.Calibration, rep calib.Report) error {
	var errs []error
	if len(rep.Rows) < gateRows {
		errs = append(errs, fmt.Errorf("report covers %d configurations, want >= %d", len(rep.Rows), gateRows))
	}
	if err := cal.Validate(); err != nil {
		errs = append(errs, err)
	}
	if rep.MAPE > gateMAPE {
		errs = append(errs, fmt.Errorf("MAPE %.2f%%, want <= %.0f%%", rep.MAPE, gateMAPE))
	}
	if rep.PearsonR < gatePearson {
		errs = append(errs, fmt.Errorf("Pearson r %.4f, want >= %.1f", rep.PearsonR, gatePearson))
	}
	// Exact rank equality on near-ties would just gate on noise; the
	// contract is on clearly separated pairs.
	rows := append([]calib.ReportRow(nil), rep.Rows...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].MeasuredSec < rows[j].MeasuredSec })
	for i, fast := range rows {
		for _, slow := range rows[i+1:] {
			if slow.MeasuredSec >= fast.MeasuredSec*gateSJFGap && fast.PredictedSec >= slow.PredictedSec {
				errs = append(errs, fmt.Errorf("SJF inversion: %s measured %.4fs predicted %.4fs, but %s measured %.4fs predicted %.4fs",
					fast.Name, fast.MeasuredSec, fast.PredictedSec, slow.Name, slow.MeasuredSec, slow.PredictedSec))
			}
		}
	}
	return errors.Join(errs...)
}
