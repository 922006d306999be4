package calib

import (
	"fmt"
	"math"
	"slices"
)

// Sample is one instrumented observation: a solve's work with its
// measured tracer counters and wall time. The counters come straight
// from the engine's TraceMetrics accounting (DDA cell-steps and rays,
// merged per tile), so the fit regresses wall time on the true work
// done, not on a model of it.
type Sample struct {
	// Name labels the configuration in reports and goldens.
	Name string `json:"name"`
	// Work is what the solve is priced at. It decodes from the solved
	// spec, recorded under "spec".
	Work Work `json:"spec"`
	// Steps and Rays are the measured tracer counters.
	Steps float64 `json:"steps"`
	Rays  float64 `json:"rays"`
	// Seconds is the measured solve wall time.
	Seconds float64 `json:"seconds"`
}

// Fit derives a Calibration from instrumented samples:
//
//  1. The steps-model scale factors are the measured-over-model step
//     ratios per level count (ratio of sums, so large solves dominate
//     and tiny ones don't inject noise).
//  2. The cost coefficients solve the weighted least-squares problem
//     seconds ≈ base + perStep·steps + perRay·rays on the measured
//     counters, weighting each sample by 1/seconds² so the fit
//     minimizes *relative* residuals — the quantity MAPE scores —
//     instead of letting the largest solves dominate. It falls back to
//     fewer parameters (drop the ray term, then the intercept)
//     whenever the richer fit is singular or produces a negative rate,
//     so degenerate sweeps (one spec size, two samples) still
//     calibrate instead of erroring.
//
// The fit is deterministic: same samples in, bit-identical calibration
// out, which is what makes the golden-coefficients test meaningful.
func Fit(samples []Sample) (Calibration, error) {
	if len(samples) < 2 {
		return Calibration{}, fmt.Errorf("calib: need >= 2 samples to fit, have %d", len(samples))
	}
	for _, s := range samples {
		if !(s.Seconds > 0) || !(s.Steps > 0) {
			return Calibration{}, fmt.Errorf("calib: sample %q has non-positive seconds (%g) or steps (%g)",
				s.Name, s.Seconds, s.Steps)
		}
	}

	c := Calibration{Samples: len(samples)}

	// Steps-model correction per level count.
	var meas1, model1, meas2, model2 float64
	var n2 int
	for _, s := range samples {
		m := ModelSteps(s.Work)
		if s.Work.Levels == 2 {
			n2++
			meas2 += s.Steps
			model2 += m
		} else {
			meas1 += s.Steps
			model1 += m
		}
	}
	c.StepsScale1, c.StepsScale2 = 1, 1
	if model1 > 0 && meas1 > 0 {
		c.StepsScale1 = meas1 / model1
	}
	if model2 > 0 && meas2 > 0 {
		c.StepsScale2 = meas2 / model2
	}

	// Least squares, richest model first: split step rates per level
	// class (the walker's in-ROI fast path prices single-level steps
	// below the level-crossing blend of 2-level marches), then a shared
	// rate, then progressively fewer parameters. The split fit needs
	// two samples of each level class to identify both rates.
	models := [][]feature{
		{fBase, fSteps, fSteps2, fRays},
		{fBase, fSteps, fRays},
		{fBase, fSteps},
		{fSteps},
	}
	if n2 < 2 || len(samples)-n2 < 2 {
		models = models[1:]
	}
	for _, feats := range models {
		b, ok := leastSquares(samples, feats)
		if !ok {
			continue
		}
		var price [nFeatures]float64
		for i, f := range feats {
			price[f] = b[i]
		}
		c.SecondsBase, c.SecondsPerStep, c.SecondsPerStep2, c.SecondsPerRay =
			price[fBase], price[fSteps], price[fSteps2], price[fRays]
		if c.Validate() == nil && (!slices.Contains(feats, fSteps2) || c.SecondsPerStep2 > 0) {
			return c, nil
		}
	}
	return Calibration{}, fmt.Errorf("calib: no usable fit of %d samples", len(samples))
}

// A feature is one column of the regression, priced by one
// Calibration coefficient.
type feature int

const (
	// fBase is the intercept (1 per solve), priced by SecondsBase.
	fBase feature = iota
	// fSteps is the measured steps, priced by SecondsPerStep — of
	// single-level samples only when fSteps2 is fitted alongside.
	fSteps
	// fSteps2 is the measured steps of 2-level samples, priced by
	// SecondsPerStep2.
	fSteps2
	// fRays is the measured rays, priced by SecondsPerRay.
	fRays
	nFeatures
)

// value is the feature's regressor for sample s; split says the fit
// prices 2-level steps separately.
func (f feature) value(s Sample, split bool) float64 {
	switch f {
	case fBase:
		return 1
	case fSteps:
		if split && s.Work.Levels == 2 {
			return 0
		}
		return s.Steps
	case fSteps2:
		if s.Work.Levels == 2 {
			return s.Steps
		}
		return 0
	}
	return s.Rays
}

// leastSquares solves the weighted least-squares problem
// seconds ≈ Σ bᵢ·featsᵢ, weighting each sample by relWeight, on the
// normal equations by Gaussian elimination with partial pivoting. ok is
// false when the system is singular or a coefficient is not finite.
func leastSquares(samples []Sample, feats []feature) (b []float64, ok bool) {
	k := len(feats)
	split := slices.Contains(feats, fSteps2)
	a := make([][]float64, k) // augmented normal equations [XᵀWX | XᵀWy]
	for i := range a {
		a[i] = make([]float64, k+1)
	}
	x := make([]float64, k)
	for _, s := range samples {
		w := relWeight(s)
		for i, f := range feats {
			x[i] = f.value(s, split)
		}
		for i := range x {
			for j := range x {
				a[i][j] += w * x[i] * x[j]
			}
			a[i][k] += w * x[i] * s.Seconds
		}
	}
	for col := 0; col < k; col++ {
		piv := col
		for r := col + 1; r < k; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		a[col], a[piv] = a[piv], a[col]
		if a[col][col] == 0 {
			return nil, false
		}
		for r := col + 1; r < k; r++ {
			f := a[r][col] / a[col][col]
			for j := col; j <= k; j++ {
				a[r][j] -= f * a[col][j]
			}
		}
	}
	b = make([]float64, k)
	for i := k - 1; i >= 0; i-- {
		v := a[i][k]
		for j := i + 1; j < k; j++ {
			v -= a[i][j] * b[j]
		}
		if b[i] = v / a[i][i]; math.IsNaN(b[i]) || math.IsInf(b[i], 0) {
			return nil, false
		}
	}
	return b, true
}

// relWeight is the 1/seconds² weight that turns squared absolute
// residuals into squared relative ones.
func relWeight(s Sample) float64 { return 1 / (s.Seconds * s.Seconds) }

// ReportRow is one configuration's predicted-vs-measured comparison.
type ReportRow struct {
	Name         string  `json:"name"`
	Levels       int     `json:"levels"`
	Cells        int64   `json:"cells"`
	Rays         int     `json:"rays"`
	MeasuredSec  float64 `json:"measured_sec"`
	PredictedSec float64 `json:"predicted_sec"`
	// AbsPctErr is |predicted-measured|/measured × 100.
	AbsPctErr float64 `json:"abs_pct_err"`
}

// Report is the loop's validation artifact: per-config rows plus the
// two pinned aggregate metrics the acceptance gate checks.
type Report struct {
	Rows []ReportRow `json:"rows"`
	// MAPE is the mean absolute percentage error of predicted vs
	// measured wall time, in percent.
	MAPE float64 `json:"mape_pct"`
	// PearsonR is the linear correlation of predicted vs measured.
	PearsonR float64 `json:"pearson_r"`
}

// Evaluate scores the calibration against measured samples. The
// prediction goes through the full pricing path (Calibration.Seconds)
// — model steps with the calibrated correction, not the sample's
// measured counters — so the report measures what admission control
// will actually see.
func Evaluate(c Calibration, samples []Sample) Report {
	var rep Report
	var sumPct float64
	pred := make([]float64, len(samples))
	meas := make([]float64, len(samples))
	for i, s := range samples {
		p := c.Seconds(s.Work)
		pct := math.Abs(p-s.Seconds) / s.Seconds * 100
		sumPct += pct
		pred[i], meas[i] = p, s.Seconds
		rep.Rows = append(rep.Rows, ReportRow{
			Name: s.Name, Levels: s.Work.Levels, Cells: s.Work.Cells(), Rays: s.Work.Rays,
			MeasuredSec: s.Seconds, PredictedSec: p, AbsPctErr: pct,
		})
	}
	if len(samples) > 0 {
		rep.MAPE = sumPct / float64(len(samples))
	}
	rep.PearsonR = PearsonR(pred, meas)
	return rep
}

// PearsonR returns the linear correlation coefficient of x and y
// (0 when either is degenerate).
func PearsonR(x, y []float64) float64 {
	if len(x) != len(y) || len(x) < 2 {
		return 0
	}
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// MAPE returns the mean absolute percentage error of predictions pred
// against measurements meas, in percent.
func MAPE(pred, meas []float64) float64 {
	if len(pred) != len(meas) || len(pred) == 0 {
		return math.Inf(1)
	}
	var sum float64
	for i := range pred {
		sum += math.Abs(pred[i]-meas[i]) / meas[i] * 100
	}
	return sum / float64(len(pred))
}
