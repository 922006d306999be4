package calib

import (
	"fmt"
	"math"

	"github.com/uintah-repro/rmcrt/internal/service"
)

// Sample is one instrumented observation: a solved spec with its
// measured tracer counters and wall time. The counters come straight
// from the engine's TraceMetrics accounting (DDA cell-steps and rays,
// merged per tile), so the fit regresses wall time on the true work
// done, not on a model of it.
type Sample struct {
	// Name labels the configuration in reports and goldens.
	Name string `json:"name"`
	// Spec is the solved configuration.
	Spec service.Spec `json:"spec"`
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
	for _, s := range samples {
		m := ModelSteps(s.Spec)
		if s.Spec.Normalized().Levels == 2 {
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
	// rate, then progressively fewer parameters.
	if base, ps1, ps2, perRay, ok := fit4(samples); ok {
		c.SecondsBase, c.SecondsPerStep, c.SecondsPerStep2, c.SecondsPerRay = base, ps1, ps2, perRay
		if err := c.Validate(); err != nil {
			return Calibration{}, err
		}
		return c, nil
	}
	base, perStep, perRay, ok := fit3(samples)
	if !ok {
		base, perStep, ok = fit2(samples)
		perRay = 0
	}
	if !ok {
		base, perRay = 0, 0
		perStep = fitThroughOrigin(samples)
	}
	c.SecondsBase, c.SecondsPerStep, c.SecondsPerRay = base, perStep, perRay
	if err := c.Validate(); err != nil {
		return Calibration{}, err
	}
	return c, nil
}

// fit4 solves seconds = b0 + b1·steps₁ + b2·steps₂ + b3·rays, where
// steps₁/steps₂ are the measured steps of single-level and 2-level
// samples respectively (each sample contributes to exactly one). ok is
// false when either level class is absent or too thin to identify its
// rate, the normal equations are singular, or any coefficient is not a
// usable price (negative or non-finite).
func fit4(samples []Sample) (base, perStep1, perStep2, perRay float64, ok bool) {
	var n1, n2 int
	for _, s := range samples {
		if s.Spec.Normalized().Levels == 2 {
			n2++
		} else {
			n1++
		}
	}
	if n1 < 2 || n2 < 2 {
		return 0, 0, 0, 0, false
	}
	var a [4][5]float64
	for _, s := range samples {
		w := relWeight(s)
		var s1, s2 float64
		if s.Spec.Normalized().Levels == 2 {
			s2 = s.Steps
		} else {
			s1 = s.Steps
		}
		x := [4]float64{1, s1, s2, s.Rays}
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				a[i][j] += w * x[i] * x[j]
			}
			a[i][4] += w * x[i] * s.Seconds
		}
	}
	b, ok := solve4(&a)
	if !ok {
		return 0, 0, 0, 0, false
	}
	base, perStep1, perStep2, perRay = b[0], b[1], b[2], b[3]
	if !(perStep1 > 0) || !(perStep2 > 0) || perRay < 0 || base < 0 ||
		math.IsInf(base, 0) || math.IsInf(perStep1, 0) ||
		math.IsInf(perStep2, 0) || math.IsInf(perRay, 0) {
		return 0, 0, 0, 0, false
	}
	return base, perStep1, perStep2, perRay, true
}

// solve4 runs Gaussian elimination with partial pivoting on the 4×5
// augmented system.
func solve4(a *[4][5]float64) ([4]float64, bool) {
	var x [4]float64
	for col := 0; col < 4; col++ {
		piv := col
		for r := col + 1; r < 4; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		a[col], a[piv] = a[piv], a[col]
		if a[col][col] == 0 {
			return x, false
		}
		for r := col + 1; r < 4; r++ {
			f := a[r][col] / a[col][col]
			for j := col; j < 5; j++ {
				a[r][j] -= f * a[col][j]
			}
		}
	}
	for i := 3; i >= 0; i-- {
		v := a[i][4]
		for j := i + 1; j < 4; j++ {
			v -= a[i][j] * x[j]
		}
		x[i] = v / a[i][i]
	}
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return x, false
		}
	}
	return x, true
}

// fit3 solves seconds = b0 + b1·steps + b2·rays; ok is false when the
// normal equations are singular or the result is not a usable pricing
// model (negative or non-finite rates/intercept).
func fit3(samples []Sample) (base, perStep, perRay float64, ok bool) {
	var a [3][4]float64 // augmented normal equations
	for _, s := range samples {
		w := relWeight(s)
		x := [3]float64{1, s.Steps, s.Rays}
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				a[i][j] += w * x[i] * x[j]
			}
			a[i][3] += w * x[i] * s.Seconds
		}
	}
	b, ok := solve(&a)
	if !ok {
		return 0, 0, 0, false
	}
	base, perStep, perRay = b[0], b[1], b[2]
	if !(perStep > 0) || perRay < 0 || base < 0 ||
		math.IsInf(base, 0) || math.IsInf(perStep, 0) || math.IsInf(perRay, 0) {
		return 0, 0, 0, false
	}
	return base, perStep, perRay, true
}

// fit2 solves seconds = b0 + b1·steps.
func fit2(samples []Sample) (base, perStep float64, ok bool) {
	var n, sx, sy, sxx, sxy float64
	for _, s := range samples {
		w := relWeight(s)
		n += w
		sx += w * s.Steps
		sy += w * s.Seconds
		sxx += w * s.Steps * s.Steps
		sxy += w * s.Steps * s.Seconds
	}
	det := n*sxx - sx*sx
	if det == 0 || math.IsInf(det, 0) {
		return 0, 0, false
	}
	perStep = (n*sxy - sx*sy) / det
	base = (sy - perStep*sx) / n
	if !(perStep > 0) || base < 0 || math.IsInf(perStep, 0) || math.IsInf(base, 0) {
		return 0, 0, false
	}
	return base, perStep, true
}

// fitThroughOrigin is the last-resort single-parameter model: the
// weighted regression of seconds on steps through the origin. Always
// positive for valid samples, so Fit cannot fail after reaching it.
func fitThroughOrigin(samples []Sample) float64 {
	var num, den float64
	for _, s := range samples {
		w := relWeight(s)
		num += w * s.Steps * s.Seconds
		den += w * s.Steps * s.Steps
	}
	return num / den
}

// relWeight is the 1/seconds² weight that turns squared absolute
// residuals into squared relative ones.
func relWeight(s Sample) float64 { return 1 / (s.Seconds * s.Seconds) }

// solve runs Gaussian elimination with partial pivoting on the 3×4
// augmented system.
func solve(a *[3][4]float64) ([3]float64, bool) {
	var x [3]float64
	for col := 0; col < 3; col++ {
		piv := col
		for r := col + 1; r < 3; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		a[col], a[piv] = a[piv], a[col]
		if a[col][col] == 0 {
			return x, false
		}
		for r := col + 1; r < 3; r++ {
			f := a[r][col] / a[col][col]
			for j := col; j < 4; j++ {
				a[r][j] -= f * a[col][j]
			}
		}
	}
	for i := 2; i >= 0; i-- {
		v := a[i][3]
		for j := i + 1; j < 3; j++ {
			v -= a[i][j] * x[j]
		}
		x[i] = v / a[i][i]
	}
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return x, false
		}
	}
	return x, true
}

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
// prediction goes through the full spec path (Calibration.Seconds) —
// model steps with the calibrated correction, not the sample's
// measured counters — so the report measures what admission control
// will actually see.
func Evaluate(c Calibration, samples []Sample) Report {
	var rep Report
	var sumPct float64
	pred := make([]float64, len(samples))
	meas := make([]float64, len(samples))
	for i, s := range samples {
		n := s.Spec.Normalized()
		p := c.Seconds(s.Spec)
		pct := math.Abs(p-s.Seconds) / s.Seconds * 100
		sumPct += pct
		pred[i], meas[i] = p, s.Seconds
		rep.Rows = append(rep.Rows, ReportRow{
			Name: s.Name, Levels: n.Levels, Cells: n.Cells(), Rays: n.Rays,
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
