package rmcrt

import (
	"context"
	"fmt"
	"math"

	"github.com/uintah-repro/rmcrt/internal/mathutil"
)

// Virtual radiometer. Production Uintah RMCRT ships a Radiometer
// component: a virtual instrument placed in the domain that integrates
// the incoming intensity over a limited cone of view — matching the
// physical radiometers mounted in boiler walls, whose readings are the
// measurements simulations are validated against. Backward ray tracing
// makes this almost free: trace rays only over the instrument's solid
// angle.

// Radiometer describes one virtual instrument.
type Radiometer struct {
	// Pos is the detector position (physical coordinates, inside the
	// domain).
	Pos mathutil.Vec3
	// Dir is the unit viewing direction (the cone axis).
	Dir mathutil.Vec3
	// HalfAngle is the cone half-angle in radians, in (0, π/2].
	HalfAngle float64
}

// Validate checks the instrument definition.
func (r Radiometer) Validate() error {
	if math.Abs(r.Dir.Length()-1) > 1e-9 {
		return fmt.Errorf("rmcrt: radiometer direction %v is not unit length", r.Dir)
	}
	if r.HalfAngle <= 0 || r.HalfAngle > math.Pi/2 {
		return fmt.Errorf("rmcrt: radiometer half-angle %g outside (0, pi/2]", r.HalfAngle)
	}
	return nil
}

// SolidAngle returns the cone's solid angle 2π(1−cos θ_h).
func (r Radiometer) SolidAngle() float64 {
	return 2 * math.Pi * (1 - math.Cos(r.HalfAngle))
}

// RadiometerReading is the instrument output.
type RadiometerReading struct {
	// MeanIntensity is the average incoming intensity over the cone
	// (W/m²/sr).
	MeanIntensity float64
	// Flux is the cosine-weighted incident flux through a detector
	// face normal to Dir, restricted to the cone (W/m²).
	Flux float64
	// Rays is the number of rays traced.
	Rays int
}

// SolveRadiometer evaluates the instrument with opts.NRays rays
// sampled uniformly over the view cone (deterministic given the seed
// and the instrument definition). Cancellation follows the
// SolveRegionCtx contract; ctx is polled between rays.
func (d *Domain) SolveRadiometer(ctx context.Context, r Radiometer, opts *Options) (RadiometerReading, error) {
	if err := begin(ctx, opts, r, d); err != nil {
		return RadiometerReading{}, err
	}
	// Instrument streams live in the tagged non-cell namespace
	// (streams.go), so a radiometer can never share a stream with a
	// cell's rays.
	rng := mathutil.NewStream(opts.Seed, radiometerStreamID(r))
	cosH := math.Cos(r.HalfAngle)
	w := newWalker(d, opts, nil)
	defer w.cnt.flushTo(d)

	done := ctx.Done()
	var sumI, sumCos float64
	for i := 0; i < opts.NRays; i++ {
		select {
		case <-done:
			return RadiometerReading{}, ctxErr(ctx)
		default:
		}
		// Uniform direction in the cone: cosθ uniform in [cosH, 1].
		cosT := cosH + (1-cosH)*rng.Float64()
		sinT := math.Sqrt(1 - cosT*cosT)
		sinPhi, cosPhi := math.Sincos(2 * math.Pi * rng.Float64())
		local := mathutil.Vec3{X: sinT * cosPhi, Y: sinT * sinPhi, Z: cosT}
		dir := rotateTo(local, r.Dir)
		I := w.trace(r.Pos, dir, rng)
		sumI += I
		sumCos += I * cosT
	}
	n := float64(opts.NRays)
	omega := r.SolidAngle()
	return RadiometerReading{
		MeanIntensity: sumI / n,
		// Flux = ∫_cone I cosθ dΩ ≈ Ω · mean(I·cosθ).
		Flux: omega * sumCos / n,
		Rays: opts.NRays,
	}, nil
}

// rotateTo rotates v from the +Z frame into the frame whose +Z is n.
func rotateTo(v, n mathutil.Vec3) mathutil.Vec3 {
	if n.Z > 0.9999999 {
		return v
	}
	if n.Z < -0.9999999 {
		return mathutil.Vec3{X: v.X, Y: -v.Y, Z: -v.Z}
	}
	t := mathutil.Vec3{Z: 1}.Cross(n).Normalized()
	b := n.Cross(t)
	return t.Scale(v.X).Add(b.Scale(v.Y)).Add(n.Scale(v.Z))
}
