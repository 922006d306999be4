// Package rmcrt implements the paper's primary contribution: reverse
// Monte Carlo ray tracing (RMCRT) for the radiative transfer equation,
// in both the single fine-mesh form and the multi-level AMR form that
// made the calculation scale.
//
// RMCRT is a reciprocity method: instead of tracing photon bundles
// forward from emitters and hoping they reach the region of interest,
// each cell traces rays *backwards* along lines of sight and integrates
// the incoming intensity it would have absorbed. Per cell c:
//
//	divQ(c) = 4π κ(c) ( σT⁴(c)/π − (1/N) Σ_rays sumI )
//
// where sumI is the intensity arriving along one ray, accumulated by
// marching the ray through the domain (Amanatides–Woo DDA) and summing
// each traversed cell's emission attenuated by the optical depth
// between it and the origin:
//
//	sumI = Σ_segments (σT⁴/π)(cell) · (e^{−τ_prev} − e^{−τ}) + walls
//
// The multi-level form marches the ray on the finest level while it is
// inside the patch's region of interest (patch + halo) and on
// successively coarser levels outside it, which is what cuts the
// all-to-all communication from O(N²) to tractable volumes.
package rmcrt

import "math"

// Options configures a solve. The zero value is not useful; start from
// DefaultOptions.
type Options struct {
	// NRays is the number of rays traced per cell (the paper uses 100).
	NRays int
	// Threshold terminates a ray when its transmittance e^{−τ} falls
	// below it ("traced to the point of extinction").
	Threshold float64
	// Seed drives the deterministic per-cell RNG streams.
	Seed uint64
	// HaloCells is the fine-level region-of-interest halo around each
	// patch in the multi-level algorithm.
	HaloCells int
	// CellCenteredRays launches rays from cell centers instead of
	// uniformly random positions inside the cell (Uintah's CCRays).
	CellCenteredRays bool
	// WallEmissivity is the emissivity of domain boundary walls.
	WallEmissivity float64
	// WallSigmaT4 is σT⁴ of the domain walls (0 = cold walls).
	WallSigmaT4 float64
	// ScatterCoeff is the isotropic scattering coefficient σ_s (1/m).
	// 0 disables scattering (the paper's benchmark configuration: a
	// mean absorption coefficient without spectral resolution).
	ScatterCoeff float64
	// Reflections enables specular reflection at grey walls: a ray
	// reaching a wall with emissivity ε < 1 picks up the wall's
	// emission weighted by ε and continues, reflected, carrying the
	// remaining (1−ε) of its weight — Uintah's RMCRT does the same.
	// Without it, grey walls simply terminate rays with the ε-weighted
	// contribution (slightly biased for ε < 1).
	Reflections bool
	// MaxReflections bounds the reflection count per ray (default 100).
	MaxReflections int
	// Stratified draws ray directions from a jittered Halton sequence
	// instead of independent uniforms, cutting Monte Carlo variance for
	// the same ray count.
	Stratified bool
	// MaxSteps bounds the DDA loop as a safety net against degenerate
	// directions; 0 means a generous default.
	MaxSteps int
	// AdaptiveRelTol, when positive, enables adaptive per-cell ray
	// budgets (ARC-style): each cell starts at AdaptiveMinRays rays and
	// is topped up in doubling waves until the relative standard error
	// of its mean-intensity estimate falls below this tolerance or the
	// budget reaches AdaptiveMaxRays. Adaptive results are deterministic
	// for a given seed (the per-cell streams and the per-cell stopping
	// rule are both decomposition-independent) but are NOT bitwise
	// comparable to a fixed-ray solve; 0 keeps the default fixed-NRays
	// mode, which stays bitwise identical to the seed engine.
	AdaptiveRelTol float64
	// AdaptiveMinRays is the initial per-cell ray budget in adaptive
	// mode (default 8, clamped to AdaptiveMaxRays).
	AdaptiveMinRays int
	// AdaptiveMaxRays caps the per-cell ray budget in adaptive mode
	// (default NRays). Cost models price adaptive solves at this upper
	// bound so scheduling stays feasibility-safe.
	AdaptiveMaxRays int
}

// DefaultOptions mirrors the paper's benchmark configuration: 100 rays
// per cell, 1e-4 extinction threshold, black cold walls, no scattering,
// a 4-cell fine halo.
func DefaultOptions() Options {
	return Options{
		NRays:          100,
		Threshold:      1e-4,
		Seed:           71,
		HaloCells:      4,
		WallEmissivity: 1.0,
		WallSigmaT4:    0.0,
	}
}

func (o Options) maxSteps() int {
	if o.MaxSteps > 0 {
		return o.MaxSteps
	}
	return 1 << 20
}

func (o Options) maxReflections() int {
	if o.MaxReflections > 0 {
		return o.MaxReflections
	}
	return 100
}

func (o Options) validate() error {
	switch {
	case o.NRays <= 0:
		return errOpt("NRays must be positive")
	case o.Threshold <= 0 || o.Threshold >= 1:
		return errOpt("Threshold must be in (0,1)")
	case o.WallEmissivity < 0 || o.WallEmissivity > 1:
		return errOpt("WallEmissivity must be in [0,1]")
	case o.ScatterCoeff < 0:
		return errOpt("ScatterCoeff must be non-negative")
	case o.HaloCells < 0:
		return errOpt("HaloCells must be non-negative")
	case o.AdaptiveRelTol < 0:
		return errOpt("AdaptiveRelTol must be non-negative")
	case o.AdaptiveMinRays < 0 || o.AdaptiveMaxRays < 0:
		return errOpt("adaptive ray budgets must be non-negative")
	case o.AdaptiveMinRays > 0 && o.AdaptiveMaxRays > 0 && o.AdaptiveMinRays > o.AdaptiveMaxRays:
		return errOpt("AdaptiveMinRays must not exceed AdaptiveMaxRays")
	}
	return nil
}

// defaultAdaptiveMinRays is the initial wave when AdaptiveMinRays is
// unset: enough rays for a meaningful variance estimate, small enough
// that smooth cells save ~an order of magnitude vs the paper's 100.
const defaultAdaptiveMinRays = 8

// adaptiveEnabled reports whether the solve uses adaptive per-cell ray
// budgets.
func (o Options) adaptiveEnabled() bool { return o.AdaptiveRelTol > 0 }

// adaptiveBudget resolves the per-cell ray budget range, applying
// defaults (min 8, max NRays) and clamping min to max.
func (o Options) adaptiveBudget() (minRays, maxRays int) {
	maxRays = o.AdaptiveMaxRays
	if maxRays <= 0 {
		maxRays = o.NRays
	}
	minRays = o.AdaptiveMinRays
	if minRays <= 0 {
		minRays = defaultAdaptiveMinRays
	}
	if minRays > maxRays {
		minRays = maxRays
	}
	return minRays, maxRays
}

type optErr string

func errOpt(s string) error { return optErr(s) }

func (e optErr) Error() string { return "rmcrt: invalid options: " + string(e) }

// SigmaSB is the Stefan–Boltzmann constant in W/(m²·K⁴).
const SigmaSB = 5.670374419e-8

// wallIntensity returns the blackbody intensity ε·σT⁴/π a wall
// contributes to a ray that reaches it.
func (o Options) wallIntensity() float64 {
	return o.WallEmissivity * o.WallSigmaT4 / math.Pi
}
