package rmcrt

import (
	"context"
	"fmt"
	"math"

	"github.com/uintah-repro/rmcrt/internal/field"
	"github.com/uintah-repro/rmcrt/internal/grid"
)

// Spectral RMCRT — the paper's stated future work, implemented:
// "Though a method for modeling spectral effects has been considered,
// currently we are using a mean absorption coefficient approximation
// ... Adding spectral frequencies to RMCRT would entail adding a loop
// over wave-lengths, η and is part of future work."
//
// This file adds that loop as a band (box) model: the spectrum is
// partitioned into K bands, each with its own absorption coefficient
// field κ_k and its own fraction w_k(T) of the blackbody emissive
// power. The banded divergence of the heat flux is the sum over bands
//
//	divQ = Σ_k 4π κ_k ( w_k σT⁴/π − mean sumI_k )
//
// which reduces exactly to the gray solution when K = 1 (a property
// the tests assert), and reproduces the qualitative non-gray effect:
// transparent-window bands let radiation escape that a gray mean
// coefficient would hold in.

// Band is one spectral band of a box model.
type Band struct {
	// Name labels the band (e.g. "CO2 4.3um").
	Name string
	// Abskg is the band's absorption coefficient field over the
	// finest-level ROI (coarser levels reuse the gray coarsening of the
	// per-band field supplied in SpectralLevelData).
	Abskg *field.CC[float64]
	// EmissiveFraction is the fraction w_k of the total blackbody
	// emissive power radiated in this band; the fractions over all
	// bands must sum to 1 (gray walls share the same split).
	EmissiveFraction float64
}

// SpectralDomain carries per-band absorption data for every level.
// Levels mirror Domain.Levels: index 0 is the coarsest. Each level's
// Bands slice must have the same length and ordering.
type SpectralDomain struct {
	// Base supplies the grid geometry, cell types and the (gray)
	// σT⁴/π field shared by all bands.
	Base *Domain
	// LevelBands[li][k] is band k's absorption field on level li,
	// windowed over the same ROI as Base.Levels[li].
	LevelBands [][]Band
}

// Validate checks the spectral configuration.
func (s *SpectralDomain) Validate() error {
	if s.Base == nil {
		return fmt.Errorf("rmcrt: spectral domain has no base domain")
	}
	if err := s.Base.Validate(); err != nil {
		return err
	}
	if len(s.LevelBands) != len(s.Base.Levels) {
		return fmt.Errorf("rmcrt: %d band levels for %d grid levels", len(s.LevelBands), len(s.Base.Levels))
	}
	var nBands int
	for li, bands := range s.LevelBands {
		if li == 0 {
			nBands = len(bands)
			if nBands == 0 {
				return fmt.Errorf("rmcrt: no spectral bands")
			}
		} else if len(bands) != nBands {
			return fmt.Errorf("rmcrt: level %d has %d bands, level 0 has %d", li, len(bands), nBands)
		}
		for k, b := range bands {
			if b.Abskg == nil {
				return fmt.Errorf("rmcrt: band %d on level %d missing abskg", k, li)
			}
			roi := s.Base.Levels[li].ROI
			if b.Abskg.Box().Intersect(roi) != roi {
				return fmt.Errorf("rmcrt: band %d window %v does not cover level %d ROI %v",
					k, b.Abskg.Box(), li, roi)
			}
		}
	}
	sum := 0.0
	for _, b := range s.LevelBands[0] {
		sum += b.EmissiveFraction
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("rmcrt: emissive fractions sum to %g, want 1", sum)
	}
	return nil
}

// bandView returns a Domain whose absorption on every level is band
// k's, and whose emission is scaled by the band's emissive fraction.
// The view shares storage with the base domain except for the scaled
// emission fields, which are built once per band.
func (s *SpectralDomain) bandView(k int) *Domain {
	levels := make([]LevelData, len(s.Base.Levels))
	w := s.LevelBands[0][k].EmissiveFraction
	for li := range levels {
		base := s.Base.Levels[li]
		scaled := field.NewCC[float64](base.SigmaT4OverPi.Box())
		src := base.SigmaT4OverPi.Data()
		dst := scaled.Data()
		for i := range src {
			dst[i] = w * src[i]
		}
		levels[li] = LevelData{
			Level:         base.Level,
			ROI:           base.ROI,
			Abskg:         s.LevelBands[li][k].Abskg,
			SigmaT4OverPi: scaled,
			CellType:      base.CellType,
		}
	}
	return &Domain{Levels: levels}
}

// SolveRegionSpectral computes the band-summed divergence of the heat
// flux over region: the wavelength loop of the paper's future work.
// Wall emission in each band is scaled by the same emissive fraction
// (gray walls). Without scattering all K bands march fused over shared
// ray geometry; with scattering the bands are solved independently on
// band-offset streams. Either way results are deterministic for a
// given seed.
func (s *SpectralDomain) SolveRegionSpectral(region grid.Box, opts *Options) (*field.CC[float64], error) {
	return s.SolveRegionSpectralCtx(context.Background(), region, opts)
}

// SolveRegionSpectralCtx is the ctx-aware K-band spectral solve. By
// default it marches every band in one walk per ray (one DDA march
// regardless of K): each ray's origin and direction are the draws a gray
// solve makes (correlated sampling; each band's estimator is unbiased,
// and with one band the result is bitwise identical to the gray solve).
// Scattering redirects rays per band, so it solves the bands one by one
// instead (solveSpectralBands). Adaptive ray budgets are not supported
// with spectral solves. Cancellation follows the SolveRegionCtx
// contract: prompt stop, guaranteed non-nil error, partial counters
// merged.
func (s *SpectralDomain) SolveRegionSpectralCtx(ctx context.Context, region grid.Box, opts *Options) (*field.CC[float64], error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if opts.adaptiveEnabled() {
		return nil, errOpt("adaptive ray budgets are not supported with spectral solves")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if opts.ScatterCoeff > 0 {
		return s.solveSpectralBands(ctx, region, opts)
	}
	out, _, err := s.Base.solveRegionTiled(ctx, region, opts, s.spectralShared(opts))
	return out, err
}

// spectralShared is the read-only band context of a fused solve, shared
// by all workers: the per-band constants and per-band absorption arrays
// indexed exactly like each level's packed records.
type spectralShared struct {
	bands []band        // w, wallI and finest-level κ per band
	kap   [][][]float64 // kap[level][band][flat packed index]
}

// spectralShared builds the band context. Entries outside a level's ROI
// stay zero — the march reads them only through the in-ROI gate.
func (s *SpectralDomain) spectralShared(opts *Options) *spectralShared {
	d := s.Base
	pd := d.ensurePacked()
	sh := &spectralShared{kap: make([][][]float64, len(d.Levels))}
	for k, b := range s.LevelBands[0] {
		w := b.EmissiveFraction
		sh.bands = append(sh.bands, band{
			w:     w,
			wallI: opts.WallEmissivity * (w * opts.WallSigmaT4) / math.Pi,
			abskg: s.LevelBands[len(d.Levels)-1][k].Abskg,
		})
	}
	for li := range d.Levels {
		pl := pd.levels[li]
		for _, b := range s.LevelBands[li] {
			arr := make([]float64, len(pl.recs))
			d.Levels[li].ROI.ForEach(func(c grid.IntVector) {
				arr[pl.OffsetOf(c)] = b.Abskg.At(c)
			})
			sh.kap[li] = append(sh.kap[li], arr)
		}
	}
	return sh
}

// solveSpectralBands is the independent-band path: one gray solve per
// band on a band-offset stream, summed. It serves scattering, whose
// redirects differ per band. Inputs are assumed validated; ctx is
// checked between band solves and inside each one.
func (s *SpectralDomain) solveSpectralBands(ctx context.Context, region grid.Box, opts *Options) (*field.CC[float64], error) {
	total := field.NewCC[float64](region)
	for k := range s.LevelBands[0] {
		view := s.bandView(k)
		bandOpts := *opts
		bandOpts.Seed = opts.Seed + uint64(k)*0x9e3779b97f4a7c15
		bandOpts.WallSigmaT4 = opts.WallSigmaT4 * s.LevelBands[0][k].EmissiveFraction
		out, err := view.SolveRegionCtx(ctx, region, &bandOpts)
		if err != nil {
			return nil, fmt.Errorf("rmcrt: band %d (%s): %w", k, s.LevelBands[0][k].Name, err)
		}
		td, od := total.Data(), out.Data()
		for i := range td {
			td[i] += od[i]
		}
		// Aggregate instrumentation into the base domain counters.
		s.Base.Steps.Add(view.Steps.Load())
		s.Base.Rays.Add(view.Rays.Load())
	}
	return total, nil
}

// NewGrayAsSpectral wraps an existing gray domain as a one-band
// spectral domain — the identity configuration used to validate the
// wavelength loop.
func NewGrayAsSpectral(d *Domain) *SpectralDomain {
	lb := make([][]Band, len(d.Levels))
	for li := range d.Levels {
		lb[li] = []Band{{Name: "gray", Abskg: d.Levels[li].Abskg, EmissiveFraction: 1}}
	}
	return &SpectralDomain{Base: d, LevelBands: lb}
}
