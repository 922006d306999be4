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

// SolveRegionSpectral computes the band-summed divergence of the heat
// flux over region: the wavelength loop of the paper's future work.
// Wall emission in each band is scaled by the same emissive fraction
// (gray walls).
//
// Without scattering every band marches in one walk per ray (one DDA
// march regardless of K): each ray's origin and direction are the draws
// a gray solve makes (correlated sampling; each band's estimator is
// unbiased, and with one band the result is bitwise identical to the
// gray solve). Scattering redirects rays per band, so it walks the bands
// one by one instead (solveSpectralBands). Either way results are
// deterministic for a given seed. Adaptive ray budgets are not supported
// with spectral solves. Cancellation follows the SolveRegionCtx
// contract.
func (s *SpectralDomain) SolveRegionSpectral(ctx context.Context, region grid.Box, opts *Options) (*field.CC[float64], error) {
	if err := begin(ctx, opts, s); err != nil {
		return nil, err
	}
	if opts.adaptiveEnabled() {
		return nil, errOpt("adaptive ray budgets are not supported with spectral solves")
	}
	sh := s.spectralShared(opts)
	if opts.ScatterCoeff > 0 {
		return s.solveSpectralBands(ctx, region, opts, sh)
	}
	out, _, err := s.Base.solveRegion(ctx, region, opts, sh, 0)
	return out, err
}

// spectralShared is the read-only band context of a spectral solve,
// shared by all workers: the per-band constants and per-band absorption
// arrays indexed exactly like each level's packed records.
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

// band returns the one-band slice of sh for band k.
func (sh *spectralShared) band(k int) *spectralShared {
	one := &spectralShared{bands: sh.bands[k : k+1], kap: make([][][]float64, len(sh.kap))}
	for li, kap := range sh.kap {
		one.kap[li] = kap[k : k+1]
	}
	return one
}

// solveSpectralBands is the scattering path: K one-band walks over the
// base domain's packed tables, each on its band's slice of sh and its
// own band-offset stream, summed in band order. Scattering redirects
// rays per band, so the bands cannot share a walk: fusing them would
// change every band's numbers. Inputs are assumed validated.
func (s *SpectralDomain) solveSpectralBands(ctx context.Context, region grid.Box, opts *Options, sh *spectralShared) (*field.CC[float64], error) {
	total := field.NewCC[float64](region)
	for k := range sh.bands {
		bandOpts := *opts
		bandOpts.Seed = opts.Seed + uint64(k)*0x9e3779b97f4a7c15
		out, _, err := s.Base.solveRegion(ctx, region, &bandOpts, sh.band(k), 0)
		if err != nil {
			return nil, fmt.Errorf("rmcrt: band %d (%s): %w", k, s.LevelBands[0][k].Name, err)
		}
		td, od := total.Data(), out.Data()
		for i := range td {
			td[i] += od[i]
		}
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
