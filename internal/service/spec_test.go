package service

import (
	"context"
	"testing"

	"github.com/uintah-repro/rmcrt/internal/grid"
	"github.com/uintah-repro/rmcrt/internal/rmcrt"
)

func TestKeyNormalizationInvariance(t *testing.T) {
	// A spec with defaults spelled out hashes identically to one that
	// relies on them — equivalent requests must share cache entries.
	implicit := Spec{N: 12}
	explicit := Spec{Kind: KindBenchmark, N: 12, Levels: 1, PatchN: 12, RR: 2,
		Halo: 4, Rays: 100, Seed: 71, Threshold: 1e-4}
	if implicit.Key() != explicit.Key() {
		t.Fatalf("keys differ: %s vs %s", implicit.Key(), explicit.Key())
	}
}

func TestKeySensitivity(t *testing.T) {
	base := Spec{N: 12}
	variants := []Spec{
		{N: 13},
		{N: 12, Rays: 99},
		{N: 12, Seed: 5},
		{N: 12, Threshold: 1e-3},
		{N: 12, Kind: KindUniform},
		{N: 12, Levels: 2, PatchN: 6},
	}
	seen := map[string]bool{base.Key(): true}
	for _, v := range variants {
		k := v.Key()
		if seen[k] {
			t.Fatalf("spec %+v collides with an earlier key", v)
		}
		seen[k] = true
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{N: 1},
		{N: 8, Kind: "plasma"},
		{N: 8, Levels: 3},
		{N: 8, Rays: -1},
		{N: 8, Threshold: 2},
		{N: 8, Kind: KindUniform, Kappa: -1},
		{N: 8, Levels: 2, PatchN: 5}, // 5 does not divide 8
		{N: 8, Levels: 2, RR: 3},     // 3 does not divide 8
		{N: 8, Levels: 2, PatchN: 8, RR: 1},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %+v validated, want error", s)
		}
	}
	good := []Spec{
		{N: 8},
		{N: 8, Kind: KindUniform, Kappa: 2, SigmaT4: 0.5},
		{N: 8, Levels: 2, PatchN: 4, RR: 2},
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("spec %+v rejected: %v", s, err)
		}
	}
}

// TestBenchmarkSpecMatchesLibraryDomain: the service's single-level
// benchmark path must be bit-identical to rmcrt.NewBenchmarkDomain +
// SolveRegion with the same options — the determinism contract the
// cache relies on.
func TestBenchmarkSpecMatchesLibraryDomain(t *testing.T) {
	spec := Spec{N: 10, Rays: 15}
	got, rays, steps, err := spec.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rays == 0 || steps == 0 {
		t.Fatalf("rays=%d steps=%d, want counts", rays, steps)
	}
	d, g, err := rmcrt.NewBenchmarkDomain(10)
	if err != nil {
		t.Fatal(err)
	}
	opts := spec.Options()
	want, err := d.SolveRegion(g.Levels[0].IndexBox(), &opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range want.Data() {
		if got.Data()[i] != v {
			t.Fatalf("divQ differs at %d: %g vs %g", i, got.Data()[i], v)
		}
	}
}

// TestTwoLevelSpecMatchesMultiLevelBenchmark: the 2-level service path
// equals the library's NewMultiLevelBenchmark per-patch assembly.
func TestTwoLevelSpecMatchesMultiLevelBenchmark(t *testing.T) {
	spec := Spec{N: 16, Levels: 2, PatchN: 8, RR: 2, Rays: 5}
	got, _, _, err := spec.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	g, mk, err := rmcrt.NewMultiLevelBenchmark(16, 8, 2, spec.Normalized().Halo)
	if err != nil {
		t.Fatal(err)
	}
	opts := spec.Options()
	for _, p := range g.Levels[1].Patches {
		d, err := mk(p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := d.SolveRegion(p.Cells, &opts)
		if err != nil {
			t.Fatal(err)
		}
		p.Cells.ForEach(func(c grid.IntVector) {
			if got.At(c) != want.At(c) {
				t.Fatalf("patch %d divQ differs at %v: %g vs %g", p.ID, c, got.At(c), want.At(c))
			}
		})
	}
}

// TestSpectralBandFieldsSharedAcrossProblems: the problems of one spec
// read the same gray property fields, so they must share the band fields
// built from them instead of each holding K private copies of every
// level.
func TestSpectralBandFieldsSharedAcrossProblems(t *testing.T) {
	spec := Spec{N: 16, Levels: 2, PatchN: 8, RR: 2, Rays: 4, SpectralBands: 4}
	_, probs, err := spec.problems()
	if err != nil {
		t.Fatal(err)
	}
	if len(probs) < 2 {
		t.Fatalf("%d problems, want several patches", len(probs))
	}
	first := probs[0].spectral.LevelBands
	for _, pr := range probs[1:] {
		for li, bands := range pr.spectral.LevelBands {
			for k, b := range bands {
				if b.Abskg != first[li][k].Abskg {
					t.Fatalf("problem %d builds its own level %d band %d field", pr.id, li, k)
				}
			}
		}
	}
}
