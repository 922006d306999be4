package rmcrt

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/uintah-repro/rmcrt/internal/field"
	"github.com/uintah-repro/rmcrt/internal/grid"
	"github.com/uintah-repro/rmcrt/internal/mathutil"
)

// randIndex draws a uniform in-range stream index component.
func randIndex(rng *rand.Rand) int {
	return rng.Intn(2*streamIndexLimit) - streamIndexLimit
}

// TestCellStreamCollisionFree is the collision-freedom property test:
// over the representable range [−2²⁰, 2²⁰)³, distinct cells must map to
// distinct stream ids. Random pairs plus adversarial neighbours around
// the field boundaries (where a packing off-by-one would alias).
func TestCellStreamCollisionFree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200000; i++ {
		a := grid.IV(randIndex(rng), randIndex(rng), randIndex(rng))
		b := grid.IV(randIndex(rng), randIndex(rng), randIndex(rng))
		if a == b {
			continue
		}
		if cellStreamID(a) == cellStreamID(b) {
			t.Fatalf("stream collision: %v and %v both map to %#x", a, b, cellStreamID(a))
		}
	}

	// Field-boundary neighbours: ±1 in one axis at the extremes of
	// another. A 21-bit field overflowing into its neighbour would make
	// some of these collide.
	extremes := []int{-streamIndexLimit, -1, 0, 1, streamIndexLimit - 1}
	var cells []grid.IntVector
	for _, x := range extremes {
		for _, y := range extremes {
			for _, z := range extremes {
				cells = append(cells, grid.IV(x, y, z))
			}
		}
	}
	seen := make(map[uint64]grid.IntVector, len(cells))
	for _, c := range cells {
		id := cellStreamID(c)
		if prev, dup := seen[id]; dup {
			t.Fatalf("stream collision at extremes: %v and %v both map to %#x", prev, c, id)
		}
		seen[id] = c
	}
}

// TestCellStreamIDFrozen pins the exact packing: changing it would
// silently change every divQ ever computed (and invalidate cached and
// checkpointed results), so any change must be deliberate and show up
// here.
func TestCellStreamIDFrozen(t *testing.T) {
	cases := []struct {
		c    grid.IntVector
		want uint64
	}{
		{grid.IV(0, 0, 0), (1 << 62) | (1 << 41) | (1 << 20)},
		{grid.IV(1, 2, 3), ((1<<20)+1)<<42 | ((1<<20)+2)<<21 | ((1 << 20) + 3)},
		{grid.IV(-(1 << 20), -(1 << 20), -(1 << 20)), 0},
		{grid.IV((1<<20)-1, (1<<20)-1, (1<<20)-1), (1 << 63) - 1},
	}
	for _, tc := range cases {
		if got := cellStreamID(tc.c); got != tc.want {
			t.Errorf("cellStreamID(%v) = %#x, want %#x", tc.c, got, tc.want)
		}
	}
}

// TestNonCellNamespaceDisjoint proves property 2 of streams.go: every
// non-cell stream id has bit 63 set, every representable cell id has it
// clear, so the namespaces cannot intersect.
func TestNonCellNamespaceDisjoint(t *testing.T) {
	// Cell ids occupy bits 0..62 only; the corner cases bound the range.
	for _, c := range []grid.IntVector{
		grid.IV(-(1 << 20), -(1 << 20), -(1 << 20)),
		grid.IV((1<<20)-1, (1<<20)-1, (1<<20)-1),
		grid.IV(0, 0, 0),
	} {
		if cellStreamID(c)&streamTagNonCell != 0 {
			t.Fatalf("cell id %v has the non-cell tag bit set", c)
		}
	}
	faces := []WallFace{XMinus, XPlus, YMinus, YPlus, ZMinus, ZPlus}
	for _, f := range faces {
		if wallFaceStreamID(f)&streamTagNonCell == 0 {
			t.Errorf("wallFaceStreamID(%v) lacks the non-cell tag", f)
		}
	}
	if wallMapStreamID(YPlus, 11, 42)&streamTagNonCell == 0 {
		t.Error("wallMapStreamID lacks the non-cell tag")
	}
	r := Radiometer{Pos: mathutil.V3(0.5, 0.5, 0.5), Dir: mathutil.V3(0, 0, 1), HalfAngle: 0.3}
	if radiometerStreamID(r)&streamTagNonCell == 0 {
		t.Error("radiometerStreamID lacks the non-cell tag")
	}

	// Sub-namespaces are disjoint from each other too.
	if wallFaceStreamID(ZPlus) == wallMapStreamID(ZPlus, 0, 0) {
		t.Error("wall-face and wall-map streams collide")
	}
	for _, f := range faces {
		for g := range faces {
			if f != faces[g] && wallFaceStreamID(f) == wallFaceStreamID(faces[g]) {
				t.Errorf("faces %v and %v share a stream", f, faces[g])
			}
		}
	}
}

// TestSeedWallFluxStreamCollided documents the bug this PR fixes: the
// seed engine's wall-flux stream id uint64(face)+0xface is exactly the
// cell stream of a valid (if extreme) cell, so a solve touching that
// cell shared rays with the wall-flux estimate.
func TestSeedWallFluxStreamCollided(t *testing.T) {
	for _, f := range []WallFace{XMinus, XPlus, YMinus, YPlus, ZMinus, ZPlus} {
		seedID := uint64(f) + 0xface
		collider := grid.IV(-(1 << 20), -(1 << 20), int(f)+0xface-(1<<20))
		if cellStreamID(collider) != seedID {
			t.Fatalf("expected seed wall stream %#x to collide with cell %v (got %#x)",
				seedID, collider, cellStreamID(collider))
		}
		if !streamIndexInRange(collider) {
			t.Fatalf("collider %v should be in the representable range", collider)
		}
		// The fixed id cannot collide with any representable cell.
		if wallFaceStreamID(f)>>63 != 1 {
			t.Fatalf("fixed wall stream %#x is not tagged", wallFaceStreamID(f))
		}
	}
}

// TestValidateRejectsOutOfRangeROI checks Domain.Validate refuses ROIs
// whose indices the stream packing cannot represent, instead of letting
// cells silently alias RNG streams.
func TestValidateRejectsOutOfRangeROI(t *testing.T) {
	for _, tc := range []struct {
		name string
		roi  grid.Box
	}{
		{"above", grid.NewBox(grid.IV(1<<20, 0, 0), grid.IV((1<<20)+2, 2, 2))},
		{"below", grid.NewBox(grid.IV(0, -(1<<20)-1, 0), grid.IV(2, 1, 2))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, _, err := NewBenchmarkDomain(8)
			if err != nil {
				t.Fatal(err)
			}
			ld := &d.Levels[0]
			ld.ROI = tc.roi
			ld.Abskg = field.NewCC[float64](tc.roi)
			ld.SigmaT4OverPi = field.NewCC[float64](tc.roi)
			ld.CellType = field.NewCC[field.CellType](tc.roi)
			err = d.Validate()
			if err == nil {
				t.Fatal("Validate accepted an out-of-range ROI")
			}
			if !strings.Contains(err.Error(), "stream index range") {
				t.Fatalf("unexpected error: %v", err)
			}
		})
	}
}
