package rmcrt

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"github.com/uintah-repro/rmcrt/internal/field"
	"github.com/uintah-repro/rmcrt/internal/grid"
)

// The packed record must stay exactly three 8-byte words: the stride
// arithmetic and SizeBytes both assume it.
func TestPackedCellRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(PackedCell{}); got != packedCellBytes {
		t.Fatalf("PackedCell is %d bytes, want %d", got, packedCellBytes)
	}
}

// Every packed record must be a bit-copy of the level fields — the
// foundation of the bitwise-identity contract with the seed engine.
func TestPackLevelBitwiseVsFields(t *testing.T) {
	g, mk, err := NewMultiLevelBenchmark(16, 8, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := mk(g.Levels[1].Patches[0])
	if err != nil {
		t.Fatal(err)
	}
	pd := PackDomain(d)
	for li := range d.Levels {
		ld := &d.Levels[li]
		pl := pd.Level(li)
		if pl.Box() != ld.ROI {
			t.Fatalf("level %d table box %v, want ROI %v", li, pl.Box(), ld.ROI)
		}
		ld.ROI.ForEach(func(c grid.IntVector) {
			rec := pl.At(c)
			if math.Float64bits(rec.Abskg) != math.Float64bits(ld.Abskg.At(c)) {
				t.Fatalf("level %d cell %v abskg %v != %v", li, c, rec.Abskg, ld.Abskg.At(c))
			}
			if math.Float64bits(rec.SigmaT4OverPi) != math.Float64bits(ld.SigmaT4OverPi.At(c)) {
				t.Fatalf("level %d cell %v sigmaT4 %v != %v", li, c, rec.SigmaT4OverPi, ld.SigmaT4OverPi.At(c))
			}
			opaque := ld.CellType.At(c) != field.Flow
			if (rec.Flags != 0) != opaque {
				t.Fatalf("level %d cell %v flags %d, opaque %v", li, c, rec.Flags, opaque)
			}
		})
	}
	want := int64(0)
	for li := range d.Levels {
		want += int64(d.Levels[li].ROI.Volume()) * packedCellBytes
	}
	if pd.SizeBytes() != want {
		t.Fatalf("SizeBytes %d, want %d", pd.SizeBytes(), want)
	}
}

// The flat cursor must agree with OffsetOf/At under random walks —
// property test for the stride-incremental indexing.
func TestPackedCursorMatchesOffsetOf(t *testing.T) {
	d, _, err := NewBenchmarkDomain(12)
	if err != nil {
		t.Fatal(err)
	}
	ld := d.finest()
	pl := PackLevel(ld)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		c := grid.IV(rng.Intn(12), rng.Intn(12), rng.Intn(12))
		st := marchState{cell: c, step: grid.IV(rng.Intn(3)-1, rng.Intn(3)-1, rng.Intn(3)-1)}
		cur := pl.cursor(&st)
		if cur.idx != pl.OffsetOf(c) {
			t.Fatalf("cursor idx %d != OffsetOf %d at %v", cur.idx, pl.OffsetOf(c), c)
		}
		// Walk a few steps, staying inside the box, checking the
		// incremental index against the recomputed one.
		for k := 0; k < 20; k++ {
			ax := rng.Intn(3)
			if st.step.Component(ax) == 0 {
				continue
			}
			next := st.cell.WithComponent(ax, st.cell.Component(ax)+st.step.Component(ax))
			if !pl.Box().Contains(next) {
				break
			}
			st.cell = next
			cur.idx += cur.d[ax]
			if cur.idx != pl.OffsetOf(st.cell) {
				t.Fatalf("after step on axis %d: idx %d != OffsetOf %d at %v",
					ax, cur.idx, pl.OffsetOf(st.cell), st.cell)
			}
		}
	}
}

// A domain solving through tables attached from outside (the service's
// shared-cache path) must produce bitwise identical divQ to a domain
// that packed privately.
func TestAttachPackedBitwiseVsPrivatePack(t *testing.T) {
	g, mk, err := NewMultiLevelBenchmark(16, 8, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := g.Levels[1].Patches[0]
	opts := DefaultOptions()
	opts.NRays = 6

	base, err := mk(p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := base.SolveRegion(p.Cells, &opts)
	if err != nil {
		t.Fatal(err)
	}

	shared, err := mk(p)
	if err != nil {
		t.Fatal(err)
	}
	levels := make([]*PackedLevel, len(shared.Levels))
	for i := range shared.Levels {
		levels[i] = PackLevel(&shared.Levels[i])
	}
	if err := shared.AttachPacked(NewPackedDomain(levels)); err != nil {
		t.Fatal(err)
	}
	got, err := shared.SolveRegion(p.Cells, &opts)
	if err != nil {
		t.Fatal(err)
	}
	assertBitwiseEqual(t, p.Cells, want, got, "attached tables")
}

func TestAttachPackedValidates(t *testing.T) {
	d, _, err := NewBenchmarkDomain(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AttachPacked(nil); err == nil {
		t.Fatal("nil packed domain accepted")
	}
	pd := PackDomain(d)
	if err := d.AttachPacked(NewPackedDomain(nil)); err == nil {
		t.Fatal("level-count mismatch accepted")
	}
	// A table packed over a shrunken ROI must be rejected by a domain
	// whose ROI it does not cover.
	shrunk, _, err := NewBenchmarkDomain(8)
	if err != nil {
		t.Fatal(err)
	}
	shrunk.Levels[0].ROI = grid.NewBox(grid.IV(0, 0, 0), grid.IV(4, 8, 8))
	pdSmall := PackDomain(shrunk)
	if err := d.AttachPacked(pdSmall); err == nil {
		t.Fatal("non-covering table accepted")
	}
	if err := d.AttachPacked(pd); err != nil {
		t.Fatalf("valid attach rejected: %v", err)
	}
	if d.Packed() != pd {
		t.Fatal("Packed() does not return the attached tables")
	}
	d.InvalidatePacked()
	if d.Packed() != nil {
		t.Fatal("InvalidatePacked left tables attached")
	}
}
