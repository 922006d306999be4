package rmcrt

import (
	"fmt"

	"github.com/uintah-repro/rmcrt/internal/alloc"
	"github.com/uintah-repro/rmcrt/internal/grid"
)

// Packed property tables — the host-side analog of the paper's GPU
// DataWarehouse "level database": one shared, read-only copy of each
// level's radiative properties that every ray marches through.
//
// The seed tracer paid three scattered CC.At lookups per DDA step —
// three separate arrays, each with full 3-D offset arithmetic and its
// own cache line. A PackedLevel fuses {abskg, sigmaT4/π, cellType}
// into a single contiguous per-cell record so a step is one integer
// add (the precomputed stride for the crossed axis) and one 24-byte
// record load. Storage comes from an alloc.Arena (the paper's
// contribution iv), keeping the large tables off the general heap.
//
// Tables are strictly read-only once built: the values are bit-copies
// of the level fields, so the march's arithmetic — and therefore divQ
// — is bitwise identical to reading the unpacked fields.

// PackedCell is one cell's fused radiative property record: exactly
// three 8-byte words, no padding.
type PackedCell struct {
	// Abskg is the absorption coefficient κ (1/m).
	Abskg float64
	// SigmaT4OverPi is the blackbody emitted intensity σT⁴/π.
	SigmaT4OverPi float64
	// Flags is nonzero iff the cell is opaque (CellType != Flow).
	Flags uint64
}

// packedCellBytes is unsafe.Sizeof(PackedCell{}) spelled as a constant:
// three 8-byte words on every supported platform.
const packedCellBytes = 24

// PackedLevel is one level's contiguous record table over its ROI,
// z-fastest like field.CC, with the strides precomputed for the
// flat-index walk.
type PackedLevel struct {
	box    grid.Box
	ext    grid.IntVector
	sx, sy int // flat-index strides for x and y; the z stride is 1
	recs   []PackedCell
}

// PackLevel fuses ld's three property fields into one record table
// over ld.ROI, with storage drawn from the arena (the heap when a is
// nil). Values are copied bit-for-bit; the caller must not mutate the
// level fields afterwards while the table is in use.
func PackLevel(ld *LevelData, a *alloc.Arena) *PackedLevel {
	box := ld.ROI
	ext := box.Extent()
	pl := &PackedLevel{
		box:  box,
		ext:  ext,
		sx:   ext.Y * ext.Z,
		sy:   ext.Z,
		recs: alloc.AllocSlice[PackedCell](a, ext.Volume()),
	}
	ka, sa, ca := ld.Abskg.Data(), ld.SigmaT4OverPi.Data(), ld.CellType.Data()
	i := 0
	for x := box.Lo.X; x < box.Hi.X; x++ {
		for y := box.Lo.Y; y < box.Hi.Y; y++ {
			// Contiguous z-runs on all three sources.
			row := grid.IntVector{X: x, Y: y, Z: box.Lo.Z}
			ko := ld.Abskg.OffsetOf(row)
			so := ld.SigmaT4OverPi.OffsetOf(row)
			co := ld.CellType.OffsetOf(row)
			for z := 0; z < ext.Z; z++ {
				pl.recs[i] = PackedCell{
					Abskg:         ka[ko+z],
					SigmaT4OverPi: sa[so+z],
					Flags:         uint64(uint8(ca[co+z])),
				}
				i++
			}
		}
	}
	return pl
}

// Box returns the index box the table covers (the level's ROI at pack
// time).
func (pl *PackedLevel) Box() grid.Box { return pl.box }

// SizeBytes returns the table's storage footprint.
func (pl *PackedLevel) SizeBytes() int64 { return int64(len(pl.recs)) * packedCellBytes }

// OffsetOf returns cell c's flat record index. Callers must ensure c
// lies in Box; the march only converts cells it has already checked
// against the ROI.
func (pl *PackedLevel) OffsetOf(c grid.IntVector) int {
	r := c.Sub(pl.box.Lo)
	return (r.X*pl.ext.Y+r.Y)*pl.ext.Z + r.Z
}

// At returns cell c's record, panicking outside Box — the checked
// diagnostic/test path, matching field.CC.At semantics.
func (pl *PackedLevel) At(c grid.IntVector) PackedCell {
	if !pl.box.Contains(c) {
		panic(fmt.Sprintf("rmcrt: packed access at %v outside table %v", c, pl.box))
	}
	return pl.recs[pl.OffsetOf(c)]
}

// packedCursor is the flat-index view of a marchState on one packed
// level: idx is the current cell's record offset and d[ax] is the
// signed record-offset delta of one DDA step along axis ax, so a step
// is `idx += d[ax]`.
type packedCursor struct {
	idx int
	d   [3]int
}

// cursor derives the flat cursor for st. It panics if st.cell is
// outside the table, preserving the seed tracer's out-of-window panic
// semantics at every point a cursor is (re)built.
func (pl *PackedLevel) cursor(st *marchState) packedCursor {
	if !pl.box.Contains(st.cell) {
		panic(fmt.Sprintf("rmcrt: packed cursor at %v outside table %v", st.cell, pl.box))
	}
	return packedCursor{
		idx: pl.OffsetOf(st.cell),
		d:   [3]int{pl.sx * st.step.X, pl.sy * st.step.Y, st.step.Z},
	}
}

// PackedDomain is the packed view of a Domain's level hierarchy:
// levels[i] corresponds to Domain.Levels[i]. Individual levels may be
// shared between PackedDomains (the service's table cache shares the
// replicated coarse level across concurrent jobs).
type PackedDomain struct {
	levels []*PackedLevel
	arena  *alloc.Arena
}

// PackDomain packs every level of d. A nil arena gets a private one
// sized so each table lands in its own dedicated slab.
func PackDomain(d *Domain, a *alloc.Arena) *PackedDomain {
	if a == nil {
		a = alloc.NewArena(1 << 16)
	}
	levels := make([]*PackedLevel, len(d.Levels))
	for i := range d.Levels {
		levels[i] = PackLevel(&d.Levels[i], a)
	}
	return &PackedDomain{levels: levels, arena: a}
}

// NewPackedDomain assembles a packed domain from per-level tables,
// coarsest first — the path the service's table cache uses to combine
// a shared coarse table with a job-private fine table.
func NewPackedDomain(levels []*PackedLevel) *PackedDomain {
	cp := make([]*PackedLevel, len(levels))
	copy(cp, levels)
	return &PackedDomain{levels: cp}
}

// NumLevels returns the number of packed levels.
func (p *PackedDomain) NumLevels() int { return len(p.levels) }

// Level returns the i-th packed level (0 = coarsest).
func (p *PackedDomain) Level(i int) *PackedLevel { return p.levels[i] }

// SizeBytes returns the total table footprint across levels.
func (p *PackedDomain) SizeBytes() int64 {
	var n int64
	for _, pl := range p.levels {
		n += pl.SizeBytes()
	}
	return n
}

// Arena returns the arena backing PackDomain-built tables; nil for
// domains assembled from cached levels (their storage belongs to the
// cache's arena).
func (p *PackedDomain) Arena() *alloc.Arena { return p.arena }

// AttachPacked installs pre-built tables on d, so a solve reuses them
// instead of packing privately. Each table must cover the matching
// level's ROI; the caller guarantees the table contents were packed
// from property fields identical to d's (the service cache keys tables
// by content, which enforces this).
func (d *Domain) AttachPacked(p *PackedDomain) error {
	if p == nil {
		return fmt.Errorf("rmcrt: AttachPacked with nil tables")
	}
	if len(p.levels) != len(d.Levels) {
		return fmt.Errorf("rmcrt: packed domain has %d levels, domain has %d", len(p.levels), len(d.Levels))
	}
	for i, pl := range p.levels {
		if pl == nil {
			return fmt.Errorf("rmcrt: packed level %d is nil", i)
		}
		roi := d.Levels[i].ROI
		if pl.box.Intersect(roi) != roi {
			return fmt.Errorf("rmcrt: packed level %d table %v does not cover ROI %v", i, pl.box, roi)
		}
	}
	d.packed.Store(p)
	return nil
}

// Packed returns the currently attached/built tables, or nil if the
// domain has not been packed yet.
func (d *Domain) Packed() *PackedDomain { return d.packed.Load() }

// InvalidatePacked drops the attached tables; the next trace re-packs.
// Call it after mutating level property fields on a domain that has
// already traced rays (fresh domains need nothing).
func (d *Domain) InvalidatePacked() { d.packed.Store(nil) }

// ensurePacked returns the domain's packed tables, building them on
// first use. Safe for concurrent callers: a lost CAS race discards the
// duplicate build and every ray sees one consistent table set.
func (d *Domain) ensurePacked() *PackedDomain {
	if p := d.packed.Load(); p != nil {
		return p
	}
	p := PackDomain(d, nil)
	if d.packed.CompareAndSwap(nil, p) {
		return p
	}
	return d.packed.Load()
}
