package rmcrt

import (
	"context"
	"math"
	"testing"

	"github.com/uintah-repro/rmcrt/internal/field"
	"github.com/uintah-repro/rmcrt/internal/grid"
	"github.com/uintah-repro/rmcrt/internal/mathutil"
)

func TestBuildBoilerStructure(t *testing.T) {
	spec := DefaultBoiler()
	d, g, _, err := NewBoilerDomain(spec, 32)
	if err != nil {
		t.Fatal(err)
	}
	lvl := g.Levels[0]
	ld := &d.Levels[0]

	// Tube banks exist and only in the upper half.
	tubes := 0
	lvl.IndexBox().ForEach(func(c grid.IntVector) {
		if ld.CellType.At(c) == field.Intrusion {
			tubes++
			if z := lvl.CellCenter(c).Z; z < 0.55 {
				t.Fatalf("tube cell at height %v, below the convective section", z)
			}
		}
	})
	if tubes == 0 {
		t.Fatal("no tube bank cells generated")
	}
	// Flame core is hotter and sootier than the exit region.
	coreCell := lvl.CellContaining(mathutil.V3(0.5, 0.5, 0.25))
	exitCell := lvl.CellContaining(mathutil.V3(0.5, 0.5, 0.95))
	if ld.SigmaT4OverPi.At(coreCell) <= ld.SigmaT4OverPi.At(exitCell) {
		t.Error("flame core should out-emit the exit gas")
	}
	if ld.Abskg.At(coreCell) <= ld.Abskg.At(exitCell) {
		t.Error("flame core should be sootier than the exit gas")
	}
	// No tube banks requested -> all flow.
	spec0 := spec
	spec0.TubeBanks = 0
	a, _, ct := BuildBoiler(spec0, lvl, lvl.IndexBox())
	ct.Box().ForEach(func(c grid.IntVector) {
		if ct.At(c) != field.Flow {
			t.Fatalf("unexpected intrusion at %v with 0 tube banks", c)
		}
	})
	if a.At(coreCell) <= 0 {
		t.Error("absorption must be positive")
	}
}

func TestBoilerRadiationPhysics(t *testing.T) {
	if testing.Short() {
		t.Skip("boiler solve skipped in -short")
	}
	d, g, opts, err := NewBoilerDomain(DefaultBoiler(), 24)
	if err != nil {
		t.Fatal(err)
	}
	opts.NRays = 64
	lvl := g.Levels[0]

	// The flame core is a strong net emitter; gas just above the cold
	// tube banks receives more than it emits locally or at least emits
	// far less than the core.
	core := lvl.CellContaining(mathutil.V3(0.5, 0.5, 0.25))
	dqCore := d.SolveCell(core, &opts)
	if dqCore <= 0 {
		t.Errorf("flame core divQ = %g, want strong net emission", dqCore)
	}
	exit := lvl.CellContaining(mathutil.V3(0.5, 0.5, 0.97))
	dqExit := d.SolveCell(exit, &opts)
	if dqExit >= dqCore {
		t.Errorf("exit gas divQ %g should be far below core %g", dqExit, dqCore)
	}

	// Wall fluxes: the furnace bottom (z-) faces the flame directly and
	// must receive more than the roof (z+), which is screened by the
	// tube banks.
	qBottom, err := d.SolveWallFlux(context.Background(), ZMinus, &opts)
	if err != nil {
		t.Fatal(err)
	}
	qRoof, err := d.SolveWallFlux(context.Background(), ZPlus, &opts)
	if err != nil {
		t.Fatal(err)
	}
	if qBottom <= qRoof {
		t.Errorf("bottom flux %g should exceed tube-screened roof flux %g", qBottom, qRoof)
	}
	// Magnitudes: fluxes live between the wall's own emission and the
	// flame's blackbody emission.
	wallE := SigmaSB * math.Pow(700, 4)
	flameE := SigmaSB * math.Pow(1900, 4)
	for _, q := range []float64{qBottom, qRoof} {
		if q < 0.2*wallE || q > flameE {
			t.Errorf("wall flux %g outside physical range [%g, %g]", q, 0.2*wallE, flameE)
		}
	}
}

func TestBoilerTubesScreenRays(t *testing.T) {
	// A ray fired upward through a tube bank must terminate at the tube
	// (picking up its emission), not reach the roof.
	d, g, opts, err := NewBoilerDomain(DefaultBoiler(), 32)
	if err != nil {
		t.Fatal(err)
	}
	lvl := g.Levels[0]
	// Find a blocked column: scan y for a tube cell at the first bank.
	ld := &d.Levels[0]
	blockedY := -1.0
	for yi := 0; yi < 32; yi++ {
		c := lvl.CellContaining(mathutil.V3(0.5, (float64(yi)+0.5)/32, 0.615))
		if ld.CellType.At(c) == field.Intrusion {
			blockedY = (float64(yi) + 0.5) / 32
			break
		}
	}
	if blockedY < 0 {
		t.Fatal("no blocked column found in first tube bank")
	}
	origin := mathutil.V3(0.5, blockedY, 0.5)
	up := mathutil.V3(0, 0, 1)
	sumI := d.TraceRay(origin, up, nil, &opts)
	// The tube emits at WallTemp through emissivity 0.85; the ray
	// accrues gas emission along ~0.1 m plus the tube term — it must be
	// dominated by the tube's (warm) emission rather than the near-zero
	// attenuation of a clear path toward the roof; compare against a
	// clear-column ray which passes all banks.
	wallI := 0.85 * SigmaSB * math.Pow(700, 4) / math.Pi
	if sumI < 0.5*wallI {
		t.Errorf("blocked ray sumI = %g, want >= half the tube intensity %g", sumI, wallI)
	}
}
