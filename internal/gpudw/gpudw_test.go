package gpudw

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"github.com/uintah-repro/rmcrt/internal/field"
	"github.com/uintah-repro/rmcrt/internal/gpu"
	"github.com/uintah-repro/rmcrt/internal/grid"
	"github.com/uintah-repro/rmcrt/internal/mathutil"
)

func newDW(capacity int64) (*DW, *gpu.Device) {
	dev := gpu.NewDevice(capacity, gpu.NewK20X(1e9))
	return New(dev), dev
}

func levelVar(n int) *field.CC[float64] {
	v := field.NewCC[float64](grid.NewBox(grid.IntVector{}, grid.Uniform(n)))
	v.FillFunc(func(c grid.IntVector) float64 { return float64(c.X + c.Y + c.Z) })
	return v
}

func TestLevelVarSharedAcrossTasks(t *testing.T) {
	d, dev := newDW(1 << 20)
	host := levelVar(8) // 512 cells * 8B = 4096 B
	s := dev.NewStream()

	b1, err := d.AcquireLevelVar(s, "abskg", 0, host)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := d.AcquireLevelVar(s, "abskg", 0, host)
	if err != nil {
		t.Fatal(err)
	}
	if b1 != b2 {
		t.Error("second acquire must share the first upload")
	}
	if d.LevelRefs("abskg", 0) != 2 {
		t.Errorf("refs = %d", d.LevelRefs("abskg", 0))
	}
	// One copy on the device, not two.
	if dev.Used() != 4096 {
		t.Errorf("device used = %d, want 4096", dev.Used())
	}
	if d.H2DBytes() != 4096 {
		t.Errorf("h2d = %d, want 4096", d.H2DBytes())
	}
	if d.SavedBytes() != 4096 {
		t.Errorf("saved = %d, want 4096 (one avoided re-upload)", d.SavedBytes())
	}
	// Device data is the host data.
	if b1.Data[0] != host.Data()[0] || b1.Data[511] != host.Data()[511] {
		t.Error("upload did not copy host data")
	}
}

func TestLevelVarFreedAtLastRelease(t *testing.T) {
	d, dev := newDW(1 << 20)
	host := levelVar(4)
	s := dev.NewStream()
	d.AcquireLevelVar(s, "sigmaT4", 0, host)
	d.AcquireLevelVar(s, "sigmaT4", 0, host)
	d.ReleaseLevelVar("sigmaT4", 0)
	if dev.Used() == 0 {
		t.Error("freed before last release")
	}
	d.ReleaseLevelVar("sigmaT4", 0)
	if dev.Used() != 0 {
		t.Errorf("device used = %d after last release", dev.Used())
	}
	if d.LevelRefs("sigmaT4", 0) != 0 {
		t.Error("refs nonzero after release")
	}
}

func TestReleaseUnknownPanics(t *testing.T) {
	d, _ := newDW(1 << 20)
	defer func() {
		if recover() == nil {
			t.Error("release of unknown level var should panic")
		}
	}()
	d.ReleaseLevelVar("nope", 0)
}

func TestLevelVarCapacityExceeded(t *testing.T) {
	d, _ := newDW(100) // tiny device
	host := levelVar(8)
	s := d.Device().NewStream()
	_, err := d.AcquireLevelVar(s, "abskg", 0, host)
	if !errors.Is(err, gpu.ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
}

func TestConcurrentAcquireUploadsOnce(t *testing.T) {
	d, dev := newDW(1 << 24)
	dev.SetRecording(true)
	host := levelVar(16) // 32 KiB
	var wg sync.WaitGroup
	bufs := make([]*gpu.Buffer, 16)
	for i := range bufs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := dev.NewStream()
			b, err := d.AcquireLevelVar(s, "abskg", 0, host)
			if err != nil {
				t.Error(err)
				return
			}
			bufs[i] = b
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(bufs); i++ {
		if bufs[i] != bufs[0] {
			t.Fatal("concurrent acquirers got different buffers")
		}
	}
	size := host.SizeBytes(8)
	if d.H2DBytes() != size {
		t.Errorf("h2d = %d, want exactly one upload of %d", d.H2DBytes(), size)
	}
	if d.SavedBytes() != 15*size {
		t.Errorf("saved = %d, want %d", d.SavedBytes(), 15*size)
	}
	if dev.Used() != size {
		t.Errorf("device used = %d, want one copy (%d)", dev.Used(), size)
	}
	// Losers of an upload race must not have copied or allocated either:
	// the device records one transfer and never held a second copy.
	uploads := 0
	for _, e := range dev.Events() {
		if e.Kind == gpu.EventH2D && strings.HasPrefix(e.Label, "levelvar") {
			uploads++
		}
	}
	if uploads != 1 {
		t.Errorf("device recorded %d levelvar uploads, want 1", uploads)
	}
	if dev.PeakUsed() != size {
		t.Errorf("device peak = %d, want one copy (%d)", dev.PeakUsed(), size)
	}
}

func TestPatchVarLifecycle(t *testing.T) {
	d, dev := newDW(1 << 20)
	s := dev.NewStream()
	pv := field.NewCC[float64](grid.NewBox(grid.IntVector{}, grid.Uniform(4)))
	pv.Fill(2.5)
	if _, err := d.PutPatchVar(s, "T", 3, pv); err != nil {
		t.Fatal(err)
	}
	if _, err := d.PutPatchVar(s, "T", 3, pv); err == nil {
		t.Error("duplicate patch var should fail")
	}
	out := field.NewCC[float64](pv.Box())
	if err := d.FetchPatchVar(s, "T", 3, out); err != nil {
		t.Fatal(err)
	}
	if out.At(grid.IV(1, 1, 1)) != 2.5 {
		t.Error("fetched data wrong")
	}
	if dev.Used() != 0 {
		t.Errorf("device used = %d after fetch", dev.Used())
	}
	if err := d.FetchPatchVar(s, "T", 3, out); err == nil {
		t.Error("second fetch should fail (var consumed)")
	}
}

func TestAllocPatchVarAndFree(t *testing.T) {
	d, dev := newDW(1 << 20)
	if _, err := d.AllocPatchVar("divQ", 7, 64); err != nil {
		t.Fatal(err)
	}
	if dev.Used() != 64*8 {
		t.Errorf("used = %d", dev.Used())
	}
	if _, err := d.AllocPatchVar("divQ", 7, 64); err == nil {
		t.Error("duplicate alloc should fail")
	}
	d.FreePatchVar("divQ", 7)
	if dev.Used() != 0 {
		t.Errorf("used = %d after free", dev.Used())
	}
	d.FreePatchVar("divQ", 7) // idempotent
}

// TestReplicationVsLevelDatabase reproduces the paper's A2 memory
// argument with the LARGE problem's actual numbers: a 512³ fine level
// decomposed into 64³ patches, a 128³ coarse level, 3 radiative
// properties. Per-patch replication of the coarse level wildly exceeds
// the K20X's 6 GB; the level database fits easily.
func TestReplicationVsLevelDatabase(t *testing.T) {
	g, err := grid.New(mathutil.V3(0, 0, 0), mathutil.V3(1, 1, 1),
		grid.Spec{Resolution: grid.Uniform(128), PatchSize: grid.Uniform(16)},
		grid.Spec{Resolution: grid.Uniform(512), PatchSize: grid.Uniform(64)},
	)
	if err != nil {
		t.Fatal(err)
	}
	const props = 3 // abskg, sigmaT4, cellType (modelled as 8B for bound)
	repl := ReplicationBytes(g, 1, props)
	ldb := LevelDatabaseBytes(g, 1, props)

	coarseBytes := int64(128*128*128) * 8
	if ldb != props*coarseBytes {
		t.Errorf("level database bytes = %d, want %d", ldb, props*coarseBytes)
	}
	nFine := int64(len(g.Levels[1].Patches)) // 512 patches of 64³
	if repl != nFine*props*coarseBytes {
		t.Errorf("replication bytes = %d, want %d", repl, nFine*props*coarseBytes)
	}
	if repl <= gpu.K20XMemory {
		t.Errorf("replication %d unexpectedly fits in 6GB — the premise of the level DB", repl)
	}
	if ldb >= gpu.K20XMemory/10 {
		t.Errorf("level database %d should be well under 6GB", ldb)
	}
	if ratio := repl / ldb; ratio != nFine {
		t.Errorf("savings ratio = %d, want the fine patch count %d", ratio, nFine)
	}
}
