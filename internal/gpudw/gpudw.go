// Package gpudw implements the paper's contribution (ii): the GPU
// DataWarehouse extension with a *mesh-level database* — a repository
// for shared, per-mesh-level variables such as the global radiative
// properties.
//
// The problem it solves: the host DataWarehouse hands every fine-mesh
// patch task its own window of the coarse radiation level (the
// "infinite ghost cells" requirement). Copying that window per patch to
// the GPU both floods PCIe and overflows the K20X's 6 GB — the coarse
// 128³ level's three properties alone are ~50 MB, and a node may run
// dozens of patch tasks concurrently. The level database short-circuits
// this: the first task to need a (label, level) uploads it once; every
// other task on the device shares that single copy via refcounting.
// Accounting fields measure the PCIe bytes actually transferred vs. the
// bytes the per-patch replication design would have transferred, which
// the A2 experiment reports.
package gpudw

import (
	"fmt"
	"sync"

	"github.com/uintah-repro/rmcrt/internal/field"
	"github.com/uintah-repro/rmcrt/internal/gpu"
	"github.com/uintah-repro/rmcrt/internal/grid"
)

// LevelKey identifies one shared per-level variable on the device.
type LevelKey struct {
	Label string
	Level int
}

// PatchKey identifies one per-patch variable on the device.
type PatchKey struct {
	Label string
	Patch int
}

type levelEntry struct {
	buf  *gpu.Buffer
	refs int
	// ready is closed once the first acquirer's upload has finished;
	// err is its outcome. Both are set before the close.
	ready chan struct{}
	err   error
}

// DW is the GPU DataWarehouse for one device. Methods are safe for
// concurrent use: many patch tasks acquire the same level entry at once.
type DW struct {
	dev *gpu.Device

	mu      sync.Mutex
	levels  map[LevelKey]*levelEntry
	patches map[PatchKey]*gpu.Buffer

	// h2dBytes counts bytes actually copied to the device.
	h2dBytes int64
	// savedBytes counts bytes that per-patch replication would have
	// copied but the level database avoided.
	savedBytes int64
}

// New creates a warehouse bound to dev.
func New(dev *gpu.Device) *DW {
	return &DW{
		dev:     dev,
		levels:  make(map[LevelKey]*levelEntry),
		patches: make(map[PatchKey]*gpu.Buffer),
	}
}

// Device returns the underlying device.
func (d *DW) Device() *gpu.Device { return d.dev }

// AcquireLevelVar returns the device buffer holding the whole-level
// variable (label, level), uploading it on the stream if this is the
// first acquisition. Callers must balance a successful acquire with
// ReleaseLevelVar. The first acquirer owns the upload; concurrent
// acquirers wait for it and share its buffer, so the variable is
// allocated and copied at most once per residency.
func (d *DW) AcquireLevelVar(s *gpu.Stream, label string, level int, host *field.CC[float64]) (*gpu.Buffer, error) {
	key := LevelKey{label, level}
	size := host.SizeBytes(8)

	d.mu.Lock()
	e, found := d.levels[key]
	if !found {
		e = &levelEntry{ready: make(chan struct{})}
		d.levels[key] = e
	}
	e.refs++
	d.mu.Unlock()

	if found {
		<-e.ready
		if e.err != nil {
			return nil, e.err
		}
		d.mu.Lock()
		d.savedBytes += size // a replication design would re-upload
		d.mu.Unlock()
		return e.buf, nil
	}

	// Upload outside the map lock; later acquirers wait on ready.
	buf, err := d.dev.Alloc(size)
	if err == nil {
		copy(buf.Data, host.Data())
		s.H2D(size, fmt.Sprintf("levelvar %s L%d", label, level))
	}
	d.mu.Lock()
	if err != nil {
		e.err = fmt.Errorf("gpudw: level var %v: %w", key, err)
		delete(d.levels, key)
	} else {
		e.buf = buf
		d.h2dBytes += size
	}
	d.mu.Unlock()
	close(e.ready)
	if e.err != nil {
		return nil, e.err
	}
	return buf, nil
}

// ReleaseLevelVar drops one reference to (label, level). When the last
// reference is released the device copy is freed — unless keepResident
// was set, in which case it stays for the next timestep (radiative
// properties change every radiation solve, so the default is to free).
func (d *DW) ReleaseLevelVar(label string, level int) {
	key := LevelKey{label, level}
	d.mu.Lock()
	e, ok := d.levels[key]
	if !ok {
		d.mu.Unlock()
		panic(fmt.Sprintf("gpudw: release of unknown level var %v", key))
	}
	e.refs--
	if e.refs > 0 {
		d.mu.Unlock()
		return
	}
	delete(d.levels, key)
	d.mu.Unlock()
	d.dev.Free(e.buf)
}

// LevelRefs returns the current reference count for (label, level), 0 if
// not resident. For tests.
func (d *DW) LevelRefs(label string, level int) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if e, ok := d.levels[LevelKey{label, level}]; ok {
		return e.refs
	}
	return 0
}

// PutPatchVar uploads a per-patch variable (fine-mesh inputs like the
// patch's own abskg window, or allocates the patch's output divQ).
// Unlike level vars, patch vars are owned by exactly one task.
func (d *DW) PutPatchVar(s *gpu.Stream, label string, patch int, host *field.CC[float64]) (*gpu.Buffer, error) {
	key := PatchKey{label, patch}
	size := host.SizeBytes(8)
	buf, err := d.dev.Alloc(size)
	if err != nil {
		return nil, fmt.Errorf("gpudw: patch var %v: %w", key, err)
	}
	copy(buf.Data, host.Data())
	s.H2D(size, fmt.Sprintf("patchvar %s p%d", label, patch))

	d.mu.Lock()
	if _, dup := d.patches[key]; dup {
		d.mu.Unlock()
		d.dev.Free(buf)
		return nil, fmt.Errorf("gpudw: duplicate patch var %v", key)
	}
	d.patches[key] = buf
	d.h2dBytes += size
	d.mu.Unlock()
	return buf, nil
}

// AllocPatchVar allocates an uninitialized per-patch device variable
// (for task outputs; no H2D transfer).
func (d *DW) AllocPatchVar(label string, patch int, cells int) (*gpu.Buffer, error) {
	key := PatchKey{label, patch}
	buf, err := d.dev.Alloc(int64(cells) * 8)
	if err != nil {
		return nil, fmt.Errorf("gpudw: alloc patch var %v: %w", key, err)
	}
	d.mu.Lock()
	if _, dup := d.patches[key]; dup {
		d.mu.Unlock()
		d.dev.Free(buf)
		return nil, fmt.Errorf("gpudw: duplicate patch var %v", key)
	}
	d.patches[key] = buf
	d.mu.Unlock()
	return buf, nil
}

// FetchPatchVar copies a per-patch device variable back to the host
// window (D2H) and frees its device storage.
func (d *DW) FetchPatchVar(s *gpu.Stream, label string, patch int, host *field.CC[float64]) error {
	key := PatchKey{label, patch}
	d.mu.Lock()
	buf, ok := d.patches[key]
	if !ok {
		d.mu.Unlock()
		return fmt.Errorf("gpudw: fetch of unknown patch var %v", key)
	}
	delete(d.patches, key)
	d.mu.Unlock()

	copy(host.Data(), buf.Data[:len(host.Data())])
	s.D2H(host.SizeBytes(8), fmt.Sprintf("fetch %s p%d", label, patch))
	d.dev.Free(buf)
	return nil
}

// FreePatchVar releases a per-patch device variable without copyback.
func (d *DW) FreePatchVar(label string, patch int) {
	key := PatchKey{label, patch}
	d.mu.Lock()
	buf, ok := d.patches[key]
	if ok {
		delete(d.patches, key)
	}
	d.mu.Unlock()
	if ok {
		d.dev.Free(buf)
	}
}

// H2DBytes returns the bytes actually transferred host-to-device.
func (d *DW) H2DBytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.h2dBytes
}

// SavedBytes returns the PCIe bytes the level database avoided relative
// to per-patch replication of level variables.
func (d *DW) SavedBytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.savedBytes
}

// ReplicationBytes computes what per-patch replication of the coarse
// level variables would transfer for one radiation solve: every fine
// patch gets its own copy of every level variable. Used by the A2
// memory-claim experiment.
func ReplicationBytes(g *grid.Grid, fineLevel int, varsPerLevel int) int64 {
	var total int64
	nFine := int64(len(g.Levels[fineLevel].Patches))
	for li := 0; li < fineLevel; li++ {
		levelBytes := int64(g.Levels[li].NumCells()) * 8
		total += nFine * int64(varsPerLevel) * levelBytes
	}
	return total
}

// LevelDatabaseBytes computes what the level database transfers: one
// copy of every coarse-level variable, regardless of patch count.
func LevelDatabaseBytes(g *grid.Grid, fineLevel int, varsPerLevel int) int64 {
	var total int64
	for li := 0; li < fineLevel; li++ {
		total += int64(varsPerLevel) * int64(g.Levels[li].NumCells()) * 8
	}
	return total
}
