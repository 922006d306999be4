package service

import (
	"fmt"
	"math"
	"sync"

	"github.com/uintah-repro/rmcrt/internal/grid"
	"github.com/uintah-repro/rmcrt/internal/metrics"
	"github.com/uintah-repro/rmcrt/internal/rmcrt"
)

// PackedCache is the service-layer analog of the paper's GPU
// DataWarehouse level database: a content-keyed, refcounted cache of
// the tracer's packed per-level property tables, so concurrent jobs
// over the same coarse level march through one shared read-only copy
// instead of re-packing per solve. Tables are keyed by the
// property-shaping spec fields only — jobs that differ in ray count,
// seed or threshold still share. Its methods are safe for concurrent
// use, and builds are single-flight: the first acquirer of a key packs,
// racing acquirers wait and share the table.
type PackedCache struct {
	mu       sync.Mutex
	tables   *store[*rmcrt.PackedLevel]
	building map[string]chan struct{} // keys being packed; closed when resident

	mBuilds *metrics.Counter
	mHits   *metrics.Counter
	gBytes  *metrics.Gauge
}

// defaultPackedRetainBytes is how much idle (unreferenced) table data
// the cache keeps resident so back-to-back jobs share too: 64 MiB, a
// few coarse 128³ levels.
const defaultPackedRetainBytes = 64 << 20

// NewPackedCache creates a cache retaining up to retainBytes of idle
// tables (0 = default 64 MiB, negative = none: a table is dropped at
// its last release) and registers the rmcrt_packed_{builds,hits,bytes}
// series in reg (a private registry when nil).
func NewPackedCache(retainBytes int64, reg *metrics.Registry) *PackedCache {
	if retainBytes == 0 {
		retainBytes = defaultPackedRetainBytes
	}
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &PackedCache{
		tables:   newStore[*rmcrt.PackedLevel](retainBytes),
		building: make(map[string]chan struct{}),
		mBuilds:  reg.Counter("rmcrt_packed_builds", "packed property tables built (shared-cache misses)"),
		mHits:    reg.Counter("rmcrt_packed_hits", "packed property table acquisitions served from the shared cache"),
		gBytes:   reg.Gauge("rmcrt_packed_bytes", "bytes of packed property tables resident in the shared cache"),
	}
}

// tableKey is the content address of one level's packed table: every
// spec field that shapes the property values, plus the level index and
// the ROI the table covers. Sampling fields (rays, seed, threshold)
// are deliberately absent.
func tableKey(n Spec, level int, roi grid.Box) string {
	return fmt.Sprintf("%s|n%d|l%d|rr%d|k%x|s%x|h%d.%d.%d.%d|hk%x|hs%x|L%d|%v",
		n.Kind, n.N, n.Levels, n.RR,
		math.Float64bits(n.Kappa), math.Float64bits(n.SigmaT4),
		n.HotX, n.HotY, n.HotZ, n.HotN,
		math.Float64bits(n.HotKappa), math.Float64bits(n.HotSigmaT4), level, roi)
}

// acquire pins key's table, packing ld at most once per residency: an
// acquirer that finds the key mid-build waits for it. Callers balance
// it with an unpin.
func (pc *PackedCache) acquire(key string, ld *rmcrt.LevelData) *rmcrt.PackedLevel {
	pc.mu.Lock()
	for {
		if t, ok := pc.tables.pin(key); ok {
			pc.mu.Unlock()
			pc.mHits.Inc()
			return t
		}
		ready, ok := pc.building[key]
		if !ok {
			break
		}
		pc.mu.Unlock()
		<-ready
		pc.mu.Lock()
	}
	ready := make(chan struct{})
	pc.building[key] = ready
	pc.mu.Unlock()
	pc.mBuilds.Inc()

	t := rmcrt.PackLevel(ld, nil)

	pc.mu.Lock()
	pc.tables.insert(key, t, t.SizeBytes())
	delete(pc.building, key)
	close(ready)
	pc.gBytes.Set(pc.tables.cost)
	pc.mu.Unlock()
	return t
}

// attach acquires the packed table of every level of d (building each
// at most once across all concurrent holders) and installs them on d.
// The returned release drops the table references; the solve must
// finish before calling it. n must be the normalized spec that shaped
// d's property fields — it is what makes the content key sound.
func (pc *PackedCache) attach(n Spec, d *rmcrt.Domain) (release func(), err error) {
	keys := make([]string, len(d.Levels))
	levels := make([]*rmcrt.PackedLevel, len(d.Levels))
	for li := range d.Levels {
		keys[li] = tableKey(n, li, d.Levels[li].ROI)
		levels[li] = pc.acquire(keys[li], &d.Levels[li])
	}
	release = func() {
		pc.mu.Lock()
		defer pc.mu.Unlock()
		for _, k := range keys {
			pc.tables.unpin(k)
		}
		pc.gBytes.Set(pc.tables.cost)
	}
	if err := d.AttachPacked(rmcrt.NewPackedDomain(levels)); err != nil {
		release()
		return nil, err
	}
	return release, nil
}

// Builds returns how many tables were actually packed. For tests.
func (pc *PackedCache) Builds() int64 { return pc.mBuilds.Value() }

// Hits returns how many acquisitions shared a resident table. For
// tests.
func (pc *PackedCache) Hits() int64 { return pc.mHits.Value() }
