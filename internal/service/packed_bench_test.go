package service

import (
	"testing"

	"github.com/uintah-repro/rmcrt/internal/benchpair"
)

// hitsPerOp is how many times one program op of
// BenchmarkPackedCacheAcquire acquires the resident table, as the
// patch problems of a 2-level job acquire their shared coarse level.
// One hit after a re-pack runs on caches the re-pack has just flushed,
// so its time follows the host's cache contention; over 32 hits that
// share of the op is small.
const hitsPerOp = 32

// BenchmarkPackedCacheAcquire times the shared table cache on both
// sides of the hit/miss divide: hitsPerOp hits on a retained table (a
// map lookup and a refcount each) against one re-pack of the 32³ level
// (retention disabled, so each release evicts). The ratio is what a
// job's acquisitions save when a concurrent or recent job already
// packed its level. Part of the pinned perf-gate matrix — renames are
// baseline-breaking.
func BenchmarkPackedCacheAcquire(b *testing.B) {
	n := Spec{Kind: KindBenchmark, N: 32, Rays: 1}.Normalized()
	_, probs, err := n.problems()
	if err != nil {
		b.Fatal(err)
	}
	d := probs[0].domain
	acquire := func(pc *PackedCache) {
		release, err := pc.attach(n, d)
		if err != nil {
			b.Fatal(err)
		}
		release()
	}
	hit := NewPackedCache(0, nil)    // default retention: table stays resident
	build := NewPackedCache(-1, nil) // zero retention: every release evicts
	acquire(hit)
	benchpair.Run(b,
		func() {
			for i := 0; i < hitsPerOp; i++ {
				acquire(hit)
			}
		},
		func() { acquire(build) })
}
