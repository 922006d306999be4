package service

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"testing"

	"github.com/uintah-repro/rmcrt/internal/metrics"
)

// assertSameField fails unless a and b are bitwise identical.
func assertSameField(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: divQ differs at %d: %g vs %g", label, i, got[i], want[i])
		}
	}
}

// SolveShared with a cache must be bitwise identical to the private
// Solve path: the shared tables are bit-copies of the same fields.
func TestSolveSharedBitwiseMatchesSolve(t *testing.T) {
	for _, spec := range []Spec{
		{Kind: KindBenchmark, N: 12, Rays: 20},
		{Kind: KindUniform, N: 16, Levels: 2, PatchN: 8, RR: 2, Rays: 5},
	} {
		want, _, _, err := spec.Solve(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		pc := NewPackedCache(0, nil)
		got, _, _, err := spec.SolveShared(context.Background(), nil, pc)
		if err != nil {
			t.Fatal(err)
		}
		assertSameField(t, spec.Key(), got.Data(), want.Data())
		if pc.Builds() == 0 {
			t.Fatalf("%s: shared solve built no tables", spec.Key())
		}
	}
}

// The acceptance criterion: two service jobs over the same level that
// differ only in sampling parameters share one packed table —
// rmcrt_packed_builds == 1 and rmcrt_packed_hits >= 1.
func TestPackedCacheSharedAcrossJobs(t *testing.T) {
	m := newTestManager(t, Config{Workers: 2})
	a, err := m.Submit(Spec{Kind: KindBenchmark, N: 8, Rays: 10})
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Submit(Spec{Kind: KindBenchmark, N: 8, Rays: 20}) // same medium, different sampling
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{a.ID, b.ID} {
		final, err := m.Wait(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != StateDone {
			t.Fatalf("job %s: state = %s (err %q)", id, final.State, final.Error)
		}
	}
	if got := m.reg.Counter("rmcrt_packed_builds", "").Value(); got != 1 {
		t.Fatalf("rmcrt_packed_builds = %d, want 1 (second job should share the first's table)", got)
	}
	if got := m.reg.Counter("rmcrt_packed_hits", "").Value(); got < 1 {
		t.Fatalf("rmcrt_packed_hits = %d, want >= 1", got)
	}
	if got := m.reg.Gauge("rmcrt_packed_bytes", "").Value(); got <= 0 {
		t.Fatalf("rmcrt_packed_bytes = %d, want > 0 (retained table)", got)
	}
}

// In a 2-level solve the coarse radiation mesh is identical across all
// per-patch problems: one coarse table is built, every other problem
// hits it. Fine ROIs differ per patch, so each is its own build.
func TestPackedCacheSharesCoarseLevel(t *testing.T) {
	spec := Spec{Kind: KindUniform, N: 16, Levels: 2, PatchN: 8, RR: 2, Rays: 3}
	_, probs, err := spec.problems()
	if err != nil {
		t.Fatal(err)
	}
	numPatches := int64(len(probs))
	if numPatches < 2 {
		t.Fatalf("spec decomposes into %d problems, want >= 2", numPatches)
	}
	pc := NewPackedCache(0, nil)
	if _, _, _, err := spec.SolveShared(context.Background(), nil, pc); err != nil {
		t.Fatal(err)
	}
	// 1 coarse build + one fine build per patch; the coarse table is hit
	// by every problem after the first.
	if got, want := pc.Builds(), numPatches+1; got != want {
		t.Fatalf("builds = %d, want %d", got, want)
	}
	if got, want := pc.Hits(), numPatches-1; got != want {
		t.Fatalf("hits = %d, want %d (coarse table shared across patches)", got, want)
	}
}

// Checkpointed solving draws tables from the same shared cache.
func TestCheckpointedSolveUsesPackedCache(t *testing.T) {
	spec := Spec{Kind: KindUniform, N: 16, Levels: 2, PatchN: 8, RR: 2, Rays: 3}
	want, _, _, err := spec.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	pc := NewPackedCache(0, nil)
	got, _, _, resumed, err := spec.SolveCheckpointed(context.Background(), CheckpointOptions{
		Dir:    t.TempDir() + "/ckpt",
		Packed: pc,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 0 {
		t.Fatalf("resumed = %d on a fresh solve", resumed)
	}
	assertSameField(t, "checkpointed", got.Data(), want.Data())
	if pc.Builds() == 0 || pc.Hits() == 0 {
		t.Fatalf("builds=%d hits=%d: checkpointed solve did not share tables", pc.Builds(), pc.Hits())
	}
}

// TestPackedByteGaugesBoundedByResident: packing more distinct levels
// than the idle budget holds, every rmcrt_packed_*_bytes series on
// /metrics stays within the bytes actually resident (referenced plus
// retained), which the budget bounds once every table is released.
func TestPackedByteGaugesBoundedByResident(t *testing.T) {
	reg := metrics.NewRegistry()
	const budget = 256 << 10
	pc := NewPackedCache(budget, reg)
	var packed int64
	for n := 8; n <= 20; n += 2 {
		spec := Spec{Kind: KindBenchmark, N: n, Rays: 1}.Normalized()
		_, probs, err := spec.problems()
		if err != nil {
			t.Fatal(err)
		}
		release, err := pc.attach(spec, probs[0].domain)
		if err != nil {
			t.Fatal(err)
		}
		release()
		packed += int64(n * n * n * 24)
	}
	resident := pc.tables.cost
	if resident > budget || packed <= 2*budget {
		t.Fatalf("resident %d bytes (budget %d) after packing ~%d", resident, budget, packed)
	}
	var text bytes.Buffer
	if err := reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, line := range strings.Split(text.String(), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || !strings.HasPrefix(name, "rmcrt_packed_") || !strings.HasSuffix(name, "_bytes") {
			continue
		}
		seen++
		if v, err := strconv.ParseInt(val, 10, 64); err != nil || v > resident {
			t.Errorf("%s = %s, want <= %d resident bytes", name, val, resident)
		}
	}
	if seen == 0 {
		t.Fatal("no rmcrt_packed_*_bytes series exported")
	}
}
