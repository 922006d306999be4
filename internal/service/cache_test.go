package service

import (
	"context"
	"testing"

	"github.com/uintah-repro/rmcrt/internal/field"
)

// resident reads the daemon's resident-result gauges.
func resident(m *Manager) (entries, bytes int64) {
	return m.reg.Gauge("rmcrtd_results_resident", "").Value(), m.reg.Gauge("rmcrtd_results_resident_bytes", "").Value()
}

// TestCoalescedResultPinnedUntilBothDeliver: two jobs coalesced onto
// one solve share one cache entry, and it stays resident until both
// have delivered it — even with idle retention off (CacheEntries -1),
// where the last delivery drops it and a repeat read finds nothing.
func TestCoalescedResultPinnedUntilBothDeliver(t *testing.T) {
	release := make(chan struct{})
	m := newTestManager(t, Config{
		Workers: 1, CacheEntries: -1,
		Solver: func(ctx context.Context, spec Spec) (*field.CC[float64], int64, int64, error) {
			<-release
			return spec.Solve(ctx)
		},
	})
	spec := fastSpec(41)
	a, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Coalesced {
		t.Fatalf("second submission not coalesced: %+v", b)
	}
	close(release)
	for _, id := range []string{a.ID, b.ID} {
		if _, err := m.Wait(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	want := 8 * spec.Cells()
	if n, by := resident(m); n != 1 || by != want {
		t.Fatalf("resident before delivery = %d entries / %d bytes, want 1 / %d", n, by, want)
	}

	ra, _, _, err := m.Result(a.ID)
	if err != nil || ra == nil {
		t.Fatalf("first delivery of a: result %v err %v", ra != nil, err)
	}
	if n, _ := resident(m); n != 1 {
		t.Fatalf("resident after a delivered = %d, want 1 (b still pins it)", n)
	}
	rb, _, _, err := m.Result(b.ID)
	if err != nil || rb != ra {
		t.Fatalf("first delivery of b: %p / %v, want a's field %p", rb, err, ra)
	}
	if n, by := resident(m); n != 0 || by != 0 {
		t.Fatalf("resident after both delivered = %d entries / %d bytes, want 0 / 0", n, by)
	}
	p, st, terminal, err := m.Payload(b.ID)
	if p != nil || !terminal || err != nil || st.State != StateDone {
		t.Fatalf("repeat read after the drop: payload %v terminal %v err %v state %s, want nil, done", p, terminal, err, st.State)
	}
	if got := m.mEvicted.Value(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
}

// TestNoCacheStillDeliversOnce: with CacheEntries -1 a job's result is
// delivered exactly once and no later submission hits it.
func TestNoCacheStillDeliversOnce(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, CacheEntries: -1})
	spec := fastSpec(42)
	for i := 0; i < 2; i++ {
		st, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if st.FromCache {
			t.Fatalf("submission %d served from a disabled cache", i)
		}
		if _, err := m.Wait(context.Background(), st.ID); err != nil {
			t.Fatal(err)
		}
		if divQ, _, _, err := m.Result(st.ID); divQ == nil || err != nil {
			t.Fatalf("first delivery of submission %d: result %v err %v", i, divQ != nil, err)
		}
		if divQ, _, terminal, err := m.Result(st.ID); divQ != nil || !terminal || err != nil {
			t.Fatalf("second read of submission %d: result %v terminal %v err %v, want no result", i, divQ != nil, terminal, err)
		}
	}
	if n, by := resident(m); n != 0 || by != 0 {
		t.Fatalf("resident = %d entries / %d bytes, want 0 / 0", n, by)
	}
}
