package service

import (
	"fmt"
	"sync"
	"testing"

	"github.com/uintah-repro/rmcrt/internal/rmcrt"
)

// testLevel is the single level of an n³ benchmark domain.
func testLevel(t *testing.T, n int) *rmcrt.LevelData {
	t.Helper()
	_, probs, err := Spec{Kind: KindBenchmark, N: n, Rays: 1}.Normalized().problems()
	if err != nil {
		t.Fatal(err)
	}
	return &probs[0].domain.Levels[0]
}

// TestPackedCacheSingleFlight: racing acquirers of one key pack it
// once and share the one table; every acquirer holds a pin.
func TestPackedCacheSingleFlight(t *testing.T) {
	pc := NewPackedCache(0, nil)
	ld := testLevel(t, 8)
	start := make(chan struct{})
	const workers = 16
	var wg sync.WaitGroup
	tables := make([]*rmcrt.PackedLevel, workers)
	for i := range tables {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			tables[i] = pc.acquire("k", ld)
		}(i)
	}
	close(start)
	wg.Wait()
	if pc.Builds() != 1 || pc.Hits() != workers-1 {
		t.Fatalf("builds=%d hits=%d, want 1 and %d", pc.Builds(), pc.Hits(), workers-1)
	}
	for i := 1; i < workers; i++ {
		if tables[i] != tables[0] {
			t.Fatalf("worker %d got a different table", i)
		}
	}
	if pins := pc.tables.entries["k"].pins; pins != workers {
		t.Fatalf("pins = %d, want %d", pins, workers)
	}
	for i := 0; i < workers; i++ {
		pc.tables.unpin("k")
	}
	if got, want := pc.tables.cost, tables[0].SizeBytes(); got != want {
		t.Fatalf("resident after the last release = %d, want %d (retained idle)", got, want)
	}
}

// TestStoreEvictsOldestIdlePastBudget: idle entries are evicted least
// recently released first once their summed cost passes the budget.
func TestStoreEvictsOldestIdlePastBudget(t *testing.T) {
	s := newStore[string](250) // room for two 100-cost idle entries
	var evicted []string
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("k%d", i)
		s.insert(key, "v"+key, 100)
		evicted = append(evicted, s.unpin(key)...)
	}
	if len(evicted) != 1 || evicted[0] != "vk0" {
		t.Fatalf("evicted %v, want [vk0] (the oldest idle entry)", evicted)
	}
	if s.cost != 200 {
		t.Fatalf("resident cost = %d, want 200", s.cost)
	}
	if _, ok := s.pin("k0"); ok {
		t.Fatal("k0 still resident after eviction")
	}
	// k1 and k2 are still resident: re-pinning k1 makes k2 the only
	// idle entry, so the next eviction over budget takes k2, not k1.
	if v, ok := s.pin("k1"); !ok || v != "vk1" {
		t.Fatalf("pin k1 = %q, %v", v, ok)
	}
	s.insert("k3", "vk3", 200)
	if evicted := s.unpin("k3"); len(evicted) != 1 || evicted[0] != "vk2" {
		t.Fatalf("unpin k3 evicted %v, want [vk2]", evicted)
	}
	s.unpin("k1")
}

// TestStoreZeroBudgetEvictsOnRelease: with no idle budget an entry
// leaves at its last unpin, and a later pin finds nothing.
func TestStoreZeroBudgetEvictsOnRelease(t *testing.T) {
	s := newStore[int](0)
	s.insert("k", 7, 64)
	if s.cost != 64 {
		t.Fatalf("resident cost = %d, want 64", s.cost)
	}
	if evicted := s.unpin("k"); len(evicted) != 1 || evicted[0] != 7 {
		t.Fatalf("last unpin evicted %v, want [7]", evicted)
	}
	if s.cost != 0 || len(s.entries) != 0 {
		t.Fatalf("resident cost %d, %d entries after the last unpin, want 0", s.cost, len(s.entries))
	}
	if _, ok := s.pin("k"); ok {
		t.Fatal("evicted entry still pinnable")
	}
}

// TestStoreRepinIdleEntry: pinning a retained idle entry takes it off
// the idle list, and inserting under a resident key keeps the stored
// value.
func TestStoreRepinIdleEntry(t *testing.T) {
	s := newStore[int](1 << 20)
	s.insert("k", 1, 8)
	s.unpin("k")
	if s.idle.Len() != 1 || s.idleCost != 8 {
		t.Fatalf("idle = %d entries / cost %d, want 1 / 8", s.idle.Len(), s.idleCost)
	}
	if v, ok := s.pin("k"); !ok || v != 1 {
		t.Fatalf("pin of an idle entry = %d, %v", v, ok)
	}
	if s.insert("k", 2, 8) {
		t.Fatal("insert replaced a resident entry")
	}
	if e := s.entries["k"]; e.pins != 2 || e.val != 1 || s.idle.Len() != 0 || s.idleCost != 0 {
		t.Fatalf("pins %d val %d idle %d/%d, want 2, 1, 0/0", e.pins, e.val, s.idle.Len(), s.idleCost)
	}
	s.unpin("k")
	s.unpin("k")
}

// TestStoreUnpinUnpinnedPanics: unpinning a key nobody pinned is a
// refcount bug, not a no-op.
func TestStoreUnpinUnpinnedPanics(t *testing.T) {
	s := newStore[int](0)
	defer func() {
		if recover() == nil {
			t.Fatal("unpin of an absent key did not panic")
		}
	}()
	s.unpin("nope")
}
