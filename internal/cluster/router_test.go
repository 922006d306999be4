package cluster

import (
	"fmt"
	"testing"

	"github.com/uintah-repro/rmcrt/internal/metrics"
	"github.com/uintah-repro/rmcrt/internal/service"
)

func testRegistry(t *testing.T, n int) *ShardRegistry {
	t.Helper()
	cfgs := make([]ShardConfig, n)
	for i := range cfgs {
		cfgs[i] = ShardConfig{URL: fmt.Sprintf("http://shard%d.invalid", i)}
	}
	r, err := NewShardRegistry(cfgs, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func testJob(affinityKey string) *Job {
	return &Job{affinityKey: affinityKey}
}

func testRouter(reg *ShardRegistry) *affinityRouter {
	return newAffinityRouter(reg, metrics.NewRegistry())
}

// The spill target, least-loaded, always picks a minimum-inflight
// shard, breaking ties in configuration order.
func TestLeastLoadedPicksMin(t *testing.T) {
	reg := testRegistry(t, 3)
	shards := reg.Shards()
	shards[0].addInflight(3)
	shards[1].addInflight(1)
	shards[2].addInflight(2)
	if got := leastLoaded(shards); got != shards[1] {
		t.Fatalf("picked %s, want s1 (load 1)", got.Name())
	}
	shards[1].addInflight(2) // now loads are 3,3,2
	if got := leastLoaded(shards); got != shards[2] {
		t.Fatalf("picked %s, want s2 (load 2)", got.Name())
	}
	shards[2].addInflight(1) // all equal: config order wins
	if got := leastLoaded(shards); got != shards[0] {
		t.Fatalf("picked %s, want s0 on tie", got.Name())
	}
}

// Affinity routing is a pure function of the key: same key, same shard,
// every time — and distinct keys spread across the fleet.
func TestAffinityStableAndSpread(t *testing.T) {
	reg := testRegistry(t, 3)
	a := testRouter(reg)
	homes := map[string]string{}
	used := map[string]bool{}
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("key-%d", i)
		first := a.Pick(testJob(key), reg.Shards()).Name()
		homes[key] = first
		used[first] = true
		for rep := 0; rep < 5; rep++ {
			if got := a.Pick(testJob(key), reg.Shards()).Name(); got != first {
				t.Fatalf("key %s moved from %s to %s", key, first, got)
			}
		}
	}
	if len(used) != 3 {
		t.Fatalf("64 keys landed on %d of 3 shards: %v", len(used), used)
	}
}

// Rendezvous hashing's defining property: removing one shard remaps
// only the keys that lived on it.
func TestAffinityMinimalRemapOnShardLoss(t *testing.T) {
	full := testRegistry(t, 3)
	a3 := testRouter(full)

	// The 2-shard registry reuses the names s0 and s1, so surviving
	// rendezvous weights are identical.
	reduced := testRegistry(t, 2)
	a2 := testRouter(reduced)

	moved := 0
	for i := 0; i < 256; i++ {
		key := fmt.Sprintf("key-%d", i)
		before := a3.home(key).Name()
		after := a2.home(key).Name()
		if before != "s2" && before != after {
			t.Fatalf("key %s moved %s -> %s though its shard survived", key, before, after)
		}
		if before == "s2" {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no key hashed to s2; test lost its teeth")
	}
}

// A home shard at the MaxInflightPerShard cap is not placeable, so its
// job spills to the least-loaded shard; below the cap it keeps its jobs.
func TestAffinitySpillWhenHot(t *testing.T) {
	const maxInflight = 2
	reg := testRegistry(t, 3)
	a := testRouter(reg)
	key := "spill-key"
	home := a.home(key)
	if home == nil {
		t.Fatal("no home shard")
	}
	if got := a.Pick(testJob(key), reg.Placeable(maxInflight)); got != home {
		t.Fatalf("cool home: picked %s, want %s", got.Name(), home.Name())
	}
	home.addInflight(maxInflight) // at the cap
	if got := a.Pick(testJob(key), reg.Placeable(maxInflight)); got == home {
		t.Fatal("home at the cap still took the job; want spill to least-loaded")
	}
	if hits, spills := a.mHits.Value(), a.mSpills.Value(); hits != 1 || spills != 1 {
		t.Fatalf("hits %d, spills %d; want 1 and 1", hits, spills)
	}
	home.addInflight(-maxInflight)
	if got := a.Pick(testJob(key), reg.Placeable(maxInflight)); got != home {
		t.Fatalf("cooled home: picked %s, want %s back", got.Name(), home.Name())
	}
}

// A draining home is skipped without disturbing other keys' homes.
func TestAffinitySkipsDrainingHome(t *testing.T) {
	reg := testRegistry(t, 3)
	a := testRouter(reg)
	key := "drain-key"
	home := a.home(key)
	if err := reg.Drain(home.Name()); err != nil {
		t.Fatal(err)
	}
	candidates := reg.Placeable(0)
	if len(candidates) != 2 {
		t.Fatalf("placeable = %d shards, want 2 while one drains", len(candidates))
	}
	if got := a.Pick(testJob(key), candidates); got == home {
		t.Fatal("picked the draining home")
	}
}

// The affinity key covers exactly the property-shaping fields: sampling
// parameters and SLO class must not move a job off its warm shard.
func TestAffinityKeyCoversPropertyShape(t *testing.T) {
	base := service.Spec{Kind: service.KindBenchmark, N: 8, Rays: 10, Seed: 1}
	same := []service.Spec{
		{Kind: service.KindBenchmark, N: 8, Rays: 999, Seed: 7},
		{Kind: service.KindBenchmark, N: 8, Rays: 10, Seed: 1, Class: service.ClassInteractive},
	}
	for _, s := range same {
		if s.AffinityKey() != base.AffinityKey() {
			t.Fatalf("sampling/class change moved affinity key: %+v", s)
		}
	}
	diff := []service.Spec{
		{Kind: service.KindBenchmark, N: 10, Rays: 10, Seed: 1},
		{Kind: service.KindUniform, N: 8, Rays: 10, Seed: 1, Kappa: 2},
	}
	for _, s := range diff {
		if s.AffinityKey() == base.AffinityKey() {
			t.Fatalf("property change kept affinity key: %+v", s)
		}
	}
}

// Affinity is the one routing policy: any other name is rejected.
func TestNewRouterUnknownPolicy(t *testing.T) {
	for _, p := range []string{"random", "roundrobin", "leastloaded"} {
		if err := (Config{Policy: p}).checkPolicies(); err == nil {
			t.Fatalf("policy %q accepted", p)
		}
	}
	for _, p := range []string{"", PolicyAffinity} {
		if err := (Config{Policy: p}).checkPolicies(); err != nil {
			t.Fatalf("policy %q rejected: %v", p, err)
		}
	}
}

// Class order is the one dispatch order: any other name is rejected.
func TestValidSched(t *testing.T) {
	for _, s := range []string{"lifo", "fcfs", "sjf"} {
		if err := (Config{Sched: s}).checkPolicies(); err == nil {
			t.Fatalf("sched %q accepted", s)
		}
	}
	for _, s := range []string{"", SchedPriority} {
		if err := (Config{Sched: s}).checkPolicies(); err != nil {
			t.Fatalf("sched %q rejected: %v", s, err)
		}
	}
}
