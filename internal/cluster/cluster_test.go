package cluster

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/uintah-repro/rmcrt/internal/calib"
	"github.com/uintah-repro/rmcrt/internal/service"
)

// testShard is one real in-process rmcrtd: a service.Manager behind its
// real HTTP handler on a loopback listener.
type testShard struct {
	mgr *service.Manager
	srv *httptest.Server
}

// kill makes the shard unreachable immediately: in-flight connections
// are severed, new ones refused — a process crash as HTTP sees one.
func (s *testShard) kill() {
	s.srv.CloseClientConnections()
	s.srv.Close()
}

// testHarness is the ISSUE's in-process multi-daemon harness: N real
// rmcrtd managers on loopback behind one Cluster.
type testHarness struct {
	shards  []*testShard
	cluster *Cluster
}

func newTestHarness(t *testing.T, n int, mut func(*Config)) *testHarness {
	t.Helper()
	h := &testHarness{}
	cfg := Config{
		PollInterval:        10 * time.Millisecond,
		HealthInterval:      50 * time.Millisecond,
		HealthFailThreshold: 2,
		Client:              &http.Client{Timeout: 2 * time.Second},
	}
	for i := 0; i < n; i++ {
		mgr := service.New(service.Config{Workers: 2, QueueDepth: 32})
		srv := httptest.NewServer(service.NewHandlerConfig(mgr, service.HandlerConfig{}))
		sh := &testShard{mgr: mgr, srv: srv}
		h.shards = append(h.shards, sh)
		cfg.Shards = append(cfg.Shards, ShardConfig{URL: srv.URL})
		t.Cleanup(func() {
			srv.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
			defer cancel()
			_ = mgr.Close(ctx)
		})
	}
	if mut != nil {
		mut(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.cluster = c
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = c.Close(ctx)
	})
	return h
}

// waitDone waits for a cluster job to finish successfully.
func waitDone(t *testing.T, c *Cluster, id string) JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := c.Wait(ctx, id)
	if err != nil {
		t.Fatalf("wait %s: %v", id, err)
	}
	if st.State != service.StateDone {
		t.Fatalf("job %s: state %s (err %q), want done", id, st.State, st.Error)
	}
	return st
}

// totalBuilds sums packed-table builds across every live shard.
func (h *testHarness) totalBuilds() int64 {
	var n int64
	for _, s := range h.shards {
		if pc := s.mgr.Packed(); pc != nil {
			n += pc.Builds()
		}
	}
	return n
}

// The end-to-end contract: a job routed through the cluster produces
// the bitwise-identical divQ of a direct local solve.
func TestClusterEndToEndBitwise(t *testing.T) {
	h := newTestHarness(t, 3, nil)
	spec := service.Spec{Kind: service.KindBenchmark, N: 12, Rays: 25, Seed: 3}
	st, err := h.cluster.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitDone(t, h.cluster, st.ID)
	if fin.Shard == "" || fin.ShardJobID == "" {
		t.Fatalf("finished job missing placement info: %+v", fin)
	}
	payload, _, terminal, err := h.cluster.Payload(st.ID)
	if err != nil || !terminal || payload == nil {
		t.Fatalf("result: payload=%v terminal=%v err=%v", payload, terminal, err)
	}
	if payload.ID != st.ID {
		t.Fatalf("payload ID %q, want router ID %q", payload.ID, st.ID)
	}
	want, _, _, err := spec.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(payload.DivQ) != len(want.Data()) {
		t.Fatalf("divQ length %d, want %d", len(payload.DivQ), len(want.Data()))
	}
	for i, v := range want.Data() {
		if payload.DivQ[i] != v {
			t.Fatalf("cluster divQ differs from direct solve at %d: %g vs %g", i, payload.DivQ[i], v)
		}
	}
}

// The affinity acceptance criterion: with two distinct property shapes
// and many jobs, affinity routing keeps total packed-table builds at
// the number of shapes instead of rebuilding the same tables on every
// shard.
func TestClusterAffinityPackedBuilds(t *testing.T) {
	h := newTestHarness(t, 3, nil)
	seed := uint64(1)
	for round := 0; round < 4; round++ {
		for _, n := range []int{8, 10} { // two property shapes
			seed++ // distinct seeds defeat the shard result caches
			st, err := h.cluster.Submit(service.Spec{
				Kind: service.KindBenchmark, N: n, Rays: 10, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			// Serial submission: placement order is deterministic and
			// the affinity home is never at its cap.
			waitDone(t, h.cluster, st.ID)
		}
	}
	if builds := h.totalBuilds(); builds > 2 {
		t.Errorf("affinity: %d packed builds across shards, want <= 2 (one per property shape)", builds)
	}
}

// The reroute acceptance criterion: kill the shard holding a running
// job; the router must retry it on a survivor and the final divQ must
// be bitwise identical to a direct solve — determinism makes the
// reroute invisible.
func TestClusterShardKillReroute(t *testing.T) {
	h := newTestHarness(t, 3, nil)
	spec := service.Spec{Kind: service.KindBenchmark, N: 16, Rays: 1200, Seed: 9}
	st, err := h.cluster.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Wait for a live placement, then pull the rug out.
	var placed string
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("job never dispatched")
		}
		got, err := h.cluster.Status(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.State == service.StateDone {
			t.Skip("solve finished before the kill; machine too fast for this timing")
		}
		if got.Shard != "" && got.ShardJobID != "" && got.State == service.StateRunning {
			placed = got.Shard
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	for i, s := range h.shards {
		if h.cluster.Shards().Shards()[i].Name() == placed {
			s.kill()
		}
	}

	fin := waitDone(t, h.cluster, st.ID)
	if fin.Attempts < 2 {
		t.Fatalf("attempts = %d, want >= 2 (job must have been rerouted)", fin.Attempts)
	}
	if fin.Shard == placed {
		t.Fatalf("job finished on killed shard %q", placed)
	}
	if h.cluster.Registry().Counter("router_jobs_rerouted_total", "").Value() == 0 {
		t.Fatal("router_jobs_rerouted_total = 0 after a shard kill")
	}

	payload, _, terminal, err := h.cluster.Payload(st.ID)
	if err != nil || !terminal || payload == nil {
		t.Fatalf("result after reroute: payload=%v terminal=%v err=%v", payload, terminal, err)
	}
	want, _, _, err := spec.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range want.Data() {
		if payload.DivQ[i] != v {
			t.Fatalf("rerouted divQ differs from direct solve at %d: %g vs %g", i, payload.DivQ[i], v)
		}
	}
}

// Killing every shard exhausts the reroute budget and fails the job
// with the typed ErrShardLost, not a hang.
func TestClusterAllShardsLost(t *testing.T) {
	h := newTestHarness(t, 2, func(c *Config) { c.MaxAttempts = 2 })
	spec := service.Spec{Kind: service.KindBenchmark, N: 20, Rays: 5000, Seed: 4}
	st, err := h.cluster.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let it dispatch
	for _, s := range h.shards {
		s.kill()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	fin, err := h.cluster.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != service.StateFailed {
		t.Fatalf("state = %s, want failed", fin.State)
	}
	if !strings.Contains(fin.Error, ErrShardLost.Error()) {
		t.Fatalf("error %q does not carry ErrShardLost", fin.Error)
	}
}

// Draining a shard stops new placements while its inflight job runs to
// completion where it is.
func TestClusterDrain(t *testing.T) {
	h := newTestHarness(t, 3, nil)

	// Park a slow job, find its shard, drain that shard.
	slow, err := h.cluster.Submit(service.Spec{Kind: service.KindBenchmark, N: 16, Rays: 1500, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	var drained string
	deadline := time.Now().Add(10 * time.Second)
	for drained == "" {
		if time.Now().After(deadline) {
			t.Fatal("slow job never dispatched")
		}
		got, _ := h.cluster.Status(slow.ID)
		if got.Shard != "" && got.State == service.StateRunning {
			drained = got.Shard
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := h.cluster.Shards().Drain(drained); err != nil {
		t.Fatal(err)
	}

	// Everything submitted now must land elsewhere.
	for i := 0; i < 6; i++ {
		st, err := h.cluster.Submit(service.Spec{
			Kind: service.KindBenchmark, N: 8, Rays: 10, Seed: uint64(100 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		fin := waitDone(t, h.cluster, st.ID)
		if fin.Shard == drained {
			t.Fatalf("job %s placed on draining shard %q", st.ID, drained)
		}
	}

	// The inflight job finishes on the draining shard — drain is
	// graceful, not a kill.
	fin := waitDone(t, h.cluster, slow.ID)
	if fin.Shard != drained {
		t.Fatalf("slow job finished on %q, want draining shard %q", fin.Shard, drained)
	}
	if got := h.cluster.Shards().Get(drained).State(); got != ShardDraining {
		t.Fatalf("shard state %s after drain, want draining", got)
	}

	// Undrain returns it to rotation.
	if err := h.cluster.Shards().Undrain(drained); err != nil {
		t.Fatal(err)
	}
	if got := h.cluster.Shards().Get(drained).State(); got != ShardHealthy {
		t.Fatalf("shard state %s after undrain, want healthy", got)
	}
}

// SLO classes round-trip through submission and the router exports
// per-class latency histograms and a Jain fairness index.
func TestClusterClassMetrics(t *testing.T) {
	h := newTestHarness(t, 3, nil)
	for i, class := range []string{service.ClassInteractive, service.ClassBatch, service.ClassBestEffort} {
		st, err := h.cluster.Submit(service.Spec{
			Kind: service.KindBenchmark, N: 8, Rays: 10, Seed: uint64(200 + i), Class: class,
		})
		if err != nil {
			t.Fatal(err)
		}
		if st.Class != class {
			t.Fatalf("submitted class %q came back %q", class, st.Class)
		}
		waitDone(t, h.cluster, st.ID)
	}

	var sb strings.Builder
	if err := h.cluster.Registry().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"router_class_latency_seconds_interactive_bucket",
		"router_class_latency_seconds_batch_bucket",
		"router_class_latency_seconds_best_effort_bucket",
		"router_class_fairness_jain 1",
		"router_affinity_hit_ratio",
		"router_shard_s0_up",
		"router_jobs_done_total 3",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
	for _, class := range []string{service.ClassInteractive, service.ClassBatch, service.ClassBestEffort} {
		name := "router_class_latency_seconds_" + strings.ReplaceAll(class, "-", "_")
		if h.cluster.Registry().Histogram(name, "", nil).Count() != 1 {
			t.Errorf("%s observed no latency", name)
		}
	}
}

// Cancelling a queued job never dispatches it; cancelling a running
// job propagates to the shard.
func TestClusterCancel(t *testing.T) {
	h := newTestHarness(t, 1, func(c *Config) { c.MaxInflightPerShard = 1 })
	// Occupy the only slot so the second job stays router-queued.
	run, err := h.cluster.Submit(service.Spec{Kind: service.KindBenchmark, N: 16, Rays: 1500, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := h.cluster.Submit(service.Spec{Kind: service.KindBenchmark, N: 8, Rays: 10, Seed: 32})
	if err != nil {
		t.Fatal(err)
	}
	st, err := h.cluster.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateCancelled {
		t.Fatalf("queued cancel: state %s, want cancelled immediately", st.State)
	}
	if st.Shard != "" {
		t.Fatalf("cancelled queued job has a placement: %+v", st)
	}

	if _, err := h.cluster.Cancel(run.ID); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	fin, err := h.cluster.Wait(ctx, run.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != service.StateCancelled {
		t.Fatalf("running cancel: state %s, want cancelled", fin.State)
	}
}

// Router-side admission control: a full dispatch queue rejects with
// the typed service.ErrQueueFull.
func TestClusterQueueFull(t *testing.T) {
	h := newTestHarness(t, 1, func(c *Config) {
		c.QueueDepth = 1
		c.MaxInflightPerShard = 1
	})
	if _, err := h.cluster.Submit(service.Spec{Kind: service.KindBenchmark, N: 20, Rays: 5000, Seed: 61}); err != nil {
		t.Fatal(err)
	}
	// Saturate: one running (eventually), then fill the 1-deep queue.
	var sawFull bool
	for i := 0; i < 50 && !sawFull; i++ {
		_, err := h.cluster.Submit(service.Spec{Kind: service.KindBenchmark, N: 20, Rays: 5000, Seed: uint64(62 + i)})
		if err != nil {
			if !strings.Contains(err.Error(), service.ErrQueueFull.Error()) {
				t.Fatalf("unexpected submit error: %v", err)
			}
			sawFull = true
		}
		time.Sleep(time.Millisecond)
	}
	if !sawFull {
		t.Fatal("queue never reported full")
	}
}

// The default cost model, which prices every uncalibrated router's
// est_seconds, must order specs by size: more cells or more rays means more
// predicted work, and the 2-level path stays positive.
func TestEstimateCostMonotonic(t *testing.T) {
	base := service.Spec{Kind: service.KindBenchmark, N: 8, Rays: 10}
	bigger := service.Spec{Kind: service.KindBenchmark, N: 16, Rays: 10}
	rayier := service.Spec{Kind: service.KindBenchmark, N: 8, Rays: 100}
	c0 := calib.Default().Seconds(base.Work())
	if c0 <= 0 {
		t.Fatalf("cost(base) = %g, want > 0", c0)
	}
	if calib.Default().Seconds(bigger.Work()) <= c0 {
		t.Fatalf("cost not monotonic in N: %g vs %g", calib.Default().Seconds(bigger.Work()), c0)
	}
	if calib.Default().Seconds(rayier.Work()) <= c0 {
		t.Fatalf("cost not monotonic in rays: %g vs %g", calib.Default().Seconds(rayier.Work()), c0)
	}
	ml := service.Spec{Kind: service.KindUniform, N: 16, Levels: 2, PatchN: 8, RR: 2, Rays: 5}
	if c := calib.Default().Seconds(ml.Work()); c <= 0 || math.IsInf(c, 0) || math.IsNaN(c) {
		t.Fatalf("2-level cost = %g, want finite positive", c)
	}
}

func TestJainIndex(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 1},
		{[]float64{0, 0, 0}, 1},
		{[]float64{1, 1, 1}, 1},
		{[]float64{0.5, 0.5}, 1},
		{[]float64{1, 0}, 0.5},          // one class monopolizes: 1/n
		{[]float64{1, 0, 0}, 1.0 / 3.0}, // worst case for 3 classes
		{[]float64{1, 1, 0}, 2.0 / 3.0}, // two of three served
	}
	for _, c := range cases {
		if got := JainIndex(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("JainIndex(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
	for _, xs := range [][]float64{{0.2}, {1, 0.5, 0.25}, {0.9, 0.1, 0.3}} {
		j := JainIndex(xs)
		if j < 1.0/float64(len(xs))-1e-12 || j > 1+1e-12 {
			t.Errorf("JainIndex(%v) = %g outside [1/n, 1]", xs, j)
		}
	}
}
