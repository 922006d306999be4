package cluster

import (
	"math"
	"testing"

	"github.com/uintah-repro/rmcrt/internal/calib"
	"github.com/uintah-repro/rmcrt/internal/service"
)

func queuedJob(seq int64, class string, cost float64) *Job {
	return &Job{JobRecord: service.JobRecord{Seq: seq, Class: class}, cost: cost}
}

func popOrder(t *testing.T, q *dispatchQueue, n int) []int64 {
	t.Helper()
	out := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		j := q.pop()
		if j == nil {
			t.Fatalf("queue empty after %d pops, want %d", i, n)
		}
		out = append(out, j.Seq)
	}
	return out
}

func TestQueueFCFSOrder(t *testing.T) {
	q := newDispatchQueue(SchedFCFS)
	q.push(queuedJob(3, service.ClassInteractive, 1))
	q.push(queuedJob(1, service.ClassBestEffort, 100))
	q.push(queuedJob(2, service.ClassBatch, 10))
	if got := popOrder(t, q, 3); got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("fcfs order %v, want [1 2 3]", got)
	}
}

func TestQueuePriorityOrder(t *testing.T) {
	q := newDispatchQueue(SchedPriority)
	q.push(queuedJob(1, service.ClassBestEffort, 1))
	q.push(queuedJob(2, service.ClassBatch, 1))
	q.push(queuedJob(3, service.ClassInteractive, 1))
	q.push(queuedJob(4, service.ClassInteractive, 1))
	got := popOrder(t, q, 4)
	// interactive first (FCFS within class), then batch, then best-effort.
	want := []int64{3, 4, 2, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("priority order %v, want %v", got, want)
		}
	}
}

func TestQueueSJFOrder(t *testing.T) {
	q := newDispatchQueue(SchedSJF)
	q.push(queuedJob(1, service.ClassBatch, 300))
	q.push(queuedJob(2, service.ClassBatch, 10))
	q.push(queuedJob(3, service.ClassBatch, 10)) // tie: earlier seq first
	q.push(queuedJob(4, service.ClassBatch, 50))
	got := popOrder(t, q, 4)
	want := []int64{2, 3, 4, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sjf order %v, want %v", got, want)
		}
	}
}

// Cancelled-while-queued jobs are skipped by pop, not dispatched.
func TestQueueSkipsTerminal(t *testing.T) {
	q := newDispatchQueue(SchedFCFS)
	a, b := queuedJob(1, service.ClassBatch, 1), queuedJob(2, service.ClassBatch, 1)
	q.push(a)
	q.push(b)
	a.terminalQueued.Store(true)
	if j := q.pop(); j != b {
		t.Fatalf("pop returned seq %d, want the live job 2", j.Seq)
	}
	if j := q.pop(); j != nil {
		t.Fatalf("pop returned seq %d, want nil (only a cancelled job remained)", j.Seq)
	}
}

func TestValidSched(t *testing.T) {
	if got, err := validSched(""); err != nil || got != SchedPriority {
		t.Fatalf("default sched = %q, %v; want priority", got, err)
	}
	if _, err := validSched("lifo"); err == nil {
		t.Fatal("unknown sched accepted")
	}
}

// The default cost model, which prices every uncalibrated router's SJF
// key, must order specs by size: more cells or more rays means more
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
