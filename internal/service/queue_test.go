package service

import (
	"errors"
	"testing"
)

func popOrder(t *testing.T, q *Queue[int64], n int) []int64 {
	t.Helper()
	out := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		v, ok := q.Pop()
		if !ok {
			t.Fatalf("queue empty after %d pops, want %d", i, n)
		}
		out = append(out, v)
	}
	return out
}

func TestQueuePriorityOrder(t *testing.T) {
	q := NewQueue[int64](8)
	for _, e := range []struct {
		class string
		seq   int64
	}{{ClassBestEffort, 1}, {ClassBatch, 2}, {ClassInteractive, 4}, {ClassInteractive, 3}} {
		q.Push(e.class, e.seq, e.seq)
	}
	got := popOrder(t, q, 4)
	// interactive first (FCFS within class), then batch, then best-effort.
	want := []int64{3, 4, 2, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("priority order %v, want %v", got, want)
		}
	}
}

// An entry removed while queued (a cancel) leaves the queue at once: it
// no longer counts toward the depth and is never popped. Removing an
// entry that is not queued is a no-op.
func TestQueueRemove(t *testing.T) {
	q := NewQueue[int64](1)
	for seq := int64(1); seq <= 3; seq++ {
		q.Push(ClassBatch, seq, seq)
	}
	if !q.Remove(2) || q.Remove(2) {
		t.Fatal("Remove(2) twice: want true, then false")
	}
	if n := q.Len(); n != 2 {
		t.Fatalf("len %d after removing one of three, want 2", n)
	}
	if got := popOrder(t, q, 2); got[0] != 1 || got[1] != 3 {
		t.Fatalf("pop order %v, want [1 3]", got)
	}
	if v, ok := q.Pop(); ok {
		t.Fatalf("pop returned %d, want empty", v)
	}
	if q.Remove(1) || q.Len() != 0 {
		t.Fatalf("removing a popped entry: len %d, want 0 and no-op", q.Len())
	}
	if err := q.Admit(ClassBatch); err != nil {
		t.Fatalf("empty queue refused a batch job: %v", err)
	}
}

// A class-c arrival is refused only when depth entries of class c or a
// more urgent class are queued: less urgent work never blocks it, so the
// queue holds at most depth entries of each class.
func TestQueueClassBound(t *testing.T) {
	q := NewQueue[int64](2)
	admit := func(class string, seq int64) {
		t.Helper()
		if err := q.Admit(class); err != nil {
			t.Fatalf("%s seq %d refused: %v", class, seq, err)
		}
		q.Push(class, seq, seq)
	}
	refuse := func(class string) {
		t.Helper()
		if err := q.Admit(class); !errors.Is(err, ErrQueueFull) {
			t.Fatalf("%s admitted past the bound: %v", class, err)
		}
	}
	admit(ClassBestEffort, 1)
	admit(ClassBestEffort, 2)
	refuse(ClassBestEffort)
	admit(ClassBatch, 3)
	admit(ClassBatch, 4)
	refuse(ClassBatch)
	refuse(ClassBestEffort)
	admit(ClassInteractive, 5)
	admit(ClassInteractive, 6)
	for _, c := range Classes() {
		refuse(c)
	}
	if n := q.Len(); n != 6 {
		t.Fatalf("len %d, want 3 classes x depth 2", n)
	}
	// A push past the bound (a requeue) is kept, in its class's place.
	q.Push(ClassBestEffort, 0, 0)
	if got := popOrder(t, q, 7); got[0] != 5 || got[2] != 3 || got[4] != 0 || got[6] != 2 {
		t.Fatalf("pop order %v, want [5 6 3 4 0 1 2]", got)
	}
	// A queued interactive job holds the one slot of every class; once it
	// is popped, batch gets in, and an interactive arrival still does.
	q = NewQueue[int64](1)
	admit(ClassInteractive, 1)
	refuse(ClassBatch)
	q.Pop()
	admit(ClassBatch, 2)
	admit(ClassInteractive, 3)
	refuse(ClassBestEffort)
}
