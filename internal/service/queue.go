package service

import (
	"container/heap"
	"fmt"
)

// Queue is the admission queue of a serving plane: rmcrtd queues its
// solves in one and rmcrtrouter its jobs awaiting placement. It pops by
// ClassRank, then by submission Seq, so a job requeued under its
// original Seq keeps its place. It has no lock of its own: it runs
// under the owning plane's mutex, as JobTable does.
//
// Admission is per class: a class-c arrival is refused only when depth
// entries of class c or more urgent are already queued, so each class
// waits only behind the work ahead of it and the queue holds at most
// depth entries per class.
type Queue[T any] struct {
	depth int
	h     queueHeap[T]
}

// NewQueue returns an empty queue admitting depth entries per class.
func NewQueue[T any](depth int) *Queue[T] {
	return &Queue[T]{depth: depth, h: queueHeap[T]{at: make(map[int64]int)}}
}

// Admit reports whether a class arrival may join, failing with
// ErrQueueFull when depth entries of that class or a more urgent one
// are already queued.
func (q *Queue[T]) Admit(class string) error {
	ahead := 0
	for r := 0; r <= ClassRank(class); r++ {
		ahead += q.h.n[r]
	}
	if ahead >= q.depth {
		return fmt.Errorf("%w (depth %d)", ErrQueueFull, q.depth)
	}
	return nil
}

// Push queues v under class and the job's submission seq, which must
// not already be queued. It does not check Admit: a requeue or a
// journal recovery pushes past the bound.
func (q *Queue[T]) Push(class string, seq int64, v T) {
	heap.Push(&q.h, queued[T]{rank: ClassRank(class), seq: seq, v: v})
}

// Pop removes and returns the most urgent, oldest entry; ok is false
// when the queue is empty.
func (q *Queue[T]) Pop() (v T, ok bool) {
	if len(q.h.es) == 0 {
		return v, false
	}
	return heap.Pop(&q.h).(queued[T]).v, true
}

// Remove takes the entry queued under seq out of the queue, reporting
// whether it was there.
func (q *Queue[T]) Remove(seq int64) bool {
	i, ok := q.h.at[seq]
	if ok {
		heap.Remove(&q.h, i)
	}
	return ok
}

// Len is the number of queued entries.
func (q *Queue[T]) Len() int { return len(q.h.es) }

type queued[T any] struct {
	rank int
	seq  int64
	v    T
}

// queueHeap is the heap behind Queue: entries, each entry's index by
// seq, and the entry count per class rank (the last slot holds unknown
// classes, which rank last).
type queueHeap[T any] struct {
	es []queued[T]
	at map[int64]int
	n  [4]int
}

func (h *queueHeap[T]) Len() int { return len(h.es) }

func (h *queueHeap[T]) Less(i, j int) bool {
	a, b := h.es[i], h.es[j]
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	return a.seq < b.seq
}

func (h *queueHeap[T]) Swap(i, j int) {
	h.es[i], h.es[j] = h.es[j], h.es[i]
	h.at[h.es[i].seq], h.at[h.es[j].seq] = i, j
}

func (h *queueHeap[T]) Push(x any) {
	e := x.(queued[T])
	h.at[e.seq] = len(h.es)
	h.n[e.rank]++
	h.es = append(h.es, e)
}

func (h *queueHeap[T]) Pop() any {
	e := h.es[len(h.es)-1]
	h.es[len(h.es)-1] = queued[T]{}
	h.es = h.es[:len(h.es)-1]
	delete(h.at, e.seq)
	h.n[e.rank]--
	return e
}
