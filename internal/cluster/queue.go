package cluster

import (
	"container/heap"
	"fmt"
	"sync"

	"github.com/uintah-repro/rmcrt/internal/service"
)

// Scheduling policy names for the dispatch queue.
const (
	// SchedFCFS dispatches in submission order regardless of class.
	SchedFCFS = "fcfs"
	// SchedPriority dispatches by SLO class (interactive before batch
	// before best-effort), FCFS within a class.
	SchedPriority = "priority"
	// SchedSJF dispatches the cheapest predicted solve first (predicted
	// wall-seconds from the calibrated cost model), FCFS on ties —
	// minimizing mean wait when job sizes vary widely.
	SchedSJF = "sjf"
)

// validSched reports whether name is a known scheduling policy,
// defaulting "" to priority.
func validSched(name string) (string, error) {
	switch name {
	case "":
		return SchedPriority, nil
	case SchedFCFS, SchedPriority, SchedSJF:
		return name, nil
	}
	return "", fmt.Errorf("cluster: unknown scheduling policy %q (want %s, %s or %s)",
		name, SchedFCFS, SchedPriority, SchedSJF)
}

// dispatchQueue is the router-side priority queue of jobs awaiting
// placement. Ordering depends on the scheduling policy; submission
// sequence always breaks ties, so no ordering is ever ambiguous and
// FCFS-within-equals prevents same-class starvation.
type dispatchQueue struct {
	mu sync.Mutex
	h  jobHeap
}

func newDispatchQueue(sched string) *dispatchQueue {
	return &dispatchQueue{h: jobHeap{sched: sched}}
}

func (q *dispatchQueue) push(j *Job) {
	q.mu.Lock()
	heap.Push(&q.h, j)
	q.mu.Unlock()
}

// pop removes and returns the next job per policy; nil when empty.
func (q *dispatchQueue) pop() *Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.h.Len() == 0 {
		return nil
	}
	return heap.Pop(&q.h).(*Job)
}

// remove takes j out of the queue if it is there, so that a job
// cancelled while queued frees its slot at once.
func (q *dispatchQueue) remove(j *Job) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if j.heapPos > 0 {
		heap.Remove(&q.h, j.heapPos-1)
	}
}

func (q *dispatchQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.h.Len()
}

type jobHeap struct {
	sched string
	jobs  []*Job
}

func (h *jobHeap) Len() int { return len(h.jobs) }

func (h *jobHeap) Less(i, j int) bool {
	a, b := h.jobs[i], h.jobs[j]
	switch h.sched {
	case SchedPriority:
		if ra, rb := service.ClassRank(a.Class), service.ClassRank(b.Class); ra != rb {
			return ra < rb
		}
	case SchedSJF:
		if a.cost != b.cost {
			return a.cost < b.cost
		}
	}
	return a.Seq < b.Seq
}

func (h *jobHeap) Swap(i, j int) {
	h.jobs[i], h.jobs[j] = h.jobs[j], h.jobs[i]
	h.jobs[i].heapPos, h.jobs[j].heapPos = i+1, j+1
}

func (h *jobHeap) Push(x any) {
	j := x.(*Job)
	h.jobs = append(h.jobs, j)
	j.heapPos = len(h.jobs)
}

func (h *jobHeap) Pop() any {
	old := h.jobs
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	h.jobs = old[:n-1]
	j.heapPos = 0
	return j
}

// JainIndex is Jain's fairness index over per-class goodput fractions
// x_i = done_i / submitted_i: (Σx)² / (n·Σx²). It is 1 when every class
// completes the same fraction of what it asked for and approaches 1/n
// as one class monopolizes the cluster. Classes with no submissions are
// excluded; an empty sample reads as 1 (nothing is unfair yet).
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}
