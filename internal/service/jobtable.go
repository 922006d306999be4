package service

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"github.com/uintah-repro/rmcrt/internal/metrics"
)

// JobRecord is the lifecycle part of a job that both serving planes
// share: the daemon's Job and the router's embed it and keep only their
// own fields beside it. It is guarded by the owning plane's mutex. A
// plane may move a live record between queued and running; only
// JobTable.FinishLocked makes it terminal.
type JobRecord struct {
	ID    string
	Seq   int64 // the numeric part of ID, in submission order
	Key   string
	Class string
	Spec  Spec

	State     State
	Err       error
	Submitted time.Time
	Started   time.Time // zero until the solve (or placement) starts
	Finished  time.Time
	Deadline  time.Time // zero = no per-job deadline

	done chan struct{} // closed by the terminal transition
}

func (r *JobRecord) record() *JobRecord { return r }

// Seconds splits the job's life into queue and run time: queue from
// submission to start (or to terminal, or now, for a job that never
// started), run from start to terminal (or now).
func (r *JobRecord) Seconds() (queue, run float64) {
	end := r.Finished
	if end.IsZero() {
		end = time.Now()
	}
	if r.Started.IsZero() {
		return end.Sub(r.Submitted).Seconds(), 0
	}
	return r.Started.Sub(r.Submitted).Seconds(), end.Sub(r.Started).Seconds()
}

// ErrText is the job's error as its status reports it ("" for none).
func (r *JobRecord) ErrText() string {
	if r.Err == nil {
		return ""
	}
	return r.Err.Error()
}

// TableJob is a plane's job type: a pointer to a struct embedding
// JobRecord that snapshots itself into a JobStatus.
type TableJob interface {
	record() *JobRecord
	// Snapshot is the job's externally visible status. Called with the
	// plane's mutex held.
	Snapshot() JobStatus
}

// Per-class counter families, in registration order.
const (
	classSubmitted = iota
	classDone
	classFailed
	classCancelled
	classRejected
	classDeadline
	classFamilies
)

var classFamilyHelp = [classFamilies][2]string{
	{"submitted", "jobs accepted"},
	{"done", "jobs completed successfully"},
	{"failed", "jobs that ended in error"},
	{"cancelled", "jobs cancelled"},
	{"rejected", "submissions rejected at admission (queue full or deadline infeasible)"},
	{"deadline", "jobs failed with a deadline-exceeded error"},
}

// JobTable is the job bookkeeping of a serving plane — rmcrtd's Manager
// and rmcrtrouter's Cluster each keep one: ID allocation, the id→job
// map, the closed flag, the exactly-once terminal transition with its
// totals and per-class families, the deadline gates and the read side
// of the job API. It has no lock of its own: it runs under the owning
// plane's mutex. Status, Wait and JobCount take that mutex; methods
// named ...Locked expect the caller to hold it. Metric names are
// <prefix>_jobs_{done,failed,cancelled,expired,infeasible}_total,
// <prefix>_predicted_seconds_total and
// <prefix>_class_<family>_total_<class>.
type JobTable[J TableJob] struct {
	mu       *sync.Mutex
	idPrefix string
	seq      int64
	jobs     map[string]J
	closed   bool

	mDone, mFailed, mCancelled *metrics.Counter
	mExpired, mInfeasible      *metrics.Counter
	fcPredicted                *metrics.FloatCounter
	class                      [classFamilies]map[string]*metrics.Counter
}

// NewJobTable builds a plane's job table under mu, registering its
// metrics in reg under prefix. Job IDs read idPrefix-NNNNNN.
func NewJobTable[J TableJob](mu *sync.Mutex, reg *metrics.Registry, prefix, idPrefix string) *JobTable[J] {
	t := &JobTable[J]{
		mu:          mu,
		idPrefix:    idPrefix,
		jobs:        make(map[string]J),
		mDone:       reg.Counter(prefix+"_jobs_done_total", "jobs completed successfully"),
		mFailed:     reg.Counter(prefix+"_jobs_failed_total", "jobs that ended in error"),
		mCancelled:  reg.Counter(prefix+"_jobs_cancelled_total", "jobs cancelled by the client or shutdown"),
		mExpired:    reg.Counter(prefix+"_jobs_expired_total", "jobs fast-failed because their propagated deadline expired before any solve work started"),
		mInfeasible: reg.Counter(prefix+"_jobs_infeasible_total", "submissions rejected because the predicted solve time exceeded the remaining deadline budget"),
		fcPredicted: reg.FloatCounter(prefix+"_predicted_seconds_total", "predicted solve wall-seconds of admitted jobs under the cost model"),
	}
	for f, fh := range classFamilyHelp {
		t.class[f] = make(map[string]*metrics.Counter, len(Classes()))
		for _, c := range Classes() {
			t.class[f][c] = reg.Counter(prefix+"_class_"+fh[0]+"_total_"+strings.ReplaceAll(c, "-", "_"), fh[1]+" ("+c+")")
		}
	}
	return t
}

// classInc bumps one per-class counter, ignoring unknown classes (the
// spec validator rejects them before any job exists).
func (t *JobTable[J]) classInc(class string, family int) {
	if c := t.class[family][class]; c != nil {
		c.Inc()
	}
}

func newJobRecord(id string, seq int64, spec Spec, deadline time.Time) JobRecord {
	return JobRecord{
		ID: id, Seq: seq, Key: spec.Key(), Class: spec.Class, Spec: spec,
		State: StateQueued, Submitted: time.Now(), Deadline: deadline,
		done: make(chan struct{}),
	}
}

// NextLocked returns a queued record for spec under the next job ID.
func (t *JobTable[J]) NextLocked(spec Spec, deadline time.Time) JobRecord {
	t.seq++
	return newJobRecord(fmt.Sprintf("%s-%06d", t.idPrefix, t.seq), t.seq, spec, deadline)
}

// AddLocked tracks a submitted job j, counting it in its class's
// class_submitted.
func (t *JobTable[J]) AddLocked(j J) {
	r := j.record()
	t.jobs[r.ID] = j
	t.classInc(r.Class, classSubmitted)
}

// RestoreLocked tracks a job re-created from a journal under its
// original ID. It is not a new submission, so it is not counted; later
// NextLocked IDs never reuse its ID.
func (t *JobTable[J]) RestoreLocked(j J) {
	r := j.record()
	if _, err := fmt.Sscanf(r.ID, t.idPrefix+"-%d", &r.Seq); err == nil && r.Seq > t.seq {
		t.seq = r.Seq
	}
	t.jobs[r.ID] = j
}

// ClosedLocked reports whether CloseLocked has run.
func (t *JobTable[J]) ClosedLocked() bool { return t.closed }

// CloseLocked marks the table closed, reporting whether this call did.
func (t *JobTable[J]) CloseLocked() bool {
	first := !t.closed
	t.closed = true
	return first
}

// FinishLocked moves j to the terminal state st exactly once: it
// stamps the record, closes its done channel and counts the outcome
// (a failure wrapping ErrDeadlineExceeded also as class_deadline). It
// reports false, changing nothing, when j is already terminal — the
// plane's own terminal bookkeeping runs only on true.
func (t *JobTable[J]) FinishLocked(j J, st State, err error) bool {
	r := j.record()
	if r.State.Terminal() {
		return false
	}
	r.State, r.Err, r.Finished = st, err, time.Now()
	close(r.done)
	switch st {
	case StateDone:
		t.mDone.Inc()
		t.classInc(r.Class, classDone)
	case StateCancelled:
		t.mCancelled.Inc()
		t.classInc(r.Class, classCancelled)
	default:
		t.mFailed.Inc()
		t.classInc(r.Class, classFailed)
		if errors.Is(err, ErrDeadlineExceeded) {
			t.classInc(r.Class, classDeadline)
		}
	}
	return true
}

// Expired reports whether deadline (zero = none) has passed at now.
func Expired(deadline, now time.Time) bool {
	return !deadline.IsZero() && !now.Before(deadline)
}

// Expire counts one job whose deadline passed before stage (in
// <prefix>_jobs_expired_total) and returns the typed error to fail it
// with.
func (t *JobTable[J]) Expire(stage string) error {
	t.mExpired.Inc()
	return fmt.Errorf("%w: expired %s", ErrDeadlineExceeded, stage)
}

// Feasible is the cost-vs-deadline admission gate: a submission of
// class predicted to take est seconds is rejected — counted infeasible
// and class_rejected — when est exceeds its remaining deadline budget.
// A zero deadline is always feasible.
func (t *JobTable[J]) Feasible(class string, est float64, deadline time.Time) error {
	if deadline.IsZero() {
		return nil
	}
	if budget := time.Until(deadline).Seconds(); est > budget {
		t.mInfeasible.Inc()
		t.classInc(class, classRejected)
		return fmt.Errorf("%w: predicted %.3fs, budget %.3fs", ErrDeadlineInfeasible, est, budget)
	}
	return nil
}

// Predicted adds an admitted job's predicted seconds to
// <prefix>_predicted_seconds_total.
func (t *JobTable[J]) Predicted(est float64) { t.fcPredicted.Add(est) }

// Rejected counts one submission of class turned away at admission.
func (t *JobTable[J]) Rejected(class string) { t.classInc(class, classRejected) }

// Goodputs is, for each class with a submission, the fraction of its
// accepted jobs that completed, read from its class_done and
// class_submitted counters.
func (t *JobTable[J]) Goodputs() []float64 {
	var xs []float64
	for _, c := range Classes() {
		if sub := t.class[classSubmitted][c].Value(); sub > 0 {
			xs = append(xs, float64(t.class[classDone][c].Value())/float64(sub))
		}
	}
	return xs
}

// LookupLocked returns the job with the given ID, or ErrNotFound.
func (t *JobTable[J]) LookupLocked(id string) (J, error) {
	j, ok := t.jobs[id]
	if !ok {
		return j, ErrNotFound
	}
	return j, nil
}

// CancellableLocked returns the live job a cancel of id may stop. It
// fails with ErrNotFound, or with ErrJobFinished and the job's status
// when the job is already terminal.
func (t *JobTable[J]) CancellableLocked(id string) (J, JobStatus, error) {
	j, err := t.LookupLocked(id)
	if err != nil {
		return j, JobStatus{}, err
	}
	if j.record().State.Terminal() {
		return j, j.Snapshot(), ErrJobFinished
	}
	return j, JobStatus{}, nil
}

// Status returns a job's snapshot.
func (t *JobTable[J]) Status(id string) (JobStatus, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, err := t.LookupLocked(id)
	if err != nil {
		return JobStatus{}, err
	}
	return j.Snapshot(), nil
}

// Wait blocks until the job reaches a terminal state or ctx expires.
func (t *JobTable[J]) Wait(ctx context.Context, id string) (JobStatus, error) {
	t.mu.Lock()
	j, err := t.LookupLocked(id)
	t.mu.Unlock()
	if err != nil {
		return JobStatus{}, err
	}
	select {
	case <-j.record().done:
	case <-ctx.Done():
		return JobStatus{}, ctx.Err()
	}
	return t.Status(id)
}

// JobCount returns how many tracked jobs are in each state.
func (t *JobTable[J]) JobCount() map[State]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	counts := make(map[State]int, 5)
	for _, j := range t.jobs {
		counts[j.record().State]++
	}
	return counts
}
