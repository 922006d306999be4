// Package commpool contains the paper's contribution (iii): containers
// for in-flight MPI communication records shared by many worker threads.
//
// Two implementations are provided behind one interface so they can be
// compared head-to-head (Table I / Figure 1):
//
//   - LegacyVector: the pre-improvement design — a write-lock protected
//     vector of records polled with MPI_Testsome. A deliberately
//     reproducible "racy" variant demonstrates the buffer-leak race the
//     paper describes (multiple threads processing the same received
//     message, each allocating a buffer, only one deallocating).
//
//   - Pool: the replacement — a wait-free, contention-free pool of
//     records whose "unique protected iterator" is realised with a
//     per-slot atomic state machine: no two goroutines can ever claim the
//     same record, each request is tested individually with MPI_Test, and
//     no operation takes a lock (Algorithm 1 in the paper).
package commpool

import (
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/uintah-repro/rmcrt/internal/metrics"
	"github.com/uintah-repro/rmcrt/internal/simmpi"
)

// Record is one outstanding communication: the request handle, the
// receive buffer it will land in, and the completion callback that
// consumes the message and releases the buffer (Uintah's
// finishCommunication). Handled counts how many times the record's
// callback ran — the double-processing detector used by the race tests;
// a correct container keeps it at exactly 1.
type Record struct {
	Req     *simmpi.Request
	Buf     []byte
	OnDone  func(*Record)
	Handled atomic.Int32

	// MaxPolls bounds how many times the record may be found
	// not-ready before it is declared expired (0 = poll forever).
	// Expiry is the pool's bounded-wait semantic: a dropped message or
	// dead peer must surface as a typed event instead of an infinite
	// poll loop.
	MaxPolls int64
	// OnExpire runs (instead of OnDone) when the poll budget is
	// exhausted; the record is erased either way, so expiry never
	// leaks a slot.
	OnExpire func(*Record)
	polls    atomic.Int64
}

// handle runs the completion callback exactly as a worker thread would.
func (r *Record) handle() {
	r.Handled.Add(1)
	if r.OnDone != nil {
		r.OnDone(r)
	}
}

// Container is the common interface of the legacy and wait-free designs:
// add an outstanding communication, and make progress by finding ready
// (completed) requests and running their completion handlers.
type Container interface {
	// Add registers an outstanding communication record.
	Add(*Record)
	// ProcessReady finds up to one ready record, runs its handler, and
	// removes it. It returns true if a record was processed. Workers
	// call it in a loop; many may call it concurrently.
	ProcessReady() bool
	// Len returns the number of records currently held.
	Len() int
}

// ProcessAll runs workers goroutines that each call c.ProcessReady,
// yielding when nothing was ready, until c is empty, and returns once
// they have all stopped. It is the worker loop the Table I measurement
// times. Records must complete eventually, or it does not return.
func ProcessAll(c Container, workers int) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c.Len() > 0 {
				if !c.ProcessReady() {
					runtime.Gosched()
				}
			}
		}()
	}
	wg.Wait()
}

// segSize is the slot count per pool segment. 64 keeps a segment's state
// words within a few cache lines while bounding the scan length.
const segSize = 64

// Slot states. A slot is empty until an insert claims it, full while it
// holds a live record, and claimed while exactly one goroutine holds its
// protected iterator. The full->claimed transition is the pool's whole
// correctness story: it is a CAS, so exactly one thread wins, which is
// what makes the iterator "unique" in the paper's sense.
const (
	slotEmpty int32 = iota
	slotFull
	slotClaimed
)

type slot struct {
	state atomic.Int32
	val   *Record
}

type segment struct {
	slots [segSize]slot
	next  atomic.Pointer[segment]
}

// Pool is the wait-free communication request pool (Algorithm 1). The
// zero value is ready to use.
//
// Progress guarantees: Insert and FindAny are lock-free — every CAS
// failure means another thread made progress (claimed a slot). A slot
// held claimed by one thread never blocks operations on other slots, so
// a stalled thread cannot stop the system ("a wait, failure, or resource
// allocation by one thread cannot block progress on any other thread").
type Pool struct {
	head atomic.Pointer[segment]
	size atomic.Int64

	// Optional observability hooks (see Publish). Nil when the pool is
	// not instrumented; set before first use.
	mAdded     *metrics.Counter
	mProcessed *metrics.Counter
	mExpired   *metrics.Counter
	gLive      *metrics.Gauge

	expired atomic.Int64
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// Publish registers the pool's instrumentation in reg: records added,
// records processed, and the live (in-flight) record gauge. Call before
// the pool is shared between goroutines; the hooks are plain atomic
// counters, so the wait-free progress guarantees are unaffected.
func (p *Pool) Publish(reg *metrics.Registry) {
	p.mAdded = reg.Counter("commpool_records_added_total", "communication records inserted into the wait-free pool")
	p.mProcessed = reg.Counter("commpool_records_processed_total", "completed communications handled and erased")
	p.mExpired = reg.Counter("commpool_records_expired_total", "records erased after exhausting their poll budget")
	p.gLive = reg.Gauge("commpool_records_live", "outstanding communication records")
}

// Expired returns how many records ran out of poll budget.
func (p *Pool) Expired() int64 { return p.expired.Load() }

// Len returns the number of live records (full + claimed).
func (p *Pool) Len() int { return int(p.size.Load()) }

// Add inserts rec into the pool.
func (p *Pool) Add(rec *Record) {
	for {
		seg := p.head.Load()
		if seg == nil {
			ns := &segment{}
			if !p.head.CompareAndSwap(nil, ns) {
				continue
			}
			seg = p.head.Load()
		}
		for seg != nil {
			for i := range seg.slots {
				s := &seg.slots[i]
				if s.state.Load() == slotEmpty &&
					s.state.CompareAndSwap(slotEmpty, slotClaimed) {
					s.val = rec
					s.state.Store(slotFull)
					p.size.Add(1)
					if p.mAdded != nil {
						p.mAdded.Inc()
						p.gLive.Inc()
					}
					return
				}
			}
			next := seg.next.Load()
			if next == nil {
				ns := &segment{}
				if seg.next.CompareAndSwap(nil, ns) {
					next = ns
				} else {
					next = seg.next.Load()
				}
			}
			seg = next
		}
	}
}

// Iterator is the unique protected iterator of Algorithm 1: while an
// Iterator is live its slot is in the claimed state, so no other
// goroutine can observe or modify the same record. The holder must end
// the claim with exactly one of Erase or Release.
type Iterator struct {
	pool *Pool
	slot *slot
}

// Value returns the claimed record.
func (it *Iterator) Value() *Record { return it.slot.val }

// Erase removes the record from the pool and ends the claim
// (recv_list.erase(iterator) in Algorithm 1).
func (it *Iterator) Erase() {
	it.slot.val = nil
	it.slot.state.Store(slotEmpty)
	it.pool.size.Add(-1)
	if it.pool.gLive != nil {
		it.pool.gLive.Dec()
	}
	it.slot = nil
}

// Release returns the record to the pool unharmed and ends the claim.
func (it *Iterator) Release() {
	it.slot.state.Store(slotFull)
	it.slot = nil
}

// FindAny scans for a record satisfying pred and returns a unique
// protected iterator to it, or nil if none was found this pass. Records
// claimed by other goroutines are skipped — that is the contention-free
// property: threads never wait for each other, they move on.
func (p *Pool) FindAny(pred func(*Record) bool) *Iterator {
	for seg := p.head.Load(); seg != nil; seg = seg.next.Load() {
		for i := range seg.slots {
			s := &seg.slots[i]
			if s.state.Load() != slotFull {
				continue
			}
			if !s.state.CompareAndSwap(slotFull, slotClaimed) {
				continue // another thread claimed it first; move on
			}
			if pred(s.val) {
				return &Iterator{pool: p, slot: s}
			}
			s.state.Store(slotFull)
		}
	}
	return nil
}

// ProcessReady implements Container using Algorithm 1 verbatim: find any
// record whose request tests complete (MPI_Test on each request
// individually), finish the communication, erase it. A record found
// not-ready more than its MaxPolls budget is expired instead: erased
// with OnExpire, never handled — bounded waiting in place of an
// infinite poll on a message that will never come.
func (p *Pool) ProcessReady() bool {
	it := p.FindAny(func(r *Record) bool {
		if r.Req.Test() {
			return true
		}
		if r.MaxPolls > 0 && r.polls.Add(1) >= r.MaxPolls {
			return true
		}
		return false
	})
	if it == nil {
		return false
	}
	rec := it.Value()
	if !rec.Req.Test() {
		// Claimed for expiry, not completion.
		it.Erase()
		p.expired.Add(1)
		if p.mExpired != nil {
			p.mExpired.Inc()
		}
		if rec.OnExpire != nil {
			rec.OnExpire(rec)
		}
		return true
	}
	rec.handle()
	it.Erase()
	if p.mProcessed != nil {
		p.mProcessed.Inc()
	}
	return true
}

// Drain claims and erases every record regardless of readiness, invoking
// f on each. It is used at shutdown to verify nothing leaked.
func (p *Pool) Drain(f func(*Record)) int {
	n := 0
	for {
		it := p.FindAny(func(*Record) bool { return true })
		if it == nil {
			return n
		}
		if f != nil {
			f(it.Value())
		}
		it.Erase()
		n++
	}
}
