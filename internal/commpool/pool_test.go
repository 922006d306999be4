package commpool

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/uintah-repro/rmcrt/internal/simmpi"
)

// makeReady returns a record whose request has already completed.
func makeReady(c *simmpi.Comm, tag int) *Record {
	c.Isend(0, 1, tag, []byte{1})
	return &Record{Req: c.Irecv(1, 0, tag)}
}

// makePending returns a record whose request will never complete.
func makePending(c *simmpi.Comm, tag int) *Record {
	return &Record{Req: c.Irecv(1, 0, tag)}
}

func TestPoolAddLenErase(t *testing.T) {
	c := simmpi.NewComm(2)
	p := NewPool()
	if p.Len() != 0 {
		t.Fatal("new pool not empty")
	}
	for i := 0; i < 10; i++ {
		p.Add(makeReady(c, i))
	}
	if p.Len() != 10 {
		t.Fatalf("Len = %d", p.Len())
	}
	for i := 0; i < 10; i++ {
		if !p.ProcessReady() {
			t.Fatalf("ProcessReady %d found nothing", i)
		}
	}
	if p.Len() != 0 {
		t.Fatalf("Len after drain = %d", p.Len())
	}
	if p.ProcessReady() {
		t.Error("ProcessReady on empty pool returned true")
	}
}

func TestPoolSkipsPending(t *testing.T) {
	c := simmpi.NewComm(2)
	p := NewPool()
	p.Add(makePending(c, 100))
	ready := makeReady(c, 0)
	p.Add(ready)
	if !p.ProcessReady() {
		t.Fatal("ready record not found")
	}
	if ready.Handled.Load() != 1 {
		t.Errorf("ready handled %d times", ready.Handled.Load())
	}
	if p.Len() != 1 {
		t.Errorf("pending record should remain, Len = %d", p.Len())
	}
	if p.ProcessReady() {
		t.Error("pending record processed")
	}
}

func TestPoolGrowsPastSegment(t *testing.T) {
	c := simmpi.NewComm(2)
	p := NewPool()
	n := segSize*3 + 7
	for i := 0; i < n; i++ {
		p.Add(makeReady(c, i))
	}
	if p.Len() != n {
		t.Fatalf("Len = %d, want %d", p.Len(), n)
	}
	processed := 0
	for p.ProcessReady() {
		processed++
	}
	if processed != n {
		t.Errorf("processed %d, want %d", processed, n)
	}
}

func TestPoolSlotReuseAfterErase(t *testing.T) {
	c := simmpi.NewComm(2)
	p := NewPool()
	// Fill, drain, refill: the pool must reuse slots, not leak segments.
	for round := 0; round < 5; round++ {
		for i := 0; i < segSize; i++ {
			p.Add(makeReady(c, round*segSize+i))
		}
		for p.ProcessReady() {
		}
		if p.Len() != 0 {
			t.Fatalf("round %d: Len = %d", round, p.Len())
		}
	}
	// All records fit in the original segments: at most 2 segments.
	segs := 0
	for s := p.head.Load(); s != nil; s = s.next.Load() {
		segs++
	}
	if segs > 2 {
		t.Errorf("pool grew to %d segments despite reuse", segs)
	}
}

func TestIteratorReleaseKeepsRecord(t *testing.T) {
	c := simmpi.NewComm(2)
	p := NewPool()
	rec := makeReady(c, 0)
	p.Add(rec)
	it := p.FindAny(func(*Record) bool { return true })
	if it == nil {
		t.Fatal("FindAny found nothing")
	}
	if it.Value() != rec {
		t.Fatal("iterator value mismatch")
	}
	it.Release()
	if p.Len() != 1 {
		t.Error("Release changed Len")
	}
	// Record is findable again after release.
	it2 := p.FindAny(func(*Record) bool { return true })
	if it2 == nil {
		t.Fatal("record not findable after Release")
	}
	it2.Erase()
	if p.Len() != 0 {
		t.Error("Erase did not remove")
	}
}

func TestIteratorUniqueness(t *testing.T) {
	// While one goroutine holds an iterator, no other FindAny may return
	// the same record — the paper's "no two threads can have iterators
	// which dereference to the same object".
	c := simmpi.NewComm(2)
	p := NewPool()
	rec := makeReady(c, 0)
	p.Add(rec)
	it := p.FindAny(func(*Record) bool { return true })
	if it == nil {
		t.Fatal("first claim failed")
	}
	if it2 := p.FindAny(func(*Record) bool { return true }); it2 != nil {
		t.Fatal("second iterator claimed the same record")
	}
	it.Release()
	if it3 := p.FindAny(func(*Record) bool { return true }); it3 == nil {
		t.Fatal("record lost after release")
	}
}

func TestDrain(t *testing.T) {
	c := simmpi.NewComm(2)
	p := NewPool()
	for i := 0; i < 20; i++ {
		p.Add(makePending(c, i))
	}
	seen := 0
	n := p.Drain(func(*Record) { seen++ })
	if n != 20 || seen != 20 {
		t.Errorf("Drain = %d (saw %d), want 20", n, seen)
	}
	if p.Len() != 0 {
		t.Errorf("Len after Drain = %d", p.Len())
	}
}

// TestPoolConcurrentExactlyOnce is the core correctness property: under
// heavy concurrency every record is processed exactly once, none are
// lost, none are double-handled. Run with -race.
func TestPoolConcurrentExactlyOnce(t *testing.T) {
	testExactlyOnce(t, NewPool())
}

// TestLegacyConcurrentExactlyOnce: the (non-racy) legacy container is
// slow but must also be correct.
func TestLegacyConcurrentExactlyOnce(t *testing.T) {
	testExactlyOnce(t, NewLegacyVector())
}

func testExactlyOnce(t *testing.T, container Container) {
	t.Helper()
	const (
		producers = 4
		consumers = 8
		perProd   = 500
	)
	c := simmpi.NewComm(2)
	total := producers * perProd
	records := make([]*Record, 0, total)
	var mu sync.Mutex

	var handled atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < consumers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if container.ProcessReady() {
					handled.Add(1)
					continue
				}
				select {
				case <-stop:
					// Final sweep after producers are done.
					for container.ProcessReady() {
						handled.Add(1)
					}
					return
				default:
					runtime.Gosched()
				}
			}
		}()
	}

	var pwg sync.WaitGroup
	for pr := 0; pr < producers; pr++ {
		pwg.Add(1)
		go func(pr int) {
			defer pwg.Done()
			for i := 0; i < perProd; i++ {
				tag := pr*perProd + i
				rec := &Record{}
				rec.Req = c.Irecv(1, 0, tag)
				mu.Lock()
				records = append(records, rec)
				mu.Unlock()
				container.Add(rec)
				c.Isend(0, 1, tag, []byte{byte(i)})
			}
		}(pr)
	}
	pwg.Wait()
	close(stop)
	wg.Wait()

	if got := handled.Load(); got != int64(total) {
		t.Errorf("handled %d records, want %d", got, total)
	}
	if container.Len() != 0 {
		t.Errorf("container still holds %d records", container.Len())
	}
	for i, rec := range records {
		if n := rec.Handled.Load(); n != 1 {
			t.Errorf("record %d handled %d times", i, n)
		}
	}
}

// TestRacyLegacyLeaksDeterministically forces the exact interleaving the
// paper describes: two threads observe the same ready record, both
// "allocate a buffer", one wins the claim, the loser leaks.
func TestRacyLegacyLeaksDeterministically(t *testing.T) {
	c := simmpi.NewComm(2)

	// The yield hook parks the first thread between its readiness read
	// and its claim until the second thread has stolen the record.
	step := make(chan struct{})
	var first atomic.Bool
	var l *RacyLegacyVector
	l = NewRacyLegacyVector(func() {
		if first.CompareAndSwap(false, true) {
			// Thread A: let thread B run to completion first.
			<-step
		}
	})

	rec := makeReady(c, 0)
	l.Add(rec)

	done := make(chan bool)
	go func() { done <- l.ProcessReady() }() // thread A: will park in yield
	// Wait until A has parked.
	for !first.Load() {
		runtime.Gosched()
	}
	// Thread B processes the record completely.
	if !l.ProcessReady() {
		t.Fatal("thread B could not process")
	}
	close(step) // unpark A
	if <-done {
		t.Fatal("thread A also claims success")
	}
	if got := l.Leaked.Load(); got != 1 {
		t.Errorf("leaked buffers = %d, want exactly 1", got)
	}
	if rec.Handled.Load() != 1 {
		t.Errorf("record handled %d times, want 1", rec.Handled.Load())
	}
}

// TestWaitFreePoolNeverLeaks runs the same contended workload against
// the wait-free pool and checks the leak counter equivalent: every
// handler runs exactly once, so there is nothing to leak. This is the
// paper's before/after correctness story in one test.
func TestWaitFreePoolNeverLeaks(t *testing.T) {
	const rounds = 200
	c := simmpi.NewComm(2)
	p := NewPool()
	var recs []*Record
	for i := 0; i < rounds; i++ {
		r := makeReady(c, i)
		recs = append(recs, r)
		p.Add(r)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p.ProcessReady() {
			}
		}()
	}
	wg.Wait()
	for i, r := range recs {
		if n := r.Handled.Load(); n != 1 {
			t.Errorf("record %d handled %d times", i, n)
		}
	}
}

// TestProcessAllDrains: the Table I worker loop returns only once every
// record, completed by a concurrent sender, was handled exactly once.
func TestProcessAllDrains(t *testing.T) {
	for _, container := range []Container{NewPool(), NewLegacyVector()} {
		const msgs = 300
		c := simmpi.NewComm(2)
		records := make([]*Record, msgs)
		for i := range records {
			records[i] = &Record{Req: c.Irecv(1, 0, i)}
			container.Add(records[i])
		}
		sent := make(chan struct{})
		go func() {
			defer close(sent)
			for i := 0; i < msgs; i++ {
				c.Isend(0, 1, i, nil)
			}
		}()
		ProcessAll(container, 4)
		<-sent
		if container.Len() != 0 {
			t.Fatalf("%T: %d records left", container, container.Len())
		}
		for i, r := range records {
			if n := r.Handled.Load(); n != 1 {
				t.Fatalf("%T: record %d handled %d times", container, i, n)
			}
		}
	}
}
