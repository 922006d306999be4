package service

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/uintah-repro/rmcrt/internal/field"
)

// appendAll opens a journal at path and appends recs.
func appendAll(t *testing.T, path string, recs []JournalRecord) {
	t.Helper()
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestJournalRoundTrip: appended records replay verbatim, including the
// spec payload.
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	sp := fastSpec(3).Normalized()
	in := []JournalRecord{
		{Op: OpSubmit, ID: "j-000001", Key: sp.Key(), Spec: &sp},
		{Op: OpDone, ID: "j-000001", Key: sp.Key()},
		{Op: OpFailed, ID: "j-000002", Error: "rank lost"},
	}
	appendAll(t, path, in)

	out, err := ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("replayed %d records, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Op != in[i].Op || out[i].ID != in[i].ID || out[i].Key != in[i].Key || out[i].Error != in[i].Error {
			t.Errorf("record %d = %+v, want %+v", i, out[i], in[i])
		}
	}
	if out[0].Spec == nil || out[0].Spec.Key() != sp.Key() {
		t.Errorf("submit record lost its spec: %+v", out[0].Spec)
	}
}

// TestReplayJournalMissingFile: no journal is an empty journal.
func TestReplayJournalMissingFile(t *testing.T) {
	recs, err := ReplayJournal(filepath.Join(t.TempDir(), "absent.wal"))
	if err != nil || recs != nil {
		t.Fatalf("missing journal = %v, %v; want nil, nil", recs, err)
	}
}

// TestJournalTornTailTyped: truncating the file anywhere inside the last
// record yields ErrTornJournal plus the intact prefix.
func TestJournalTornTailTyped(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.wal")
	sp := fastSpec(1).Normalized()
	appendAll(t, path, []JournalRecord{
		{Op: OpSubmit, ID: "j-000001", Key: sp.Key(), Spec: &sp},
		{Op: OpSubmit, ID: "j-000002", Key: sp.Key(), Spec: &sp},
	})
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, 7, 20} {
		if err := os.WriteFile(path, whole[:len(whole)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		recs, err := ReplayJournal(path)
		if !errors.Is(err, ErrTornJournal) {
			t.Fatalf("cut %d: error %v is not ErrTornJournal", cut, err)
		}
		if len(recs) != 1 || recs[0].ID != "j-000001" {
			t.Fatalf("cut %d: prefix = %+v, want the first record", cut, recs)
		}
	}
}

// TestJournalChecksumCorruption: a flipped byte inside a record's JSON
// fails the CRC with ErrTornJournal.
func TestJournalChecksumCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	sp := fastSpec(1).Normalized()
	appendAll(t, path, []JournalRecord{{Op: OpSubmit, ID: "j-000001", Spec: &sp}})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[journalHeaderLen+3] ^= 0x20
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayJournal(path); !errors.Is(err, ErrTornJournal) {
		t.Fatalf("error %v is not ErrTornJournal", err)
	}
}

// TestJournalCompact: Compact rewrites the journal to the given records
// and appends keep working afterwards.
func TestJournalCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	sp := fastSpec(1).Normalized()
	appendAll(t, path, []JournalRecord{
		{Op: OpSubmit, ID: "j-000001", Spec: &sp},
		{Op: OpDone, ID: "j-000001"},
		{Op: OpSubmit, ID: "j-000002", Spec: &sp},
	})
	recs, err := ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	live := pendingAfter(recs)
	if len(live) != 1 || live[0].ID != "j-000002" {
		t.Fatalf("pendingAfter = %+v, want only j-000002", live)
	}

	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Compact(live); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(JournalRecord{Op: OpDone, ID: "j-000002"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err = ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].ID != "j-000002" || recs[1].Op != OpDone {
		t.Fatalf("after compact+append: %+v", recs)
	}
}

// gatedSolver blocks every solve on gate, so a manager can be parked
// mid-solve and abandoned — the in-process stand-in for SIGKILLing the
// daemon.
func gatedSolver(gate chan struct{}) func(context.Context, Spec) (*field.CC[float64], int64, int64, error) {
	return func(ctx context.Context, spec Spec) (*field.CC[float64], int64, int64, error) {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, 0, 0, ctx.Err()
		}
		return spec.Solve(ctx)
	}
}

// TestRecoverReplaysQueueExactly: kill a daemon with one running and two
// queued jobs (one coalesced); the recovered daemon rebuilds that exact
// set — same IDs, same coalescing opportunity — runs them, and later
// submissions do not reuse recovered IDs.
func TestRecoverReplaysQueueExactly(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "jobs.wal")
	gate := make(chan struct{})
	crashed, err := Recover(Config{
		Workers: 1, QueueDepth: 4, CacheEntries: -1,
		JournalPath: journal,
		Solver:      gatedSolver(gate),
	})
	if err != nil {
		t.Fatal(err)
	}
	st1, err := crashed.Submit(fastSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, crashed, st1.ID, StateRunning)
	st2, err := crashed.Submit(fastSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	st3, err := crashed.Submit(fastSpec(2)) // coalesces onto st2's flight
	if err != nil {
		t.Fatal(err)
	}
	if !st3.Coalesced {
		t.Fatalf("third submission did not coalesce: %+v", st3)
	}
	// SIGKILL stand-in: the crashed manager is abandoned un-Closed; only
	// the journal survives. (Its goroutines are parked on the gate and
	// released during cleanup.)
	t.Cleanup(func() {
		close(gate)
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		crashed.Close(ctx)
	})

	m, err := Recover(Config{
		Workers: 2, QueueDepth: 4, CacheEntries: -1,
		JournalPath: journal,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		m.Close(ctx)
	}()

	rs := m.Recovery()
	if rs.RecordsReplayed != 3 || rs.JobsRecovered != 3 || rs.TornTail {
		t.Fatalf("recovery stats = %+v, want 3 records, 3 jobs, no torn tail", rs)
	}
	for _, id := range []string{st1.ID, st2.ID, st3.ID} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		st, err := m.Wait(ctx, id)
		cancel()
		if err != nil || st.State != StateDone {
			t.Fatalf("recovered job %s = %+v, %v", id, st, err)
		}
	}
	// Recovered results are the real answers.
	for _, tc := range []struct {
		id   string
		spec Spec
	}{{st1.ID, fastSpec(1)}, {st2.ID, fastSpec(2)}} {
		got, _, _, err := m.Result(tc.id)
		if err != nil {
			t.Fatal(err)
		}
		want, _, _, err := tc.spec.Solve(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range want.Data() {
			if got.Data()[i] != w {
				t.Fatalf("job %s: recovered divQ differs at cell %d", tc.id, i)
			}
		}
	}
	// Fresh submissions continue the ID sequence past the recovered ones.
	st4, err := m.Submit(fastSpec(9))
	if err != nil {
		t.Fatal(err)
	}
	if st4.ID <= st3.ID {
		t.Errorf("post-recovery ID %s does not extend pre-crash sequence (last %s)", st4.ID, st3.ID)
	}
}

// TestRecoverSkipsTerminalJobs: jobs that finished before the crash are
// not replayed.
func TestRecoverSkipsTerminalJobs(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "jobs.wal")
	a, err := Recover(Config{Workers: 1, JournalPath: journal, CacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := a.Submit(fastSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if _, err := a.Wait(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	cancel()
	ctx, cancel = context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := a.Close(ctx); err != nil {
		t.Fatal(err)
	}

	b, err := Recover(Config{Workers: 1, JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close(context.Background())
	rs := b.Recovery()
	if rs.JobsRecovered != 0 {
		t.Errorf("recovered %d jobs from a cleanly finished journal", rs.JobsRecovered)
	}
}

// TestRecoverTornTail: a journal ending in a torn record recovers the
// valid prefix and reports the tear.
func TestRecoverTornTail(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "jobs.wal")
	sp := fastSpec(4).Normalized()
	appendAll(t, journal, []JournalRecord{{Op: OpSubmit, ID: "j-000001", Key: sp.Key(), Spec: &sp}})
	f, err := os.OpenFile(journal, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{9, 0, 0}); err != nil { // torn header
		t.Fatal(err)
	}
	f.Close()

	m, err := Recover(Config{Workers: 1, JournalPath: journal, CacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	rs := m.Recovery()
	if !rs.TornTail || rs.JobsRecovered != 1 {
		t.Fatalf("recovery stats = %+v, want torn tail + 1 job", rs)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := m.Wait(ctx, "j-000001")
	if err != nil || st.State != StateDone {
		t.Fatalf("recovered job = %+v, %v", st, err)
	}
	// Recovery compacted the tear away: the journal replays cleanly now.
	if _, err := ReplayJournal(journal); err != nil {
		t.Errorf("journal still torn after recovery: %v", err)
	}
}

// TestRecoverRejectsDeepCorruption is the negative contract: damage
// beyond a torn tail (a corrupt record with valid ones after it would
// need the tail cut mid-file) is not silently absorbed — ReplayJournal
// stops at the first bad record, so the later records are lost and the
// tear is reported. This test pins the "stop, don't skip" behavior.
func TestRecoverRejectsDeepCorruption(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "jobs.wal")
	sp := fastSpec(4).Normalized()
	appendAll(t, journal, []JournalRecord{
		{Op: OpSubmit, ID: "j-000001", Key: sp.Key(), Spec: &sp},
		{Op: OpSubmit, ID: "j-000002", Key: sp.Key(), Spec: &sp},
	})
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	data[journalHeaderLen+2] ^= 0xff // corrupt the FIRST record
	if err := os.WriteFile(journal, data, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := ReplayJournal(journal)
	if !errors.Is(err, ErrTornJournal) {
		t.Fatalf("error %v is not ErrTornJournal", err)
	}
	if len(recs) != 0 {
		t.Fatalf("replay skipped past corruption: %+v", recs)
	}
}

// TestQueueFullCompensated: a submission rejected by the full queue
// leaves no replayable journal residue.
func TestQueueFullCompensated(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "jobs.wal")
	gate := make(chan struct{})
	m, err := Recover(Config{
		Workers: 1, QueueDepth: 1, CacheEntries: -1,
		JournalPath: journal,
		Solver:      gatedSolver(gate),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(gate)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		m.Close(ctx)
	}()
	st, err := m.Submit(fastSpec(1)) // occupies the worker
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, st.ID, StateRunning)
	if _, err := m.Submit(fastSpec(2)); err != nil { // fills the queue
		t.Fatal(err)
	}
	if _, err := m.Submit(fastSpec(3)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submission error = %v, want ErrQueueFull", err)
	}

	recs, err := ReplayJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	pending := pendingAfter(recs)
	if len(pending) != 2 {
		t.Fatalf("pending after rejection = %+v, want the 2 accepted jobs", pending)
	}
	for _, r := range pending {
		if r.Spec.Seed == 3 {
			t.Errorf("rejected job would be replayed: %+v", r)
		}
	}
}

// TestRecoverKeepsJournalMode: the compaction Recover runs on the way
// up rewrites the journal through a temp file, and the rewritten file
// must keep the journal's 0644 mode, not the temp file's 0600 — a
// restart must not change who can read the journal.
func TestRecoverKeepsJournalMode(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "jobs.wal")
	appendAll(t, journal, []JournalRecord{{Op: OpDone, ID: "j-000001"}})
	if err := os.Chmod(journal, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := Recover(Config{Workers: 1, JournalPath: journal, CacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	m.Close(context.Background())
	fi, err := os.Stat(journal)
	if err != nil {
		t.Fatal(err)
	}
	if got := fi.Mode().Perm(); got != 0o644 {
		t.Fatalf("journal mode after Recover = %v, want -rw-r--r--", got)
	}
}
