package service

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"github.com/uintah-repro/rmcrt/internal/uda"
)

// The write-ahead job journal. rmcrtd's queue lives in memory; the
// journal makes it survive the daemon: every accepted job appends a
// submit record *before* it becomes runnable, every terminal transition
// appends a matching close record, and startup replays the file to
// rebuild exactly the queued + running set that existed at the crash.
// Records are internal/uda's framed records (uda.AppendRecord), fsync'd
// on append, so a torn tail (the record being written when the daemon
// died) is detected as the typed ErrTornJournal and cut off — never
// half-parsed into a phantom job.

// Journal record operations.
const (
	// OpSubmit records an accepted job: ID, Key and the normalized Spec.
	OpSubmit = "submit"
	// OpDone / OpFailed / OpCancelled close a job; a submit without a
	// close is replayed at startup.
	OpDone      = "done"
	OpFailed    = "failed"
	OpCancelled = "cancelled"
)

// JournalRecord is one journal entry.
type JournalRecord struct {
	Op  string `json:"op"`
	ID  string `json:"id"`
	Key string `json:"key,omitempty"`
	// Spec rides along on submit records so replay can re-run the job.
	Spec *Spec `json:"spec,omitempty"`
	// Error carries the failure cause on failed records (diagnostic
	// only; replay does not interpret it).
	Error string `json:"error,omitempty"`
}

// ErrTornJournal marks a journal whose tail record is truncated or
// corrupt — the expected signature of a crash mid-append. The valid
// prefix is still returned alongside it.
var ErrTornJournal = errors.New("service: torn journal record")

// journalHeaderLen is the record frame header (length + checksum).
const journalHeaderLen = uda.RecordHeaderLen

// Journal is an append-only, fsync'd record log. Appends are
// goroutine-safe.
type Journal struct {
	mu   sync.Mutex
	path string
	f    *os.File
}

// OpenJournal opens (creating if needed) the journal at path for
// appending.
func OpenJournal(path string) (*Journal, error) {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("service: journal: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("service: journal: %w", err)
	}
	return &Journal{path: path, f: f}, nil
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Append durably appends one record: the write is followed by an fsync,
// so once Append returns the record survives a crash.
func (j *Journal) Append(rec JournalRecord) error {
	buf, err := uda.AppendRecord(nil, rec)
	if err != nil {
		return fmt.Errorf("service: journal append: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("service: journal %s is closed", j.path)
	}
	if _, err := j.f.Write(buf); err != nil {
		return fmt.Errorf("service: journal append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("service: journal sync: %w", err)
	}
	return nil
}

// Compact atomically rewrites the journal to hold exactly recs (the
// live set after a replay) with uda.WriteFileAtomic, and swaps the
// append handle to the new file. Startup runs it so the journal stays
// bounded by the live job set instead of growing forever.
func (j *Journal) Compact(recs []JournalRecord) error {
	var buf []byte
	for _, rec := range recs {
		var err error
		if buf, err = uda.AppendRecord(buf, rec); err != nil {
			return fmt.Errorf("service: journal compact: %w", err)
		}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := uda.WriteFileAtomic(j.path, buf, 0o644); err != nil {
		return fmt.Errorf("service: journal compact: %w", err)
	}
	// Swap the append handle onto the compacted file; the old handle
	// points at the unlinked inode (a zombie pre-crash process still
	// holding it appends into the void, not into our live journal).
	f, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("service: journal compact: %w", err)
	}
	if j.f != nil {
		j.f.Close()
	}
	j.f = f
	return nil
}

// Close releases the append handle. Further Appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// ReplayJournal reads the journal at path and returns every whole,
// checksum-valid record in order. A missing file is an empty journal. A
// torn or corrupt tail returns the valid prefix together with an error
// wrapping ErrTornJournal — the caller decides whether that is the
// expected crash residue (recover and compact) or a reason to refuse.
func ReplayJournal(path string) ([]JournalRecord, error) {
	buf, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("service: journal replay: %w", err)
	}
	var recs []JournalRecord
	for rest := buf; len(rest) > 0; {
		var rec JournalRecord
		if rest, err = uda.NextRecord(rest, &rec); err != nil {
			return recs, fmt.Errorf("%w at offset %d: %w", ErrTornJournal, len(buf)-len(rest), err)
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// pendingAfter reduces a replayed record stream to the jobs that were
// still queued or running at the crash: submits without a later close,
// in submission order.
func pendingAfter(recs []JournalRecord) []JournalRecord {
	closed := make(map[string]bool)
	for _, r := range recs {
		if r.Op != OpSubmit {
			closed[r.ID] = true
		}
	}
	var pending []JournalRecord
	for _, r := range recs {
		if r.Op == OpSubmit && !closed[r.ID] && r.Spec != nil {
			pending = append(pending, r)
		}
	}
	return pending
}
