package uda

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

type testRecord struct {
	ID string `json:"id"`
	N  int    `json:"n"`
}

// TestRecordFrameLayout pins the on-disk frame byte for byte: the
// journal and the trace goldens depend on it.
func TestRecordFrameLayout(t *testing.T) {
	buf, err := AppendRecord([]byte("x"), testRecord{ID: "a", N: 1})
	if err != nil {
		t.Fatal(err)
	}
	payload := `{"id":"a","n":1}`
	want := append([]byte("x"), 16, 0, 0, 0, 0, 0, 0, 0)
	putU32(want[5:], 0x8ffddab8)
	want = append(want, payload...)
	if !bytes.Equal(buf, want) {
		t.Fatalf("frame = % x\nwant    % x", buf, want)
	}
}

// TestRecordRoundTripAndTornTail: frames decode back in order, and any
// cut or flipped byte stops the reader with ErrTornRecord and buf
// unchanged.
func TestRecordRoundTripAndTornTail(t *testing.T) {
	var buf []byte
	for i := 0; i < 3; i++ {
		var err error
		if buf, err = AppendRecord(buf, testRecord{ID: "r", N: i}); err != nil {
			t.Fatal(err)
		}
	}
	rest := buf
	for i := 0; i < 3; i++ {
		var rec testRecord
		var err error
		if rest, err = NextRecord(rest, &rec); err != nil || rec.N != i {
			t.Fatalf("record %d = %+v, %v", i, rec, err)
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left after the last record", len(rest))
	}

	flipped := append([]byte(nil), buf...)
	flipped[RecordHeaderLen+2] ^= 0x20
	long := append([]byte(nil), buf...)
	putU32(long, MaxRecord+1)
	notJSON := append(make([]byte, RecordHeaderLen), "}{x"...)
	putU32(notJSON, 3)
	putU32(notJSON[4:], 0x317d7b22) // crc32 of "}{x": the frame is whole
	for name, bad := range map[string][]byte{
		"short header": buf[:RecordHeaderLen-1],
		"cut payload":  buf[:RecordHeaderLen+5],
		"bit flip":     flipped,
		"over cap":     long,
		"not json":     notJSON,
	} {
		var rec testRecord
		got, err := NextRecord(bad, &rec)
		if !errors.Is(err, ErrTornRecord) {
			t.Errorf("%s: error %v is not ErrTornRecord", name, err)
		}
		if len(got) != len(bad) {
			t.Errorf("%s: consumed %d bytes of a torn frame", name, len(bad)-len(got))
		}
	}

	if _, err := AppendRecord(nil, string(make([]byte, MaxRecord))); err == nil {
		t.Error("a record over MaxRecord encoded")
	}
}

// TestWriteFileAtomicMode: the written file carries perm exactly (not
// the temp file's 0600) and replaces an existing file in place.
func TestWriteFileAtomicMode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(path, []byte("old"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("new"), 0o644); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o644 {
		t.Errorf("mode = %v, want -rw-r--r--", fi.Mode().Perm())
	}
	if got, _ := os.ReadFile(path); string(got) != "new" {
		t.Errorf("content = %q, want %q", got, "new")
	}
}
