// Crash consistency for the archive, and the repo's one durable-write
// layer. Uintah's UDA is the restart mechanism for week-long runs, so a
// crash — of the writer mid-payload or of the machine mid-rename — must
// never brick the archive or, worse, let a half-written checkpoint be
// silently loaded. This file provides the layers that guarantee it:
//
//  1. every payload carries a CRC32 trailer over its full framing, so a
//     torn or bit-flipped file is detected on read with a typed error;
//  2. every file (payloads and index.json) is written by WriteFileAtomic
//     (temp file + fsync + rename + directory fsync), so a crash leaves
//     either the old bytes or the new bytes, never a mixture;
//  3. Verify/Repair scan an archive after a crash and quarantine torn
//     timesteps (renamed aside, dropped from the index) so a restart
//     resumes from the newest checkpoint that is provably whole.
//
// WriteFileAtomic and the framed-record codec below also serve the
// files outside the archive (see the package doc).
package uda

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/uintah-repro/rmcrt/internal/field"
	"github.com/uintah-repro/rmcrt/internal/grid"
)

// Typed corruption errors. ErrTruncated and ErrChecksum wrap ErrCorrupt,
// so errors.Is(err, ErrCorrupt) matches any unloadable payload while the
// narrower sentinels distinguish a torn write from a bit flip.
var (
	// ErrCorrupt is the umbrella error for any payload that cannot be
	// decoded: bad magic, impossible geometry, framing damage.
	ErrCorrupt = errors.New("uda: corrupt payload")
	// ErrTruncated marks a payload shorter than its header promises —
	// the signature of a torn write.
	ErrTruncated = fmt.Errorf("%w: truncated", ErrCorrupt)
	// ErrChecksum marks a CRC32 mismatch: the length is right but the
	// bytes are not.
	ErrChecksum = fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	// ErrNonFinite rejects NaN/±Inf cells on read when Archive.Strict is
	// set. It is distinct from ErrCorrupt: the framing is intact, the
	// physics is not.
	ErrNonFinite = errors.New("uda: non-finite cell value")
)

// Decode sanity bounds: coordinates and extents far beyond any grid this
// repo can build are rejected as corruption before any arithmetic that
// could overflow or any allocation that could OOM.
const (
	maxCoord  = int64(1) << 40
	maxExtent = int64(1) << 20
	maxCells  = int64(1) << 33
)

// encodePayload renders a variable in the UDA1 framing: magic, window
// box (6 int64s), cell count (int64), the cells as float64 bits, and a
// trailing CRC32 (IEEE) over everything before it.
func encodePayload(v *field.CC[float64]) []byte {
	box := v.Box()
	data := v.Data()
	buf := make([]byte, payloadHeaderLen+8*len(data)+4)
	copy(buf, magic)
	off := 4
	for _, x := range []int{box.Lo.X, box.Lo.Y, box.Lo.Z, box.Hi.X, box.Hi.Y, box.Hi.Z} {
		putU64(buf[off:], uint64(int64(x)))
		off += 8
	}
	putU64(buf[off:], uint64(len(data)))
	off += 8
	for _, x := range data {
		putU64(buf[off:], math.Float64bits(x))
		off += 8
	}
	putU32(buf[off:], crc32.ChecksumIEEE(buf[:off]))
	return buf
}

// decodePayload parses a payload, verifying framing, geometry, and the
// CRC32 trailer. Payloads written before the trailer existed (exactly
// header+data long) are accepted without a checksum. It never panics on
// arbitrary input: every failure is a typed corruption error. With
// strict set, NaN and ±Inf cells are rejected with ErrNonFinite.
func decodePayload(buf []byte, strict bool) (*field.CC[float64], error) {
	if len(buf) < payloadHeaderLen {
		return nil, fmt.Errorf("%w: %d bytes, header needs %d", ErrTruncated, len(buf), payloadHeaderLen)
	}
	if string(buf[:4]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, buf[:4])
	}
	off := 4
	var xs [6]int64
	for i := range xs {
		xs[i] = int64(getU64(buf[off:]))
		if xs[i] > maxCoord || xs[i] < -maxCoord {
			return nil, fmt.Errorf("%w: window coordinate %d out of range", ErrCorrupt, xs[i])
		}
		off += 8
	}
	n := int64(getU64(buf[off:]))
	off += 8
	if n < 0 || n > maxCells {
		return nil, fmt.Errorf("%w: cell count %d out of range", ErrCorrupt, n)
	}
	box := grid.NewBox(grid.IV(int(xs[0]), int(xs[1]), int(xs[2])), grid.IV(int(xs[3]), int(xs[4]), int(xs[5])))
	ext := box.Extent()
	for _, e := range []int{ext.X, ext.Y, ext.Z} {
		if int64(e) > maxExtent {
			return nil, fmt.Errorf("%w: window extent %d out of range", ErrCorrupt, e)
		}
	}
	if int64(box.Volume()) != n {
		return nil, fmt.Errorf("%w: cell count %d != window volume %d", ErrCorrupt, n, box.Volume())
	}
	want := int64(payloadHeaderLen) + 8*n
	switch int64(len(buf)) {
	case want:
		// Pre-CRC payload: framing length is the only integrity check.
	case want + 4:
		if got, sum := getU32(buf[want:]), crc32.ChecksumIEEE(buf[:want]); got != sum {
			return nil, fmt.Errorf("%w: stored %08x, computed %08x", ErrChecksum, got, sum)
		}
	default:
		if int64(len(buf)) < want {
			return nil, fmt.Errorf("%w: %d bytes, want %d", ErrTruncated, len(buf), want+4)
		}
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, int64(len(buf))-want-4)
	}
	data := make([]float64, n)
	for i := range data {
		data[i] = math.Float64frombits(getU64(buf[off:]))
		off += 8
	}
	if strict {
		for i, x := range data {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("%w: cell %d is %v", ErrNonFinite, i, x)
			}
		}
	}
	return field.NewCCFrom(box, data), nil
}

// WriteFileAtomic writes data to path crash-consistently: a temp file
// in the same directory, chmod to perm, fsync, atomic rename over path,
// then an fsync of the directory so the rename itself is durable. A
// crash at any point leaves either the previous file or the new one,
// never a mixture, and concurrent writers to one path each use their
// own temp file.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, werr := f.Write(data)
	if werr == nil {
		werr = f.Chmod(perm)
	}
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return werr
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// The framed-record codec: a record is one JSON value in the frame
// [u32 LE payload length][u32 LE crc32-IEEE(payload)][JSON payload],
// and a record file is frames back to back with nothing between them.
// A reader stops at the first damaged frame, so a crash mid-append
// costs the tail record and never yields a half-parsed one.
const (
	// RecordHeaderLen is the frame header: payload length and checksum.
	RecordHeaderLen = 8
	// MaxRecord bounds one payload (1 MiB), so a corrupt length field
	// fails fast instead of allocating garbage.
	MaxRecord = 1 << 20
)

// ErrTornRecord marks a frame that is truncated, impossibly long,
// fails its checksum, or does not decode — the signature of a crash
// mid-write.
var ErrTornRecord = errors.New("uda: torn record")

// AppendRecord JSON-encodes v and appends its frame to buf.
func AppendRecord(buf []byte, v any) ([]byte, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return buf, fmt.Errorf("uda: record encode: %w", err)
	}
	if len(payload) > MaxRecord {
		return buf, fmt.Errorf("uda: record %d bytes exceeds %d", len(payload), MaxRecord)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...), nil
}

// NextRecord decodes the frame at the start of buf into v and returns
// the bytes after it. A damaged frame returns buf unchanged and an
// error wrapping ErrTornRecord.
func NextRecord(buf []byte, v any) ([]byte, error) {
	if len(buf) < RecordHeaderLen {
		return buf, fmt.Errorf("%w: %d-byte tail", ErrTornRecord, len(buf))
	}
	n := getU32(buf)
	if n > MaxRecord {
		return buf, fmt.Errorf("%w: impossible length %d", ErrTornRecord, n)
	}
	end := RecordHeaderLen + int(n)
	if len(buf) < end {
		return buf, fmt.Errorf("%w: wants %d bytes, %d remain", ErrTornRecord, n, len(buf)-RecordHeaderLen)
	}
	payload := buf[RecordHeaderLen:end]
	if crc32.ChecksumIEEE(payload) != getU32(buf[4:]) {
		return buf, fmt.Errorf("%w: checksum mismatch", ErrTornRecord)
	}
	if err := json.Unmarshal(payload, v); err != nil {
		return buf, fmt.Errorf("%w: undecodable: %v", ErrTornRecord, err)
	}
	return buf[end:], nil
}

// syncDir makes a directory's entries (creations and renames) durable.
// Filesystems that cannot fsync a directory are tolerated: the data
// files themselves are still synced.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}

// PayloadError locates one problem Verify found: a payload (or a whole
// timestep) of the archive that cannot be loaded.
type PayloadError struct {
	// Timestep is the archive timestep the problem lives in.
	Timestep int
	// File is the payload path relative to the archive root ("" when the
	// timestep directory itself is the problem).
	File string
	// Err is the typed corruption error.
	Err error
}

// Error implements error.
func (e PayloadError) Error() string {
	if e.File == "" {
		return fmt.Sprintf("uda: timestep %d: %v", e.Timestep, e.Err)
	}
	return fmt.Sprintf("uda: timestep %d: %s: %v", e.Timestep, e.File, e.Err)
}

// Unwrap exposes the underlying typed error to errors.Is.
func (e PayloadError) Unwrap() error { return e.Err }

// Verify decodes every payload of every indexed timestep and reports the
// ones that fail — the post-crash audit. A clean archive returns nil.
func (a *Archive) Verify() []PayloadError {
	var bad []PayloadError
	for _, ts := range a.index.Timesteps {
		dir := a.tsDir(ts)
		ents, err := os.ReadDir(dir)
		if err != nil {
			bad = append(bad, PayloadError{Timestep: ts, Err: fmt.Errorf("%w: unreadable timestep directory: %v", ErrCorrupt, err)})
			continue
		}
		found := false
		for _, e := range ents {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".bin") {
				continue
			}
			found = true
			rel := filepath.Join(filepath.Base(dir), e.Name())
			buf, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				bad = append(bad, PayloadError{Timestep: ts, File: rel, Err: fmt.Errorf("%w: %v", ErrCorrupt, err)})
				continue
			}
			if _, err := decodePayload(buf, a.Strict); err != nil {
				bad = append(bad, PayloadError{Timestep: ts, File: rel, Err: err})
			}
		}
		if !found {
			bad = append(bad, PayloadError{Timestep: ts, Err: fmt.Errorf("%w: no payloads on disk", ErrCorrupt)})
		}
	}
	return bad
}

// tornSuffix marks a quarantined timestep directory.
const tornSuffix = ".torn"

// Repair quarantines every timestep Verify flags: the timestep directory
// is renamed aside with a ".torn" suffix and dropped from the index, so
// no load path can ever hand out a half-written checkpoint. It returns
// the quarantined timestep numbers in ascending order.
func (a *Archive) Repair() ([]int, error) {
	bad := a.Verify()
	if len(bad) == 0 {
		return nil, nil
	}
	torn := make(map[int]bool, len(bad))
	for _, e := range bad {
		torn[e.Timestep] = true
	}
	keep := a.index.Timesteps[:0]
	quarantined := make([]int, 0, len(torn))
	for _, ts := range a.index.Timesteps {
		if !torn[ts] {
			keep = append(keep, ts)
			continue
		}
		quarantined = append(quarantined, ts)
		dir := a.tsDir(ts)
		if _, err := os.Stat(dir); err == nil {
			if err := os.Rename(dir, dir+tornSuffix); err != nil {
				return quarantined, fmt.Errorf("uda: quarantining timestep %d: %w", ts, err)
			}
		}
	}
	a.index.Timesteps = keep
	if err := a.writeIndex(); err != nil {
		return quarantined, err
	}
	sort.Ints(quarantined)
	return quarantined, syncDir(a.dir)
}

// OpenRepair opens an existing archive and immediately quarantines any
// torn timesteps — the restart-after-crash entry point. It returns the
// opened archive and the timesteps it had to quarantine.
func OpenRepair(dir string) (*Archive, []int, error) {
	a, err := Open(dir)
	if err != nil {
		return nil, nil, err
	}
	q, err := a.Repair()
	if err != nil {
		return nil, q, err
	}
	return a, q, nil
}

// RemoveTimestep deletes a recorded timestep's payloads and drops it
// from the index — checkpoint-retention pruning.
func (a *Archive) RemoveTimestep(ts int) error {
	i := sort.SearchInts(a.index.Timesteps, ts)
	if i >= len(a.index.Timesteps) || a.index.Timesteps[i] != ts {
		return fmt.Errorf("uda: no timestep %d", ts)
	}
	a.index.Timesteps = append(a.index.Timesteps[:i], a.index.Timesteps[i+1:]...)
	if err := a.writeIndex(); err != nil {
		return err
	}
	if err := os.RemoveAll(a.tsDir(ts)); err != nil {
		return fmt.Errorf("uda: %w", err)
	}
	return syncDir(a.dir)
}
