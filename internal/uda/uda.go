// Package uda implements a miniature of the Uintah Data Archive — the
// on-disk timestep output format Uintah writes for post-processing and
// restarts. A real UDA is a directory tree of XML indices and per-patch
// binary data; this reproduction keeps the same shape (one archive
// directory, one index, per-timestep subdirectories, per-variable
// binary payloads with patch windows) with a simple, versioned, binary
// encoding instead of XML.
//
// Layout:
//
//	<dir>/index.json                     archive metadata + timestep list
//	<dir>/t<NNNN>/<label>.p<patch>.bin   per-patch variable payloads
//
// Payload format (little-endian): magic "UDA1", the window box (6
// int64s), the cell count (int64), count float64s in the canonical
// z-fastest order, then a CRC32 (IEEE) trailer over everything before
// it. Payloads and the index are written crash-consistently (temp file
// + fsync + rename + directory fsync; see durable.go), and torn or
// corrupt payloads surface as typed errors (ErrCorrupt, ErrTruncated,
// ErrChecksum) instead of bad data.
//
// The package is also the repo's one durable-write layer: every file
// that must survive a crash is written by WriteFileAtomic, and every
// append-style record file (the rmcrtd job journal, loadgen traces) is
// framed by the record codec AppendRecord / NextRecord —
// [u32 LE length][u32 LE crc32-IEEE(payload)][JSON payload], at most
// MaxRecord bytes of payload, damage reported as ErrTornRecord.
package uda

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"github.com/uintah-repro/rmcrt/internal/field"
	"github.com/uintah-repro/rmcrt/internal/grid"
)

const magic = "UDA1"

// payloadHeaderLen is magic + window box + cell count.
const payloadHeaderLen = 4 + 6*8 + 8

// Little-endian accessors shared by the payload codec.
func putU64(b []byte, x uint64) { binary.LittleEndian.PutUint64(b, x) }
func getU64(b []byte) uint64    { return binary.LittleEndian.Uint64(b) }
func putU32(b []byte, x uint32) { binary.LittleEndian.PutUint32(b, x) }
func getU32(b []byte) uint32    { return binary.LittleEndian.Uint32(b) }

// Index is the archive's top-level metadata.
type Index struct {
	// Title names the simulation.
	Title string `json:"title"`
	// Timesteps lists the recorded timestep numbers in order.
	Timesteps []int `json:"timesteps"`
	// Variables lists the labels ever saved.
	Variables []string `json:"variables"`
}

// Archive is an open UDA directory.
type Archive struct {
	dir   string
	index Index

	// Strict, when set, makes every read reject NaN and ±Inf cells with
	// ErrNonFinite. Checkpoint consumers set it: a non-finite value in a
	// restart field poisons everything downstream of the resume.
	Strict bool
}

// Create makes a new archive directory (which must not already contain
// an index).
func Create(dir, title string) (*Archive, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("uda: %w", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "index.json")); err == nil {
		return nil, fmt.Errorf("uda: %s already holds an archive", dir)
	}
	a := &Archive{dir: dir, index: Index{Title: title}}
	if err := a.writeIndex(); err != nil {
		return nil, err
	}
	return a, nil
}

// Open loads an existing archive.
func Open(dir string) (*Archive, error) {
	data, err := os.ReadFile(filepath.Join(dir, "index.json"))
	if err != nil {
		return nil, fmt.Errorf("uda: %w", err)
	}
	a := &Archive{dir: dir}
	if err := json.Unmarshal(data, &a.index); err != nil {
		return nil, fmt.Errorf("uda: corrupt index: %w", err)
	}
	return a, nil
}

// Index returns a copy of the archive metadata.
func (a *Archive) Index() Index {
	cp := a.index
	cp.Timesteps = append([]int(nil), a.index.Timesteps...)
	cp.Variables = append([]string(nil), a.index.Variables...)
	return cp
}

func (a *Archive) writeIndex() error {
	data, err := json.MarshalIndent(a.index, "", "  ")
	if err != nil {
		return fmt.Errorf("uda: %w", err)
	}
	if err := WriteFileAtomic(filepath.Join(a.dir, "index.json"), data, 0o644); err != nil {
		return fmt.Errorf("uda: %w", err)
	}
	return nil
}

func (a *Archive) tsDir(ts int) string { return filepath.Join(a.dir, fmt.Sprintf("t%04d", ts)) }

func payloadName(label string, patch int) string {
	return fmt.Sprintf("%s.p%d.bin", label, patch)
}

// SaveCC writes a variable's patch window into timestep ts. The payload
// is CRC-framed and written atomically (temp + fsync + rename), and the
// index is updated the same way afterwards — so a crash at any point
// leaves the archive loadable: either without the new payload, or with
// it whole.
func (a *Archive) SaveCC(ts int, label string, patch int, v *field.CC[float64]) error {
	dir := a.tsDir(ts)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("uda: %w", err)
	}
	if err := WriteFileAtomic(filepath.Join(dir, payloadName(label, patch)), encodePayload(v), 0o644); err != nil {
		return fmt.Errorf("uda: %w", err)
	}
	a.noteTimestep(ts)
	a.noteVariable(label)
	return a.writeIndex()
}

// LoadCC reads a variable's patch window from timestep ts, verifying the
// framing and CRC32 trailer. Torn or damaged payloads fail with a typed
// error (ErrTruncated / ErrChecksum / ErrCorrupt); with Archive.Strict
// set, non-finite cells fail with ErrNonFinite.
func (a *Archive) LoadCC(ts int, label string, patch int) (*field.CC[float64], error) {
	buf, err := os.ReadFile(filepath.Join(a.tsDir(ts), payloadName(label, patch)))
	if err != nil {
		return nil, fmt.Errorf("uda: %w", err)
	}
	v, err := decodePayload(buf, a.Strict)
	if err != nil {
		return nil, fmt.Errorf("%s patch %d at t%04d: %w", label, patch, ts, err)
	}
	return v, nil
}

// SaveLevel writes every patch of a level's variable map in one call.
func (a *Archive) SaveLevel(ts int, label string, lvl *grid.Level, get func(p *grid.Patch) (*field.CC[float64], error)) error {
	for _, p := range lvl.Patches {
		v, err := get(p)
		if err != nil {
			return fmt.Errorf("uda: save level %s: %w", label, err)
		}
		if err := a.SaveCC(ts, label, p.ID, v); err != nil {
			return err
		}
	}
	return nil
}

// LoadLevel reassembles a whole level's variable from its patches.
func (a *Archive) LoadLevel(ts int, label string, lvl *grid.Level) (*field.CC[float64], error) {
	out := field.NewCC[float64](lvl.IndexBox())
	for _, p := range lvl.Patches {
		v, err := a.LoadCC(ts, label, p.ID)
		if err != nil {
			return nil, err
		}
		region := v.Box().Intersect(p.Cells)
		out.CopyRegion(v, region)
	}
	return out, nil
}

// Timesteps returns the recorded timestep numbers.
func (a *Archive) Timesteps() []int { return append([]int(nil), a.index.Timesteps...) }

func (a *Archive) noteTimestep(ts int) {
	i := sort.SearchInts(a.index.Timesteps, ts)
	if i < len(a.index.Timesteps) && a.index.Timesteps[i] == ts {
		return
	}
	a.index.Timesteps = append(a.index.Timesteps, 0)
	copy(a.index.Timesteps[i+1:], a.index.Timesteps[i:])
	a.index.Timesteps[i] = ts
}

func (a *Archive) noteVariable(label string) {
	i := sort.SearchStrings(a.index.Variables, label)
	if i < len(a.index.Variables) && a.index.Variables[i] == label {
		return
	}
	a.index.Variables = append(a.index.Variables, "")
	copy(a.index.Variables[i+1:], a.index.Variables[i:])
	a.index.Variables[i] = label
}
