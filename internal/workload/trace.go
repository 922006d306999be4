package workload

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"

	"github.com/uintah-repro/rmcrt/internal/uda"
)

// A trace file is internal/uda's framed records (uda.AppendRecord):
// record 0 is the header, every following record is one Submission in
// timeline order. Because the payloads serialize a Plan — a pure
// function of (spec, seed) — the file is byte-identical across runs,
// machines and GOMAXPROCS, which is the property the golden tests pin.
const traceVersion = 1

// ErrTornTrace reports a trace whose tail is an incomplete or
// corrupt record; the decoded prefix is still returned.
var ErrTornTrace = errors.New("workload: torn trace tail")

// traceHeader is record 0.
type traceHeader struct {
	Version  int          `json:"version"`
	Workload string       `json:"workload"`
	Seed     uint64       `json:"seed"`
	Count    int          `json:"count"`
	Clients  []PlanClient `json:"clients,omitempty"`
}

// EncodeTrace writes the plan to w in the framed trace format.
func EncodeTrace(w io.Writer, plan *Plan) error {
	buf, err := uda.AppendRecord(nil, traceHeader{
		Version: traceVersion, Workload: plan.Workload, Seed: plan.Seed,
		Count: len(plan.Subs), Clients: plan.Clients,
	})
	for i := 0; i < len(plan.Subs) && err == nil; i++ {
		buf, err = uda.AppendRecord(buf, &plan.Subs[i])
	}
	if err != nil {
		return fmt.Errorf("workload: trace encode: %w", err)
	}
	_, err = w.Write(buf)
	return err
}

// DecodeTrace reads a framed trace. A torn tail returns the valid
// prefix plan alongside ErrTornTrace; deeper damage (bad header,
// version mismatch) is fatal.
func DecodeTrace(r io.Reader) (*Plan, error) {
	buf, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("workload: trace read: %w", err)
	}
	var hdr traceHeader
	rest, err := uda.NextRecord(buf, &hdr)
	if err != nil {
		return nil, fmt.Errorf("workload: unreadable trace header: %w: %w", ErrTornTrace, err)
	}
	if hdr.Version != traceVersion {
		return nil, fmt.Errorf("workload: trace version %d (this build reads %d)", hdr.Version, traceVersion)
	}
	plan := &Plan{Workload: hdr.Workload, Seed: hdr.Seed, Clients: hdr.Clients, Subs: make([]Submission, 0, hdr.Count)}
	for len(rest) > 0 {
		var sub Submission
		if rest, err = uda.NextRecord(rest, &sub); err != nil {
			return plan, fmt.Errorf("%w: %w", ErrTornTrace, err)
		}
		plan.Subs = append(plan.Subs, sub)
	}
	if len(plan.Subs) != hdr.Count {
		return plan, fmt.Errorf("%w: %d submissions, header says %d", ErrTornTrace, len(plan.Subs), hdr.Count)
	}
	return plan, nil
}

// WriteTrace records the plan to path with uda.WriteFileAtomic, so a
// crash never leaves a half-trace under the final name.
func WriteTrace(path string, plan *Plan) error {
	var buf bytes.Buffer
	if err := EncodeTrace(&buf, plan); err != nil {
		return err
	}
	return uda.WriteFileAtomic(path, buf.Bytes(), 0o644)
}

// ReadTrace loads a recorded plan from path for replay.
func ReadTrace(path string) (*Plan, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return DecodeTrace(f)
}
