package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

// FuzzParseSpec hammers the JSON→Spec→Normalized/Validate/Key pipeline
// — the only part of the daemon that parses untrusted bytes — through
// ParseSubmit, the decoder the job API calls on every POST /v1/solve.
// Invariants:
//
//   - ParseSubmit never panics, and what it accepts is normalized, valid
//     and the normalization of the leniently decoded spec;
//   - Validate never panics and rejects only with the typed SpecError;
//   - Normalized is idempotent (normalizing twice changes nothing),
//     which the content-addressed cache depends on;
//   - Key is computed over the normalized form, so a spec and its
//     normalization address the same cache entry;
//   - a spec that validates still validates after normalization
//     (admission decisions are stable across the Submit pipeline).
//
// It never calls Solve — parsing must be cheap to fuzz.
func FuzzParseSpec(f *testing.F) {
	f.Add([]byte(`{"n":16}`))
	f.Add([]byte(`{"kind":"uniform","n":8,"kappa":2.5,"sigma_t4":0.5,"rays":10}`))
	f.Add([]byte(`{"kind":"benchmark","n":32,"levels":2,"patch_n":8,"rr":4,"halo":2,"rays":25,"seed":71}`))
	f.Add([]byte(`{"n":-3,"rays":-1,"threshold":1e300}`))
	f.Add([]byte(`{"kind":"plasma","n":4,"levels":7,"patch_n":3,"rr":5}`))
	f.Add([]byte(`{}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		parsed, perr := ParseSubmit(bytes.NewReader(data))
		if perr == nil {
			if err := parsed.Validate(); err != nil {
				t.Fatalf("ParseSubmit accepted a spec Validate rejects: %v\nspec: %+v", err, parsed)
			}
			if again := parsed.Normalized(); again != parsed {
				t.Fatalf("ParseSubmit returned a non-normalized spec:\n got: %+v\nnorm: %+v", parsed, again)
			}
		}
		var spec Spec
		if err := json.Unmarshal(data, &spec); err != nil {
			t.Skip() // not a spec — nothing more to check
		}
		// One whole JSON value without unknown fields decodes the same
		// strictly and leniently.
		if perr == nil && spec.Normalized() != parsed {
			t.Fatalf("ParseSubmit = %+v, lenient decode normalizes to %+v", parsed, spec.Normalized())
		}

		norm := spec.Normalized()
		if again := norm.Normalized(); again != norm {
			t.Fatalf("Normalized not idempotent:\n once: %+v\ntwice: %+v", norm, again)
		}

		if err := spec.Validate(); err != nil {
			var se SpecError
			if !errors.As(err, &se) {
				t.Fatalf("Validate rejected with untyped error %T: %v", err, err)
			}
			if normErr := norm.Validate(); normErr == nil {
				t.Fatalf("spec invalid (%v) but its normalization validates: %+v", err, norm)
			}
			return
		}
		if err := norm.Validate(); err != nil {
			t.Fatalf("spec validates but its normalization does not: %v\nnorm: %+v", err, norm)
		}

		if k, nk := spec.Key(), norm.Key(); k != nk {
			t.Fatalf("Key over raw spec (%s) differs from normalized (%s)", k, nk)
		}
		if len(spec.Key()) != 32 {
			t.Fatalf("Key length %d, want 32 hex chars", len(spec.Key()))
		}
	})
}
