package cluster

import (
	"bytes"
	"math"
	"testing"

	"github.com/uintah-repro/rmcrt/internal/calib"
	"github.com/uintah-repro/rmcrt/internal/service"
)

// FuzzRouterSubmit hammers the router's submit decode path —
// service.ParseSubmit, which the shared job API calls on every POST
// /v1/solve and the only place rmcrtrouter parses untrusted bytes.
// Invariants:
//
//   - ParseSubmit never panics;
//   - anything it accepts is already normalized and passes Validate
//     (the router never forwards a spec a shard would reject for shape);
//   - accepted specs have a stable non-empty affinity key and a
//     recognized SLO class, so routing and scheduling always have
//     something to act on;
//   - cost estimation on an accepted spec is finite and positive (the
//     SJF heap cannot be poisoned by NaN ordering).
func FuzzRouterSubmit(f *testing.F) {
	f.Add([]byte(`{"n":16}`))
	f.Add([]byte(`{"kind":"benchmark","n":8,"rays":10,"seed":3}`))
	f.Add([]byte(`{"kind":"uniform","n":8,"kappa":2.5,"sigma_t4":0.5,"rays":10,"class":"interactive"}`))
	f.Add([]byte(`{"kind":"benchmark","n":32,"levels":2,"patch_n":8,"rr":4,"halo":2,"rays":25,"class":"best-effort"}`))
	f.Add([]byte(`{"class":"platinum","n":8}`))
	f.Add([]byte(`{"n":16,"bogus_field":1}`))
	f.Add([]byte(`{"n":-3,"rays":-1}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := service.ParseSubmit(bytes.NewReader(data))
		if err != nil {
			return // rejected: the router answers 400 and moves on
		}
		if verr := spec.Validate(); verr != nil {
			t.Fatalf("ParseSubmit accepted a spec Validate rejects: %v\nspec: %+v", verr, spec)
		}
		if norm := spec.Normalized(); norm != spec {
			t.Fatalf("ParseSubmit returned a non-normalized spec:\n got: %+v\nnorm: %+v", spec, norm)
		}
		if spec.AffinityKey() == "" {
			t.Fatalf("accepted spec has empty affinity key: %+v", spec)
		}
		if spec.AffinityKey() != spec.Normalized().AffinityKey() {
			t.Fatal("affinity key unstable across normalization")
		}
		if service.ClassRank(spec.Class) > 2 {
			t.Fatalf("accepted spec carries unknown class %q", spec.Class)
		}
		if cost := calib.Default().Seconds(spec.Work()); !(cost > 0) || math.IsInf(cost, 0) {
			t.Fatalf("default cost of %+v = %g, want finite positive", spec, cost)
		}
	})
}
