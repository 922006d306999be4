package rmcrt_test

import (
	"go/build"
	"slices"
	"strings"
	"testing"
)

// TestLayering pins the serving stack's direct internal imports to an
// allow-list, so the reproduction stack (gpudw, alloc, sched, ...) does
// not creep back into it and the cost model stays a leaf under both
// serving planes. Growing a list is a design decision: say why
// next to the entry.
func TestLayering(t *testing.T) {
	const module = "github.com/uintah-repro/rmcrt/"
	allowed := map[string][]string{
		// The cost model is a leaf: it prices a value type (calib.Work)
		// with the analytical model, so both serving planes can import
		// it.
		"internal/calib": {"internal/perfmodel"},
		"internal/service": {
			// calib prices admission-time deadline feasibility.
			"internal/calib",
			"internal/field", "internal/grid", "internal/mathutil", "internal/metrics",
			"internal/resilience", "internal/rmcrt",
			"internal/uda",
		},
		"internal/cluster": {
			// calib prices jobs for SJF ordering and deadline
			// feasibility, through the same Calibration the daemon
			// takes.
			"internal/calib",
			"internal/metrics", "internal/resilience", "internal/service",
		},
	}
	for dir, allow := range allowed {
		pkg, err := build.Default.ImportDir(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, imp := range pkg.Imports {
			if rel, ok := strings.CutPrefix(imp, module); ok && strings.HasPrefix(rel, "internal/") {
				got = append(got, rel)
			}
		}
		for _, imp := range got {
			if !slices.Contains(allow, imp) {
				t.Errorf("%s imports %s, which is not on its allow-list", dir, imp)
			}
		}
		for _, want := range allow {
			if !slices.Contains(got, want) {
				t.Errorf("%s no longer imports %s: drop it from the allow-list", dir, want)
			}
		}
	}
}
