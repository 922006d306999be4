package rmcrt_test

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
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

// TestJobAPIPathsHaveOneHome: the job API's paths are spelled only in
// internal/service, where NewHandlerConfig serves them and Client
// calls them, so no other package of the module speaks the wire
// protocol by hand. It fails on any string literal starting "/v1/" in
// a non-test Go file outside internal/service. Nested modules
// (e2ebench) and testdata are not part of the main module.
func TestJobAPIPathsHaveOneHome(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		home := filepath.Dir(path) == filepath.Join("internal", "service")
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING || home {
				return true
			}
			if v, err := strconv.Unquote(lit.Value); err == nil && strings.HasPrefix(v, "/v1/") {
				t.Errorf("%s: job API path %s outside internal/service: call it through service.Client", fset.Position(lit.Pos()), lit.Value)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
