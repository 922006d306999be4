package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// TestScalingJSONGolden locks down `repro fig2 -json`. The machine
// model is fully deterministic, so any byte change here is a real
// behaviour change in the performance model or the report shape —
// regenerate deliberately with `go test ./cmd/repro -run Golden -update`.
func TestScalingJSONGolden(t *testing.T) {
	var got bytes.Buffer
	if err := run(&got, "fig2", options{}, true); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "medium_json.golden")
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("-json output drifted from golden file (rerun with -update if intended)\ngot:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}

// TestScalingJSONDeterministic double-checks the property the golden
// test rests on: two in-process runs produce identical bytes.
func TestScalingJSONDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := run(&a, "fig2", options{}, true); err != nil {
		t.Fatal(err)
	}
	if err := run(&b, "fig2", options{}, true); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two identical runs produced different -json bytes")
	}
}

// TestUnknownExperiment pins the typed rejection path.
func TestUnknownExperiment(t *testing.T) {
	if err := run(&bytes.Buffer{}, "gigantic", options{}, false); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestExperimentsDoc checks that every deterministic table the
// experiments render appears verbatim in EXPERIMENTS.md, so the document
// cannot drift from the code. Tables marked Varies (host timing,
// goroutine order) are skipped, and so are the measured container drain
// of table1 and the multilevel experiment, which take seconds.
func TestExperimentsDoc(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	quoted := func(exp string, tables ...*table) {
		for _, tb := range tables {
			var md strings.Builder
			tb.markdown(&md)
			if !tb.Varies && !strings.Contains(string(doc), md.String()) {
				t.Errorf("EXPERIMENTS.md does not quote %s table %q as rendered:\n%s", exp, tb.Name, md.String())
			}
		}
	}
	quoted("table1", tableIModel())
	for _, e := range experiments {
		switch e.name {
		case "fig2", "fig3", "ablation", "accuracy", "leveldb":
			rec, err := e.run(options{})
			if err != nil {
				t.Fatalf("%s: %v", e.name, err)
			}
			quoted(e.name, rec.tables()...)
		}
	}
}
