// Command repro regenerates the paper's evaluation: every table
// EXPERIMENTS.md quotes comes from one of its experiments.
//
// Usage:
//
//	repro <experiment> [-json] [-legacy] [-cpu] [-uda dir]
//
// Experiments:
//
//	table1      Table I / Figure 1: the communication model and the measured container drain
//	fig2        Figure 2: strong scaling, MEDIUM (256³/64³), 16..1024 GPUs
//	fig3        Figure 3: strong scaling, LARGE (512³/128³), 256..16384 GPUs
//	ablation    GPU occupancy, halo width, refinement ratio, communication layer
//	accuracy    §III.C: Burns & Christon Monte Carlo convergence and the DOM baseline
//	multilevel  2-level AMR vs single fine level: accuracy and data volume
//	leveldb     the GPU level database on one simulated Titan node
//	boiler      mini boiler: energy equation + loosely-coupled RMCRT
//	production  the coupled production pipeline through one scheduler
//	all         every experiment above, in order
//
// Each experiment prints its record as markdown tables, or as JSON with
// -json; fig2 and fig3 print the scaling report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"unicode/utf8"
)

// options are the settings an experiment can take beyond the paper's
// configuration.
type options struct {
	legacy, cpu bool   // fig2, fig3
	uda         string // production: archive directory
}

// record is what one experiment emits: -json encodes the value itself,
// markdown prints its tables.
type record interface{ tables() []*table }

type tableSet []*table

func (s tableSet) tables() []*table { return s }

type experiment struct {
	name string
	run  func(options) (record, error)
}

var experiments = []experiment{
	{"table1", runTable1},
	{"fig2", func(o options) (record, error) { return runScaling(medium, o) }},
	{"fig3", func(o options) (record, error) { return runScaling(large, o) }},
	{"ablation", runAblation},
	{"accuracy", runAccuracy},
	{"multilevel", runMultilevel},
	{"leveldb", runLevelDB},
	{"boiler", runBoiler},
	{"production", runProduction},
}

// table is one markdown table. Each column is declared "header;format"
// and its cells are formatted with that verb; "%s" and "%v" columns are
// left-aligned, the others right-aligned. Varies marks a table whose
// values change from run to run (host timing or goroutine order), which
// EXPERIMENTS.md quotes but no test can pin.
type table struct {
	Name    string   `json:"name"`
	Columns []string `json:"columns"`
	Rows    [][]any  `json:"rows"`
	Varies  bool     `json:"varies,omitempty"`
	format  []string
}

func newTable(name string, cols ...string) *table {
	t := &table{Name: name}
	for _, c := range cols {
		head, verb, _ := strings.Cut(c, ";")
		t.Columns = append(t.Columns, head)
		t.format = append(t.format, verb)
	}
	return t
}

func (t *table) add(cells ...any) { t.Rows = append(t.Rows, cells) }

func (t *table) markdown(w io.Writer) {
	cells := [][]string{t.Columns}
	for _, r := range t.Rows {
		row := make([]string, len(r))
		for i, v := range r {
			row[i] = fmt.Sprintf(t.format[i], v)
		}
		cells = append(cells, row)
	}
	width := make([]int, len(t.Columns))
	for _, row := range cells {
		for i, c := range row {
			width[i] = max(width[i], utf8.RuneCountInString(c))
		}
	}
	left := func(i int) bool { return t.format[i] == "%s" || t.format[i] == "%v" }
	for r, row := range cells {
		for i, c := range row {
			pad := strings.Repeat(" ", width[i]-utf8.RuneCountInString(c))
			if left(i) {
				fmt.Fprintf(w, "| %s%s ", c, pad)
			} else {
				fmt.Fprintf(w, "| %s%s ", pad, c)
			}
		}
		fmt.Fprintln(w, "|")
		if r > 0 {
			continue
		}
		for i := range row {
			if left(i) {
				fmt.Fprintf(w, "|%s", strings.Repeat("-", width[i]+2))
			} else {
				fmt.Fprintf(w, "|%s:", strings.Repeat("-", width[i]+1))
			}
		}
		fmt.Fprintln(w, "|")
	}
}

// run executes the named experiment (or all of them) and writes its
// record to w.
func run(w io.Writer, name string, o options, jsonOut bool) error {
	recs := map[string]record{}
	for _, e := range experiments {
		if name != "all" && e.name != name {
			continue
		}
		rec, err := e.run(o)
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		recs[e.name] = rec
		if jsonOut {
			continue
		}
		if name == "all" {
			fmt.Fprintf(w, "## %s\n\n", e.name)
		}
		for _, t := range rec.tables() {
			t.markdown(w)
			fmt.Fprintln(w)
		}
	}
	if len(recs) == 0 {
		return fmt.Errorf("unknown experiment %q", name)
	}
	if !jsonOut {
		return nil
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if name == "all" {
		return enc.Encode(recs)
	}
	return enc.Encode(recs[name])
}

func main() {
	fs := flag.NewFlagSet("repro", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "print one JSON record instead of markdown tables")
	var o options
	fs.BoolVar(&o.legacy, "legacy", false, "fig2/fig3: use the pre-improvement (mutex+Testsome) communication layer")
	fs.BoolVar(&o.cpu, "cpu", false, "fig2/fig3: run the CPU implementation (the predecessor result of [5])")
	fs.StringVar(&o.uda, "uda", "", "production: archive the temperature fields to this directory")
	fs.Usage = func() {
		names := []string{}
		for _, e := range experiments {
			names = append(names, e.name)
		}
		fmt.Fprintf(fs.Output(), "usage: repro %s|all [flags]\n", strings.Join(names, "|"))
		fs.PrintDefaults()
	}
	if len(os.Args) < 2 {
		fs.Usage()
		os.Exit(2)
	}
	fs.Parse(os.Args[2:])
	if fs.NArg() > 0 {
		fs.Usage()
		os.Exit(2)
	}
	if err := run(os.Stdout, os.Args[1], o, *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
}
