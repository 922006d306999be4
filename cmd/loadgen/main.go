// Command loadgen generates seeded, deterministic heavy traffic
// against a live rmcrtd daemon or rmcrtrouter cluster (or an
// in-process one it spins up itself), records the exact submission
// sequence to a CRC-framed trace file, replays recorded traces with
// original timing or as fast as possible, and reports per-SLO-class
// latency percentiles, goodput, overload rates and packed-cache
// behavior.
//
//	loadgen -list
//	loadgen -scenario smoke -seed 7 -inproc 1 -trace run.trace -report -
//	loadgen -replay run.trace -target http://localhost:8080
//	loadgen -scenario overload -inproc 3 -normalize -report -
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"github.com/uintah-repro/rmcrt/internal/cluster"
	"github.com/uintah-repro/rmcrt/internal/service"
	"github.com/uintah-repro/rmcrt/internal/workload"
	"github.com/uintah-repro/rmcrt/internal/workload/scenarios"
)

type options struct {
	scenario  string
	specPath  string
	list      bool
	seed      uint64
	target    string
	inproc    int
	workers   int
	queue     int
	asap      bool
	tracePath string
	replay    string
	report    string
	normalize bool
	jobWait   time.Duration
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.scenario, "scenario", "", "named scenario to run (see -list)")
	fs.StringVar(&o.specPath, "spec", "", "workload spec JSON file (alternative to -scenario)")
	fs.BoolVar(&o.list, "list", false, "list scenarios and exit")
	fs.Uint64Var(&o.seed, "seed", 1, "workload generator seed")
	fs.StringVar(&o.target, "target", "", "server base URL (rmcrtd or rmcrtrouter)")
	fs.IntVar(&o.inproc, "inproc", 0, "spin up an in-process target: 1 = daemon, N>1 = N-shard cluster")
	fs.IntVar(&o.workers, "workers", 2, "in-process worker pool size per daemon/shard")
	fs.IntVar(&o.queue, "queue", 64, "in-process submission queue depth per daemon/shard")
	fs.BoolVar(&o.asap, "asap", false, "ignore planned timing, issue as fast as possible")
	fs.StringVar(&o.tracePath, "trace", "", "record the generated plan to this trace file")
	fs.StringVar(&o.replay, "replay", "", "replay a recorded trace file instead of generating")
	fs.StringVar(&o.report, "report", "-", "write the report JSON here (- = stdout)")
	fs.BoolVar(&o.normalize, "normalize", false, "zero wall-clock fields in the report (deterministic mode)")
	fs.DurationVar(&o.jobWait, "job-timeout", 60*time.Second, "per-job terminal-state wait budget")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if o.list {
		for _, name := range scenarios.Names() {
			s, _ := scenarios.Get(name)
			fmt.Fprintf(stdout, "%-18s %s\n", name, s.Description)
		}
		return nil
	}

	plan, replayed, err := buildPlan(o)
	if err != nil {
		return err
	}
	if o.tracePath != "" {
		if err := workload.WriteTrace(o.tracePath, plan); err != nil {
			return err
		}
	}

	target, shutdown, err := resolveTarget(o)
	if err != nil {
		return err
	}
	if target == "" {
		// Record-only invocation: nothing to drive.
		fmt.Fprintf(stdout, "recorded %d submissions to %s (no -target/-inproc, not running)\n",
			len(plan.Subs), o.tracePath)
		return nil
	}
	defer shutdown()

	report, err := workload.Run(context.Background(), plan, workload.RunConfig{
		Target:     target,
		ASAP:       o.asap,
		JobTimeout: o.jobWait,
	})
	if err != nil {
		return err
	}
	report.Replayed = replayed
	if o.normalize {
		report.Normalize()
	}
	return writeReport(o.report, report, stdout)
}

// buildPlan materializes the submission timeline: from a recorded
// trace in replay mode, from a named scenario, or from a spec file.
func buildPlan(o options) (plan *workload.Plan, replayed bool, err error) {
	if o.replay != "" {
		plan, err = workload.ReadTrace(o.replay)
		return plan, true, err
	}
	var ws workload.Spec
	switch {
	case o.scenario != "":
		s, ok := scenarios.Get(o.scenario)
		if !ok {
			return nil, false, fmt.Errorf("unknown scenario %q (try -list)", o.scenario)
		}
		ws = s.Spec
	case o.specPath != "":
		raw, err := os.ReadFile(o.specPath)
		if err != nil {
			return nil, false, err
		}
		if err := json.Unmarshal(raw, &ws); err != nil {
			return nil, false, fmt.Errorf("parse %s: %w", o.specPath, err)
		}
	default:
		return nil, false, fmt.Errorf("need -scenario, -spec or -replay")
	}
	plan, err = workload.Generate(ws, o.seed)
	return plan, false, err
}

// resolveTarget returns the base URL to drive: the explicit -target,
// or an in-process daemon/cluster it builds ("" when neither is asked
// for, i.e. a record-only run). httptest servers are regular HTTP
// servers on loopback — the runner exercises the same wire path a
// remote target would.
func resolveTarget(o options) (url string, shutdown func(), err error) {
	if o.target != "" {
		return o.target, func() {}, nil
	}
	if o.inproc <= 0 {
		return "", func() {}, nil
	}
	closeCtx := func() context.Context {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_ = cancel
		return ctx
	}
	if o.inproc == 1 {
		mgr := service.New(service.Config{Workers: o.workers, QueueDepth: o.queue})
		srv := httptest.NewServer(service.NewHandlerConfig(mgr, service.HandlerConfig{}))
		return srv.URL, func() {
			srv.Close()
			_ = mgr.Close(closeCtx())
		}, nil
	}
	var mgrs []*service.Manager
	var srvs []*httptest.Server
	var shardCfgs []cluster.ShardConfig
	for i := 0; i < o.inproc; i++ {
		mgr := service.New(service.Config{Workers: o.workers, QueueDepth: o.queue})
		srv := httptest.NewServer(service.NewHandlerConfig(mgr, service.HandlerConfig{}))
		mgrs = append(mgrs, mgr)
		srvs = append(srvs, srv)
		shardCfgs = append(shardCfgs, cluster.ShardConfig{Name: fmt.Sprintf("shard%d", i), URL: srv.URL})
	}
	cl, err := cluster.New(cluster.Config{
		Shards:         shardCfgs,
		Client:         &http.Client{Timeout: 10 * time.Second},
		HealthInterval: 50 * time.Millisecond,
	})
	if err != nil {
		for _, srv := range srvs {
			srv.Close()
		}
		for _, mgr := range mgrs {
			_ = mgr.Close(closeCtx())
		}
		return "", nil, err
	}
	router := httptest.NewServer(cluster.NewHandlerConfig(cl, cluster.HandlerConfig{}))
	return router.URL, func() {
		router.Close()
		_ = cl.Close(closeCtx())
		for _, srv := range srvs {
			srv.Close()
		}
		for _, mgr := range mgrs {
			_ = mgr.Close(closeCtx())
		}
	}, nil
}

func writeReport(dest string, report *workload.Report, stdout io.Writer) error {
	if dest == "" || dest == "-" {
		return report.WriteJSON(stdout)
	}
	f, err := os.Create(dest)
	if err != nil {
		return err
	}
	if err := report.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
