// Command rmcrtrouter is the cluster front-end for a fleet of rmcrtd
// shards: it accepts the same job API as a single daemon and fans the
// work out across backends with affinity routing, SLO-class
// admission and dispatch, and retry-with-reroute when a shard dies
// mid-job.
//
// Usage:
//
//	rmcrtrouter -shard http://node0:8372 -shard http://node1:8372
//	rmcrtrouter -shard gpu0=http://node0:8372 -shard gpu1=http://node1:8372 \
//	            -queue 256 -max-inflight 4
//
// Routing: the spec's property-shaping fields are rendezvous-hashed so
// jobs that share a packed-table build land on the same shard; a job
// whose home shard is at -max-inflight, unhealthy, draining or tripped
// spills to the least-loaded eligible shard.
//
// Admission and dispatch: the dispatch queue pops by SLO class
// (interactive, batch, best-effort), then in submission order. A
// submission is refused with 429 only when -queue jobs of its class or
// a more urgent one are already queued, so each class waits only
// behind the work ahead of it and at most 3 × -queue jobs wait.
//
// Overload protection: -client-rate/-client-burst shed over-rate
// clients (keyed on X-Client-ID) with 429 at the router edge;
// -breaker-threshold/-breaker-cooldown trip a per-shard circuit after
// consecutive placement failures so routing spills away from a shard
// that answers health probes but torches solves; -retry-budget bounds
// cluster-wide reroute volume, with -backoff-base/-backoff-cap pacing
// each reroute by decorrelated jitter. X-Job-Deadline-Ms deadlines are
// forwarded to shards as their remaining milliseconds.
//
// API: the job route table under "Serving" in README.md plus the shard
// routes under "Cluster serving", served by cluster.NewHandlerConfig.
//
// On SIGINT/SIGTERM the router stops accepting submissions first, then
// drains its dispatched jobs under -drain — shards shut down after the
// router in a rolling restart, so inflight work finishes where it is.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"github.com/uintah-repro/rmcrt/internal/calib"
	"github.com/uintah-repro/rmcrt/internal/cluster"
	"github.com/uintah-repro/rmcrt/internal/service"
)

// shardFlag collects repeated -shard values: either a bare base URL or
// name=url.
type shardFlag struct {
	cfgs []cluster.ShardConfig
}

func (f *shardFlag) String() string {
	parts := make([]string, 0, len(f.cfgs))
	for _, c := range f.cfgs {
		if c.Name != "" {
			parts = append(parts, c.Name+"="+c.URL)
		} else {
			parts = append(parts, c.URL)
		}
	}
	return strings.Join(parts, ",")
}

func (f *shardFlag) Set(v string) error {
	v = strings.TrimSpace(v)
	if v == "" {
		return fmt.Errorf("empty -shard value")
	}
	var c cluster.ShardConfig
	if name, url, ok := strings.Cut(v, "="); ok && !strings.Contains(name, "/") {
		c = cluster.ShardConfig{Name: name, URL: url}
	} else {
		c = cluster.ShardConfig{URL: v}
	}
	f.cfgs = append(f.cfgs, c)
	return nil
}

func main() {
	if err := run(os.Args[1:], nil); err != nil {
		log.Fatalf("rmcrtrouter: %v", err)
	}
}

// run is main's testable body: it parses args, starts the cluster and
// serves it through service.EdgeFlags.Serve, which reports the bound
// address through notify and returns after a SIGINT/SIGTERM drain.
// Shutdown ordering is edge-first: the HTTP server stops accepting
// submissions before the cluster drains, so no job is admitted that the
// drain will not cover.
func run(args []string, notify func(addr string)) error {
	var shards shardFlag
	fs := flag.NewFlagSet("rmcrtrouter", flag.ContinueOnError)
	fs.Var(&shards, "shard", "rmcrtd backend as url or name=url (repeatable, required)")
	edge := service.RegisterEdgeFlags(fs, ":8371")
	queue := fs.Int("queue", 256, "router dispatch queue depth per class: a submission is refused when this many jobs of its class or a more urgent one are queued")
	maxInflight := fs.Int("max-inflight", 4, "max jobs dispatched per shard at a time (0 = unbounded)")
	attempts := fs.Int("max-attempts", 3, "max placements per job across shard losses")
	poll := fs.Duration("poll", 250*time.Millisecond, "longest a shard status call blocks (GET /v1/jobs/{id}?wait=) and the shortest gap between one job's status calls")
	healthEvery := fs.Duration("health-interval", time.Second, "shard health probe interval")
	shardTimeout := fs.Duration("shard-timeout", 10*time.Second, "per-request timeout for backend calls")
	breakerThreshold := fs.Int("breaker-threshold", 0, "consecutive placement failures that trip a shard's circuit (0 = default 5, negative disables)")
	breakerCooldown := fs.Duration("breaker-cooldown", 0, "open-circuit cooldown before a half-open probe (0 = default 2s)")
	retryBudget := fs.Float64("retry-budget", 0, "cluster-wide reroute token budget (0 = default 16, negative disables)")
	retryRefill := fs.Float64("retry-refill", 0, "reroute tokens refunded per successful job (0 = default 0.1)")
	backoffBase := fs.Duration("backoff-base", 0, "reroute backoff floor (0 = default 25ms)")
	backoffCap := fs.Duration("backoff-cap", 0, "reroute backoff ceiling (0 = default 1s)")
	calPath := fs.String("calibration", "", "calibration JSON from perfgate -calibrate; prices each job's est_seconds in wall-seconds and rejects deadline-infeasible jobs with 422")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if len(shards.cfgs) == 0 {
		return fmt.Errorf("at least one -shard is required")
	}
	var cal *calib.Calibration
	if *calPath != "" {
		loaded, err := calib.Load(*calPath)
		if err != nil {
			return fmt.Errorf("calibration: %w", err)
		}
		cal = &loaded
		log.Printf("rmcrtrouter: calibration %s: %.3g s/step, %.3g s/ray, %.3g s base (host %s)",
			*calPath, cal.SecondsPerStep, cal.SecondsPerRay, cal.SecondsBase, cal.Host)
	}
	c, err := cluster.New(cluster.Config{
		Shards:              shards.cfgs,
		QueueDepth:          *queue,
		MaxInflightPerShard: *maxInflight,
		MaxAttempts:         *attempts,
		PollInterval:        *poll,
		HealthInterval:      *healthEvery,
		Client:              &http.Client{Timeout: *shardTimeout},
		BreakerThreshold:    *breakerThreshold,
		BreakerCooldown:     *breakerCooldown,
		RetryBudget:         *retryBudget,
		RetryRefill:         *retryRefill,
		BackoffBase:         *backoffBase,
		BackoffCap:          *backoffCap,
		Calibration:         cal,
	})
	if err != nil {
		return err
	}
	log.Printf("rmcrtrouter: %d shards, queue depth %d per class", len(shards.cfgs), *queue)
	return edge.Serve("rmcrtrouter", cluster.NewHandlerConfig(c, edge.HandlerConfig()), notify, c.Close)
}
