// Command rmcrtd is the radiation-as-a-service daemon: a long-running
// HTTP server that accepts RMCRT solve jobs, runs them on a bounded
// worker pool with admission control, serves repeated requests from a
// content-addressed result cache, and exposes metrics.
//
// Usage:
//
//	rmcrtd                         # listen on :8372
//	rmcrtd -addr :9000 -workers 4 -queue 32 -cache 128
//	rmcrtd -client-rate 50 -client-burst 100   # per-client admission
//
// API: the job route table under "Serving" in README.md, served by
// service.NewHandlerConfig.
//
// Submissions may carry an X-Client-ID header (admission accounting and
// per-client rate limits; anonymous otherwise) and an X-Job-Deadline-Ms
// header (remaining milliseconds; the job fast-fails once it lapses).
//
// On SIGINT/SIGTERM the daemon stops accepting work and drains queued
// and running solves under -drain; whatever is still running at the
// deadline is cancelled cooperatively.
//
// With -journal the daemon keeps a write-ahead job journal: every
// accepted job is durably recorded before it runs, and a restart
// replays the journal so jobs that were queued or running at a crash
// are re-enqueued with their original IDs. With -ckpt-dir, solves
// additionally checkpoint per-patch progress so a recovered job resumes
// from its last finished patch instead of re-solving from scratch.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"github.com/uintah-repro/rmcrt/internal/calib"
	"github.com/uintah-repro/rmcrt/internal/service"
)

func main() {
	if err := run(os.Args[1:], nil); err != nil {
		log.Fatalf("rmcrtd: %v", err)
	}
}

// run is main's testable body: it parses args, recovers the manager
// and serves it through service.EdgeFlags.Serve, which reports the
// bound address through notify and returns after a SIGINT/SIGTERM
// drain.
func run(args []string, notify func(addr string)) error {
	fs := flag.NewFlagSet("rmcrtd", flag.ContinueOnError)
	edge := service.RegisterEdgeFlags(fs, ":8372")
	workers := fs.Int("workers", 0, "solve worker pool size (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 16, "submission queue depth per class: a solve is refused when this many of its class or a more urgent one are queued")
	cacheN := fs.Int("cache", 64, "delivered results kept for cache hits and repeat reads; bounds result memory beyond undelivered ones (negative keeps none)")
	maxCells := fs.Int64("max-cells", 1<<21, "per-job fine-level cell budget")
	journal := fs.String("journal", "", "write-ahead job journal path (empty = jobs do not survive restarts)")
	ckptDir := fs.String("ckpt-dir", "", "per-job solve checkpoint directory (empty = no mid-solve checkpoints)")
	calPath := fs.String("calibration", "", "calibration JSON from perfgate -calibrate; enables admission-time solve-cost prediction and deadline feasibility rejection")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var cal *calib.Calibration
	if *calPath != "" {
		loaded, err := calib.Load(*calPath)
		if err != nil {
			return fmt.Errorf("calibration: %w", err)
		}
		cal = &loaded
		log.Printf("rmcrtd: calibration %s: %.3g s/step, %.3g s/ray, %.3g s base (host %s)",
			*calPath, cal.SecondsPerStep, cal.SecondsPerRay, cal.SecondsBase, cal.Host)
	}

	mgr, err := service.Recover(service.Config{
		Workers:       *workers,
		QueueDepth:    *queue,
		CacheEntries:  *cacheN,
		MaxCells:      *maxCells,
		JournalPath:   *journal,
		CheckpointDir: *ckptDir,
		Calibration:   cal,
	})
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	if *journal != "" {
		rs := mgr.Recovery()
		log.Printf("rmcrtd: journal %s: replayed %d records, recovered %d jobs (torn tail: %v)",
			*journal, rs.RecordsReplayed, rs.JobsRecovered, rs.TornTail)
	}
	log.Printf("rmcrtd: workers=%d queue=%d cache=%d", *workers, *queue, *cacheN)
	return edge.Serve("rmcrtd", service.NewHandlerConfig(mgr, edge.HandlerConfig()), notify, mgr.Close)
}
