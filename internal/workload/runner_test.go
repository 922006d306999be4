package workload_test

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/uintah-repro/rmcrt/internal/service"
	"github.com/uintah-repro/rmcrt/internal/workload"
	"github.com/uintah-repro/rmcrt/internal/workload/scenarios"
)

// TestRunReadsResults: the runner reads every done job's result, so a
// daemon that keeps CacheEntries delivered results holds no more than
// that after a run of many more jobs. A runner that never read a
// result would leave every job's result pinned on the daemon.
func TestRunReadsResults(t *testing.T) {
	const keep = 2
	mgr := service.New(service.Config{Workers: 2, QueueDepth: 64, CacheEntries: keep})
	srv := httptest.NewServer(service.NewHandlerConfig(mgr, service.HandlerConfig{}))
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = mgr.Close(ctx)
	})
	s, _ := scenarios.Get("smoke")
	plan, err := workload.Generate(s.Spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	report, err := workload.Run(context.Background(), plan, workload.RunConfig{Target: srv.URL, ASAP: true})
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	for _, c := range report.Classes {
		done += c.Done
	}
	if done <= keep {
		t.Fatalf("%d jobs done, want more than CacheEntries %d", done, keep)
	}
	if got := mgr.Registry().Gauge("rmcrtd_results_resident", "").Value(); got > keep {
		t.Fatalf("rmcrtd_results_resident = %d after %d done jobs, want <= CacheEntries %d", got, done, keep)
	}
}
