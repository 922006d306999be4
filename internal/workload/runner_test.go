package workload_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync/atomic"
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

// TestRunLongPollsStatus: every status call the runner makes asks the
// server to hold it (?wait=), so a job costs at most one status call
// per wait window — here, with every job done well inside one window,
// no more status calls than jobs.
func TestRunLongPollsStatus(t *testing.T) {
	mgr := service.New(service.Config{Workers: 2, QueueDepth: 64})
	h := service.NewHandlerConfig(mgr, service.HandlerConfig{})
	var polls, held atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/") && !strings.HasSuffix(r.URL.Path, "/result") {
			polls.Add(1)
			if r.URL.Query().Has("wait") {
				held.Add(1)
			}
		}
		h.ServeHTTP(w, r)
	}))
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
	if done != len(plan.Subs) {
		t.Fatalf("%d of %d jobs done", done, len(plan.Subs))
	}
	if p, w := polls.Load(), held.Load(); w != p || p > int64(done) {
		t.Fatalf("%d status calls (%d with ?wait=) for %d jobs, want every call held and at most one per job", p, w, done)
	}
}

// TestRunRefusesInvalidJobID: an accept whose job ID the API never
// issues counts as a transport outcome, and the ID reaches no URL: the
// target sees no request outside the job API's paths.
func TestRunRefusesInvalidJobID(t *testing.T) {
	allowed := regexp.MustCompile(`^(/v1/solve|/metrics|/v1/jobs/[jr]-[0-9]{6,20}(/result)?)$`)
	var stray atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !allowed.MatchString(r.URL.Path) {
			stray.Add(1)
		}
		switch r.URL.Path {
		case "/v1/solve":
			service.WriteJSON(w, http.StatusAccepted, map[string]string{"id": "j-000001/../x", "state": "queued"})
		case "/metrics":
		default:
			service.WriteError(w, http.StatusNotFound, service.ErrNotFound)
		}
	}))
	t.Cleanup(srv.Close)
	s, _ := scenarios.Get("smoke")
	plan, err := workload.Generate(s.Spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	report, err := workload.Run(context.Background(), plan, workload.RunConfig{Target: srv.URL, ASAP: true})
	if err != nil {
		t.Fatal(err)
	}
	transport := 0
	for _, c := range report.Classes {
		transport += c.Transport
	}
	if transport != len(plan.Subs) {
		t.Fatalf("%d of %d submissions counted transport", transport, len(plan.Subs))
	}
	if n := stray.Load(); n > 0 {
		t.Fatalf("target received %d requests outside the job API", n)
	}
}
