package cluster

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/uintah-repro/rmcrt/internal/resilience"
	"github.com/uintah-repro/rmcrt/internal/service"
)

// TestClientTypedErrors: service.Client maps each plane's refusals back
// to the typed error the server started from, and a deadline-failed
// job's status text back to ErrDeadlineExceeded — on the router also
// under its "cluster: shard s0:" prefix.
func TestClientTypedErrors(t *testing.T) {
	ctx := context.Background()
	for _, start := range []func(*testing.T) *lifecycleEnv{lifecycleDaemon, lifecycleRouter} {
		e := start(t)
		t.Run(e.name, func(t *testing.T) {
			lim := resilience.NewLimiter(resilience.LimiterConfig{
				PerClient: map[string]resilience.RateBurst{"greedy": {Rate: 0.001, Burst: 1}},
			})
			srv := httptest.NewServer(e.handler(service.HandlerConfig{Limiter: lim}))
			t.Cleanup(srv.Close)
			api := service.NewClient(srv.URL, &http.Client{Timeout: 5 * time.Second})
			refused := func(err error, code int, want error) *service.Rejection {
				t.Helper()
				var rej *service.Rejection
				if !errors.As(err, &rej) || rej.Code != code || want != nil && !errors.Is(err, want) {
					t.Fatalf("err = %v (%T), want HTTP %d matching %v", err, err, code, want)
				}
				return rej
			}

			_, err := api.Status(ctx, "j-999999", 1)
			refused(err, http.StatusNotFound, service.ErrNotFound)

			// The greedy client's one token goes on a spec the server
			// refuses as malformed; its next submit is over its rate.
			_, err = api.Submit(ctx, service.Spec{Kind: service.KindBenchmark, N: -1}, "greedy", 0)
			refused(err, http.StatusBadRequest, nil)
			_, err = api.Submit(ctx, lcSpec(30, service.ClassBatch), "greedy", 0)
			if rej := refused(err, http.StatusTooManyRequests, resilience.ErrRateLimited); rej.RetryAfter == "" {
				t.Fatal("rate-limited 429 without Retry-After")
			}
			if errors.Is(err, service.ErrQueueFull) {
				t.Fatal("rate-limited 429 also matches ErrQueueFull")
			}

			_, err = api.Submit(ctx, lcHopeless(service.ClassBatch), "", time.Second)
			refused(err, http.StatusUnprocessableEntity, service.ErrDeadlineInfeasible)

			// Feasible, but its solve parks on the gate until the
			// deadline fails it (on the router: at the shard).
			st, err := api.Submit(ctx, lcSpec(31, service.ClassInteractive), "", 300*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			for end := time.Now().Add(10 * time.Second); !st.State.Terminal(); {
				if time.Now().After(end) {
					t.Fatalf("job %s still %s", st.ID, st.State)
				}
				if st, err = api.Status(ctx, st.ID, 1000); err != nil {
					t.Fatal(err)
				}
			}
			if st.State != service.StateFailed || !errors.Is(service.RemoteError(st.Error), service.ErrDeadlineExceeded) {
				t.Fatalf("job %s is %s with %q, want failed matching ErrDeadlineExceeded", st.ID, st.State, st.Error)
			}
			if e.name == "router" && !strings.HasPrefix(st.Error, "cluster: shard s0: ") {
				t.Fatalf("router deadline failure reads %q", st.Error)
			}

			// One job holds the only slot, one waits: the next is refused
			// as queue-full, with a Retry-After hint.
			running, _ := e.accept(t, lcSpec(32, service.ClassInteractive), time.Time{})
			e.waitState(t, running, service.StateRunning)
			queued, _ := e.accept(t, lcSpec(33, service.ClassBatch), time.Time{})
			_, err = api.Submit(ctx, lcSpec(34, service.ClassBestEffort), "", 0)
			if rej := refused(err, http.StatusTooManyRequests, service.ErrQueueFull); rej.RetryAfter == "" {
				t.Fatal("queue-full 429 without Retry-After")
			}
			if errors.Is(err, resilience.ErrRateLimited) {
				t.Fatal("queue-full 429 also matches ErrRateLimited")
			}
			// Stop both jobs, so no solve holds the plane's close.
			for _, id := range []string{queued, running} {
				if err := e.cancel(id); err != nil {
					t.Fatal(err)
				}
				e.waitState(t, id, service.StateCancelled)
			}
		})
	}
}

// TestRouterRefusesInvalidShardJobID: a shard whose accept carries a
// job ID the API never issues is treated as an unparseable accept —
// breaker failure, shard marked lost, requeue — and the ID never
// reaches a URL: the shard sees no request outside the job API's
// paths.
func TestRouterRefusesInvalidShardJobID(t *testing.T) {
	allowed := regexp.MustCompile(`^(/v1/solve|/healthz|/v1/jobs/[jr]-[0-9]{6,20}(/result)?)$`)
	var mu sync.Mutex
	var stray []string
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !allowed.MatchString(r.URL.Path) {
			mu.Lock()
			stray = append(stray, r.Method+" "+r.URL.RequestURI())
			mu.Unlock()
		}
		switch r.URL.Path {
		case "/v1/solve":
			service.WriteJSON(w, http.StatusAccepted, map[string]string{"id": "j-000001/../x", "state": "queued"})
		case "/healthz":
			service.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
		default:
			service.WriteError(w, http.StatusNotFound, service.ErrNotFound)
		}
	}))
	t.Cleanup(stub.Close)
	c, err := New(Config{
		Shards:       []ShardConfig{{Name: "s0", URL: stub.URL}},
		PollInterval: 5 * time.Millisecond,
		Client:       &http.Client{Timeout: 2 * time.Second},
		// No probe promotes the shard back while the test reads it.
		HealthInterval:   time.Hour,
		BreakerThreshold: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = c.Close(ctx)
	})
	st, err := c.Submit(lcSpec(1, service.ClassBatch))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	fin, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if len(stray) > 0 {
		t.Errorf("shard received requests outside the job API: %q", stray)
	}
	mu.Unlock()
	if fin.State != service.StateFailed || !strings.Contains(fin.Error, ErrShardLost.Error()) {
		t.Fatalf("job is %s with %q, want failed with %v", fin.State, fin.Error, ErrShardLost)
	}
	if opens, _ := c.Registry().Value("router_breaker_opens_total"); opens != 1 {
		t.Fatalf("breaker opened %v times, want 1 (one failure at threshold 1)", opens)
	}
	if s := c.Shards().Get("s0").State(); s != ShardUnhealthy {
		t.Fatalf("shard is %s after a bad accept, want %s", s, ShardUnhealthy)
	}
}
