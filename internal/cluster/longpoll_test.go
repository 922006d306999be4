package cluster

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/uintah-repro/rmcrt/internal/field"
	"github.com/uintah-repro/rmcrt/internal/resilience"
	"github.com/uintah-repro/rmcrt/internal/service"
)

// isStatusCall reports whether r is a router-to-shard status call
// (GET /v1/jobs/{id}, not the result fetch).
func isStatusCall(r *http.Request) bool {
	return r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/") &&
		!strings.HasSuffix(r.URL.Path, "/result")
}

// longPollShard serves mgr's job API and counts status calls, sending
// on polled (when non-nil, without blocking) as each one arrives.
func longPollShard(t *testing.T, mgr *service.Manager, calls *atomic.Int64, polled chan<- struct{}) *httptest.Server {
	t.Helper()
	api := service.NewHandlerConfig(mgr, service.HandlerConfig{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if isStatusCall(r) {
			calls.Add(1)
			select {
			case polled <- struct{}{}:
			default:
			}
		}
		api.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
		defer cancel()
		_ = mgr.Close(ctx)
	})
	return srv
}

// blockedSolver parks every solve until its context ends.
func blockedSolver(ctx context.Context, _ service.Spec) (*field.CC[float64], int64, int64, error) {
	<-ctx.Done()
	return nil, 0, 0, ctx.Err()
}

// TestClusterLongPollNoticesCompletion: with a poll period far longer
// than the solve, the router still learns of completion as soon as the
// shard finishes — from the one status call it has pending — so notice
// lag no longer depends on PollInterval.
func TestClusterLongPollNoticesCompletion(t *testing.T) {
	release := make(chan struct{})
	var finished atomic.Int64 // unix nanoseconds when the shard's solve returned
	mgr := service.New(service.Config{Workers: 1, QueueDepth: 8,
		Solver: func(ctx context.Context, spec service.Spec) (*field.CC[float64], int64, int64, error) {
			select {
			case <-release:
			case <-ctx.Done():
				return nil, 0, 0, ctx.Err()
			}
			divQ, rays, steps, err := spec.Solve(ctx)
			finished.Store(time.Now().UnixNano())
			return divQ, rays, steps, err
		}})
	var calls atomic.Int64
	polled := make(chan struct{}, 1)
	shard := longPollShard(t, mgr, &calls, polled)
	// Client left at its default (10 s timeout), so the watcher's wait
	// is held under it rather than at the full 10 s poll period.
	c, err := New(Config{
		Shards:         []ShardConfig{{Name: "s0", URL: shard.URL}},
		PollInterval:   10 * time.Second,
		HealthInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close(context.Background()) })

	st, err := c.Submit(service.Spec{Kind: service.KindBenchmark, N: 8, Rays: 10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-polled:
	case <-time.After(5 * time.Second):
		t.Fatal("watcher never sent its first status call")
	}
	close(release)
	fin := waitDone(t, c, st.ID)
	if lag := time.Since(time.Unix(0, finished.Load())); lag > 200*time.Millisecond {
		t.Fatalf("router saw done %v after the shard finished, want under 200ms", lag)
	}
	if fin.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1", fin.Attempts)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("%d status calls for one job, want 1 (the pending long-poll)", n)
	}
}

// TestClusterPollPacing: a shard that ignores ?wait and always answers
// "running" gets no more status calls than one per PollInterval — the
// long-poll never makes the router poll faster than it used to.
func TestClusterPollPacing(t *testing.T) {
	const (
		poll   = 50 * time.Millisecond
		window = 500 * time.Millisecond
	)
	var (
		mu    sync.Mutex
		polls []time.Time
		waits = map[string]bool{}
	)
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/solve":
			service.WriteJSON(w, http.StatusAccepted, service.JobStatus{ID: "j-000001", State: service.StateQueued})
		case isStatusCall(r):
			mu.Lock()
			polls = append(polls, time.Now())
			waits[r.URL.Query().Get("wait")] = true
			mu.Unlock()
			service.WriteJSON(w, http.StatusOK, service.JobStatus{ID: "j-000001", State: service.StateRunning})
		default:
			service.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
		}
	}))
	defer shard.Close()
	c, err := New(Config{
		Shards:         []ShardConfig{{Name: "s0", URL: shard.URL}},
		PollInterval:   poll,
		HealthInterval: 50 * time.Millisecond,
		Client:         &http.Client{Timeout: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(service.Spec{Kind: service.KindBenchmark, N: 8, Rays: 10}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(window + 4*poll)
	if err := c.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(polls) == 0 {
		t.Fatal("no status calls reached the shard")
	}
	inWindow := 0
	for _, at := range polls {
		if at.Sub(polls[0]) <= window {
			inWindow++
		}
	}
	if limit := int((window+poll-1)/poll) + 1; inWindow > limit || inWindow < 3 {
		t.Fatalf("%d status calls in %v at a %v poll period, want 3..%d", inWindow, window, poll, limit)
	}
	if len(waits) != 1 || !waits["50"] {
		t.Fatalf("status calls asked for waits %v, want only 50 (ms)", waits)
	}
}

// TestClusterCloseDuringLongPollIsNotShardLoss: Close aborts a pending
// long-poll; that abort is the router's own doing, so Close returns at
// once, nothing is rerouted, and the shard keeps its health, its closed
// breaker and no leaked inflight slot.
func TestClusterCloseDuringLongPollIsNotShardLoss(t *testing.T) {
	mgr := service.New(service.Config{Workers: 1, QueueDepth: 8, Solver: blockedSolver})
	var calls atomic.Int64
	polled := make(chan struct{}, 1)
	shard := longPollShard(t, mgr, &calls, polled)
	c, err := New(Config{
		Shards:           []ShardConfig{{Name: "s0", URL: shard.URL}},
		PollInterval:     10 * time.Second,
		HealthInterval:   time.Hour,
		BreakerThreshold: 1, // one recorded failure would open it
		Client:           &http.Client{Timeout: time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(service.Spec{Kind: service.KindBenchmark, N: 8, Rays: 10}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-polled:
	case <-time.After(5 * time.Second):
		t.Fatal("watcher never sent its first status call")
	}

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Close took %v with a long-poll pending, want under 1s", d)
	}
	if n := counterValue(t, c, "router_jobs_rerouted_total"); n != 0 {
		t.Fatalf("%v reroutes after Close, want 0", n)
	}
	s := c.Shards().Shards()[0]
	if s.State() != ShardHealthy || s.BreakerState() != resilience.BreakerClosed || s.Inflight() != 0 {
		t.Fatalf("shard after Close: state %v, breaker %v, inflight %d; want healthy, closed, 0",
			s.State(), s.BreakerState(), s.Inflight())
	}
}

// TestShutdownReleasesLongPoll: a status long-poll on a queued job,
// pending when the server begins a graceful Shutdown, gets its 200
// (with the job still non-terminal) at once instead of holding the
// drain open for its whole wait — on the daemon and on the router.
func TestShutdownReleasesLongPoll(t *testing.T) {
	for _, plane := range parityPlanes {
		t.Run(plane.name, func(t *testing.T) {
			e := plane.start(t, parityOpts{block: true})
			// The first job takes the one worker (daemon) or the one
			// inflight slot (router); the second stays queued.
			e.mustSubmit(t, `{"kind":"benchmark","n":8,"rays":10,"seed":1}`)
			id := e.mustSubmit(t, `{"kind":"benchmark","n":8,"rays":10,"seed":2}`)

			srv := service.NewHTTPServer("", e.h)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go func() { _ = srv.Serve(ln) }()

			type answer struct {
				code  int
				state service.State
				at    time.Time
				err   error
			}
			ans := make(chan answer, 1)
			go func() {
				resp, err := http.Get("http://" + ln.Addr().String() + "/v1/jobs/" + id + "?wait=30000")
				if err != nil {
					ans <- answer{err: err}
					return
				}
				defer resp.Body.Close()
				var st struct {
					State service.State `json:"state"`
				}
				err = json.NewDecoder(resp.Body).Decode(&st)
				ans <- answer{code: resp.StatusCode, state: st.State, at: time.Now(), err: err}
			}()
			// Let the request reach the handler and block in its wait.
			select {
			case a := <-ans:
				t.Fatalf("long-poll answered before shutdown: %+v", a)
			case <-time.After(200 * time.Millisecond):
			}

			start := time.Now()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				t.Fatalf("Shutdown: %v", err)
			}
			a := <-ans
			if a.err != nil {
				t.Fatalf("long-poll: %v", a.err)
			}
			if a.code != http.StatusOK || a.state.Terminal() {
				t.Fatalf("long-poll answered HTTP %d state %q, want 200 non-terminal", a.code, a.state)
			}
			if d := a.at.Sub(start); d > time.Second {
				t.Fatalf("long-poll answered %v after Shutdown began, want under 1s", d)
			}
		})
	}
}

func TestStatusWaitMs(t *testing.T) {
	for _, tc := range []struct {
		poll, timeout time.Duration
		want          int64
	}{
		{250 * time.Millisecond, 10 * time.Second, 250},
		{1500 * time.Microsecond, 10 * time.Second, 2}, // rounded up
		{10 * time.Second, 10 * time.Second, 5000},     // held under half the timeout
		{time.Minute, 0, 60000},                        // no client timeout: the shard clamps
		{time.Second, time.Nanosecond, 1},              // never below 1 ms
	} {
		c := &Cluster{cfg: Config{PollInterval: tc.poll, Client: &http.Client{Timeout: tc.timeout}}}
		if got := c.statusWaitMs(); got != tc.want {
			t.Errorf("poll %v timeout %v: wait %d ms, want %d", tc.poll, tc.timeout, got, tc.want)
		}
	}
}
