package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/uintah-repro/rmcrt/internal/service"
)

// TestStatusKeys pins the JSON keys each plane's GET /v1/jobs/{id}
// emits for a queued, a done, a failed (deadline) and a cancelled job.
// Both planes answer with one status type, whose router-only fields
// must stay off a daemon's statuses and whose daemon-only fields off a
// router's.
func TestStatusKeys(t *testing.T) {
	const common = "class id key queue_seconds run_seconds state submitted"
	want := map[string]map[service.State]string{
		"daemon": {
			service.StateQueued:    common,
			service.StateDone:      common + " rays steps",
			service.StateFailed:    common + " error",
			service.StateCancelled: common + " error",
		},
		"router": {
			service.StateQueued:    common + " est_cost_steps est_seconds",
			service.StateDone:      common + " attempts est_cost_steps est_seconds rays shard shard_job_id steps",
			service.StateFailed:    common + " attempts error est_cost_steps est_seconds shard shard_job_id",
			service.StateCancelled: common + " error est_cost_steps est_seconds",
		},
	}
	for _, plane := range []string{"daemon", "router"} {
		t.Run(plane, func(t *testing.T) {
			gate := make(chan struct{})
			t.Cleanup(func() { close(gate) })
			_, shard := startLifecycleDaemon(t, service.Config{Workers: 1, QueueDepth: 32, Solver: gatedSolver(gate)})
			url := shard.URL
			if plane == "router" {
				c, err := New(Config{
					Shards:              []ShardConfig{{Name: "s0", URL: shard.URL}},
					MaxInflightPerShard: 1,
					PollInterval:        5 * time.Millisecond,
					Client:              &http.Client{Timeout: 2 * time.Second},
				})
				if err != nil {
					t.Fatal(err)
				}
				srv := httptest.NewServer(NewHandlerConfig(c, HandlerConfig{}))
				t.Cleanup(func() {
					srv.Close()
					ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
					defer cancel()
					_ = c.Close(ctx)
				})
				url = srv.URL
			}
			api := statusKeysAPI{t: t, url: url}
			check := func(id string, st service.State) {
				t.Helper()
				keys, got := api.keys(id)
				if got != st {
					t.Fatalf("job %s is %s, want %s", id, got, st)
				}
				w := strings.Fields(want[plane][st])
				slices.Sort(w)
				if keys != strings.Join(w, " ") {
					t.Errorf("%s status keys:\n got %s\nwant %s", st, keys, strings.Join(w, " "))
				}
			}

			// The first job parks on the gate, holding the only worker (or
			// shard slot); the second waits behind it and is cancelled.
			running := api.submit(lcSpec(1, service.ClassInteractive), "")
			api.await(running, service.StateRunning)
			queued := api.submit(lcSpec(2, service.ClassBatch), "")
			check(queued, service.StateQueued)
			api.cancel(queued)
			check(queued, service.StateCancelled)
			gate <- struct{}{}
			api.await(running, service.StateDone)
			check(running, service.StateDone)
			// A deadline job parks until its deadline fails it.
			late := api.submit(lcSpec(3, service.ClassBatch), "200")
			api.await(late, service.StateFailed)
			check(late, service.StateFailed)
		})
	}
}

// statusKeysAPI speaks the job API by hand, so the keys it reads are
// the wire's, not a decoder's.
type statusKeysAPI struct {
	t   *testing.T
	url string
}

func (a statusKeysAPI) do(method, path, body string, hdr map[string]string) map[string]json.RawMessage {
	a.t.Helper()
	req, err := http.NewRequest(method, a.url+path, strings.NewReader(body))
	if err != nil {
		a.t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		a.t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil || resp.StatusCode >= 300 {
		a.t.Fatalf("%s %s: HTTP %d, %v", method, path, resp.StatusCode, err)
	}
	return m
}

func (a statusKeysAPI) submit(spec service.Spec, deadlineMs string) string {
	a.t.Helper()
	body, _ := json.Marshal(spec)
	var hdr map[string]string
	if deadlineMs != "" {
		hdr = map[string]string{service.DeadlineHeader: deadlineMs}
	}
	var id string
	_ = json.Unmarshal(a.do(http.MethodPost, "/v1/solve", string(body), hdr)["id"], &id)
	return id
}

func (a statusKeysAPI) cancel(id string) { a.do(http.MethodDelete, "/v1/jobs/"+id, "", nil) }

// keys is the job's status keys, sorted and space-joined, and its state.
func (a statusKeysAPI) keys(id string) (string, service.State) {
	a.t.Helper()
	m := a.do(http.MethodGet, "/v1/jobs/"+id, "", nil)
	var st service.State
	_ = json.Unmarshal(m["state"], &st)
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return strings.Join(keys, " "), st
}

func (a statusKeysAPI) await(id string, want service.State) {
	a.t.Helper()
	end := time.Now().Add(10 * time.Second)
	for {
		if _, st := a.keys(id); st == want {
			return
		} else if time.Now().After(end) {
			a.t.Fatalf("job %s is %s, want %s", id, st, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
