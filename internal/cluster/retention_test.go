package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/uintah-repro/rmcrt/internal/service"
)

// TestResultRetentionSoak: a router over one shard that keeps
// CacheEntries delivered results runs 4×CacheEntries distinct jobs,
// and each result is fetched once through the router's HTTP edge.
// Afterwards the shard holds at most CacheEntries results, the router
// holds none, and a repeat read finds exactly the newest CacheEntries
// results (re-fetched from the shard) while the older ones answer 410.
func TestResultRetentionSoak(t *testing.T) {
	const keep = 2
	mgr := service.New(service.Config{Workers: 1, QueueDepth: 32, CacheEntries: keep})
	shard := httptest.NewServer(service.NewHandlerConfig(mgr, service.HandlerConfig{}))
	t.Cleanup(func() {
		shard.Close()
		_ = mgr.Close(context.Background())
	})
	c, err := New(Config{
		Shards:       []ShardConfig{{Name: "s0", URL: shard.URL}},
		PollInterval: 5 * time.Millisecond,
		Client:       &http.Client{Timeout: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close(context.Background()) })
	router := httptest.NewServer(NewHandlerConfig(c, HandlerConfig{}))
	t.Cleanup(router.Close)

	get := func(id string) (int, service.ResultPayload) {
		t.Helper()
		resp, err := http.Get(router.URL + "/v1/jobs/" + id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var p service.ResultPayload
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, p
	}
	var ids []string
	var cellBytes int64
	for i := 0; i < 4*keep; i++ {
		spec := service.Spec{Kind: service.KindBenchmark, N: 8, Rays: 10, Seed: uint64(500 + i)}
		st, err := c.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, c, st.ID)
		if code, p := get(st.ID); code != http.StatusOK || p.ID != st.ID || p.Cells != 8*8*8 {
			t.Fatalf("job %d: HTTP %d, payload id %q cells %d", i, code, p.ID, p.Cells)
		}
		ids = append(ids, st.ID)
		cellBytes = 8 * spec.Cells()
	}

	shardVal := func(name string) float64 {
		v, ok := mgr.Registry().Value(name)
		if !ok {
			t.Fatalf("no shard metric %q", name)
		}
		return v
	}
	if n, by := shardVal("rmcrtd_results_resident"), shardVal("rmcrtd_results_resident_bytes"); n > keep || by > float64(keep*cellBytes) {
		t.Fatalf("shard holds %v results / %v bytes, want <= %d / %d", n, by, keep, keep*cellBytes)
	}
	if n, by := counterValue(t, c, "router_results_resident"), counterValue(t, c, "router_results_resident_bytes"); n != 0 || by != 0 {
		t.Fatalf("router holds %v results / %v bytes after delivery, want 0 / 0", n, by)
	}
	for i, id := range ids {
		want := http.StatusGone
		if i >= len(ids)-keep {
			want = http.StatusOK
		}
		if code, p := get(id); code != want || (code == http.StatusOK && p.ID != id) {
			t.Errorf("repeat read of job %d: HTTP %d id %q, want %d", i, code, p.ID, want)
		}
	}
	if n := counterValue(t, c, "router_results_resident"); n != 0 {
		t.Fatalf("router holds %v results after repeat reads, want 0", n)
	}
}

// TestClusterOverlongResultIsRequestFault: a shard whose result body
// runs past what the job's cells can encode is not decoded. The fetch
// is a request fault: the job is requeued, the shard stays healthy,
// and the next placement's well-formed result completes the job.
func TestClusterOverlongResultIsRequestFault(t *testing.T) {
	spec := service.Spec{Kind: service.KindBenchmark, N: 4, Rays: 10, Seed: 1}
	key := spec.Normalized().Key()
	good, err := json.Marshal(service.ResultPayload{
		ID: "j-000001", Key: key, Hi: [3]int{4, 4, 4}, DivQ: make([]float64, 64), Cells: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Valid JSON that decodes to the good payload if read in full: only
	// the read limit can refuse it.
	overlong := string(good) + strings.Repeat(" ", int(service.ResultBodyLimit(spec)))
	var fetches atomic.Int32
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/healthz":
			service.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
		case r.Method == http.MethodPost && r.URL.Path == "/v1/solve":
			service.WriteJSON(w, http.StatusAccepted, service.JobStatus{ID: "j-000001", Key: key, State: service.StateQueued})
		case strings.HasSuffix(r.URL.Path, "/result"):
			w.Header().Set("Content-Type", "application/json")
			if fetches.Add(1) == 1 {
				fmt.Fprint(w, overlong)
				return
			}
			_, _ = w.Write(good)
		default:
			service.WriteJSON(w, http.StatusOK, service.JobStatus{ID: "j-000001", Key: key, State: service.StateDone})
		}
	}))
	t.Cleanup(stub.Close)
	c, err := New(Config{
		Shards:       []ShardConfig{{Name: "s0", URL: stub.URL}},
		PollInterval: 5 * time.Millisecond,
		BackoffBase:  time.Millisecond,
		BackoffCap:   5 * time.Millisecond,
		Client:       &http.Client{Timeout: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close(context.Background()) })

	st, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitDone(t, c, st.ID)
	if n := fetches.Load(); n != 2 || fin.Attempts != 2 {
		t.Fatalf("%d result fetches over %d placements, want 2 over 2 (over-long body requeued)", n, fin.Attempts)
	}
	if s := c.Shards().Get("s0"); s.State() != ShardHealthy {
		t.Fatalf("shard is %v after an over-long body, want healthy", s.State())
	}
	p, _, _, err := c.Payload(st.ID)
	if err != nil || p == nil || p.ID != st.ID || len(p.DivQ) != 64 {
		t.Fatalf("payload %+v / %v, want the well-formed result under the router's ID", p, err)
	}
}

// TestResultBodyLimitFitsWorstCase: a result of the widest values
// encoding/json writes, with the widest fields around them, still fits
// the result read limit.
func TestResultBodyLimitFitsWorstCase(t *testing.T) {
	spec := service.Spec{Kind: service.KindBenchmark, N: 6}
	p := service.ResultPayload{
		ID: "r-99999999999999999999", Key: strings.Repeat("f", 64),
		Lo: [3]int{-1 << 62, -1 << 62, -1 << 62}, Hi: [3]int{1 << 62, 1 << 62, 1 << 62},
		Cells: int(spec.Cells()),
	}
	p.DivQ = make([]float64, p.Cells)
	for i := range p.DivQ {
		p.DivQ[i] = -0.0000012345678901234567 // 25 bytes, the widest encoding
	}
	var b strings.Builder
	if err := json.NewEncoder(&b).Encode(p); err != nil {
		t.Fatal(err)
	}
	if n, limit := int64(b.Len()), service.ResultBodyLimit(spec); n > limit {
		t.Fatalf("worst-case body %d bytes, limit %d", n, limit)
	}
}

// TestConcurrentResultReads: simultaneous reads of one done job all
// get the same payload — one takes the router's held copy, the rest
// re-fetch it from the shard — and afterwards neither plane counts the
// result as pinned: the router holds nothing, the shard one idle entry.
func TestConcurrentResultReads(t *testing.T) {
	h := newTestHarness(t, 1, nil)
	st, err := h.cluster.Submit(service.Spec{Kind: service.KindBenchmark, N: 8, Rays: 10, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, h.cluster, st.ID)
	const readers = 8
	got := make([]*service.ResultPayload, readers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], _, _, _ = h.cluster.Payload(st.ID)
		}(i)
	}
	wg.Wait()
	for i, p := range got {
		if p == nil || p.ID != st.ID || !reflect.DeepEqual(p.DivQ, got[0].DivQ) {
			t.Fatalf("reader %d: payload %v, want reader 0's", i, p != nil)
		}
	}
	if n := counterValue(t, h.cluster, "router_results_resident"); n != 0 {
		t.Fatalf("router holds %v results, want 0", n)
	}
	if v, _ := h.shards[0].mgr.Registry().Value("rmcrtd_results_resident"); v != 1 {
		t.Fatalf("shard holds %v results, want its one idle entry", v)
	}
}
