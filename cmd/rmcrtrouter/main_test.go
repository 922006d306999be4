package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"syscall"
	"testing"
	"time"

	"github.com/uintah-repro/rmcrt/internal/cluster"
	"github.com/uintah-repro/rmcrt/internal/service"
)

// startRouter runs the router's run() in a goroutine against the given
// shard URLs and returns its bound address plus run's eventual return.
func startRouter(t *testing.T, shardURLs []string, extra ...string) (string, <-chan error) {
	t.Helper()
	args := []string{"-addr", "127.0.0.1:0", "-poll", "20ms", "-health-interval", "50ms"}
	for _, u := range shardURLs {
		args = append(args, "-shard", u)
	}
	args = append(args, extra...)
	addrCh := make(chan string, 1)
	errCh := make(chan error, 1)
	go func() {
		errCh <- run(args, func(addr string) { addrCh <- addr })
	}()
	select {
	case addr := <-addrCh:
		return addr, errCh
	case err := <-errCh:
		t.Fatalf("router exited before binding: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("router never reported its address")
	}
	return "", nil
}

// TestRouterGracefulShutdown drives a real router process body against
// an in-process shard: work placed through the router completes, and on
// SIGTERM the router stops accepting new submissions, drains, and
// returns nil — while the shard is still alive, matching the
// router-before-shards rolling-restart order.
func TestRouterGracefulShutdown(t *testing.T) {
	mgr := service.New(service.Config{Workers: 2, QueueDepth: 32})
	shard := httptest.NewServer(service.NewHandlerConfig(mgr, service.HandlerConfig{}))
	defer shard.Close()

	addr, errCh := startRouter(t, []string{shard.URL}, "-drain", "10s")

	body, _ := json.Marshal(service.Spec{Kind: service.KindBenchmark, N: 12, Rays: 25, Seed: 1})
	resp, err := http.Post("http://"+addr+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st cluster.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get("http://" + addr + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		var cur cluster.JobStatus
		_ = json.NewDecoder(r.Body).Decode(&cur)
		r.Body.Close()
		if cur.State.Terminal() {
			if cur.State != service.StateDone {
				t.Fatalf("job finished %s: %s", cur.State, cur.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("routed job never finished")
		}
		time.Sleep(10 * time.Millisecond)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("run returned %v, want nil", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not return after SIGTERM within the drain deadline")
	}

	// The router's edge is closed...
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("router still accepting connections after shutdown")
	}
	// ...while the shard it fronted is still serving — the router went
	// down first, as a rolling restart requires.
	r, err := http.Get(shard.URL + "/healthz")
	if err != nil {
		t.Fatalf("shard unreachable after router shutdown: %v", err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("shard healthz = %d after router shutdown", r.StatusCode)
	}
}

// TestRouterClientRateFlag: -client-rate wires per-client admission
// into the router edge.
func TestRouterClientRateFlag(t *testing.T) {
	mgr := service.New(service.Config{Workers: 1, QueueDepth: 32})
	shard := httptest.NewServer(service.NewHandlerConfig(mgr, service.HandlerConfig{}))
	defer shard.Close()

	addr, errCh := startRouter(t, []string{shard.URL},
		"-drain", "5s", "-client-rate", "0.001", "-client-burst", "1")

	body, _ := json.Marshal(service.Spec{Kind: service.KindBenchmark, N: 12, Rays: 25, Seed: 2})
	saw := 0
	for i := 0; i < 3; i++ {
		req, _ := http.NewRequest(http.MethodPost, "http://"+addr+"/v1/solve", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(service.ClientIDHeader, "hog")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
			saw++
		}
		resp.Body.Close()
	}
	if saw == 0 {
		t.Fatal("burst of 3 submits from one client was never rate limited at burst 1")
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("run returned %v, want nil", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not return after SIGTERM")
	}
}
