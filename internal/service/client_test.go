package service

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestClientReadFaults: the client tells a call that got no answer
// (CallError code 0) from one whose reply tore, ran past its bound or
// was not the reply its status promises (the server's code), and puts
// no job ID into a URL that ValidJobID refuses.
func TestClientReadFaults(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		switch r.URL.Path {
		case "/v1/solve":
			WriteJSON(w, http.StatusAccepted, JobStatus{ID: "j-1/../x", State: StateQueued})
		case "/v1/jobs/j-000001":
			w.Write([]byte(`{"id":"j-000001","state":"queued"` + strings.Repeat(" ", statusBodyLimit)))
		case "/v1/jobs/j-000002":
			w.Header().Set("Content-Length", "100")
			w.Write([]byte(`{"id":`))
		case "/v1/jobs/j-000003":
			w.Write([]byte(`not a status`))
		}
	}))
	hc := &http.Client{Timeout: 5 * time.Second}
	api := NewClient(srv.URL, hc)
	ctx := context.Background()
	answered := func(err error, code int) {
		t.Helper()
		var ce *CallError
		if !errors.As(err, &ce) || ce.Code != code || TransportFailed(err) {
			t.Fatalf("err = %v, want a CallError with HTTP %d", err, code)
		}
	}

	_, err := api.Submit(ctx, Spec{Kind: KindBenchmark, N: 8, Rays: 10}, "", 0)
	answered(err, http.StatusAccepted)
	if !errors.Is(err, ErrBadJobID) {
		t.Fatalf("accept with a bad ID: %v, want ErrBadJobID", err)
	}
	for _, id := range []string{"j-000001", "j-000002", "j-000003"} {
		_, err := api.Status(ctx, id, 1)
		answered(err, http.StatusOK)
	}
	before := calls.Load()
	if _, err := api.Status(ctx, "j-1/../x", 1); !errors.Is(err, ErrBadJobID) {
		t.Fatalf("status of a bad ID: %v, want ErrBadJobID", err)
	}
	if calls.Load() != before {
		t.Fatal("a bad job ID reached the server")
	}

	srv.Close()
	if _, err := api.Status(ctx, "j-000001", 1); !TransportFailed(err) {
		t.Fatalf("closed server: %v, want a transport failure", err)
	}
}
