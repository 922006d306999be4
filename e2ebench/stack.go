package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"github.com/uintah-repro/rmcrt/internal/cluster"
	"github.com/uintah-repro/rmcrt/internal/field"
	"github.com/uintah-repro/rmcrt/internal/rmcrt"
	"github.com/uintah-repro/rmcrt/internal/service"
)

// The serving stack is one rmcrtrouter in front of two rmcrtd shards,
// built with the constructors and default flag values of cmd/rmcrtd and
// cmd/rmcrtrouter. The only departures are loopback listen addresses,
// explicit shard names (so affinity placement does not depend on the
// random ports) and one solve worker per shard, so solve concurrency
// equals the two cores the stack was sized for.
const (
	shardCount   = 2
	shardWorkers = 1
)

type shardProc struct {
	name string
	url  string
	mgr  *service.Manager
	srv  *http.Server
	errc chan error
}

type stack struct {
	routerURL string
	router    *cluster.Cluster
	routerSrv *http.Server
	routerErr chan error
	shards    []*shardProc
	// transport carries the router's calls to shards.
	transport *http.Transport
}

// serve starts srv on a fresh loopback listener.
func serve(srv *http.Server) (string, chan error, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("listen: %w", err)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	return "http://" + ln.Addr().String(), errc, nil
}

// startStack brings the router and its shards up. With rec non-nil the
// handlers, the router's client and the shards' solver are wrapped with
// span recorders.
func startStack(rec *recorder) (*stack, error) {
	st := &stack{transport: http.DefaultTransport.(*http.Transport).Clone()}
	var shardCfgs []cluster.ShardConfig
	shardByHost := map[string]string{}
	for i := 0; i < shardCount; i++ {
		sp := &shardProc{name: fmt.Sprintf("s%d", i)}
		// rmcrtd defaults: -queue 16 -cache 64 -max-cells 2^21, no
		// journal, no checkpoints, no calibration, no client limiter.
		cfg := service.Config{
			Workers:      shardWorkers,
			QueueDepth:   16,
			CacheEntries: 64,
			MaxCells:     1 << 21,
		}
		if rec != nil {
			cfg.Solver = tracedSolver(rec, sp)
		}
		mgr, err := service.Recover(cfg)
		if err != nil {
			st.close()
			return nil, fmt.Errorf("shard %s: %w", sp.name, err)
		}
		sp.mgr = mgr
		var h http.Handler = service.NewHandlerConfig(mgr, service.HandlerConfig{MaxBody: service.DefaultMaxBodyBytes})
		if rec != nil {
			h = traceHandler(rec, "service", sp.name, h)
		}
		sp.srv = service.NewHTTPServer("", h)
		url, errc, err := serve(sp.srv)
		if err != nil {
			_ = mgr.Close(context.Background())
			st.close()
			return nil, err
		}
		sp.url, sp.errc = url, errc
		st.shards = append(st.shards, sp)
		shardCfgs = append(shardCfgs, cluster.ShardConfig{Name: sp.name, URL: url})
		shardByHost[url[len("http://"):]] = sp.name
	}

	var rt http.RoundTripper = st.transport
	if rec != nil {
		rt = &traceTransport{rec: rec, base: st.transport, shardByHost: shardByHost}
	}
	// rmcrtrouter defaults: affinity routing, priority scheduling,
	// queue 256, 4 inflight per shard, 3 attempts, 250ms poll, 1s health
	// probes, 10s shard timeout; breaker, retry budget and backoff at
	// their zero-value defaults.
	c, err := cluster.New(cluster.Config{
		Shards:              shardCfgs,
		Policy:              cluster.PolicyAffinity,
		Sched:               cluster.SchedPriority,
		QueueDepth:          256,
		MaxInflightPerShard: 4,
		MaxAttempts:         3,
		PollInterval:        250 * time.Millisecond,
		HealthInterval:      time.Second,
		Client:              &http.Client{Timeout: 10 * time.Second, Transport: rt},
	})
	if err != nil {
		st.close()
		return nil, err
	}
	st.router = c
	var h http.Handler = cluster.NewHandlerConfig(c, cluster.HandlerConfig{MaxBody: service.DefaultMaxBodyBytes})
	if rec != nil {
		h = traceHandler(rec, "cluster", "", h)
	}
	st.routerSrv = service.NewHTTPServer("", h)
	url, errc, err := serve(st.routerSrv)
	if err != nil {
		st.close()
		return nil, err
	}
	st.routerURL, st.routerErr = url, errc
	return st, nil
}

// tracedSolver is the shard's default solver (Spec.SolveShared over the
// manager's packed-table cache and trace metrics) with a solve span
// around it.
func tracedSolver(rec *recorder, sp *shardProc) func(context.Context, service.Spec) (*field.CC[float64], int64, int64, error) {
	return func(ctx context.Context, spec service.Spec) (*field.CC[float64], int64, int64, error) {
		// sp.mgr is set before the shard serves its first request.
		tm := rmcrt.NewTraceMetrics(sp.mgr.Registry())
		start := time.Now()
		divQ, rays, steps, err := spec.SolveShared(ctx, tm, sp.mgr.Packed())
		end := time.Now()
		rec.add(span{Name: "rmcrt.solve", Layer: "rmcrt", Start: rec.since(start), End: rec.since(end),
			Shard: sp.name, Key: spec.Key(), Rays: rays, Steps: steps})
		return divQ, rays, steps, err
	}
}

// shardURL returns the base URL of the named shard.
func (st *stack) shardURL(name string) string {
	for _, sp := range st.shards {
		if sp.name == name {
			return sp.url
		}
	}
	return ""
}

// close shuts the stack down edge first, as cmd/rmcrtrouter does, and
// waits for every server and worker to stop.
func (st *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if st.routerSrv != nil {
		errs = append(errs, st.routerSrv.Shutdown(ctx))
		if err := <-st.routerErr; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if st.router != nil {
		errs = append(errs, st.router.Close(ctx))
	}
	for _, sp := range st.shards {
		if sp.srv != nil {
			errs = append(errs, sp.srv.Shutdown(ctx))
			if err := <-sp.errc; !errors.Is(err, http.ErrServerClosed) {
				errs = append(errs, err)
			}
		}
		errs = append(errs, sp.mgr.Close(ctx))
	}
	st.transport.CloseIdleConnections()
	return errors.Join(errs...)
}
