package service

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/uintah-repro/rmcrt/internal/resilience"
)

// EdgeFlags are the serving-edge flags rmcrtd and rmcrtrouter share:
// listen address, submit-body limit, per-client admission and the
// graceful-shutdown drain deadline.
type EdgeFlags struct {
	addr                    *string
	maxBody                 *int64
	clientRate, clientBurst *float64
	drain                   *time.Duration
}

// RegisterEdgeFlags defines the shared edge flags on fs; defaultAddr is
// the binary's default listen address.
func RegisterEdgeFlags(fs *flag.FlagSet, defaultAddr string) *EdgeFlags {
	return &EdgeFlags{
		addr:        fs.String("addr", defaultAddr, "listen address"),
		maxBody:     fs.Int64("max-body", DefaultMaxBodyBytes, "submit request body byte limit (413 beyond it)"),
		clientRate:  fs.Float64("client-rate", 0, "per-client admission rate in requests/s (0 disables the limiter)"),
		clientBurst: fs.Float64("client-burst", 0, "per-client admission burst (0 = 2x rate)"),
		drain:       fs.Duration("drain", 30*time.Second, "graceful shutdown drain deadline"),
	}
}

// HandlerConfig is the edge the flags describe: the submit-body limit
// and, when -client-rate is set, a per-client limiter, so over-rate
// clients get 429 at the edge before the backend sees them.
func (f *EdgeFlags) HandlerConfig() HandlerConfig {
	hc := HandlerConfig{MaxBody: *f.maxBody}
	if *f.clientRate > 0 {
		hc.Limiter = resilience.NewLimiter(resilience.LimiterConfig{
			Default: resilience.RateBurst{Rate: *f.clientRate, Burst: *f.clientBurst},
		})
	}
	return hc
}

// Serve binds an explicit listener on -addr (so ":0" works), reports
// the bound address through notify (nil for none) and serves h behind
// NewHTTPServer until SIGINT or SIGTERM. The signal handler is armed
// before notify fires, so a caller may signal as soon as it learns the
// address. Shutdown is edge-first: the server stops taking requests
// before closeBackend drains what was admitted, both under one -drain
// deadline, so nothing is admitted that the drain will not cover.
func (f *EdgeFlags) Serve(name string, h http.Handler, notify func(addr string), closeBackend func(context.Context) error) error {
	srv := NewHTTPServer(*f.addr, h)
	ln, err := net.Listen("tcp", *f.addr)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if notify != nil {
		notify(ln.Addr().String())
	}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	log.Printf("%s listening on %s", name, ln.Addr())

	select {
	case err := <-errCh:
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}

	log.Printf("%s: shutting down, draining for up to %v", name, *f.drain)
	shutCtx, cancel := context.WithTimeout(context.Background(), *f.drain)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		log.Printf("%s: http shutdown: %v", name, err)
	}
	if err := closeBackend(shutCtx); errors.Is(err, context.DeadlineExceeded) {
		log.Printf("%s: drain deadline hit; work still in flight was cut off", name)
	} else if err != nil {
		log.Printf("%s: drain: %v", name, err)
	}
	log.Printf("%s: stopped", name)
	return nil
}
