package service_test

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"github.com/uintah-repro/rmcrt/internal/service"
)

// startHardenedServer serves the daemon handler behind the production
// server profile with its header and whole-request read timeouts shrunk
// (deliberately short), on a loopback listener.
func startHardenedServer(t *testing.T, readHeader, read time.Duration) string {
	t.Helper()
	mgr := service.New(service.Config{Workers: 1, QueueDepth: 4})
	srv := service.NewHTTPServer("", service.NewHandlerConfig(mgr, service.HandlerConfig{}))
	srv.ReadHeaderTimeout, srv.ReadTimeout = readHeader, read
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		_ = mgr.Close(ctx)
	})
	return ln.Addr().String()
}

// waitGoroutineBaseline retries until the goroutine count returns to
// within slack of base (http connection teardown is asynchronous).
func waitGoroutineBaseline(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base+3 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak after slow client: %d, baseline %d", n, base)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestSlowLorisHeadersCutOff: a client that dribbles its header bytes
// is disconnected by ReadHeaderTimeout instead of pinning a connection,
// and the server goroutine serving it is reclaimed.
func TestSlowLorisHeadersCutOff(t *testing.T) {
	base := runtime.NumGoroutine()
	addr := startHardenedServer(t, 150*time.Millisecond, 300*time.Millisecond)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Dribble one header byte at a time, far slower than the header
	// window allows.
	raw := "POST /v1/solve HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"
	cut := false
	for i := 0; i < len(raw); i++ {
		if _, err := conn.Write([]byte{raw[i]}); err != nil {
			cut = true // server closed mid-dribble: exactly the defense working
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !cut {
		// All header bytes went out (the cut can land on the read side);
		// the connection must still die without a response.
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, 1)
		if _, err := conn.Read(buf); err == nil {
			t.Fatal("server answered a slow-loris client instead of cutting it off")
		}
	}
	waitGoroutineBaseline(t, base)
}

// TestSlowBodyCutOff: a client that completes its headers and then
// feeds the body a byte at a time is disconnected by the whole-request
// ReadTimeout — a valid header phase buys no immortality.
func TestSlowBodyCutOff(t *testing.T) {
	base := runtime.NumGoroutine()
	addr := startHardenedServer(t, 150*time.Millisecond, 300*time.Millisecond)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body := `{"kind":"benchmark","n":12}`
	head := fmt.Sprintf("POST /v1/solve HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", len(body))
	if _, err := conn.Write([]byte(head)); err != nil {
		t.Fatalf("header write: %v", err)
	}
	start := time.Now()
	cut := false
	for i := 0; i < len(body); i++ {
		if _, err := conn.Write([]byte{body[i]}); err != nil {
			cut = true
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !cut {
		// Writes can buffer in the kernel past the server-side close;
		// the proof is the missing/failed response, not the write error.
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, 256)
		n, rerr := conn.Read(buf)
		if rerr == nil && n > 0 && time.Since(start) < 250*time.Millisecond {
			t.Fatalf("server answered a byte-at-a-time body in %v — ReadTimeout not enforced", time.Since(start))
		}
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("slow body client survived %v against a 300ms read timeout", elapsed)
	}
	waitGoroutineBaseline(t, base)
}
