package server

// Graceful-drain test, run under -race in CI: a saturated server
// receives a real SIGTERM and must (1) flip readiness while the
// listener is still accepting — so load balancers observe the drain
// before connections start failing, (2) complete or cleanly reject
// every in-flight request — no connection dropped mid-flight, and
// (3) leak no goroutines.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"xpathviews/internal/paperdata"
	"xpathviews/internal/telemetry"
)

func TestSIGTERMDrain(t *testing.T) {
	goroutinesBefore := runtime.NumGoroutine()

	var drainLog strings.Builder
	reg := telemetry.NewRegistry()
	srv := newBookServer(t, Config{
		MaxInFlight:        2,
		QueueDepth:         2,
		QueueWait:          20 * time.Millisecond,
		SlowQueryThreshold: time.Nanosecond, // retain everything for the flush check
		Metrics:            reg,
		DrainLog:           &drainLog,
	}, TenantConfig{})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// The client transport may dial a spare connection it never uses;
	// Shutdown counts one stuck in StateNew as busy for 5 s, the drain
	// deadline below, unless the header timeout closes it first.
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: time.Second}
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); _ = hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	client := &http.Client{Timeout: 5 * time.Second}

	// Saturating load: more workers than capacity+queue, looping until
	// the listener goes away. Every response must be a clean HTTP status;
	// transport-level errors are legal only after drain begins.
	var (
		drainBegun   atomic.Bool
		served       atomic.Int64
		shed         atomic.Int64
		dropped      atomic.Int64 // transport error before drain — must stay 0
		postShutdown atomic.Int64
	)
	const workers = 8
	var wg sync.WaitGroup
	body := fmt.Sprintf(`{"query": %q}`, paperdata.QueryE)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				resp, err := client.Post(base+"/v1/query", "application/json", strings.NewReader(body))
				if err != nil {
					if drainBegun.Load() {
						postShutdown.Add(1)
						return
					}
					dropped.Add(1)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch {
				case resp.StatusCode == http.StatusOK:
					served.Add(1)
				case resp.StatusCode == http.StatusTooManyRequests ||
					resp.StatusCode == http.StatusServiceUnavailable:
					shed.Add(1)
				default:
					t.Errorf("unexpected status %d", resp.StatusCode)
					return
				}
			}
		}()
	}

	// Let the load establish itself.
	deadline := time.Now().Add(2 * time.Second)
	for served.Load()+shed.Load() < 20 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	// Deliver a real SIGTERM to this process, received the way the
	// daemon's main receives it.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM)
	defer signal.Stop(sigc)
	drainBegun.Store(true)
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sigc:
	case <-time.After(2 * time.Second):
		t.Fatal("SIGTERM not delivered")
	}

	// Ordering check: flip readiness first, and verify /readyz reports
	// draining over the STILL-OPEN listener before it closes.
	srv.BeginDrain()
	resp, err := client.Get(base + "/readyz")
	if err != nil {
		t.Fatalf("readyz after BeginDrain: listener already closed: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after BeginDrain = %d, want 503", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx, hs); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	select {
	case <-serveDone:
	case <-time.After(2 * time.Second):
		t.Fatal("http.Server.Serve did not return after Shutdown")
	}

	if n := dropped.Load(); n != 0 {
		t.Fatalf("%d requests dropped at the transport before drain began", n)
	}
	if served.Load() == 0 {
		t.Fatal("no request was served before drain")
	}
	if n := srv.InFlight(); n != 0 {
		t.Fatalf("%d queries still in flight after drain", n)
	}
	if !srv.Draining() || srv.Ready() {
		t.Fatal("server not in drained state")
	}

	// The flush landed: slow-query entries plus a final metrics snapshot.
	flush := drainLog.String()
	if !strings.Contains(flush, "drain flush") || !strings.Contains(flush, "xpvd_requests_total") {
		t.Fatalf("drain flush missing content:\n%s", flush)
	}
	if !strings.Contains(flush, "slow tenant=default") {
		t.Fatalf("drain flush lacks slow-query entries:\n%s", flush)
	}

	// Goroutine-leak check: workers, server loops and keep-alive conns
	// must all unwind.
	client.CloseIdleConnections()
	leakDeadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= goroutinesBefore+2 {
			break
		}
		if time.Now().After(leakDeadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d before, %d after drain\n%s",
				goroutinesBefore, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDrainDeadline exercises the unhappy path: a query still in flight
// when the drain context expires must surface as a drain error, not a
// hang.
func TestDrainDeadline(t *testing.T) {
	srv := newBookServer(t, Config{MaxInFlight: 1}, TenantConfig{})
	release, _, err := srv.adm.acquire(context.Background(), srv.Tenant(DefaultTenant))
	if err != nil {
		t.Fatal(err)
	}
	srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err = srv.Drain(ctx)
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain with a stuck query = %v, want deadline error", err)
	}
	release()
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Second)
	defer cancel2()
	if err := srv.Drain(ctx2); err != nil {
		t.Fatalf("Drain after release = %v", err)
	}
}
