package server

// Load-test harness for the daemon, writing BENCH_server.json (the
// machine-readable serving report). Run via `make bench-server` or XPV_BENCH_SERVER=1 go test -run
// TestServerBenchReport ./internal/server.
//
// Three phases:
//
//	sustained — steady load within capacity: throughput and latency
//	            percentiles for healthy serving;
//	overload  — capacity mostly held, heuristic selection faulted: the
//	            daemon must keep answering on degraded rungs (rung > 0)
//	            and shed the overflow with clean statuses;
//	drain     — SIGTERM under load: every in-flight request completes or
//	            is cleanly rejected, zero dropped at the transport.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"xpathviews/internal/faults"
	"xpathviews/internal/paperdata"
	"xpathviews/internal/telemetry"
)

type serverBenchReport struct {
	GeneratedBy string `json:"generated_by"`
	GoMaxProcs  int    `json:"go_max_procs"`

	Sustained struct {
		Seconds  float64 `json:"seconds"`
		Requests int     `json:"requests"`
		QPS      float64 `json:"qps"`
		P50NS    int64   `json:"p50_ns"`
		P95NS    int64   `json:"p95_ns"`
		P99NS    int64   `json:"p99_ns"`
	} `json:"sustained"`

	Overload struct {
		Requests         int            `json:"requests"`
		Served           int            `json:"served"`
		Shed             int            `json:"shed"`
		ShedRate         float64        `json:"shed_rate"`
		ServedByPressure map[string]int `json:"served_by_pressure"`
		ServedByRung     map[string]int `json:"served_by_rung"`
		ShedByStatus     map[string]int `json:"shed_by_status"`
		DegradedServed   int            `json:"degraded_served"`
	} `json:"overload"`

	Drain struct {
		InFlightAtSIGTERM int   `json:"inflight_at_sigterm"`
		CompletedAfter    int   `json:"completed_after_drain_began"`
		DroppedInFlight   int   `json:"dropped_in_flight"`
		DrainNS           int64 `json:"drain_ns"`
	} `json:"drain"`
}

func percentile(sorted []time.Duration, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return int64(sorted[i])
}

func benchListener(t *testing.T, srv *Server) (string, *http.Server, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	return "http://" + ln.Addr().String(), hs, func() { _ = hs.Close() }
}

func TestServerBenchReport(t *testing.T) {
	if os.Getenv("XPV_BENCH_SERVER") == "" {
		t.Skip("set XPV_BENCH_SERVER=1 (or run `make bench-server`) to measure and rewrite BENCH_server.json")
	}
	var rep serverBenchReport
	rep.GeneratedBy = "XPV_BENCH_SERVER=1 go test -run TestServerBenchReport ./internal/server"
	rep.GoMaxProcs = runtime.GOMAXPROCS(0)
	client := &http.Client{Timeout: 10 * time.Second}
	body := fmt.Sprintf(`{"query": %q}`, paperdata.QueryE)

	// --- Phase 1: sustained load within capacity.
	{
		srv := newBookServer(t, Config{MaxInFlight: 2 * runtime.GOMAXPROCS(0), Metrics: telemetry.NewRegistry()},
			TenantConfig{})
		base, _, stop := benchListener(t, srv)
		const workers = 4
		duration := 500 * time.Millisecond
		var mu sync.Mutex
		var lats []time.Duration
		var wg sync.WaitGroup
		t0 := time.Now()
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Since(t0) < duration {
					q0 := time.Now()
					resp, err := client.Post(base+"/v1/query", "application/json", strings.NewReader(body))
					if err != nil {
						t.Error(err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("sustained: status %d", resp.StatusCode)
						return
					}
					mu.Lock()
					lats = append(lats, time.Since(q0))
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(t0)
		stop()
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		rep.Sustained.Seconds = elapsed.Seconds()
		rep.Sustained.Requests = len(lats)
		rep.Sustained.QPS = float64(len(lats)) / elapsed.Seconds()
		rep.Sustained.P50NS = percentile(lats, 0.50)
		rep.Sustained.P95NS = percentile(lats, 0.95)
		rep.Sustained.P99NS = percentile(lats, 0.99)
	}

	// --- Phase 2: overload with the heuristic-selection rung faulted.
	{
		defer faults.DisarmAll()
		views := append(paperdata.TableIViews(), paperdata.QueryE)
		srv := newBookServer(t,
			Config{MaxInFlight: 4, PressuredFrac: 0.5, QueueDepth: 2, QueueWait: 2 * time.Millisecond,
				Metrics: telemetry.NewRegistry()},
			TenantConfig{Views: views})
		// Hold 3 of 4 slots: every admitted request grades Pressured.
		var releases []func()
		for i := 0; i < 3; i++ {
			release, _, err := srv.adm.acquire(context.Background(), srv.Tenant(DefaultTenant))
			if err != nil {
				t.Fatal(err)
			}
			releases = append(releases, release)
		}
		faults.Arm("selection.heuristic", faults.Error)
		base, _, stop := benchListener(t, srv)
		const workers = 6
		duration := 400 * time.Millisecond
		var mu sync.Mutex
		rep.Overload.ServedByPressure = map[string]int{}
		rep.Overload.ServedByRung = map[string]int{}
		rep.Overload.ShedByStatus = map[string]int{}
		var wg sync.WaitGroup
		t0 := time.Now()
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Since(t0) < duration {
					resp, err := client.Post(base+"/v1/query", "application/json", strings.NewReader(body))
					if err != nil {
						t.Error(err)
						return
					}
					raw, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					mu.Lock()
					rep.Overload.Requests++
					switch resp.StatusCode {
					case http.StatusOK:
						var qr queryResponse
						if err := json.Unmarshal(raw, &qr); err != nil {
							t.Error(err)
						}
						rep.Overload.Served++
						rep.Overload.ServedByPressure[qr.Pressure]++
						rep.Overload.ServedByRung[qr.Rung]++
						if qr.Degraded {
							rep.Overload.DegradedServed++
						}
					case http.StatusTooManyRequests, http.StatusServiceUnavailable:
						rep.Overload.Shed++
						rep.Overload.ShedByStatus[fmt.Sprint(resp.StatusCode)]++
					default:
						t.Errorf("overload: status %d body %s", resp.StatusCode, raw)
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		// Second window: hold the last slot too — full saturation, every
		// request sheds with a clean 503 + Retry-After.
		release, _, err := srv.adm.acquire(context.Background(), srv.Tenant(DefaultTenant))
		if err != nil {
			t.Fatal(err)
		}
		releases = append(releases, release)
		for i := 0; i < 50; i++ {
			resp, err := client.Post(base+"/v1/query", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			rep.Overload.Requests++
			if resp.StatusCode != http.StatusTooManyRequests && resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("saturated window: status %d", resp.StatusCode)
			}
			rep.Overload.Shed++
			rep.Overload.ShedByStatus[fmt.Sprint(resp.StatusCode)]++
		}
		stop()
		faults.DisarmAll()
		for _, release := range releases {
			release()
		}
		if rep.Overload.Requests > 0 {
			rep.Overload.ShedRate = float64(rep.Overload.Shed) / float64(rep.Overload.Requests)
		}
		if rep.Overload.Served == 0 {
			t.Fatal("overload phase served nothing")
		}
		degradedRungs := 0
		for rung, n := range rep.Overload.ServedByRung {
			if rung != "HV" {
				degradedRungs += n
			}
		}
		if degradedRungs == 0 {
			t.Fatalf("overload served no degraded-rung answers: %v", rep.Overload.ServedByRung)
		}
	}

	// --- Phase 3: SIGTERM drain under load.
	{
		srv := newBookServer(t, Config{MaxInFlight: 2, QueueDepth: 2, QueueWait: 20 * time.Millisecond,
			Metrics: telemetry.NewRegistry()}, TenantConfig{})
		base, hs, _ := benchListener(t, srv)
		var (
			drainBegun     atomic.Bool
			dropped        atomic.Int64
			completedAfter atomic.Int64
		)
		const workers = 6
		var wg sync.WaitGroup
		started := make(chan struct{})
		var startOnce sync.Once
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					resp, err := client.Post(base+"/v1/query", "application/json", strings.NewReader(body))
					if err != nil {
						if !drainBegun.Load() {
							dropped.Add(1)
						}
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					startOnce.Do(func() { close(started) })
					if drainBegun.Load() {
						completedAfter.Add(1)
					}
				}
			}()
		}
		<-started
		time.Sleep(20 * time.Millisecond) // load established

		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, syscall.SIGTERM)
		defer signal.Stop(sigc)
		drainBegun.Store(true)
		rep.Drain.InFlightAtSIGTERM = int(srv.InFlight())
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		<-sigc
		d0 := time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx, hs); err != nil {
			t.Fatalf("drain: %v", err)
		}
		rep.Drain.DrainNS = int64(time.Since(d0))
		wg.Wait()
		rep.Drain.CompletedAfter = int(completedAfter.Load())
		rep.Drain.DroppedInFlight = int(dropped.Load())
		if rep.Drain.DroppedInFlight != 0 {
			t.Fatalf("%d in-flight requests dropped during drain", rep.Drain.DroppedInFlight)
		}
	}

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("../../BENCH_server.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("BENCH_server.json:\n%s", data)
}
