// Command xpvserved serves XPath-over-materialized-views as an
// HTTP/JSON daemon with per-tenant view registries and quotas,
// admission control, overload load-shedding onto the resilient rung
// chain, answer-level request coalescing, and graceful drain on
// SIGTERM.
//
// Usage:
//
//	xpvserved -doc site.xml -view '//person/address/city' -addr :8080
//	xpvserved -xmark 0.1 -tenants tenants.json
//
// Endpoints:
//
//	POST /v1/query    {"query": "...", ...} or {"queries": ["...", ...]}
//	POST /v1/update   {"op":"insert","parent_code":"0.8","xml":"<p/>"} or {"op":"delete","code":"0.8.9"}
//	GET  /v1/explain  ?query=...&tenant=...&strategy=HV
//	GET  /metrics     deterministic text exposition
//	GET  /statusz     per-tenant SLO burn rates + p99 exemplars (?format=json, ?runtime=1)
//	GET  /healthz     liveness (always 200 while the process runs)
//	GET  /readyz      readiness (503 once drain begins)
//
// Observability: every /v1/query response carries a W3C traceparent
// header (joining the caller's trace when one is propagated);
// -trace-export appends each request's span tree as one JSON line to a
// file, and -pprof serves net/http/pprof on a separate listener so
// profiling traffic never competes with serving admission.
//
// On SIGTERM/SIGINT the daemon stops accepting work (readiness flips
// first so load balancers can react), finishes every in-flight query
// under -drain-timeout, then flushes the slow-query log and a final
// metrics snapshot to stderr and drains the trace exporter.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"xpathviews/internal/server"
	"xpathviews/internal/telemetry/export"
	"xpathviews/internal/xmark"
	"xpathviews/internal/xmltree"
)

type viewList []string

func (v *viewList) String() string     { return strings.Join(*v, "; ") }
func (v *viewList) Set(s string) error { *v = append(*v, s); return nil }

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	docPath := flag.String("doc", "", "XML document to serve (mutually exclusive with -xmark)")
	xmarkScale := flag.Float64("xmark", 0, "serve a synthetic XMark-style document at this scale instead of -doc")
	seed := flag.Int64("seed", 1, "synthetic document seed")
	tenantsPath := flag.String("tenants", "", "JSON tenant config file ([{name, views, max_in_flight, ...}, ...]); omitted = a single default tenant")
	maxInflight := flag.Int("max-inflight", 0, "process-wide concurrent query cap (0 = 4x GOMAXPROCS)")
	queueDepth := flag.Int("queue-depth", 0, "admission queue depth beyond the cap (0 = the cap)")
	queueWait := flag.Duration("queue-wait", 100*time.Millisecond, "max time a queued request waits before shedding")
	pressuredFrac := flag.Float64("pressured-frac", 0.75, "occupancy fraction above which queries are served degraded")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown deadline on SIGTERM")
	slowlog := flag.Duration("slowlog", 100*time.Millisecond, "slow-query log threshold (0 = off)")
	maxInflightTenant := flag.Int("tenant-max-inflight", 0, "default tenant's concurrent-query cap (0 = unlimited)")
	limit := flag.Int("limit", 0, "default tenant's per-view fragment byte cap (0 = library default)")
	traceExport := flag.String("trace-export", "", `append each request's span tree as JSONL to this file ("-" = stdout, empty = off)`)
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this separate listen address (empty = off)")
	sloAvailability := flag.Float64("slo-availability", 0, "default availability objective, e.g. 0.99 (0 = the server default)")
	sloLatency := flag.Duration("slo-latency", 0, "default latency threshold for the SLO watchdog, e.g. 250ms (0 = the server default)")
	var views viewList
	flag.Var(&views, "view", "materialize this view for the default tenant (repeatable)")
	flag.Parse()

	doc, err := loadDoc(*docPath, *xmarkScale, *seed)
	if err != nil {
		log.Fatalf("xpvserved: %v", err)
	}

	cfgs := []server.TenantConfig{{
		Name:          server.DefaultTenant,
		Views:         views,
		FragmentLimit: *limit,
		MaxInFlight:   *maxInflightTenant,
	}}
	if *tenantsPath != "" {
		data, err := os.ReadFile(*tenantsPath)
		if err != nil {
			log.Fatalf("xpvserved: %v", err)
		}
		cfgs = nil
		if err := json.Unmarshal(data, &cfgs); err != nil {
			log.Fatalf("xpvserved: parse %s: %v", *tenantsPath, err)
		}
	}
	tenants := make([]*server.Tenant, 0, len(cfgs))
	for _, cfg := range cfgs {
		t, err := server.NewTenant(cfg, doc)
		if err != nil {
			log.Fatalf("xpvserved: %v", err)
		}
		tenants = append(tenants, t)
		log.Printf("tenant %q: %d views materialized", t.Name(), t.System().NumViews())
	}

	var exp *export.Exporter
	if *traceExport != "" {
		var w io.Writer = os.Stdout
		if *traceExport != "-" {
			f, err := os.OpenFile(*traceExport, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				log.Fatalf("xpvserved: trace export: %v", err)
			}
			w = f
		}
		exp = export.New(w, export.DefaultQueueDepth)
		log.Printf("xpvserved: exporting traces to %s", *traceExport)
	}

	srv, err := server.New(server.Config{
		MaxInFlight:        *maxInflight,
		QueueDepth:         *queueDepth,
		QueueWait:          *queueWait,
		PressuredFrac:      *pressuredFrac,
		DrainTimeout:       *drainTimeout,
		SlowQueryThreshold: *slowlog,
		DrainLog:           os.Stderr,
		TraceExporter:      exp,
		SLO: server.SLOConfig{
			Availability:     *sloAvailability,
			LatencyThreshold: *sloLatency,
		},
	}, tenants)
	if err != nil {
		log.Fatalf("xpvserved: %v", err)
	}

	if *pprofAddr != "" {
		// pprof rides its own mux on its own listener: profiling traffic
		// never touches serving admission, and the endpoints stay off the
		// public address entirely unless asked for.
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("xpvserved: pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, pm); err != nil {
				log.Printf("xpvserved: pprof: %v", err)
			}
		}()
	}

	// ReadHeaderTimeout closes a connection that sends no request header:
	// net/http's Shutdown waits up to 5 s for a connection that never left
	// StateNew (a spare keep-alive dial the client never used), which
	// would otherwise hold a short drain open until its deadline.
	hs := &http.Server{Addr: *addr, Handler: srv.Handler(), ReadHeaderTimeout: 2 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("xpvserved listening on %s (%d tenants)", *addr, len(tenants))

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigc:
		log.Printf("xpvserved: %v received, draining (deadline %v)", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx, hs); err != nil {
			log.Printf("xpvserved: drain: %v", err)
			os.Exit(1)
		}
		log.Printf("xpvserved: drained cleanly")
	case err := <-errc:
		log.Fatalf("xpvserved: serve: %v", err)
	}
}

// loadDoc resolves the served document: a file, or a synthetic XMark
// tree, defaulting to a small synthetic one so the daemon runs with no
// arguments.
func loadDoc(path string, scale float64, seed int64) (*xmltree.Tree, error) {
	if path != "" && scale > 0 {
		return nil, fmt.Errorf("-doc and -xmark are mutually exclusive")
	}
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return xmltree.Parse(f)
	}
	if scale <= 0 {
		scale = 0.05
	}
	return xmark.Generate(xmark.Config{Scale: scale, Seed: seed}), nil
}
