// Package server is the serving daemon's control plane: multi-tenant
// admission control, overload shedding mapped onto the resilient rung
// chain, answer-level singleflight coalescing, and graceful drain. The
// HTTP surface (cmd/xpvserved) is a thin shell over this package so the
// robustness machinery is testable without sockets.
//
// Request lifecycle:
//
//	resolve tenant → admission (tenant cap, process semaphore + bounded
//	queue) → pressure grade → options (rung chain + budgets per grade) →
//	singleflight coalesce → AnswerResilient / AnswerContext → respond.
//
// Drain lifecycle (SIGTERM):
//
//	readiness flips (readyz → 503) → admission closes (new queries shed
//	with 503 + Retry-After) → listener closes, in-flight requests finish
//	under the drain deadline → slow-query log and final metrics flush.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"xpathviews"
	"xpathviews/internal/plancache"
	"xpathviews/internal/telemetry"
	"xpathviews/internal/telemetry/export"
)

// Config tunes the daemon-wide robustness envelope. Zero values pick
// production-ish defaults.
type Config struct {
	// MaxInFlight caps process-wide concurrent queries (default
	// 4×GOMAXPROCS).
	MaxInFlight int
	// QueueDepth is how many requests may wait for a slot beyond
	// MaxInFlight before hard shedding (default MaxInFlight).
	QueueDepth int
	// QueueWait bounds a queued request's wait before it is shed with
	// Retry-After (default 100ms).
	QueueWait time.Duration
	// PressuredFrac is the occupancy fraction above which admitted
	// requests are served through the cheap rung chain (default 0.75).
	PressuredFrac float64
	// DrainTimeout bounds graceful shutdown (default 10s); used by
	// callers that pass no context deadline to Shutdown.
	DrainTimeout time.Duration
	// SlowQueryThreshold arms every tenant's slow-query log (0 = off).
	SlowQueryThreshold time.Duration
	// Metrics is the registry all serving and daemon metrics land in
	// (nil = the process default registry).
	Metrics *xpathviews.MetricsRegistry
	// DrainLog, when non-nil, receives the drain flush: retained slow
	// queries and a final metrics snapshot.
	DrainLog io.Writer
	// TraceExporter, when non-nil, receives every request's span tree
	// (bounded queue, drop-counting — see internal/telemetry/export).
	// The server owns it from here: Shutdown drains and closes it.
	TraceExporter *export.Exporter
	// SLO tunes the per-tenant burn-rate watchdog (zero value = the
	// defaults documented on SLOConfig). Per-tenant objectives may be
	// overridden in TenantConfig.
	SLO SLOConfig
	// Clock overrides time.Now for the SLO windows and /statusz uptime.
	// Tests inject a fixed clock for deterministic output.
	Clock func() time.Time
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4 * runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = c.MaxInFlight
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 100 * time.Millisecond
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	return c
}

// serverMetrics are the daemon's pre-resolved instruments.
type serverMetrics struct {
	requests   *telemetry.Counter // xpvd_requests_total
	respOK     *telemetry.Counter // xpvd_responses_ok_total
	respClient *telemetry.Counter // xpvd_responses_client_error_total
	respServer *telemetry.Counter // xpvd_responses_server_error_total

	servedByPressure [2]*telemetry.Counter // xpvd_served_total{pressure=...}
	coalesced        *telemetry.Counter    // xpvd_coalesced_answers_total
	batchQueries     *telemetry.Counter    // xpvd_batch_queries_total
	updates          *telemetry.Counter    // xpvd_updates_total
	updateErrs       *telemetry.Counter    // xpvd_update_errors_total

	drainLastNs *telemetry.Gauge // xpvd_drain_last_ns

	sloTrips *telemetry.Counter // xpvd_slo_watchdog_trips_total

	reqNs *telemetry.Histogram // xpvd_request_ns
}

func newServerMetrics(reg *telemetry.Registry) *serverMetrics {
	m := &serverMetrics{
		requests:     reg.Counter("xpvd_requests_total"),
		respOK:       reg.Counter("xpvd_responses_ok_total"),
		respClient:   reg.Counter("xpvd_responses_client_error_total"),
		respServer:   reg.Counter("xpvd_responses_server_error_total"),
		coalesced:    reg.Counter("xpvd_coalesced_answers_total"),
		batchQueries: reg.Counter("xpvd_batch_queries_total"),
		updates:      reg.Counter("xpvd_updates_total"),
		updateErrs:   reg.Counter("xpvd_update_errors_total"),
		drainLastNs:  reg.Gauge("xpvd_drain_last_ns"),
		sloTrips:     reg.Counter("xpvd_slo_watchdog_trips_total"),
		reqNs:        reg.Histogram("xpvd_request_ns"),
	}
	for _, pr := range []Pressure{Healthy, Pressured} {
		m.servedByPressure[pr] = reg.Counter(telemetry.WithLabel("xpvd_served_total", "pressure", pr.String()))
	}
	return m
}

// Server is the daemon core. Build with New, expose with Handler, stop
// with Shutdown.
type Server struct {
	cfg     Config
	adm     *admission
	tenants map[string]*Tenant
	flights plancache.Group
	met     *serverMetrics
	reg     *telemetry.Registry
	ready   atomic.Bool
	handler http.Handler

	clock    func() time.Time
	start    time.Time
	exporter *export.Exporter
	sloCfg   SLOConfig

	// burningTenants counts tenants whose SLO watchdog currently burns;
	// any > 0 forces Pressured grading at admission.
	burningTenants atomic.Int64
}

// New assembles a server over the given tenants. Tenant names must be
// unique; a tenant named DefaultTenant handles requests that name no
// tenant. Every tenant's System is pointed at the server's metrics
// registry and slow-query threshold.
func New(cfg Config, tenants []*Tenant) (*Server, error) {
	if len(tenants) == 0 {
		return nil, errors.New("server: no tenants configured")
	}
	cfg = cfg.withDefaults()
	reg := cfg.Metrics
	if reg == nil {
		reg = xpathviews.DefaultMetricsRegistry()
	}
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	s := &Server{
		cfg:      cfg,
		adm:      newAdmission(cfg.MaxInFlight, cfg.QueueDepth, cfg.QueueWait, cfg.PressuredFrac),
		tenants:  make(map[string]*Tenant, len(tenants)),
		met:      newServerMetrics(reg),
		reg:      reg,
		clock:    clock,
		start:    clock(),
		exporter: cfg.TraceExporter,
		sloCfg:   cfg.SLO.withDefaults(),
	}
	s.adm.queueWaitNs = reg.Histogram("xpvd_queue_wait_ns")
	for _, t := range tenants {
		if _, dup := s.tenants[t.cfg.Name]; dup {
			return nil, fmt.Errorf("server: duplicate tenant %q", t.cfg.Name)
		}
		s.tenants[t.cfg.Name] = t
		// Every xpv_* metric the tenant's private System records is
		// labeled with the tenant, so the shared exposition is sliceable
		// by who caused what.
		t.sys.SetMetricsTenant(reg, t.cfg.Name)
		if cfg.SlowQueryThreshold > 0 {
			t.sys.SetSlowQueryThreshold(cfg.SlowQueryThreshold)
		}
		label := func(name string) string { return telemetry.WithLabel(name, "tenant", t.cfg.Name) }
		t.reqs = reg.Counter(label("xpvd_tenant_requests_total"))
		t.shedNames = make(map[string]string, 4)
		for _, reason := range []string{ShedTenantLimit, ShedQueueFull, ShedQueueTimeout, ShedDraining} {
			t.shedNames[reason] = telemetry.WithLabel(label("xpvd_shed_total"), "reason", reason)
		}
		t.queueWaitNs = reg.Histogram(label("xpvd_queue_wait_ns"))
		t.reqNs = reg.Histogram(label("xpvd_tenant_request_ns"))
		sloCfg := s.sloCfg
		if t.cfg.SLOAvailability > 0 {
			sloCfg.Availability = t.cfg.SLOAvailability
		}
		if t.cfg.SLOLatencyMS > 0 {
			sloCfg.LatencyThreshold = time.Duration(t.cfg.SLOLatencyMS) * time.Millisecond
		}
		t.slo = newSLOTracker(sloCfg, clock)
		tt := t
		reg.GaugeFunc(label("xpvd_tenant_inflight"), tt.InFlight)
		reg.GaugeFunc(label("xpvd_tenant_slo_burning"),
			func() int64 {
				if tt.burning.Load() {
					return 1
				}
				return 0
			})
		reg.GaugeFunc(label("xpvd_tenant_views"),
			func() int64 { return int64(tt.sys.NumViews()) })
		reg.GaugeFunc(label("xpvd_tenant_view_bytes"),
			func() int64 { return int64(tt.sys.Registry().TotalBytes()) })
		reg.GaugeFunc(label("xpvd_tenant_plancache_len"),
			func() int64 { return int64(tt.sys.PlanCacheLen()) })
	}
	reg.GaugeFunc("xpvd_inflight", s.adm.inflight)
	reg.GaugeFunc("xpvd_queue_waiting", s.adm.waiting.Load)
	reg.GaugeFunc("xpvd_ready", func() int64 {
		if s.Ready() {
			return 1
		}
		return 0
	})
	reg.GaugeFunc("xpvd_draining", func() int64 {
		if s.adm.draining.Load() {
			return 1
		}
		return 0
	})
	if s.exporter != nil {
		reg.GaugeFunc("xpvd_trace_exported_total", s.exporter.Exported)
		reg.GaugeFunc("xpvd_trace_dropped_total", s.exporter.Dropped)
		reg.GaugeFunc("xpvd_trace_queue_len", s.exporter.QueueLen)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("POST /v1/update", s.handleUpdate)
	mux.HandleFunc("GET /v1/explain", s.handleExplain)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /statusz", s.handleStatusz)
	mux.HandleFunc("GET /v1/views", s.handleViews)
	s.handler = mux
	s.ready.Store(true)
	return s, nil
}

// Handler returns the daemon's HTTP surface.
func (s *Server) Handler() http.Handler { return s.handler }

// Ready reports whether the daemon accepts traffic (false once drain
// begins).
func (s *Server) Ready() bool { return s.ready.Load() && !s.adm.draining.Load() }

// Draining reports whether drain has begun.
func (s *Server) Draining() bool { return s.adm.draining.Load() }

// InFlight is the current process-wide admitted-query count.
func (s *Server) InFlight() int64 { return s.adm.inflight() }

// Tenant returns a configured tenant by name (nil if unknown).
func (s *Server) Tenant(name string) *Tenant { return s.tenants[name] }

// tenantFor resolves the request's tenant: the JSON/query-string name,
// then the X-Xpv-Tenant header, then DefaultTenant.
func (s *Server) tenantFor(name string, r *http.Request) *Tenant {
	if name == "" {
		name = r.Header.Get("X-Xpv-Tenant")
	}
	if name == "" {
		name = DefaultTenant
	}
	return s.tenants[name]
}

// ---------------------------------------------------------------------
// /v1/query

// queryRequest is the POST /v1/query body. Exactly one of Query (single)
// or Queries (batch) must be set.
type queryRequest struct {
	Tenant  string   `json:"tenant,omitempty"`
	Query   string   `json:"query,omitempty"`
	Queries []string `json:"queries,omitempty"`
	// Strategy: "resilient" (default — the degradation chain), or one of
	// BN | BF | MN | MV | HV | CV for a fixed strategy.
	Strategy   string `json:"strategy,omitempty"`
	MaxAnswers int    `json:"max_answers,omitempty"`
	TimeoutMS  int64  `json:"timeout_ms,omitempty"`
	IncludeXML bool   `json:"include_xml,omitempty"`
}

// queryResponse is one query's outcome (one element of a batch, or the
// whole body for a single query).
type queryResponse struct {
	Query           string   `json:"query"`
	TraceID         string   `json:"trace_id,omitempty"`
	Status          int      `json:"status"`
	Rung            string   `json:"rung,omitempty"`
	Pressure        string   `json:"pressure"`
	Degraded        bool     `json:"degraded,omitempty"`
	DegradedReasons []string `json:"degraded_reasons,omitempty"`
	Coalesced       bool     `json:"coalesced,omitempty"`
	Truncated       bool     `json:"truncated,omitempty"`
	PlanCacheHit    bool     `json:"plan_cache_hit,omitempty"`
	Answers         []string `json:"answers"`
	XML             []string `json:"xml,omitempty"`
	ElapsedNS       int64    `json:"elapsed_ns"`
	Error           string   `json:"error,omitempty"`

	// res, when set, is the answered Result: the encoder writes its codes
	// as "answers" in place of Answers, which stays nil.
	res *xpathviews.Result
}

type batchResponse struct {
	Tenant  string          `json:"tenant"`
	TraceID string          `json:"trace_id,omitempty"`
	Results []queryResponse `json:"results"`
}

type errorResponse struct {
	Error      string `json:"error"`
	RetryAfter int64  `json:"retry_after_ms,omitempty"`
}

// traceFor joins or starts the request's W3C trace context: a valid
// incoming traceparent header is continued (same trace ID, new span),
// anything else gets a fresh ID. The response always carries a
// traceparent header so callers can find the exported span tree.
func (s *Server) traceFor(w http.ResponseWriter, r *http.Request) (traceID string, tr *telemetry.Trace) {
	if tc, ok := telemetry.ParseTraceparent(r.Header.Get("traceparent")); ok {
		traceID = tc.TraceID
	} else {
		traceID = telemetry.NewTraceID()
	}
	w.Header().Set("Traceparent", telemetry.FormatTraceparent(traceID, telemetry.NewSpanID()))
	if s.exporter != nil {
		tr = telemetry.NewTrace("query")
		tr.SetID(traceID)
	}
	return traceID, tr
}

// exportTrace closes the root span and hands the tree to the exporter
// (non-blocking; a full queue counts a drop).
func (s *Server) exportTrace(tr *telemetry.Trace) {
	if tr == nil {
		return
	}
	tr.Root().End()
	s.exporter.Export(tr)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	s.met.requests.Inc()
	traceID, tr := s.traceFor(w, r)
	defer s.exportTrace(tr)
	var req queryRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&req); err != nil {
		tr.Root().Err(err)
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	if (req.Query == "") == (len(req.Queries) == 0) {
		s.writeError(w, http.StatusBadRequest,
			errors.New(`exactly one of "query" or "queries" must be set`))
		return
	}
	t := s.tenantFor(req.Tenant, r)
	if t == nil {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("unknown tenant %q", req.Tenant))
		return
	}
	t.reqs.Inc()
	tr.Root().SetAttr("tenant", t.cfg.Name)

	release, pr, err := s.adm.acquire(r.Context(), t)
	if err != nil {
		tr.Root().Err(err)
		s.shedResponse(w, t, err)
		return
	}
	defer release()
	tr.Root().SetAttr("pressure", pr.String())

	opts := optionsFor(t, pr, req.MaxAnswers, time.Duration(req.TimeoutMS)*time.Millisecond)
	opts.Trace = tr
	opts.TraceID = traceID
	if req.Query != "" {
		qr := s.answerOne(r.Context(), t, req.Query, req.Strategy, pr, opts, req.IncludeXML)
		qr.TraceID = traceID
		if qr.Coalesced {
			tr.Root().SetAttr("coalesced", true)
		}
		el := time.Since(t0)
		s.met.reqNs.Observe(int64(el))
		t.reqNs.ObserveExemplar(int64(el), traceID)
		s.recordSLO(t, qr.Status >= 500, el)
		s.countResponse(qr.Status)
		writeQuery(w, qr.Status, &qr, nil)
		return
	}
	// Batch: the whole batch runs under one admission slot (one client,
	// one unit of concurrency) — items run sequentially and coalesce with
	// other clients' identical in-flight queries through the singleflight.
	out := batchResponse{Tenant: t.cfg.Name, TraceID: traceID,
		Results: make([]queryResponse, 0, len(req.Queries))}
	failed := false
	for _, q := range req.Queries {
		s.met.batchQueries.Inc()
		qr := s.answerOne(r.Context(), t, q, req.Strategy, pr, opts, req.IncludeXML)
		failed = failed || qr.Status >= 500
		out.Results = append(out.Results, qr)
	}
	el := time.Since(t0)
	s.met.reqNs.Observe(int64(el))
	t.reqNs.ObserveExemplar(int64(el), traceID)
	s.recordSLO(t, failed, el)
	s.countResponse(http.StatusOK)
	writeQuery(w, http.StatusOK, nil, &out)
}

// recordSLO folds one request outcome into the tenant's burn-rate
// watchdog and edge-detects verdict flips: the first burning tenant
// forces Pressured grading at admission (pre-emptive shedding), the
// last recovery releases it.
func (s *Server) recordSLO(t *Tenant, availErr bool, latency time.Duration) {
	st := t.slo.Record(availErr, latency)
	if t.burning.Swap(st.Burning) == st.Burning {
		return
	}
	var n int64
	if st.Burning {
		n = s.burningTenants.Add(1)
		s.met.sloTrips.Inc()
	} else {
		n = s.burningTenants.Add(-1)
	}
	s.adm.forcePressured.Store(n > 0)
}

// coalesceKey keys the answer-level singleflight: same tenant, same
// strategy, same query text exactly as sent, same result-shaping options
// → same in-flight execution. The text is not normalized: two spellings
// that read alike with whitespace dropped may still parse differently,
// or one not at all.
func coalesceKey(tenant, strat string, pr Pressure, maxAnswers int, src string) string {
	return tenant + "\x00" + strat + "\x00" + pr.String() + "\x00" +
		strconv.Itoa(maxAnswers) + "\x00" + src
}

// answerOne serves one query for an admitted request, coalescing
// identical in-flight executions. The shared *Result is immutable once
// returned; responses only read it.
func (s *Server) answerOne(ctx context.Context, t *Tenant, src, strat string, pr Pressure, opts xpathviews.Options, includeXML bool) queryResponse {
	t0 := time.Now()
	qr := queryResponse{Query: src, Pressure: pr.String()}
	run := func() (any, error) {
		if strat == "" || strat == "resilient" {
			return t.sys.AnswerResilient(ctx, src, opts)
		}
		st, ok := parseStrategy(strat)
		if !ok {
			return nil, &badStrategyError{strat}
		}
		o := opts
		o.Strategy = st
		return t.sys.AnswerContext(ctx, src, o)
	}
	key := coalesceKey(t.cfg.Name, strat, pr, opts.MaxAnswers, src)
	v, err, shared := s.flights.Do(key, run)
	if shared && err != nil {
		// The leader failed on *its* context, budget, or pressure grade;
		// that verdict is not ours. Run solo.
		v, err = run()
		shared = false
	}
	if err != nil {
		qr.Status, qr.Error = statusForError(err), err.Error()
		qr.Answers = []string{}
		qr.ElapsedNS = int64(time.Since(t0))
		return qr
	}
	res := v.(*xpathviews.Result)
	if shared {
		s.met.coalesced.Inc()
		qr.Coalesced = true
	}
	s.met.servedByPressure[pr].Inc()
	qr.Status = http.StatusOK
	qr.Rung = res.Strategy.String()
	qr.Degraded = res.Degraded
	qr.DegradedReasons = res.DegradedReasons
	qr.Truncated = res.Truncated
	qr.PlanCacheHit = res.PlanCacheHit
	qr.res = res
	if includeXML {
		// xml[i] is the subtree of answers[i]: both follow Codes() order.
		qr.XML = make([]string, 0, len(res.Answers))
		for _, a := range res.InCodeOrder() {
			x, merr := xpathviews.MarshalAnswer(a)
			if merr != nil {
				x = ""
			}
			qr.XML = append(qr.XML, x)
		}
	}
	qr.ElapsedNS = int64(time.Since(t0))
	return qr
}

type badStrategyError struct{ name string }

func (e *badStrategyError) Error() string {
	return fmt.Sprintf("unknown strategy %q (want resilient, BN, BF, MN, MV, HV or CV)", e.name)
}

func parseStrategy(name string) (xpathviews.Strategy, bool) {
	for _, st := range []xpathviews.Strategy{xpathviews.BN, xpathviews.BF, xpathviews.MN,
		xpathviews.MV, xpathviews.HV, xpathviews.CV} {
		if st.String() == name {
			return st, true
		}
	}
	return 0, false
}

// statusForError maps a pipeline failure onto an HTTP status.
func statusForError(err error) int {
	var bad *badStrategyError
	switch {
	case errors.As(err, &bad):
		return http.StatusBadRequest
	case errors.Is(err, xpathviews.ErrNotAnswerable):
		return http.StatusUnprocessableEntity
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client went away; the status is for the log's benefit.
		return http.StatusServiceUnavailable
	case errors.Is(err, xpathviews.ErrBudgetExceeded):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// shedResponse renders an admission rejection: 429 for tenant-scoped
// quota, 503 for process saturation or drain, both with Retry-After.
// The shed is charged to the tenant's reason-labeled counter and SLO:
// process-scope sheds are availability misses the tenant did not cause;
// a tenant tripping its own quota is not.
func (s *Server) shedResponse(w http.ResponseWriter, t *Tenant, err error) {
	var shed *ShedError
	if !errors.As(err, &shed) {
		// The caller's context died while queued — not a server failure.
		s.recordSLO(t, false, -1)
		s.countResponse(http.StatusServiceUnavailable)
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
		return
	}
	s.reg.Counter(t.shedNames[shed.Reason]).Inc()
	s.recordSLO(t, shed.Scope == "process", -1)
	status := http.StatusServiceUnavailable
	if shed.Scope == "tenant" {
		status = http.StatusTooManyRequests
	}
	secs := int64(shed.RetryAfter.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	s.countResponse(status)
	writeJSON(w, status, errorResponse{Error: shed.Error(), RetryAfter: shed.RetryAfter.Milliseconds()})
}

func (s *Server) countResponse(status int) {
	switch {
	case status < 400:
		s.met.respOK.Inc()
	case status < 500:
		s.met.respClient.Inc()
	default:
		s.met.respServer.Inc()
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	s.countResponse(status)
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// writeJSON sends v as compact JSON; query responses go through
// writeQuery instead.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// ---------------------------------------------------------------------
// /v1/explain

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("query")
	if q == "" {
		s.writeError(w, http.StatusBadRequest, errors.New("missing query parameter"))
		return
	}
	t := s.tenantFor(r.URL.Query().Get("tenant"), r)
	if t == nil {
		s.writeError(w, http.StatusNotFound,
			fmt.Errorf("unknown tenant %q", r.URL.Query().Get("tenant")))
		return
	}
	strat := xpathviews.HV
	if name := r.URL.Query().Get("strategy"); name != "" {
		st, ok := parseStrategy(name)
		if !ok {
			s.writeError(w, http.StatusBadRequest, &badStrategyError{name})
			return
		}
		strat = st
	}
	// Explain runs the full pipeline — it is admitted like a query so a
	// debugging stampede cannot starve serving.
	release, pr, err := s.adm.acquire(r.Context(), t)
	if err != nil {
		s.shedResponse(w, t, err)
		return
	}
	defer release()
	opts := optionsFor(t, pr, 0, 0)
	opts.Strategy = strat
	ex, err := t.sys.ExplainContext(r.Context(), q, opts)
	if err != nil {
		s.writeError(w, statusForError(err), err)
		return
	}
	s.countResponse(http.StatusOK)
	writeJSON(w, http.StatusOK, ex)
}

// ---------------------------------------------------------------------
// /metrics, /healthz, /readyz

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_ = s.reg.WriteText(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.Ready() {
		fmt.Fprintln(w, "ready")
		return
	}
	w.WriteHeader(http.StatusServiceUnavailable)
	fmt.Fprintln(w, "draining")
}

// ---------------------------------------------------------------------
// Drain

// BeginDrain flips readiness and closes admission: /readyz answers 503
// (so load balancers stop routing here) and every new query is shed with
// 503 + Retry-After. In-flight queries are unaffected. Idempotent.
func (s *Server) BeginDrain() {
	s.adm.draining.Store(true)
	s.ready.Store(false)
}

// Drain blocks until every admitted query has finished, or ctx expires —
// in which case it reports how much work was abandoned.
func (s *Server) Drain(ctx context.Context) error {
	for !s.adm.idle() {
		select {
		case <-ctx.Done():
			return fmt.Errorf("server: drain deadline passed with %d queries in flight: %w",
				s.adm.inflight(), ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
	return nil
}

// Shutdown is the SIGTERM path: readiness flips first, then admission
// closes, then hs's listener closes and in-flight requests finish under
// ctx's deadline (use Config.DrainTimeout if the caller has no better
// bound), and finally the slow-query log and a metrics snapshot are
// flushed to Config.DrainLog. hs must be serving s.Handler(). The
// ordering guarantees a request admitted before drain began always
// completes or is cleanly rejected — never dropped mid-flight.
func (s *Server) Shutdown(ctx context.Context, hs *http.Server) error {
	t0 := time.Now()
	s.BeginDrain()
	err := hs.Shutdown(ctx) // closes listener, then waits for active conns
	if derr := s.Drain(ctx); err == nil {
		err = derr
	}
	s.met.drainLastNs.Set(int64(time.Since(t0)))
	s.flushDrainLog(err)
	// The exporter drains last so every span from in-flight requests
	// reaches the sink before it closes.
	if s.exporter != nil {
		if cerr := s.exporter.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// flushDrainLog writes the final observability snapshot: per-tenant slow
// queries (oldest first) and the full metrics exposition.
func (s *Server) flushDrainLog(drainErr error) {
	w := s.cfg.DrainLog
	if w == nil {
		return
	}
	fmt.Fprintf(w, "=== xpvserved drain flush (err=%v) ===\n", drainErr)
	names := make([]string, 0, len(s.tenants))
	for n := range s.tenants {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		for _, sq := range s.tenants[n].sys.SlowQueries() {
			fmt.Fprintf(w, "slow tenant=%s query=%q strategy=%s total=%v rung=%s err=%q\n",
				n, sq.Query, sq.Strategy, sq.Total, sq.Rung, sq.Err)
		}
	}
	_ = s.reg.WriteText(w)
}
