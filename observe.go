package xpathviews

// This file is the serving layer's observability wiring over
// internal/telemetry: the per-System metrics bundle (metric names are
// resolved once per registry, never on the hot path, and every labeled
// name is built by telemetry.WithLabel), the per-call observation state
// threaded through the pipeline (callObs), the slow-query log, and the
// text exposition (DumpMetrics). The span tree itself is emitted at the
// stage boundaries in serving.go/plan.go. Which signal answers which
// operator question is README's operator table.
//
// Cost model: with metrics enabled (the default), one Answer adds a
// handful of atomic adds and time.Now calls and zero allocations; with
// metrics disabled (SetMetricsRegistry(nil)) the bundle pointer is nil
// and every hook is a nil check. Tracing allocates, but only runs when
// the caller supplies Options.Trace or calls Explain.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"xpathviews/internal/budget"
	"xpathviews/internal/faults"
	"xpathviews/internal/telemetry"
)

// MetricsRegistry aliases the telemetry registry so embedders can build
// their own (NewMetricsRegistry), inspect the process default
// (DefaultMetricsRegistry), and dump either via WriteText.
type MetricsRegistry = telemetry.Registry

// Trace aliases the telemetry trace: a per-call span tree. Hand one to
// Options.Trace to record where a single query's time went.
type Trace = telemetry.Trace

// Span aliases one node of a Trace's span tree.
type Span = telemetry.Span

// SlowQuery aliases one slow-query log entry (see SlowQueries).
type SlowQuery = telemetry.SlowQuery

// NewMetricsRegistry builds an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.NewRegistry() }

// DefaultMetricsRegistry returns the process-wide default registry that
// every System records into unless overridden by SetMetricsRegistry.
func DefaultMetricsRegistry() *MetricsRegistry { return telemetry.Default() }

// NewTrace builds a trace whose root span is the serving call.
func NewTrace() *Trace { return telemetry.NewTrace("answer") }

// TraceContext aliases one parsed W3C traceparent header.
type TraceContext = telemetry.TraceContext

// ParseTraceparent parses a W3C traceparent header value (see
// internal/telemetry for the accepted layout).
func ParseTraceparent(s string) (TraceContext, bool) { return telemetry.ParseTraceparent(s) }

// FormatTraceparent renders a version-00 traceparent header with the
// sampled flag set.
func FormatTraceparent(traceID, spanID string) string {
	return telemetry.FormatTraceparent(traceID, spanID)
}

// NewTraceID generates a 16-byte (32 hex) W3C trace ID.
func NewTraceID() string { return telemetry.NewTraceID() }

// NewSpanID generates an 8-byte (16 hex) W3C span/parent ID.
func NewSpanID() string { return telemetry.NewSpanID() }

// servingMetrics is one registry's pre-resolved serving instruments.
// Holding the pointers keeps the hot path free of name lookups.
type servingMetrics struct {
	reg    *telemetry.Registry
	tenant string // label every name in this bundle carries ("" = none)

	answers     *telemetry.Counter // xpv_answers_total
	answerErrs  *telemetry.Counter // xpv_answer_errors_total
	errNotAns   *telemetry.Counter // xpv_errors_not_answerable_total
	errBudget   *telemetry.Counter // xpv_errors_budget_total
	errInternal *telemetry.Counter // xpv_errors_internal_total
	errCanceled *telemetry.Counter // xpv_errors_canceled_total

	planHits     *telemetry.Counter // xpv_plan_cache_hits_total
	planMisses   *telemetry.Counter // xpv_plan_cache_misses_total
	planBypass   *telemetry.Counter // xpv_plan_cache_bypass_total
	planNegative *telemetry.Counter // xpv_plan_negative_served_total

	rungServed    [len(strategyNames)]*telemetry.Counter // xpv_resilient_rung_served_total{rung=...}, by Strategy
	rungFallbacks *telemetry.Counter                     // xpv_resilient_fallbacks_total

	slowQueries *telemetry.Counter // xpv_slow_queries_total

	maintains        *telemetry.Counter // xpv_maintain_total
	maintainErrs     *telemetry.Counter // xpv_maintain_errors_total
	maintainDirty    *telemetry.Counter // xpv_maintain_dirty_views_total
	maintainFragsAdd *telemetry.Counter // xpv_maintain_fragments_added_total
	maintainFragsDel *telemetry.Counter // xpv_maintain_fragments_removed_total
	maintainNodes    *telemetry.Counter // xpv_maintain_nodes_scanned_total

	latTotal   *telemetry.Histogram // xpv_answer_ns
	latParse   *telemetry.Histogram // xpv_parse_ns
	latFilter  *telemetry.Histogram // xpv_filter_ns
	latSelect  *telemetry.Histogram // xpv_select_ns
	latRewrite *telemetry.Histogram // xpv_rewrite_ns
	// latMaintain records mutation call latency (see mutate.go).
	latMaintain *telemetry.Histogram // xpv_maintain_ns

	// View-observatory instruments (see viewstats_report.go). driftGauge
	// carries the latest workload-drift distance in ppm; driftEvents
	// counts upward threshold crossings; calErr records each call's
	// calibration relative error in ppm.
	driftGauge  *telemetry.Gauge     // xpv_workload_drift
	driftEvents *telemetry.Counter   // xpv_workload_drift_events_total
	calErr      *telemetry.Histogram // xpv_cost_calibration_err_ppm

	// joinsTotal counts joins actually run; memoHits the rewrites
	// served from a plan's remembered answers instead.
	memoHits   *telemetry.Counter // xpv_rewrite_memo_hits_total
	joinsTotal *telemetry.Counter // xpv_joins_total
}

// newServingMetrics resolves the serving bundle whose every metric name
// carries a {tenant="..."} label (none when tenant is ""). The System
// resolves it once when the registry is attached and keeps it only in
// obsPtr, so a dropped System releases its registry; recording
// afterwards is the same zero-allocation atomic path for labeled and
// unlabeled metrics. A nil registry yields nil (metrics off).
func newServingMetrics(reg *telemetry.Registry, tenant string) *servingMetrics {
	if reg == nil {
		return nil
	}
	name := func(base string) string {
		if tenant == "" {
			return base
		}
		return telemetry.WithLabel(base, "tenant", tenant)
	}
	m := &servingMetrics{
		reg:           reg,
		tenant:        tenant,
		answers:       reg.Counter(name("xpv_answers_total")),
		answerErrs:    reg.Counter(name("xpv_answer_errors_total")),
		errNotAns:     reg.Counter(name("xpv_errors_not_answerable_total")),
		errBudget:     reg.Counter(name("xpv_errors_budget_total")),
		errInternal:   reg.Counter(name("xpv_errors_internal_total")),
		errCanceled:   reg.Counter(name("xpv_errors_canceled_total")),
		planHits:      reg.Counter(name("xpv_plan_cache_hits_total")),
		planMisses:    reg.Counter(name("xpv_plan_cache_misses_total")),
		planBypass:    reg.Counter(name("xpv_plan_cache_bypass_total")),
		planNegative:  reg.Counter(name("xpv_plan_negative_served_total")),
		rungFallbacks: reg.Counter(name("xpv_resilient_fallbacks_total")),
		slowQueries:   reg.Counter(name("xpv_slow_queries_total")),

		maintains:        reg.Counter(name("xpv_maintain_total")),
		maintainErrs:     reg.Counter(name("xpv_maintain_errors_total")),
		maintainDirty:    reg.Counter(name("xpv_maintain_dirty_views_total")),
		maintainFragsAdd: reg.Counter(name("xpv_maintain_fragments_added_total")),
		maintainFragsDel: reg.Counter(name("xpv_maintain_fragments_removed_total")),
		maintainNodes:    reg.Counter(name("xpv_maintain_nodes_scanned_total")),

		latTotal:    reg.Histogram(name("xpv_answer_ns")),
		latParse:    reg.Histogram(name("xpv_parse_ns")),
		latFilter:   reg.Histogram(name("xpv_filter_ns")),
		latSelect:   reg.Histogram(name("xpv_select_ns")),
		latRewrite:  reg.Histogram(name("xpv_rewrite_ns")),
		latMaintain: reg.Histogram(name("xpv_maintain_ns")),

		driftGauge:  reg.Gauge(name("xpv_workload_drift")),
		driftEvents: reg.Counter(name("xpv_workload_drift_events_total")),
		calErr:      reg.HistogramCounts(name("xpv_cost_calibration_err_ppm")),

		memoHits:   reg.Counter(name("xpv_rewrite_memo_hits_total")),
		joinsTotal: reg.Counter(name("xpv_joins_total")),
	}
	for st, n := range strategyNames {
		m.rungServed[st] = reg.Counter(name(telemetry.WithLabel("xpv_resilient_rung_served_total", "rung", n)))
	}
	return m
}

// defaultMetrics is the process default registry's unlabeled bundle,
// resolved on first use. A System opens on it (pendingDefault) but
// resolves it only when a call first records: a daemon re-points every
// tenant's System at labeled names before serving, so it must not leave
// a never-used unlabeled family set on the shared registry.
var defaultMetrics = sync.OnceValue(func() *servingMetrics {
	return newServingMetrics(telemetry.Default(), "")
})

// pendingDefault is the obsPtr value of a System still on defaultMetrics.
var pendingDefault = new(servingMetrics)

// metrics returns the bundle a call records into (nil = metrics off).
func (s *System) metrics() *servingMetrics {
	m := s.obsPtr.Load()
	if m == pendingDefault {
		return defaultMetrics()
	}
	return m
}

// init hooks the global fault-injection registry: every actual
// injection counts on the default registry, per point. Injections are
// test/chaos-only events, so the name formatting here is off any hot
// path.
func init() {
	faults.SetObserver(func(name string) {
		telemetry.Default().Counter(telemetry.WithLabel("xpv_fault_injected_total", "point", name)).Inc()
	})
}

// SetMetricsRegistry points the system's serving metrics at reg. nil
// disables metrics entirely (the per-call cost drops to nil checks).
func (s *System) SetMetricsRegistry(reg *MetricsRegistry) {
	s.obsPtr.Store(newServingMetrics(reg, ""))
}

// SetMetricsTenant points the system's serving metrics at reg with
// every metric name labeled {tenant="name"}, and stamps the tenant on
// slow-query log entries. The labeled fast path is identical to the
// unlabeled one — names resolve once here, recording stays
// allocation-free. An empty name behaves like SetMetricsRegistry.
func (s *System) SetMetricsTenant(reg *MetricsRegistry, name string) {
	s.obsPtr.Store(newServingMetrics(reg, name))
	s.slow.SetLabel(name)
}

// MetricsRegistry returns the registry the system currently records
// into, or nil when metrics are disabled.
func (s *System) MetricsRegistry() *MetricsRegistry {
	if m := s.obsPtr.Load(); m == pendingDefault {
		return telemetry.Default()
	} else if m != nil {
		return m.reg
	}
	return nil
}

// SetSlowQueryThreshold arms the slow-query log: every serving call
// whose total latency reaches d is recorded in a fixed-size ring
// (newest DefaultSlowLogCapacity entries). d <= 0 disables the log.
func (s *System) SetSlowQueryThreshold(d time.Duration) { s.slow.SetThreshold(d) }

// SlowQueries returns the retained slow-query log entries, oldest
// first.
func (s *System) SlowQueries() []SlowQuery { return s.slow.Snapshot() }

// DumpMetrics writes the expvar-style text exposition: the metrics
// registry (the system's current one, or the process default when
// metrics are disabled), followed by the system's live gauges — plan
// cache evictions, invalidations, admission refusals and size, and the
// view count.
// Plan-cache hits and misses are the per-call
// xpv_plan_cache_{hits,misses}_total counters of the registry, and
// slow calls are xpv_slow_queries_total. Embedding HTTP servers can
// serve this directly.
func (s *System) DumpMetrics(w io.Writer) error {
	reg := s.MetricsRegistry()
	if reg == nil {
		reg = telemetry.Default()
	}
	if err := reg.WriteText(w); err != nil {
		return err
	}
	st := s.plans.Stats()
	_, err := fmt.Fprintf(w,
		"xpv_plancache_evictions %d\nxpv_plancache_invalidations %d\nxpv_plancache_rejected %d\nxpv_plancache_len %d\nxpv_views %d\n",
		st.Evictions, st.Invalidations, st.Rejected, s.PlanCacheLen(), s.NumViews())
	return err
}

// callEpoch anchors the calls' clock: time.Since(callEpoch) reads the
// monotonic clock alone, once.
var callEpoch = time.Now()

// callObs is one serving call's observation state, passed by value down
// the pipeline. The zero value (all nil) is fully inert.
type callObs struct {
	m       *servingMetrics // nil = metrics off
	sp      *telemetry.Span // current parent span; nil = tracing off
	ex      *explainSink    // nil unless the call came from Explain
	traceID string          // W3C trace ID for exemplars + slow log ("" = none)
}

// startObs resolves the call's observation state and its start time on
// the callEpoch clock.
func (s *System) startObs(opts Options) (callObs, time.Duration) {
	co := callObs{m: s.metrics(), sp: opts.Trace.Root(), ex: opts.explain, traceID: opts.TraceID}
	if co.traceID == "" {
		co.traceID = opts.Trace.ID()
	}
	return co, time.Since(callEpoch)
}

// child opens a stage span under the current parent (nil when tracing
// is off).
func (co callObs) child(name string) *telemetry.Span { return co.sp.Child(name) }

// withSpan rebases the observation state under a new parent span.
func (co callObs) withSpan(sp *telemetry.Span) callObs {
	co.sp = sp
	return co
}

// countPlan records the plan-cache outcome of a call that reached a view
// rung: a bypass (a metric only), a hit or a miss.
func (s *System) countPlan(co callObs, hit, cached bool) {
	switch {
	case !cached:
		if co.m != nil {
			co.m.planBypass.Inc()
		}
	case hit:
		s.planHits.Add(1)
		if co.m != nil {
			co.m.planHits.Inc()
		}
	default:
		s.planMisses.Add(1)
		if co.m != nil {
			co.m.planMisses.Inc()
		}
	}
}

// abandon closes the root span for a call that failed before the
// pipeline ran (unparsable query, dead context). No metrics are
// recorded: the pipeline never started.
func (co callObs) abandon(err error) {
	if co.sp != nil {
		co.sp.Err(err)
		co.sp.End()
	}
}

// annotatePlanSpan closes a "plan" stage span with its cache outcome.
func annotatePlanSpan(sp *telemetry.Span, pl *queryPlan, cache string) {
	if sp == nil {
		return
	}
	sp.SetAttr("cache", cache)
	sp.SetAttr("negative", pl.err != nil)
	sp.SetAttr("candidates", pl.info.cand)
	sp.End()
}

// finishCall closes out one serving call started at t0 (startObs): the
// result's stage times read off the answering rung's meter b, error
// classification counters, latency histograms, root span attributes,
// budget spend for explain, and the slow-query log.
func (s *System) finishCall(co callObs, b *budget.B, t0 time.Duration, src, strat string, res *Result, err error) {
	total := time.Since(callEpoch) - t0
	if res != nil {
		res.TotalNanos = int64(total)
		res.FilterNanos, res.SelectNanos = b.Nanos(budget.Filter), b.Nanos(budget.Select)
		res.RefineNanos, res.JoinNanos, res.ExtractNanos = b.Nanos(budget.Refine), b.Nanos(budget.Join), b.Nanos(budget.Extract)
		if res.Memo && co.sp == nil && isViewStrategy(res.Strategy) {
			// A replayed memo hit took no lap: charge the rest of the
			// call to extraction, the one §V stage it runs.
			res.ExtractNanos = res.TotalNanos - res.ParseNanos - res.FilterNanos - res.SelectNanos
		}
	}
	if co.sp != nil || co.ex != nil {
		steps, homs := b.Spent()
		if co.sp != nil {
			co.sp.SetAttr("strategy", strat)
			if res != nil {
				co.sp.SetAttr("answers", len(res.Answers))
			}
			if b != nil {
				co.sp.SetAttr("budget_steps", steps)
				co.sp.SetAttr("budget_homs", homs)
			}
			co.sp.Err(err)
			co.sp.End()
		}
		if co.ex != nil {
			co.ex.steps, co.ex.homs = steps, homs
		}
	}
	if m := co.m; m != nil {
		m.answers.Inc()
		// A propagated trace ID makes this observation an exemplar
		// candidate: the latency bucket retains the ID so a p99 bucket
		// resolves to a concrete exported trace.
		m.latTotal.ObserveExemplar(int64(total), co.traceID)
		if res != nil {
			if res.ParseNanos > 0 {
				m.latParse.Observe(res.ParseNanos)
			}
			if res.FilterNanos > 0 {
				m.latFilter.Observe(res.FilterNanos)
			}
			if res.SelectNanos > 0 {
				m.latSelect.Observe(res.SelectNanos)
			}
			rw := res.RefineNanos + res.JoinNanos + res.ExtractNanos
			if rw > 0 {
				m.latRewrite.Observe(rw)
			}
		}
		if err != nil {
			m.answerErrs.Inc()
			switch {
			case errors.Is(err, ErrNotAnswerable):
				m.errNotAns.Inc()
			case errors.Is(err, ErrBudgetExceeded):
				m.errBudget.Inc()
			case errors.Is(err, ErrInternal):
				m.errInternal.Inc()
			case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
				m.errCanceled.Inc()
			}
		}
	}
	if th := s.slow.Threshold(); th > 0 && total >= th {
		if co.m != nil {
			co.m.slowQueries.Inc()
		}
		e := SlowQuery{
			Time:     time.Now(),
			Query:    src,
			Strategy: strat,
			Total:    total,
			TraceID:  co.traceID,
		}
		if err != nil {
			e.Err = err.Error()
		}
		if res != nil {
			if strat == "resilient" {
				e.Rung = res.Strategy.String()
			}
			e.CacheHit = res.PlanCacheHit
			e.Memo = res.Memo
			e.Views = res.ViewsUsed
			e.Parse = time.Duration(res.ParseNanos)
			e.Filter = time.Duration(res.FilterNanos)
			e.Select = time.Duration(res.SelectNanos)
			e.Rewrite = time.Duration(res.RefineNanos + res.JoinNanos + res.ExtractNanos)
		}
		s.slow.Record(e)
	}
}
