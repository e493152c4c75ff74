package server

// GET /statusz: the operator's one-page view of serving health — uptime,
// admission state, trace-export counters, and each tenant's SLO burn
// rates with its p99 latency exemplar (a trace ID that resolves to an
// exported span tree, so "why is p99 high" is one grep away).
//
// Renders deterministic text by default (the golden test pins the bytes
// under an injected clock on a quiet server), JSON with ?format=json,
// and appends a runtime/metrics scrape with ?runtime=1 — opt-in because
// runtime numbers are nondeterministic by nature.

import (
	"fmt"
	"net/http"
	"runtime/metrics"
	"sort"
	"strings"

	"xpathviews/internal/telemetry"
)

// statuszTenant is one tenant's row of the report.
type statuszTenant struct {
	Name     string `json:"name"`
	InFlight int64  `json:"inflight"`
	Views    int    `json:"views"`
	// The tenant's resolved objectives.
	Availability       float64 `json:"slo_availability"`
	LatencyObjective   float64 `json:"slo_latency_objective"`
	LatencyThresholdMS int64   `json:"slo_latency_threshold_ms"`
	// SLO is the live burn-rate verdict.
	SLO SLOStatus `json:"slo"`
	// P99Exemplar is the trace ID last sampled in the tenant's highest
	// populated latency bucket (absent until traffic lands there).
	P99Exemplar *telemetry.Exemplar `json:"p99_exemplar,omitempty"`
	// View-observatory summary: workload-drift distance (ppm of total
	// variation) and cumulative threshold crossings, the global
	// cost-model calibration error with the observation count behind it
	// (0 = the model was never checked), and one compact row per view.
	// GET /v1/views serves the full report.
	DriftArmed     bool          `json:"drift_armed"`
	DriftPPM       int64         `json:"drift_ppm"`
	DriftEvents    int64         `json:"drift_events"`
	CalibrationErr float64       `json:"calibration_err"`
	CalibrationObs int64         `json:"calibration_obs"`
	ViewStats      []statuszView `json:"view_stats,omitempty"`
}

// statuszView is one view's compact observatory row.
type statuszView struct {
	ID             int     `json:"id"`
	Hits           int64   `json:"hits"`
	Bytes          int     `json:"bytes"`
	BenefitPerKB   float64 `json:"benefit_per_kb"`
	NetBenefitKB   float64 `json:"net_benefit_per_kb"`
	CalibrationErr float64 `json:"calibration_err"`
	CalibrationObs int64   `json:"calibration_obs"`
	LastSpliceSize int64   `json:"last_splice_size"`
}

// statuszTrace reports the exporter's counters.
type statuszTrace struct {
	Exported int64 `json:"exported"`
	Dropped  int64 `json:"dropped"`
	QueueLen int64 `json:"queue_len"`
}

// statuszReport is the full /statusz JSON shape.
type statuszReport struct {
	UptimeS        int64           `json:"uptime_s"`
	Ready          bool            `json:"ready"`
	Draining       bool            `json:"draining"`
	InFlight       int64           `json:"inflight"`
	QueueWaiting   int64           `json:"queue_waiting"`
	BurningTenants int64           `json:"burning_tenants"`
	PressureForced bool            `json:"pressure_forced"`
	Trace          *statuszTrace   `json:"trace,omitempty"`
	Tenants        []statuszTenant `json:"tenants"`
	Runtime        []runtimeSample `json:"runtime,omitempty"`
}

// runtimeSample is one runtime/metrics reading.
type runtimeSample struct {
	Name  string `json:"name"`
	Value any    `json:"value"`
}

// runtimeSamples scrapes a fixed, ordered set of runtime/metrics
// readings — enough to answer "is it the GC or the scheduler" without
// attaching a profiler.
func runtimeSamples() []runtimeSample {
	names := []string{
		"/gc/cycles/total:gc-cycles",
		"/gc/heap/allocs:bytes",
		"/gc/heap/goal:bytes",
		"/memory/classes/heap/objects:bytes",
		"/memory/classes/total:bytes",
		"/sched/goroutines:goroutines",
	}
	samples := make([]metrics.Sample, len(names))
	for i, n := range names {
		samples[i].Name = n
	}
	metrics.Read(samples)
	out := make([]runtimeSample, 0, len(samples))
	for _, sm := range samples {
		var v any
		switch sm.Value.Kind() {
		case metrics.KindUint64:
			v = sm.Value.Uint64()
		case metrics.KindFloat64:
			v = sm.Value.Float64()
		default:
			continue // histogram-kind samples have no scalar rendering here
		}
		out = append(out, runtimeSample{Name: sm.Name, Value: v})
	}
	return out
}

// statusz assembles the report. Tenants are sorted by name so both
// renderings are deterministic.
func (s *Server) statusz(withRuntime bool) statuszReport {
	rep := statuszReport{
		UptimeS:        int64(s.clock().Sub(s.start).Seconds()),
		Ready:          s.Ready(),
		Draining:       s.Draining(),
		InFlight:       s.adm.inflight(),
		QueueWaiting:   s.adm.waiting.Load(),
		BurningTenants: s.burningTenants.Load(),
		PressureForced: s.adm.forcePressured.Load(),
		Tenants:        make([]statuszTenant, 0, len(s.tenants)),
	}
	if s.exporter != nil {
		rep.Trace = &statuszTrace{
			Exported: s.exporter.Exported(),
			Dropped:  s.exporter.Dropped(),
			QueueLen: s.exporter.QueueLen(),
		}
	}
	names := make([]string, 0, len(s.tenants))
	for n := range s.tenants {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t := s.tenants[n]
		cfg := t.slo.Config()
		row := statuszTenant{
			Name:               n,
			InFlight:           t.InFlight(),
			Views:              t.sys.NumViews(),
			Availability:       cfg.Availability,
			LatencyObjective:   cfg.LatencyObjective,
			LatencyThresholdMS: cfg.LatencyThreshold.Milliseconds(),
			SLO:                t.slo.Status(),
		}
		if ex, ok := t.reqNs.TailExemplar(); ok {
			e := ex
			row.P99Exemplar = &e
		}
		vs := t.sys.ViewStatsReport()
		row.DriftArmed = vs.DriftArmed
		row.DriftPPM = vs.DriftPPM
		row.DriftEvents = vs.DriftEvents
		row.CalibrationErr, row.CalibrationObs = vs.CalibrationErr, vs.CalibrationObs
		for _, v := range vs.Views {
			row.ViewStats = append(row.ViewStats, statuszView{
				ID:             v.ID,
				Hits:           v.Hits,
				Bytes:          v.Bytes,
				BenefitPerKB:   v.BenefitPerKB,
				NetBenefitKB:   v.NetBenefitPerKB,
				CalibrationErr: v.CalibrationErr,
				CalibrationObs: v.CalibrationObs,
				LastSpliceSize: v.LastSpliceSize,
			})
		}
		rep.Tenants = append(rep.Tenants, row)
	}
	if withRuntime {
		rep.Runtime = runtimeSamples()
	}
	return rep
}

// writeStatuszText renders the deterministic text form.
func writeStatuszText(b *strings.Builder, rep statuszReport) {
	fmt.Fprintf(b, "xpvserved statusz\n")
	fmt.Fprintf(b, "uptime_s: %d\n", rep.UptimeS)
	fmt.Fprintf(b, "ready: %t\n", rep.Ready)
	fmt.Fprintf(b, "draining: %t\n", rep.Draining)
	fmt.Fprintf(b, "inflight: %d\n", rep.InFlight)
	fmt.Fprintf(b, "queue_waiting: %d\n", rep.QueueWaiting)
	fmt.Fprintf(b, "burning_tenants: %d\n", rep.BurningTenants)
	fmt.Fprintf(b, "pressure_forced: %t\n", rep.PressureForced)
	if rep.Trace != nil {
		fmt.Fprintf(b, "trace_exported: %d\n", rep.Trace.Exported)
		fmt.Fprintf(b, "trace_dropped: %d\n", rep.Trace.Dropped)
		fmt.Fprintf(b, "trace_queue_len: %d\n", rep.Trace.QueueLen)
	}
	for _, t := range rep.Tenants {
		fmt.Fprintf(b, "\ntenant %s\n", t.Name)
		fmt.Fprintf(b, "  inflight: %d\n", t.InFlight)
		fmt.Fprintf(b, "  views: %d\n", t.Views)
		fmt.Fprintf(b, "  slo: availability=%.3f latency_objective=%.3f latency_threshold_ms=%d\n",
			t.Availability, t.LatencyObjective, t.LatencyThresholdMS)
		fmt.Fprintf(b, "  requests_long_window: %d\n", t.SLO.Requests)
		fmt.Fprintf(b, "  availability_burn: short=%.2f long=%.2f\n",
			t.SLO.AvailabilityShortBurn, t.SLO.AvailabilityLongBurn)
		fmt.Fprintf(b, "  latency_burn: short=%.2f long=%.2f\n",
			t.SLO.LatencyShortBurn, t.SLO.LatencyLongBurn)
		fmt.Fprintf(b, "  burning: %t\n", t.SLO.Burning)
		if t.P99Exemplar != nil {
			fmt.Fprintf(b, "  p99_exemplar: trace_id=%s value_ns=%d\n",
				t.P99Exemplar.TraceID, t.P99Exemplar.ValueNs)
		}
		fmt.Fprintf(b, "  drift: armed=%t ppm=%d events=%d\n",
			t.DriftArmed, t.DriftPPM, t.DriftEvents)
		// An error with no observation behind it is unmeasured, not
		// perfect: it prints as n/a.
		if t.CalibrationObs == 0 {
			fmt.Fprintf(b, "  calibration_err: n/a (0 obs)\n")
		} else {
			fmt.Fprintf(b, "  calibration_err: %.3f (%d obs)\n", t.CalibrationErr, t.CalibrationObs)
		}
		for _, v := range t.ViewStats {
			cal := "cal_err=n/a"
			if v.CalibrationObs > 0 {
				cal = fmt.Sprintf("cal_err=%.3f cal_obs=%d", v.CalibrationErr, v.CalibrationObs)
			}
			fmt.Fprintf(b, "  view %d: hits=%d bytes=%d benefit_kb=%.2f net_kb=%.2f %s last_splice=%d\n",
				v.ID, v.Hits, v.Bytes, v.BenefitPerKB, v.NetBenefitKB, cal, v.LastSpliceSize)
		}
	}
	for _, sm := range rep.Runtime {
		fmt.Fprintf(b, "\nruntime %s: %v", sm.Name, sm.Value)
	}
	if len(rep.Runtime) > 0 {
		b.WriteByte('\n')
	}
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	rep := s.statusz(r.URL.Query().Get("runtime") == "1")
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, http.StatusOK, rep)
		return
	}
	var b strings.Builder
	writeStatuszText(&b, rep)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}
