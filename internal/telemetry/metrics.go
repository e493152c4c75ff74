// Package telemetry is the serving pipeline's observability core: an
// always-cheap metrics registry (atomic counters, gauges, fixed-bucket
// latency histograms with percentile snapshots), a per-query trace span
// tree, and a slow-query ring buffer.
//
// Design constraints, in order:
//
//  1. The disabled path must cost nothing. Every type in this package is
//     nil-safe — a nil *Counter, *Histogram, *Span or *Registry turns
//     every method into a no-op — so the serving layer can thread nil
//     through its hot path without branching on a config struct.
//  2. The enabled metrics path must be allocation-free. Counters, gauges
//     and histograms are fixed-size atomics; recording never takes a
//     lock or touches a map. Name→metric resolution happens once at
//     registration, not per observation.
//  3. Tracing may allocate (it builds a tree), because it is per-call
//     opt-in: a query runs with a span tree only when the caller hands
//     one in (Options.Trace, System.Explain).
package telemetry

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; a nil *Counter is a no-op.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative n is ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count; 0 for a nil counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. A nil *Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value; 0 for a nil gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram bucket layout: bucket i counts observations v (in
// nanoseconds) with v <= histBase<<i; the last bucket is the overflow.
// histBase = 1µs and 26 doubling buckets span 1µs … ~33.5s, which covers
// everything from a plan-cache hit to a pathological exact selection.
const (
	histBase    = 1000 // ns: first bucket upper bound (1µs)
	histBuckets = 27   // 26 doubling buckets + overflow
)

// Histogram is a fixed-bucket latency histogram over nanosecond
// observations. Recording is one atomic add plus two bookkeeping adds;
// there is no lock and no allocation. A nil *Histogram is a no-op.
//
// Each bucket can additionally hold one trace-ID exemplar (see
// ObserveExemplar): a concrete observation linking the bucket to an
// exported trace, so a p99 spike resolves to a real request.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64

	// exemplars[i] is bucket i's retained exemplar; exSeen[i] is the
	// per-bucket ordinal driving the sampling rule.
	exemplars [histBuckets]atomic.Pointer[Exemplar]
	exSeen    [histBuckets]atomic.Int64
}

// Exemplar links one histogram observation to the trace that produced
// it.
type Exemplar struct {
	// TraceID is the W3C trace ID of the request whose latency landed
	// in the bucket.
	TraceID string `json:"trace_id"`
	// ValueNs is the observed value.
	ValueNs int64 `json:"value_ns"`
}

// exemplarEvery is the steady-state exemplar sampling stride: a
// bucket's first observation is always retained, then every
// exemplarEvery-th replaces it, keeping exemplars fresh on hot buckets
// without allocating per observation.
const exemplarEvery = 64

// bucketIndex maps a nanosecond value onto its bucket.
func bucketIndex(ns int64) int {
	if ns <= histBase {
		return 0
	}
	// v <= histBase<<i  ⇔  ceil(v/histBase) <= 1<<i.
	q := uint64((ns + histBase - 1) / histBase)
	i := bits.Len64(q - 1)
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// bucketBound returns bucket i's upper bound in nanoseconds (the
// overflow bucket reports twice the last finite bound).
func bucketBound(i int) int64 {
	if i >= histBuckets-1 {
		return histBase << histBuckets
	}
	return histBase << i
}

// Observe records one duration in nanoseconds. Non-positive values are
// clamped into the first bucket (a stage can legitimately measure 0 on
// a coarse clock).
func (h *Histogram) Observe(ns int64) {
	if h == nil {
		return
	}
	if ns < 0 {
		ns = 0
	}
	h.buckets[bucketIndex(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
}

// ObserveExemplar records one duration and, when traceID is non-empty,
// considers it as the owning bucket's exemplar under the sampling rule
// (first observation, then every exemplarEvery-th). The metric path is
// identical to Observe; only a sampled-in exemplar allocates.
func (h *Histogram) ObserveExemplar(ns int64, traceID string) {
	if h == nil {
		return
	}
	if ns < 0 {
		ns = 0
	}
	i := bucketIndex(ns)
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	if traceID == "" {
		return
	}
	if n := h.exSeen[i].Add(1); n == 1 || n%exemplarEvery == 0 {
		h.exemplars[i].Store(&Exemplar{TraceID: traceID, ValueNs: ns})
	}
}

// TailExemplar returns the exemplar of the highest populated bucket
// (the slowest retained observation, the one a p99 investigation
// wants), or a zero Exemplar and false.
func (h *Histogram) TailExemplar() (Exemplar, bool) {
	if h == nil {
		return Exemplar{}, false
	}
	for i := histBuckets - 1; i >= 0; i-- {
		if e := h.exemplars[i].Load(); e != nil {
			return *e, true
		}
	}
	return Exemplar{}, false
}

// HistSnapshot is a point-in-time read of a histogram. Percentiles are
// linearly interpolated inside the owning bucket, so they are upper-
// bound estimates with at most one bucket width of error.
type HistSnapshot struct {
	Count int64 `json:"count"`
	SumNs int64 `json:"sum_ns"`
	P50Ns int64 `json:"p50_ns"`
	P95Ns int64 `json:"p95_ns"`
	P99Ns int64 `json:"p99_ns"`
}

// CountHistSnapshot is a point-in-time read of an unitless histogram
// (HistogramCounts): identical layout to HistSnapshot, rendered without
// the _ns unit suffixes.
type CountHistSnapshot struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	P50   int64 `json:"p50"`
	P95   int64 `json:"p95"`
	P99   int64 `json:"p99"`
}

// Snapshot reads the histogram. Buckets are loaded individually, so a
// snapshot taken during concurrent writes is approximate (never torn
// per bucket, possibly off by in-flight observations across buckets).
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	var counts [histBuckets]int64
	var total int64
	for i := range counts {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	s.Count = h.count.Load()
	s.SumNs = h.sum.Load()
	if total == 0 {
		return s
	}
	s.P50Ns = percentile(&counts, total, 0.50)
	s.P95Ns = percentile(&counts, total, 0.95)
	s.P99Ns = percentile(&counts, total, 0.99)
	return s
}

// percentile finds the bucket holding the p-quantile observation and
// interpolates linearly between the bucket's bounds.
func percentile(counts *[histBuckets]int64, total int64, p float64) int64 {
	rank := int64(p * float64(total))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo := int64(0)
			if i > 0 {
				lo = bucketBound(i - 1)
			}
			hi := bucketBound(i)
			frac := float64(rank-cum) / float64(c)
			return lo + int64(frac*float64(hi-lo))
		}
		cum += c
	}
	return bucketBound(histBuckets - 1)
}

// Registry holds named metrics. Lookups (Counter, Gauge, Histogram) are
// get-or-create and intended for registration time — hot paths should
// resolve their metrics once and hold the pointers. A nil *Registry
// returns nil metrics, which are themselves no-ops, so "disabled" is
// just a nil registry.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	hists      map[string]*Histogram
	gaugeFuncs map[string]func() int64
	// unitless marks histograms registered via HistogramCounts: their
	// exposition rows drop the _ns unit suffixes (the observations are
	// counts, not nanoseconds). Allocated lazily.
	unitless map[string]bool
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		hists:      map[string]*Histogram{},
		gaugeFuncs: map[string]func() int64{},
	}
}

// std is the package-level default registry; systems record here unless
// given their own.
var std = NewRegistry()

// Default returns the package-level default registry.
func Default() *Registry { return std }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// HistogramCounts returns the named histogram, creating it on first
// use, and marks it unitless: the bucket layout is the same
// doubling-bucket scheme, but WriteText renders its rows as
// _count/_sum/_p50/_p95/_p99 — no _ns suffix — because observations are
// not durations (xpv_cost_calibration_err_ppm records errors in ppm).
func (r *Registry) HistogramCounts(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	if r.unitless == nil {
		r.unitless = map[string]bool{}
	}
	r.unitless[name] = true
	return h
}

// GaugeFunc registers a callback evaluated at exposition time
// (WriteText) — for values owned elsewhere, like a cache's entry count.
// Re-registering a name replaces the callback.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFuncs[name] = fn
}

// Reset zeroes every registered metric (counters, gauges, histograms)
// and drops gauge funcs. Intended for tests.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.v.Store(0)
	}
	for _, h := range r.hists {
		for i := range h.buckets {
			h.buckets[i].Store(0)
			h.exemplars[i].Store(nil)
			h.exSeen[i].Store(0)
		}
		h.count.Store(0)
		h.sum.Store(0)
	}
	r.gaugeFuncs = map[string]func() int64{}
}

// snapshotLine is one exposition row.
type snapshotLine struct {
	name  string
	value any // int64 or HistSnapshot
}

// snapshot collects every metric under the lock, in deterministic
// order: kinds are gathered in a fixed sequence (counters, gauges, gauge
// funcs, histograms), each sorted by name, then stably sorted by name
// overall — so two metrics of different kinds sharing a name always
// appear in the same relative order, run after run. Histograms expand to
// one HistSnapshot value.
func (r *Registry) snapshot() []snapshotLine {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	lines := make([]snapshotLine, 0,
		len(r.counters)+len(r.gauges)+len(r.hists)+len(r.gaugeFuncs))
	for _, n := range sortedKeys(r.counters) {
		lines = append(lines, snapshotLine{n, r.counters[n].Value()})
	}
	for _, n := range sortedKeys(r.gauges) {
		lines = append(lines, snapshotLine{n, r.gauges[n].Value()})
	}
	for _, n := range sortedKeys(r.gaugeFuncs) {
		lines = append(lines, snapshotLine{n, r.gaugeFuncs[n]()})
	}
	for _, n := range sortedKeys(r.hists) {
		hs := r.hists[n].Snapshot()
		if r.unitless[n] {
			lines = append(lines, snapshotLine{n, CountHistSnapshot{
				Count: hs.Count, Sum: hs.SumNs, P50: hs.P50Ns, P95: hs.P95Ns, P99: hs.P99Ns}})
		} else {
			lines = append(lines, snapshotLine{n, hs})
		}
	}
	sort.SliceStable(lines, func(i, j int) bool { return lines[i].name < lines[j].name })
	return lines
}

// sortedKeys returns m's keys in sorted order, lifting the snapshot out
// of map iteration order (which changes per run).
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// WriteText writes every metric as expvar-style "name value" lines in
// deterministic, fully sorted order: histograms expand to _count/
// _sum_ns/_p50_ns/_p95_ns/_p99_ns rows *before* sorting, so the emitted
// lines are lexicographic by exposed name and a /metrics scrape (or a
// golden test) is byte-stable across runs for the same metric values.
// A row suffix joins the family name, ahead of any label set
// (`xpv_answer_ns_count{tenant="a"}`), as the Prometheus text format
// requires.
func (r *Registry) WriteText(w io.Writer) error {
	snap := r.snapshot()
	rows := make([]snapshotLine, 0, len(snap))
	for _, l := range snap {
		family, labels := l.name, ""
		if i := strings.IndexByte(family, '{'); i >= 0 {
			family, labels = family[:i], family[i:]
		}
		row := func(suffix string, v any) snapshotLine { return snapshotLine{family + suffix + labels, v} }
		switch v := l.value.(type) {
		case HistSnapshot:
			rows = append(rows,
				row("_count", v.Count),
				row("_sum_ns", v.SumNs),
				row("_p50_ns", v.P50Ns),
				row("_p95_ns", v.P95Ns),
				row("_p99_ns", v.P99Ns))
		case CountHistSnapshot:
			rows = append(rows,
				row("_count", v.Count),
				row("_sum", v.Sum),
				row("_p50", v.P50),
				row("_p95", v.P95),
				row("_p99", v.P99))
		default:
			rows = append(rows, l)
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	for _, l := range rows {
		if _, err := fmt.Fprintf(w, "%s %v\n", l.name, l.value); err != nil {
			return err
		}
	}
	return nil
}
