package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"xpathviews"
	"xpathviews/internal/budget"
	"xpathviews/internal/engine"
	"xpathviews/internal/maintain"
	"xpathviews/internal/pattern"
	"xpathviews/internal/plancache"
	"xpathviews/internal/rewrite"
	"xpathviews/internal/selection"
	"xpathviews/internal/storage"
	"xpathviews/internal/xpath"
)

// span is one timed call into a layer. Parent is the ID of the span that
// caused it, or -1. A child either lies inside its parent's interval (a
// stage of the call) or is a separate measurement of a part of the
// parent's work made just after it (the handler beside the round trip,
// the library call beside the handler): self time is taken from
// durations, so both kinds subtract the same way.
type span struct {
	ID     int    `json:"id"`
	Op     int    `json:"op"`
	Layer  string `json:"layer"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans in memory; nothing is written until the workload
// ends.
type tracer struct {
	t0    time.Time
	op    int
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) begin(layer string, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Op: t.op, Layer: layer, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) time.Duration {
	t.spans[id].End = int64(time.Since(t.t0))
	return t.spans[id].dur()
}

// add records a span whose duration a callee reported, placed at start
// (an offset from the trace origin).
func (t *tracer) add(layer string, parent int, start int64, d time.Duration) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Op: t.op, Layer: layer, Parent: parent, Start: start, End: start + int64(d)})
	return len(t.spans) - 1
}

// graft copies the stage spans the program recorded under root
// (Options.Trace, MutateOptions.Trace) below parent. The program's spans
// expose durations, not start times, so siblings are laid end to end
// from start; self time needs no more.
func (t *tracer) graft(root *xpathviews.Span, parent int, start int64) {
	for _, c := range root.Children() {
		layer, ok := programLayers[c.Name()]
		switch {
		case c.Name() == "maintain":
			continue // opened beside "apply" but runs inside it
		case !ok:
			layer = layerOp
		}
		id := t.add(layer, parent, start, c.Duration())
		t.graft(c, id, start)
		start += int64(c.Duration())
	}
}

// selfTimes returns each span's duration minus its direct children's,
// never below zero.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	for i := range self {
		if self[i] < 0 {
			self[i] = 0
		}
	}
	return self
}

// writeTrace stores the spans as bench/out/trace-<workload>.json.
func writeTrace(outDir, workload string, spans []span) error {
	raw, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "trace-"+workload+".json"), raw, 0o644)
}

// Layer names.
const (
	// layerOp is one read through the workload's library entry point as
	// the driver timed it, and the program's structural spans inside it
	// (plan, rung:*). Its self time is what no layer's span covers: the
	// residual.
	layerOp        = "op"
	layerParse     = "xpath+pattern" // the program times parsing and minimizing as one stage
	layerPattern   = "pattern"
	layerVFilter   = "vfilter"
	layerSelection = "selection"
	layerRewrite   = "rewrite"
	layerRefine    = "rewrite.refine"
	layerJoin      = "rewrite.join"
	layerExtract   = "rewrite.extract"
	layerCollect   = "collect"
	layerEngine    = "engine"
	layerRoundTrip = "server.transport" // self time of the HTTP round trip
	layerHandler   = "server.handler"   // self time is the daemon's overhead over the library
	layerMutation  = "mutation"
	layerMaintain  = "maintain"
	layerStorage   = "storage"
)

// programLayers maps the program's stage span names to layers.
var programLayers = map[string]string{
	"parse":     layerParse,
	"normalize": layerPattern,
	"vfilter":   layerVFilter,
	"select":    layerSelection,
	"rewrite":   layerRewrite,
	"refine":    layerRefine,
	"join":      layerJoin,
	"extract":   layerExtract,
	"contained": layerRewrite,
	"eval":      layerEngine,
	"collect":   layerCollect,
	"apply":     layerMaintain, // the structural edit and the per-view delta pass
	"wal":       layerStorage,
}

// layerStats accumulates what the traced pass reports per layer.
type layerStats struct {
	// Stage durations and counts read from the program's spans.
	filter, sel, execute, refine, join, extract  []time.Duration
	planned, answerable, fallbacks               int
	candidates, selected, homs                   int
	executes, scanned, joined                    int
	partitions, joinsRun, workers, workerSamples int
	gallop                                       int64
	// Direct calls of layer functions, for what the program's trace lacks.
	parse, minimize, cacheGet, planJoin, joinBuild, bn, bf []time.Duration
	// The driver's own spans.
	handler, overhead, transport []time.Duration
	walPut, insert, del          []time.Duration
	untraced, traced             []time.Duration
	staged                       time.Duration // the traced calls' top-level stage spans, summed
	respBytes                    []float64

	queries                                      int
	mutations, viewsChecked, dirty, fragsTouched int
	walBytes                                     int
	failed                                       int
	// cache, viewScanned and viewKept are what the program's own plan
	// cache and view observatory counted over the traced reads.
	cache                 xpathviews.PlanCacheStats
	viewScanned, viewKept int64
}

func attrInt(s *xpathviews.Span, key string) int {
	v, _ := s.Attr(key)
	n, _ := v.(int)
	return n
}

// tally reads the stage durations and counts out of the program's span
// tree below root.
func (st *layerStats) tally(root *xpathviews.Span) {
	for _, c := range root.Children() {
		d := c.Duration()
		switch c.Name() {
		case "vfilter":
			st.filter = append(st.filter, d)
			st.planned++
			st.candidates += attrInt(c, "candidates")
		case "select":
			st.sel = append(st.sel, d)
			if _, ok := c.Attr("covers"); ok {
				st.answerable++
				st.selected += attrInt(c, "covers")
				st.homs += attrInt(c, "homs")
			}
		case "rewrite":
			st.execute = append(st.execute, d)
			st.executes++
			st.scanned += attrInt(c, "fragments_scanned")
		case "refine":
			st.refine = append(st.refine, d)
		case "join":
			st.join = append(st.join, d)
			st.joined += attrInt(c, "fragments_joined")
		case "extract":
			st.extract = append(st.extract, d)
		}
		if _, ok := c.Attr("workers"); ok {
			st.workers += attrInt(c, "workers")
			st.workerSamples++
		}
		st.tally(c)
	}
}

// direct calls, for one query, the layer functions whose cost the
// program's trace does not show on its own: parsing apart from
// minimizing, a plan-cache lookup, the join skeleton, the join's
// sequential build, and direct evaluation.
type direct struct {
	e     *env
	st    *layerStats
	cache *plancache.Cache // standalone, holding the pool's keys
	bn    *engine.BN
	bf    *engine.BF
}

func newDirect(e *env, st *layerStats) *direct {
	d := &direct{e: e, st: st, cache: plancache.New(0, 0), bn: engine.NewBN(e.doc), bf: engine.NewBF(e.doc)}
	for _, q := range e.pool {
		d.cache.Put(xpathviews.NormalizeQuery(q.src), 0, q.src)
	}
	return d
}

func (d *direct) sample(src string) error {
	st := d.st
	timed := func(into *[]time.Duration, f func()) {
		t := time.Now()
		f()
		*into = append(*into, time.Since(t))
	}
	var q, qm *pattern.Pattern
	var err error
	timed(&st.parse, func() { q, err = xpath.Parse(src) })
	if err != nil {
		return err
	}
	timed(&st.minimize, func() { qm = pattern.Minimize(q) })
	key := xpathviews.NormalizeQuery(src)
	timed(&st.cacheGet, func() { d.cache.Get(key, 0) })
	timed(&st.bn, func() { d.bn.Eval(q) })
	timed(&st.bf, func() { d.bf.Eval(q) })
	// A real budget, as the serving layer passes: the layers charge it per
	// fragment, and a nil one makes them measurably cheaper.
	b := budget.New(context.Background(), 0, 0)
	sys := d.e.sys
	fres, err := sys.Filter().FilteringBudget(qm, b)
	if err != nil {
		return err
	}
	sel, err := selection.HeuristicBudget(qm, fres, sys.Registry(), b)
	if errors.Is(err, xpathviews.ErrNotAnswerable) {
		return nil
	}
	if err != nil {
		return err
	}
	var jp *rewrite.JoinPlan
	timed(&st.planJoin, func() { jp, _ = rewrite.PlanJoin(qm, sel.Covers) }) // as the serving layer: rewrite re-derives a missing skeleton
	out, err := rewrite.ExecuteOptions(qm, sel, sys.FST(), b, rewrite.Options{Plan: jp})
	if err != nil {
		return err
	}
	if out.JoinPartitions > 0 {
		st.joinBuild = append(st.joinBuild, time.Duration(out.JoinBuildNanos))
	}
	return nil
}

// observatoryTotals sums the view observatory's scanned and kept
// fragment counters over all views.
func observatoryTotals(sys *xpathviews.System) (scanned, kept int64) {
	for _, v := range sys.ViewStatsReport().Views {
		scanned += v.FragsScanned
		kept += v.FragsKept
	}
	return scanned, kept
}

// tracedPass replays nOps seeded reads (and, on lib-churn, nMut
// mutations) single-client, twice: untraced, for what the real call
// costs, and then with the program's own trace on (Options.Trace), whose
// stage spans are grafted below the driver's span of the call. Both
// calls must return the expected answers and the same codes. On srv-closed
// the traced sweep also makes the real round trip and calls the handler
// into a recorder, and the library call hangs off the handler. Beside
// every tenth read the layers the trace lacks are called directly.
func tracedPass(e *env, outDir string, nOps, nMut int) (*layerStats, []span, error) {
	st := &layerStats{}
	tr := newTracer(16 * (nOps + nMut))
	dir := newDirect(e, st)
	z := newZipf(e.seed+3, len(e.pool), 1.1)
	picks := make([]int, nOps)
	for op := range picks {
		if e.spec.kind == srvClosed {
			picks[op] = z.next()
		} else {
			picks[op] = op % len(e.pool)
		}
	}
	// ask makes one library call and renders what it returned.
	ask := func(src string, t *xpathviews.Trace) (res *xpathviews.Result, codes []string, d time.Duration, err error) {
		t0 := time.Now()
		res, err = e.ask(src, t)
		d = time.Since(t0)
		if res != nil {
			codes = res.Codes()
		}
		return res, codes, d, err
	}
	// Every sweep takes the pool in the same cyclic order from the top, so
	// a pool larger than the plan cache misses on every read of every
	// sweep, whatever the measured window left behind; the first sweep
	// only puts the cache in that state.
	for _, q := range e.pool {
		if _, err := e.ask(q.src, nil); err != nil && !errors.Is(err, xpathviews.ErrNotAnswerable) {
			return nil, nil, err
		}
	}
	untracedCodes := make(map[int][]string)
	for _, pick := range picks {
		q := e.pool[pick]
		res, codes, d, err := ask(q.src, nil)
		st.untraced = append(st.untraced, d)
		n := 0
		if res != nil {
			n = len(res.Answers)
		}
		if !q.ok(n, err) {
			st.failed++
		}
		untracedCodes[pick] = codes
	}

	var clients []*http.Client
	var bodies [][]byte
	if e.spec.kind == srvClosed {
		clients = httpClients(1)
		defer closeClients(clients)
		bodies = queryBodies(e.pool)
	}
	cacheBefore := e.sys.PlanCacheStats()
	scannedBefore, keptBefore := observatoryTotals(e.sys)
	for op, pick := range picks {
		tr.op = op
		q := e.pool[pick]
		parent := -1
		if e.spec.kind == srvClosed {
			rt := tr.begin(layerRoundTrip, -1)
			rep, size, err := post(clients[0], e.base+"/v1/query", bodies[pick])
			rtDur := tr.end(rt)
			if err != nil || rep.Status != http.StatusOK || !q.ok(len(rep.Answers), nil) {
				st.failed++
			}
			st.respBytes = append(st.respBytes, float64(size))
			req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(string(bodies[pick])))
			rec := httptest.NewRecorder()
			h := tr.begin(layerHandler, rt)
			e.srv.Handler().ServeHTTP(rec, req)
			hDur := tr.end(h)
			st.handler = append(st.handler, hDur)
			st.transport = append(st.transport, rtDur-hDur)
			st.overhead = append(st.overhead, hDur-st.untraced[op])
			parent = h
		}
		t := xpathviews.NewTrace()
		start := int64(time.Since(tr.t0))
		res, codes, d, err := ask(q.src, t)
		tr.graft(t.Root(), tr.add(layerOp, parent, start, d), start)
		st.traced = append(st.traced, d)
		for _, c := range t.Root().Children() {
			st.staged += c.Duration()
		}
		st.tally(t.Root())
		st.queries++
		n := 0
		if res != nil {
			n = len(res.Answers)
			if res.Degraded {
				st.fallbacks++
			}
			if res.JoinPartitions > 0 {
				st.joinsRun++
				st.partitions += res.JoinPartitions
				st.gallop += res.GallopHits
			}
		}
		if !q.ok(n, err) || !slices.Equal(codes, untracedCodes[pick]) {
			st.failed++
		}
		if op%10 == 0 {
			if err := dir.sample(q.src); err != nil {
				return nil, nil, fmt.Errorf("%s: direct calls for %s: %w", e.spec.name, q.src, err)
			}
		}
	}
	st.cache = e.sys.PlanCacheStats()
	st.cache.Hits -= cacheBefore.Hits
	st.cache.Misses -= cacheBefore.Misses
	st.cache.Evictions -= cacheBefore.Evictions
	st.viewScanned, st.viewKept = observatoryTotals(e.sys)
	st.viewScanned -= scannedBefore
	st.viewKept -= keptBefore

	if e.spec.kind == libChurn {
		if err := tracedMutations(e, tr, st, nOps, nMut); err != nil {
			return nil, nil, err
		}
	}
	if err := writeTrace(outDir, e.spec.name, tr.spans); err != nil {
		return nil, nil, err
	}
	return st, tr.spans, nil
}

// tracedMutations replays insert+delete pairs with the program's own
// mutation trace on, which splits a call into the maintain layer (the
// structural edit and the per-view delta pass) and the WAL append, and
// times storage.Store.Put of the same record bytes on a scratch store.
func tracedMutations(e *env, tr *tracer, st *layerStats, firstOp, nMut int) error {
	rng := rand.New(rand.NewSource(e.seed + 3))
	scratch := storage.OpenMemory()
	defer scratch.Close()
	record := func(op int, res *xpathviews.MaintainResult, t *xpathviews.Trace, rec maintain.Record) {
		tr.op = op
		start := int64(time.Since(tr.t0)) - int64(t.Root().Duration())
		tr.graft(t.Root(), tr.add(layerMutation, -1, start, t.Root().Duration()), start)
		raw := rec.Encode()
		s := tr.begin("storage.put", -1)
		_ = scratch.Put([]byte(maintain.Key(uint64(op))), raw) // an in-memory store cannot fail to append
		st.walPut = append(st.walPut, tr.end(s))
		st.walBytes += len(raw)
		st.mutations++
		st.viewsChecked += res.ViewsChecked
		st.dirty += res.DirtyViews
		st.fragsTouched += res.FragmentsAdded + res.FragmentsRemoved + res.FragmentsRefreshed
	}
	for i := 0; i < nMut/2; i++ {
		spec := mutationSpecs[i%len(mutationSpecs)]
		sites := e.parents[spec.parent]
		parent := sites[rng.Intn(len(sites))]
		t := xpathviews.NewTrace()
		ins, err := e.sys.InsertSubtreeOpts(parent, spec.xml, xpathviews.MutateOptions{Trace: t})
		if err != nil {
			return fmt.Errorf("%s: traced insert: %w", e.spec.name, err)
		}
		st.insert = append(st.insert, time.Duration(ins.TotalNanos))
		record(firstOp+2*i, ins, t, maintain.Record{Op: maintain.OpInsert, Code: parent, XML: spec.xml})
		t = xpathviews.NewTrace()
		del, err := e.sys.DeleteSubtreeOpts(ins.Code, xpathviews.MutateOptions{Trace: t})
		if err != nil {
			return fmt.Errorf("%s: traced delete: %w", e.spec.name, err)
		}
		st.del = append(st.del, time.Duration(del.TotalNanos))
		record(firstOp+2*i+1, del, t, maintain.Record{Op: maintain.OpDelete, Code: ins.Code})
	}
	return nil
}

// p50us is the median of ds in microseconds.
func p50us(ds []time.Duration) float64 { return percentile(sortedMicros(ds), 0.5) }

func sumDur(ds []time.Duration) (total time.Duration) {
	for _, d := range ds {
		total += d
	}
	return total
}

// layerMetrics turns a traced pass into the per-layer metrics. A share
// is a layer's self time over the traced ops' total: the round trip on
// srv-closed, the library call on the library workloads, the mutation
// call for maintain and storage.
func layerMetrics(e *env, st *layerStats, spans []span) metricSet {
	m := metricSet{}
	self := selfTimes(spans)
	byLayer := map[string]time.Duration{}
	var queryTotal, mutationTotal time.Duration
	for i, s := range spans {
		byLayer[s.Layer] += self[i]
		if s.Parent < 0 {
			switch s.Layer {
			case layerOp, layerRoundTrip:
				queryTotal += s.dur()
			case layerMutation:
				mutationTotal += s.dur()
			}
		}
	}
	share := func(total time.Duration, layers ...string) float64 {
		var sum time.Duration
		for _, l := range layers {
			sum += byLayer[l]
		}
		return ratio(float64(sum), float64(total))
	}
	// The program times parsing and minimizing as one stage; the direct
	// calls' medians split it.
	parseUS, minimizeUS := p50us(st.parse), p50us(st.minimize)
	parseShare := share(queryTotal, layerParse)
	xpathPart := ratio(parseUS, parseUS+minimizeUS)

	m["xpath.parse_us_p50"] = parseUS
	m["xpath.share"] = parseShare * xpathPart
	m["pattern.minimize_us_p50"] = minimizeUS
	m["pattern.share"] = parseShare*(1-xpathPart) + share(queryTotal, layerPattern)
	m["vfilter.filter_us_p50"] = p50us(st.filter)
	m["vfilter.share"] = share(queryTotal, layerVFilter)
	m["vfilter.candidates_per_query"] = ratio(float64(st.candidates), float64(st.planned))
	m["vfilter.utility"] = ratio(float64(st.selected), float64(st.candidates))
	m["vfilter.states"] = float64(e.sys.Filter().NumStates())
	m["selection.select_us_p50"] = p50us(st.sel)
	m["selection.share"] = share(queryTotal, layerSelection)
	m["selection.homs_per_query"] = ratio(float64(st.homs), float64(st.planned))
	m["selection.views_per_answer"] = ratio(float64(st.selected), float64(st.answerable))
	m["selection.answerable_ratio"] = ratio(float64(st.answerable), float64(st.planned))
	m["plancache.hit_ratio"] = ratio(float64(st.cache.Hits), float64(st.cache.Hits+st.cache.Misses))
	m["plancache.evictions_per_kop"] = ratio(float64(st.cache.Evictions)*1000, float64(st.queries))
	m["plancache.get_ns_p50"] = p50us(st.cacheGet) * 1000
	m["rewrite.execute_us_p50"] = p50us(st.execute)
	m["rewrite.share"] = share(queryTotal, layerRewrite, layerRefine, layerJoin, layerExtract)
	m["rewrite.refine_us_p50"] = p50us(st.refine)
	m["rewrite.join_us_p50"] = p50us(st.join)
	m["rewrite.join_build_us_p50"] = p50us(st.joinBuild)
	m["rewrite.extract_us_p50"] = p50us(st.extract)
	m["rewrite.plan_join_us_p50"] = p50us(st.planJoin)
	m["rewrite.fragments_scanned_per_query"] = ratio(float64(st.scanned), float64(st.executes))
	m["rewrite.fragments_joined_per_query"] = ratio(float64(st.joined), float64(st.executes))
	m["rewrite.keep_ratio"] = ratio(float64(st.viewKept), float64(st.viewScanned))
	m["rewrite.join_partitions_avg"] = ratio(float64(st.partitions), float64(st.joinsRun))
	m["rewrite.workers_avg"] = ratio(float64(st.workers), float64(st.workerSamples))
	m["rewrite.gallop_hits_per_query"] = ratio(float64(st.gallop), float64(st.executes))
	m["engine.bn_eval_us_p50"] = p50us(st.bn)
	m["engine.bf_eval_us_p50"] = p50us(st.bf)
	m["engine.fallback_share"] = ratio(float64(st.fallbacks), float64(st.queries))

	m["maintain.insert_ms_p50"] = p50us(st.insert) / 1000
	m["maintain.delete_ms_p50"] = p50us(st.del) / 1000
	m["maintain.share"] = share(mutationTotal, layerMaintain)
	m["maintain.views_checked_per_mutation"] = ratio(float64(st.viewsChecked), float64(st.mutations))
	m["maintain.dirty_ratio"] = ratio(float64(st.dirty), float64(st.viewsChecked))
	m["maintain.fragments_touched_per_mutation"] = ratio(float64(st.fragsTouched), float64(st.mutations))
	m["storage.wal_put_us_p50"] = p50us(st.walPut)
	m["storage.wal_bytes_per_mutation"] = ratio(float64(st.walBytes), float64(st.mutations))

	m["server.handler_us_p50"] = p50us(st.handler)
	m["server.overhead_us_p50"] = p50us(st.overhead)
	m["server.transport_us_p50"] = p50us(st.transport)
	m["server.share"] = share(queryTotal, layerRoundTrip, layerHandler)
	m["server.response_bytes_p50"] = median(st.respBytes)

	// The residual is what no layer's span covers: the call's own entry
	// and exit, the plan-cache lookup, the lock. Coverage is how much of
	// the traced calls their top-level stage spans explain, and the
	// overhead ratio what the tracing itself adds to a call.
	m["driver.residual_share"] = share(queryTotal, layerOp)
	m["driver.decomp_coverage"] = ratio(float64(st.staged), float64(sumDur(st.traced)))
	m["driver.trace_overhead_ratio"] = ratio(p50us(st.traced), p50us(st.untraced))
	return m
}
