package xpathviews_test

// Tests for the observability layer: metrics invariants under a
// concurrent hammer, span-tree shapes per serving path, the slow-query
// log, fault-injection counters, and the metrics exposition.

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"xpathviews"
	"xpathviews/internal/faults"
	"xpathviews/internal/paperdata"
)

// obsSystem builds the paper's running example with an isolated metrics
// registry, so counter assertions don't race with other tests sharing
// the process default.
func obsSystem(t *testing.T) (*xpathviews.System, *xpathviews.MetricsRegistry) {
	t.Helper()
	sys, err := xpathviews.OpenWithFST(paperdata.BookTree(), paperdata.BookFST())
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range paperdata.TableIViews() {
		if _, err := sys.AddView(src, 0); err != nil {
			t.Fatalf("AddView(%q): %v", src, err)
		}
	}
	reg := xpathviews.NewMetricsRegistry()
	sys.SetMetricsRegistry(reg)
	return sys, reg
}

func counterVal(reg *xpathviews.MetricsRegistry, name string) int64 {
	return reg.Counter(name).Value()
}

// TestMetricsHammer pounds one hot query from 64 goroutines and checks
// the fundamental accounting invariants: every call is counted, no call
// errs, and every call is classified as exactly one plan-cache hit or
// miss. Run under -race in CI.
func TestMetricsHammer(t *testing.T) {
	sys, reg := obsSystem(t)
	const (
		goroutines = 64
		perG       = 32
	)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if _, err := sys.AnswerContext(context.Background(), paperdata.QueryE,
					xpathviews.Options{Strategy: xpathviews.HV}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	const calls = goroutines * perG
	if got := counterVal(reg, "xpv_answers_total"); got != calls {
		t.Fatalf("xpv_answers_total = %d, want %d", got, calls)
	}
	if got := counterVal(reg, "xpv_answer_errors_total"); got != 0 {
		t.Fatalf("xpv_answer_errors_total = %d, want 0", got)
	}
	hits := counterVal(reg, "xpv_plan_cache_hits_total")
	misses := counterVal(reg, "xpv_plan_cache_misses_total")
	if hits+misses != calls {
		t.Fatalf("hits(%d) + misses(%d) = %d, want %d", hits, misses, hits+misses, calls)
	}
	if misses == 0 {
		t.Fatal("expected at least one plan-cache miss on the cold key")
	}
	if hits == 0 {
		t.Fatal("expected plan-cache hits on a hammered hot key")
	}
}

// spanNames collects the direct child names of a span.
func spanNames(sp *xpathviews.Span) []string {
	var out []string
	for _, c := range sp.Children() {
		out = append(out, c.Name())
	}
	return out
}

func hasName(names []string, want string) bool {
	for _, n := range names {
		if n == want {
			return true
		}
	}
	return false
}

// TestTraceShapeMiss: a cold query's span tree covers the full
// pipeline — parse, plan (vfilter + select inside), rewrite
// (refine/join/extract inside), collect — and the plan span records the
// cache miss.
func TestTraceShapeMiss(t *testing.T) {
	sys, _ := obsSystem(t)
	tr := xpathviews.NewTrace()
	_, err := sys.AnswerContext(context.Background(), paperdata.QueryE,
		xpathviews.Options{Strategy: xpathviews.HV, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	root := tr.Root()
	names := spanNames(root)
	for _, want := range []string{"parse", "plan", "rewrite", "collect"} {
		if !hasName(names, want) {
			t.Fatalf("root children %v missing %q\n%s", names, want, tr.Text())
		}
	}
	plan := tr.Find("plan")
	if v, _ := plan.Attr("cache"); v != "miss" {
		t.Fatalf("plan cache attr = %v, want miss\n%s", v, tr.Text())
	}
	pnames := spanNames(plan)
	if !hasName(pnames, "vfilter") || !hasName(pnames, "select") {
		t.Fatalf("plan children %v, want vfilter+select\n%s", pnames, tr.Text())
	}
	rw := tr.Find("rewrite")
	rnames := spanNames(rw)
	for _, want := range []string{"refine", "join", "extract"} {
		if !hasName(rnames, want) {
			t.Fatalf("rewrite children %v missing %q\n%s", rnames, want, tr.Text())
		}
	}
	if root.Duration() <= 0 {
		t.Fatal("root span has no duration")
	}
}

// TestTraceShapeHit: the warm path's tree shows the hit and skips
// filtering and selection entirely.
func TestTraceShapeHit(t *testing.T) {
	sys, _ := obsSystem(t)
	opts := xpathviews.Options{Strategy: xpathviews.HV}
	if _, err := sys.AnswerContext(context.Background(), paperdata.QueryE, opts); err != nil {
		t.Fatal(err)
	}
	tr := xpathviews.NewTrace()
	opts.Trace = tr
	res, err := sys.AnswerContext(context.Background(), paperdata.QueryE, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.PlanCacheHit {
		t.Fatal("warm query did not report PlanCacheHit")
	}
	if v, _ := tr.Find("plan").Attr("cache"); v != "hit" {
		t.Fatalf("plan cache attr = %v, want hit\n%s", v, tr.Text())
	}
	if tr.Find("vfilter") != nil || tr.Find("select") != nil {
		t.Fatalf("hit path ran filtering/selection:\n%s", tr.Text())
	}
	if tr.Find("rewrite") == nil {
		t.Fatalf("hit path skipped rewriting:\n%s", tr.Text())
	}
}

// TestTraceShapeNotAnswerable: an unanswerable query's tree stops at
// the plan (marked negative on a repeat), with no rewrite stage.
func TestTraceShapeNotAnswerable(t *testing.T) {
	sys, _ := obsSystem(t)
	const q = "//nosuchlabel[whatever]"
	opts := xpathviews.Options{Strategy: xpathviews.HV}
	if _, err := sys.AnswerContext(context.Background(), q, opts); !errors.Is(err, xpathviews.ErrNotAnswerable) {
		t.Fatalf("err = %v, want ErrNotAnswerable", err)
	}
	tr := xpathviews.NewTrace()
	opts.Trace = tr
	if _, err := sys.AnswerContext(context.Background(), q, opts); !errors.Is(err, xpathviews.ErrNotAnswerable) {
		t.Fatalf("err = %v, want ErrNotAnswerable", err)
	}
	plan := tr.Find("plan")
	if plan == nil {
		t.Fatalf("no plan span:\n%s", tr.Text())
	}
	if v, _ := plan.Attr("negative"); v != true {
		t.Fatalf("plan negative attr = %v, want true\n%s", v, tr.Text())
	}
	if tr.Find("rewrite") != nil {
		t.Fatalf("negative plan still ran rewriting:\n%s", tr.Text())
	}
	if v, _ := tr.Root().Attr("err"); v == nil {
		t.Fatalf("root span lost the error attr:\n%s", tr.Text())
	}
}

// TestTraceShapeFault: an injected join fault surfaces as ErrInternal,
// the rewrite span carries the error, and the per-point injection
// counter on the default registry moves.
func TestTraceShapeFault(t *testing.T) {
	sys, _ := obsSystem(t)
	// Warm the plan so the fault hits the rewrite stage, not planning.
	opts := xpathviews.Options{Strategy: xpathviews.HV}
	if _, err := sys.AnswerContext(context.Background(), paperdata.QueryE, opts); err != nil {
		t.Fatal(err)
	}
	injected := xpathviews.DefaultMetricsRegistry().
		Counter(`xpv_fault_injected_total{point="rewrite.join"}`).Value()
	if !faults.ArmN("rewrite.join", faults.Error, 1) {
		t.Fatal("rewrite.join fault point not registered")
	}
	defer faults.DisarmAll()
	tr := xpathviews.NewTrace()
	opts.Trace = tr
	_, err := sys.AnswerContext(context.Background(), paperdata.QueryE, opts)
	if !errors.Is(err, xpathviews.ErrInternal) {
		t.Fatalf("err = %v, want ErrInternal", err)
	}
	rw := tr.Find("rewrite")
	if rw == nil {
		t.Fatalf("no rewrite span:\n%s", tr.Text())
	}
	if v, _ := rw.Attr("err"); v == nil {
		t.Fatalf("rewrite span lost the fault error:\n%s", tr.Text())
	}
	after := xpathviews.DefaultMetricsRegistry().
		Counter(`xpv_fault_injected_total{point="rewrite.join"}`).Value()
	if after != injected+1 {
		t.Fatalf("injection counter moved %d -> %d, want +1", injected, after)
	}
}

// TestResultStageTimings: the per-call nanosecond accounting is
// populated without any tracing — full pipeline on a miss, extraction
// only on a hit, whose plan remembers what refine + join produced.
func TestResultStageTimings(t *testing.T) {
	sys, _ := obsSystem(t)
	opts := xpathviews.Options{Strategy: xpathviews.HV}
	cold, err := sys.AnswerContext(context.Background(), paperdata.QueryE, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.PlanCacheHit {
		t.Fatal("cold call reported a plan-cache hit")
	}
	if cold.ParseNanos <= 0 || cold.FilterNanos <= 0 || cold.SelectNanos <= 0 {
		t.Fatalf("cold call missing stage timings: parse=%d filter=%d select=%d",
			cold.ParseNanos, cold.FilterNanos, cold.SelectNanos)
	}
	if cold.RefineNanos <= 0 || cold.ExtractNanos <= 0 {
		t.Fatalf("cold call missing rewrite timings: refine=%d extract=%d",
			cold.RefineNanos, cold.ExtractNanos)
	}
	if cold.TotalNanos < cold.RefineNanos {
		t.Fatalf("total %d < refine %d", cold.TotalNanos, cold.RefineNanos)
	}
	warm, err := sys.AnswerContext(context.Background(), paperdata.QueryE, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.PlanCacheHit {
		t.Fatal("warm call missed the plan cache")
	}
	if warm.FilterNanos != 0 || warm.SelectNanos != 0 {
		t.Fatalf("hit path reported filter/select time: %d/%d", warm.FilterNanos, warm.SelectNanos)
	}
	if cold.Memo || !warm.Memo {
		t.Fatalf("Memo cold=%v warm=%v, want false then true", cold.Memo, warm.Memo)
	}
	if warm.RefineNanos != 0 || warm.JoinNanos != 0 || warm.ExtractNanos <= 0 {
		t.Fatalf("memo hit timings: refine=%d join=%d extract=%d, want 0, 0, > 0",
			warm.RefineNanos, warm.JoinNanos, warm.ExtractNanos)
	}
}

// TestSlowQueryLog: arming the threshold records entries (with the
// query text and cache status); disarming stops recording.
func TestSlowQueryLog(t *testing.T) {
	sys, reg := obsSystem(t)
	sys.SetSlowQueryThreshold(1) // 1ns: everything is slow
	opts := xpathviews.Options{Strategy: xpathviews.HV}
	for i := 0; i < 2; i++ {
		if _, err := sys.AnswerContext(context.Background(), paperdata.QueryE, opts); err != nil {
			t.Fatal(err)
		}
	}
	entries := sys.SlowQueries()
	if len(entries) != 2 {
		t.Fatalf("slow log has %d entries, want 2", len(entries))
	}
	for _, e := range entries {
		if e.Query != paperdata.QueryE {
			t.Fatalf("slow entry query = %q, want %q", e.Query, paperdata.QueryE)
		}
		if e.Total <= 0 {
			t.Fatalf("slow entry has no total duration: %+v", e)
		}
	}
	if !entries[1].CacheHit {
		t.Fatal("second slow entry should be a plan-cache hit")
	}
	if got := counterVal(reg, "xpv_slow_queries_total"); got != 2 {
		t.Fatalf("xpv_slow_queries_total = %d, want 2", got)
	}
	sys.SetSlowQueryThreshold(0)
	if _, err := sys.AnswerContext(context.Background(), paperdata.QueryE, opts); err != nil {
		t.Fatal(err)
	}
	if got := len(sys.SlowQueries()); got != 2 {
		t.Fatalf("disarmed slow log still recorded: %d entries", got)
	}
}

// TestResilientRungMetrics: a query no view answers falls down the
// chain to BN; the fallback counter and the served-rung counter both
// record it.
func TestResilientRungMetrics(t *testing.T) {
	sys, reg := obsSystem(t)
	tr := xpathviews.NewTrace()
	res, err := sys.AnswerResilient(context.Background(), "//nosuchlabel",
		xpathviews.Options{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != xpathviews.BN {
		t.Fatalf("strategy = %v, want BN", res.Strategy)
	}
	if !res.Degraded {
		t.Fatal("result not marked degraded")
	}
	if got := counterVal(reg, `xpv_resilient_rung_served_total{rung="BN"}`); got != 1 {
		t.Fatalf("BN served counter = %d, want 1", got)
	}
	if got := counterVal(reg, "xpv_resilient_fallbacks_total"); got < 2 {
		t.Fatalf("fallback counter = %d, want >= 2", got)
	}
	// The trace shows one span per attempted rung.
	names := spanNames(tr.Root())
	for _, want := range []string{"rung:HV", "rung:BN"} {
		if !hasName(names, want) {
			t.Fatalf("resilient trace %v missing %q\n%s", names, want, tr.Text())
		}
	}
}

// TestTraceShapeResilient: the resilient entry point observes its own
// parse exactly as AnswerContext does — on a cold key, one parse span
// (parse + minimize) ahead of the rungs and a nonzero ParseNanos; on a
// warm key, the source alias serves the rung with no parse at all — and
// a parse error still leaves a trace.
func TestTraceShapeResilient(t *testing.T) {
	sys, _ := obsSystem(t)
	tr := xpathviews.NewTrace()
	res, err := sys.AnswerResilient(context.Background(), paperdata.QueryE,
		xpathviews.Options{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	names := spanNames(tr.Root())
	if len(names) != 2 || names[0] != "parse" || names[1] != "rung:"+res.Strategy.String() {
		t.Fatalf("resilient trace children %v, want [parse rung:%v]\n%s", names, res.Strategy, tr.Text())
	}
	if res.ParseNanos <= 0 {
		t.Fatalf("resilient ParseNanos = %d, want > 0", res.ParseNanos)
	}
	if tr.Find("rewrite") == nil || tr.Find("refine") == nil {
		t.Fatalf("view rung trace lacks rewrite/refine:\n%s", tr.Text())
	}

	warm := xpathviews.NewTrace()
	res, err = sys.AnswerResilient(context.Background(), paperdata.QueryE,
		xpathviews.Options{Trace: warm})
	if err != nil {
		t.Fatal(err)
	}
	names = spanNames(warm.Root())
	if len(names) != 1 || names[0] != "rung:HV" || !res.PlanCacheHit || res.ParseNanos != 0 {
		t.Fatalf("warm resilient: children %v hit=%v parse=%d, want [rung:HV] hit, no parse\n%s",
			names, res.PlanCacheHit, res.ParseNanos, warm.Text())
	}
	if v, _ := warm.Find("plan").Attr("cache"); v != "hit" {
		t.Fatalf("warm resilient plan cache attr = %v, want hit\n%s", v, warm.Text())
	}

	// A call that bypasses the plan cache times minimization under its
	// own normalize span, on both entry points.
	for _, c := range []struct {
		name   string
		answer func(context.Context, string, xpathviews.Options) (*xpathviews.Result, error)
		want   string
	}{
		{"AnswerContext", sys.AnswerContext, "parse,normalize,plan,rewrite,collect"},
		{"AnswerResilient", sys.AnswerResilient, "parse,normalize,rung:HV"},
	} {
		tr := xpathviews.NewTrace()
		if _, err := c.answer(context.Background(), paperdata.QueryE,
			xpathviews.Options{Strategy: xpathviews.HV, NoPlanCache: true, Trace: tr}); err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(spanNames(tr.Root()), ","); got != c.want {
			t.Fatalf("uncached %s trace children %s, want %s\n%s", c.name, got, c.want, tr.Text())
		}
	}

	bad := xpathviews.NewTrace()
	if _, err := sys.AnswerResilient(context.Background(), "//s[", xpathviews.Options{Trace: bad}); err == nil {
		t.Fatal("malformed query parsed")
	}
	if sp := bad.Find("parse"); sp == nil {
		t.Fatalf("failed resilient parse left no parse span:\n%s", bad.Text())
	}
}

// TestDumpMetrics: the text exposition carries both registry metrics
// and the live system gauges.
func TestDumpMetrics(t *testing.T) {
	sys, _ := obsSystem(t)
	if _, err := sys.AnswerContext(context.Background(), paperdata.QueryE,
		xpathviews.Options{Strategy: xpathviews.HV}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := sys.DumpMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"xpv_answers_total 1",
		"xpv_answer_ns_count 1",
		"xpv_plan_cache_misses_total 1",
		"xpv_plancache_len",
		"xpv_views 4",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("DumpMetrics output missing %q:\n%s", want, out)
		}
	}
	// One served-rung counter per strategy, under the rung label set the
	// exposition has always carried.
	var rungs []string
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "xpv_resilient_rung_served_total{rung="); ok {
			rungs = append(rungs, rest[:strings.Index(rest, "}")])
		}
	}
	if got := strings.Join(rungs, ","); got != `"BF","BN","CV","HV","MN","MV","contained"` {
		t.Fatalf("served-rung labels = %s", got)
	}
}

// TestMetricsRegistryReleased: a System keeps its resolved metrics
// bundle only in itself, so once the System and its registry are
// dropped the registry is collected — nothing process-global pins it
// (or, through a tenant's gauge funcs, the tenant's document).
func TestMetricsRegistryReleased(t *testing.T) {
	released := make(chan struct{})
	func() {
		reg := xpathviews.NewMetricsRegistry()
		runtime.SetFinalizer(reg, func(*xpathviews.MetricsRegistry) { close(released) })
		sys, err := xpathviews.OpenXMLString("<a><b/></a>")
		if err != nil {
			t.Fatal(err)
		}
		sys.SetMetricsTenant(reg, "gone")
		if _, err := sys.Answer("//b", xpathviews.BN); err != nil {
			t.Fatal(err)
		}
	}()
	for i := 0; i < 100; i++ {
		runtime.GC()
		select {
		case <-released:
			return
		case <-time.After(time.Millisecond):
		}
	}
	t.Fatal("metrics registry still reachable after its System was dropped")
}

// TestSlowLogTimeMonotonic guards the slow log against a zero Time
// field (the ring must stamp entries).
func TestSlowLogStamps(t *testing.T) {
	sys, _ := obsSystem(t)
	sys.SetSlowQueryThreshold(time.Nanosecond)
	if _, err := sys.AnswerContext(context.Background(), paperdata.QueryE,
		xpathviews.Options{Strategy: xpathviews.HV}); err != nil {
		t.Fatal(err)
	}
	e := sys.SlowQueries()
	if len(e) != 1 || e[0].Time.IsZero() {
		t.Fatalf("slow entry not stamped: %+v", e)
	}
}
