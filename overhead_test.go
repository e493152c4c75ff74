package xpathviews_test

// Telemetry overhead regression guard: on the serving hot path
// (plan-cache hit) the default metrics, unlabeled or tenant-labeled,
// must add no allocation over metrics disabled (atomics only).

import (
	"context"
	"runtime"
	"testing"

	"xpathviews"
	"xpathviews/internal/advisor"
	"xpathviews/internal/paperdata"
)

// hitPathAllocBudget is the telemetry-disabled hit path's measured
// allocation count (1 alloc/op, the Result: no answer copy, no rewrite
// result and no meter on the heap) plus one allocation of slack.
const hitPathAllocBudget = 2

func TestTelemetryOverheadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	sys, _ := obsSystem(t)
	ctx := context.Background()
	opts := xpathviews.Options{Strategy: xpathviews.HV}
	call := func() {
		if _, err := sys.AnswerContext(ctx, paperdata.QueryE, opts); err != nil {
			t.Fatal(err)
		}
	}
	call() // warm the plan cache

	sys.SetMetricsRegistry(nil)
	disabled := testing.AllocsPerRun(200, call)

	sys.SetMetricsRegistry(xpathviews.NewMetricsRegistry())
	enabled := testing.AllocsPerRun(200, call)

	// Tenant-labeled metrics resolve names once at SetMetricsTenant;
	// recording through the labeled bundle must cost exactly what the
	// unlabeled bundle costs.
	sys.SetMetricsTenant(xpathviews.NewMetricsRegistry(), "acme")
	labeled := testing.AllocsPerRun(200, call)

	t.Logf("hit path allocs/op: disabled %.1f, enabled %.1f, labeled %.1f", disabled, enabled, labeled)
	if enabled > disabled {
		t.Fatalf("metrics add %.1f allocs/op (disabled %.1f, enabled %.1f); budget is 0",
			enabled-disabled, disabled, enabled)
	}
	if labeled > enabled {
		t.Fatalf("tenant-labeled metrics add %.1f allocs/op over unlabeled (%.1f vs %.1f); budget is 0",
			labeled-enabled, labeled, enabled)
	}
	if disabled > hitPathAllocBudget {
		t.Fatalf("telemetry-disabled hit path allocates %.1f/op, budget %d",
			disabled, hitPathAllocBudget)
	}

	// The view observatory's attribution path — per-view hit counters,
	// the calibration EWMA CAS loops, and the armed drift sketch — must
	// add zero allocations over a detached store.
	sys.SetViewStats(nil)
	statsOff := testing.AllocsPerRun(200, call)
	sys.SetViewStats(xpathviews.NewViewStats())
	sys.SetDesignWorkload([]advisor.QueryStat{{Query: paperdata.QueryE}})
	call() // grow the per-view slots once; steady state allocates nothing
	statsOn := testing.AllocsPerRun(200, call)
	if statsOn > statsOff {
		t.Fatalf("view-stats attribution adds %.1f allocs/op (off %.1f, on %.1f); budget is 0",
			statsOn-statsOff, statsOff, statsOn)
	}
}

// TestResilientHitPath: a warm AnswerResilient call is served from the
// source-spelling plan alias exactly like a warm AnswerContext call — no
// parse, nothing recorded in xpv_parse_ns, and no more allocations.
func TestResilientHitPath(t *testing.T) {
	sys, reg := obsSystem(t)
	ctx := context.Background()
	direct := func() {
		if _, err := sys.AnswerContext(ctx, paperdata.QueryE, xpathviews.Options{Strategy: xpathviews.HV}); err != nil {
			t.Fatal(err)
		}
	}
	resilient := func() {
		if _, err := sys.AnswerResilient(ctx, paperdata.QueryE, xpathviews.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	direct()
	resilient()
	parsed := reg.Histogram("xpv_parse_ns").Snapshot().Count
	res, err := sys.AnswerResilient(ctx, paperdata.QueryE, xpathviews.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != xpathviews.HV || !res.PlanCacheHit || res.ParseNanos != 0 {
		t.Fatalf("warm resilient call: strategy=%v hit=%v ParseNanos=%d, want HV, hit, 0",
			res.Strategy, res.PlanCacheHit, res.ParseNanos)
	}
	if got := reg.Histogram("xpv_parse_ns").Snapshot().Count; got != parsed {
		t.Fatalf("warm resilient call recorded %d xpv_parse_ns observations, want 0", got-parsed)
	}
	if raceEnabled {
		return // allocation counts are distorted under -race
	}
	ctxAllocs := testing.AllocsPerRun(200, direct)
	resAllocs := testing.AllocsPerRun(200, resilient)
	if resAllocs > ctxAllocs {
		t.Fatalf("resilient plan hit allocates %.1f/op, AnswerContext plan hit %.1f/op", resAllocs, ctxAllocs)
	}
}

// hitPathByteBudget bounds the bytes one plan-and-memo hit may allocate.
// The hit returns the memo's shared answer slice, so its allocation does
// not grow with the answer count; one copy of a 1,000-answer set is
// 32 KB.
const hitPathByteBudget = 1 << 10

// TestHitPathBytes: an XMark plan-and-memo hit with over a thousand
// answers allocates less than 1 KB per call, and so does a refused
// query's BN answer served from its negative plan's memo.
func TestHitPathBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	ctx := context.Background()
	for _, tc := range []struct {
		name  string
		views []string
		want  xpathviews.Strategy
		call  func(*xpathviews.System) (*xpathviews.Result, error)
	}{
		{"plan-and-memo hit", []string{"//text"}, xpathviews.HV, func(sys *xpathviews.System) (*xpathviews.Result, error) {
			return sys.AnswerContext(ctx, "//text", xpathviews.Options{Strategy: xpathviews.HV})
		}},
		// No view answers, contains or covers //text: HV and MV refuse
		// from the negative plan, the contained rung from its remembered
		// refusal, and BN answers from its memo.
		{"BN-rung memo hit", nil, xpathviews.BN, func(sys *xpathviews.System) (*xpathviews.Result, error) {
			return sys.AnswerResilient(ctx, "//text", xpathviews.Options{})
		}},
	} {
		sys := memoXMarkSystem(t, 0.2, tc.views...)
		call := func() *xpathviews.Result {
			res, err := tc.call(sys)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		call() // warm the plan cache and the memo
		if res := call(); !res.Memo || res.Strategy != tc.want || len(res.Answers) < 1000 {
			t.Fatalf("%s: warm call served by %v, memo=%v with %d answers, want a %v hit with >= 1000",
				tc.name, res.Strategy, res.Memo, len(res.Answers), tc.want)
		}
		const runs = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			call()
		}
		runtime.ReadMemStats(&after)
		perCall := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("%s with %d answers: %d B/call", tc.name, len(call().Answers), perCall)
		if perCall >= hitPathByteBudget {
			t.Fatalf("%s allocates %d B/call, budget %d", tc.name, perCall, hitPathByteBudget)
		}
	}
}
