package xpathviews_test

// Telemetry overhead regression guard: the serving hot path (plan-cache
// hit) must cost at most one extra allocation per call with metrics
// disabled versus the instrumented default, and enabling the default
// metrics must itself be allocation-free (atomics only).

import (
	"context"
	"testing"

	"xpathviews"
	"xpathviews/internal/advisor"
	"xpathviews/internal/paperdata"
)

// hitPathAllocBudget is the hit-path baseline of BenchmarkAnswerPlanCache
// before telemetry existed (76 allocs/op) plus the one allocation the
// telemetry layer is allowed to add.
const hitPathAllocBudget = 77

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

	if enabled > disabled+1 {
		t.Fatalf("metrics add %.1f allocs/op (disabled %.1f, enabled %.1f); budget is 1",
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
	if res.Rung != "HV" || !res.PlanCacheHit || res.ParseNanos != 0 {
		t.Fatalf("warm resilient call: rung=%q hit=%v ParseNanos=%d, want HV, hit, 0",
			res.Rung, res.PlanCacheHit, res.ParseNanos)
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
