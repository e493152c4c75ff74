package xpathviews_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"xpathviews"
	"xpathviews/internal/faults"
	"xpathviews/internal/paperdata"
	"xpathviews/internal/xmark"
)

func mvOpts() xpathviews.Options {
	return xpathviews.Options{Strategy: xpathviews.MV}
}

// TestPlanCacheHitPath: the second identical query is served from the
// cached plan — the stats move from miss to hit and the answers are
// byte-identical to the first call's and to the no-view baseline.
func TestPlanCacheHitPath(t *testing.T) {
	sys := chaosSystem(t)
	ctx := context.Background()

	first, err := sys.AnswerContext(ctx, paperdata.QueryE, mvOpts())
	if err != nil {
		t.Fatal(err)
	}
	st := sys.PlanCacheStats()
	if st.Misses == 0 {
		t.Fatalf("cold query recorded no miss: %+v", st)
	}
	if sys.PlanCacheLen() == 0 {
		t.Fatal("cold query left the plan cache empty")
	}

	second, err := sys.AnswerContext(ctx, paperdata.QueryE, mvOpts())
	if err != nil {
		t.Fatal(err)
	}
	st2 := sys.PlanCacheStats()
	if st2.Hits <= st.Hits {
		t.Fatalf("warm query did not hit the plan cache: %+v -> %+v", st, st2)
	}
	if strings.Join(first.Codes(), ",") != strings.Join(second.Codes(), ",") {
		t.Fatalf("cached plan changed the answers: %v vs %v", first.Codes(), second.Codes())
	}
	base, err := sys.Answer(paperdata.QueryE, xpathviews.BF)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(second.Codes(), ",") != strings.Join(base.Codes(), ",") {
		t.Fatalf("cached answers drifted from baseline: %v vs %v", second.Codes(), base.Codes())
	}
}

// TestPlanCacheNormalizedSpelling: a spelling of the same query that
// the parser accepts shares its entry after parsing — the second
// spelling hits the canonical entry's plan even though its own text key
// is new.
func TestPlanCacheNormalizedSpelling(t *testing.T) {
	sys := chaosSystem(t)
	ctx := context.Background()
	if _, err := sys.AnswerContext(ctx, paperdata.QueryE, mvOpts()); err != nil {
		t.Fatal(err)
	}
	before := sys.PlanCacheStats()

	const spaced = "// s[ f // i ][ t ]/ p" // paperdata.QueryE, spaced where the parser allows
	res, err := sys.AnswerContext(ctx, spaced, mvOpts())
	if err != nil {
		t.Fatalf("spaced spelling %q: %v", spaced, err)
	}
	after := sys.PlanCacheStats()
	if after.Hits <= before.Hits {
		t.Fatalf("spaced spelling recomputed the plan: %+v -> %+v", before, after)
	}
	base, _ := sys.Answer(paperdata.QueryE, xpathviews.BF)
	if strings.Join(res.Codes(), ",") != strings.Join(base.Codes(), ",") {
		t.Fatalf("spaced spelling answers drifted: %v", res.Codes())
	}
}

// TestPlanCacheDisabled: Options.NoPlanCache keeps the hot path fully
// recomputed — nothing is cached and nothing is consulted.
func TestPlanCacheDisabled(t *testing.T) {
	sys := chaosSystem(t)
	ctx := context.Background()
	opts := xpathviews.Options{Strategy: xpathviews.MV, NoPlanCache: true}
	for i := 0; i < 3; i++ {
		if _, err := sys.AnswerContext(ctx, paperdata.QueryE, opts); err != nil {
			t.Fatal(err)
		}
	}
	if n := sys.PlanCacheLen(); n != 0 {
		t.Fatalf("NoPlanCache populated %d entries", n)
	}
	st := sys.PlanCacheStats()
	if st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("NoPlanCache touched the cache: %+v", st)
	}
}

// TestPlanCacheInvalidationRemoveView is the safety property: a cached
// selection must never serve a view after RemoveView dropped it. With a
// redundant copy of V1 present, dropping whichever copy the plan selected
// forces a recompute that answers identically from the survivor.
func TestPlanCacheInvalidationRemoveView(t *testing.T) {
	sys, err := xpathviews.OpenWithFST(paperdata.BookTree(), paperdata.BookFST())
	if err != nil {
		t.Fatal(err)
	}
	v1a, err := sys.AddView(paperdata.ViewV1, 0)
	if err != nil {
		t.Fatal(err)
	}
	v1b, err := sys.AddView(paperdata.ViewV1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.AddView(paperdata.ViewV2, 0); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	first, err := sys.AnswerContext(ctx, paperdata.QueryE, mvOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Drop whichever V1 copy the cached plan used.
	doomed := v1a
	used := map[int]bool{}
	for _, id := range first.ViewsUsed {
		used[id] = true
	}
	if !used[v1a] {
		doomed = v1b
	}
	if !sys.RemoveView(doomed) {
		t.Fatalf("RemoveView(%d) failed", doomed)
	}

	second, err := sys.AnswerContext(ctx, paperdata.QueryE, mvOpts())
	if err != nil {
		t.Fatalf("query unanswerable after dropping a redundant view: %v", err)
	}
	for _, id := range second.ViewsUsed {
		if id == doomed {
			t.Fatalf("cached plan served dropped view %d", doomed)
		}
	}
	if strings.Join(first.Codes(), ",") != strings.Join(second.Codes(), ",") {
		t.Fatalf("answers drifted after invalidation: %v vs %v", first.Codes(), second.Codes())
	}
	if st := sys.PlanCacheStats(); st.Invalidations == 0 {
		t.Fatalf("RemoveView invalidated nothing: %+v", st)
	}

	// Dropping the last V1 makes the query unanswerable — and the stale
	// plan must not pretend otherwise.
	survivor := v1a + v1b - doomed
	if !sys.RemoveView(survivor) {
		t.Fatalf("RemoveView(%d) failed", survivor)
	}
	if _, err := sys.AnswerContext(ctx, paperdata.QueryE, mvOpts()); !errors.Is(err, xpathviews.ErrNotAnswerable) {
		t.Fatalf("expected ErrNotAnswerable after dropping all Δ-views, got %v", err)
	}
}

// TestPlanCacheInvalidationApplyAdvice: a cached negative plan (the query
// was unanswerable) must be invalidated when ApplyAdvice materializes the
// views that answer it.
func TestPlanCacheInvalidationApplyAdvice(t *testing.T) {
	doc := xmark.Generate(xmark.Config{Scale: 0.05, Seed: 47})
	sys, err := xpathviews.Open(doc)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const q = "//person/name"

	if _, err := sys.AnswerContext(ctx, q, mvOpts()); !errors.Is(err, xpathviews.ErrNotAnswerable) {
		t.Fatalf("expected ErrNotAnswerable with no views, got %v", err)
	}
	// The negative outcome is itself cached: the retry hits.
	before := sys.PlanCacheStats()
	if _, err := sys.AnswerContext(ctx, q, mvOpts()); !errors.Is(err, xpathviews.ErrNotAnswerable) {
		t.Fatalf("expected cached ErrNotAnswerable, got %v", err)
	}
	if after := sys.PlanCacheStats(); after.Hits <= before.Hits {
		t.Fatalf("negative plan was not cached: %+v -> %+v", before, after)
	}

	adv, err := sys.Advise([]xpathviews.WorkloadEntry{{Freq: 5, Query: q}},
		xpathviews.AdviceOptions{ByteBudget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ApplyAdvice(adv); err != nil {
		t.Fatal(err)
	}

	res, err := sys.AnswerContext(ctx, q, mvOpts())
	if err != nil {
		t.Fatalf("stale negative plan survived ApplyAdvice: %v", err)
	}
	base, err := sys.Answer(q, xpathviews.BF)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(res.Codes(), ",") != strings.Join(base.Codes(), ",") {
		t.Fatalf("post-advice answers drifted: %v vs %v", res.Codes(), base.Codes())
	}
}

// TestChaosPlanCacheInvalidation is the fault-injection variant of the
// invalidation property. A cached plan legitimately serves past armed
// filtering/selection fault points (those stages are skipped on a hit);
// the moment the view set changes, the recompute must run the real —
// faulted — pipeline and contain the failure, and recover once disarmed.
func TestChaosPlanCacheInvalidation(t *testing.T) {
	sys := chaosSystem(t)
	ctx := context.Background()

	warm, err := sys.AnswerContext(ctx, paperdata.QueryE, mvOpts())
	if err != nil {
		t.Fatal(err)
	}

	defer faults.DisarmAll()
	faults.Arm("vfilter.filtering", faults.Error)
	faults.Arm("selection.minimum", faults.Error)

	// Hit path: armed plan-stage faults do not fire on a cache hit.
	hit, err := sys.AnswerContext(ctx, paperdata.QueryE, mvOpts())
	if err != nil {
		t.Fatalf("cache hit ran the faulted plan stages: %v", err)
	}
	if strings.Join(hit.Codes(), ",") != strings.Join(warm.Codes(), ",") {
		t.Fatalf("hit answers drifted under armed faults: %v vs %v", hit.Codes(), warm.Codes())
	}

	// A view-set change invalidates the plan; the recompute must hit the
	// armed pipeline and fail contained — never serve the stale plan.
	if _, err := sys.AddView("//f//i", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.AnswerContext(ctx, paperdata.QueryE, mvOpts()); !errors.Is(err, xpathviews.ErrInternal) {
		t.Fatalf("invalidated plan did not recompute through the faulted pipeline: %v", err)
	}
	if faults.Hits("vfilter.filtering") == 0 && faults.Hits("selection.minimum") == 0 {
		t.Fatal("no plan-stage fault fired on the recompute")
	}

	faults.DisarmAll()
	res, err := sys.AnswerContext(ctx, paperdata.QueryE, mvOpts())
	if err != nil {
		t.Fatalf("pipeline unhealthy after chaos: %v", err)
	}
	if strings.Join(res.Codes(), ",") != strings.Join(warm.Codes(), ",") {
		t.Fatalf("post-chaos answers drifted: %v vs %v", res.Codes(), warm.Codes())
	}
}
