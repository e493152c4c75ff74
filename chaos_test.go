package xpathviews_test

import (
	"context"
	"errors"
	"testing"

	"xpathviews"
	"xpathviews/internal/dewey"
	"xpathviews/internal/faults"
	"xpathviews/internal/paperdata"
)

// chaosSystem is the book-tree fixture with the paper's Table I views:
// every strategy and every registered fault point is reachable on it.
func chaosSystem(t *testing.T) *xpathviews.System {
	t.Helper()
	sys, err := xpathviews.OpenWithFST(paperdata.BookTree(), paperdata.BookFST())
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range paperdata.TableIViews() {
		if _, err := sys.AddView(src, xpathviews.DefaultFragmentLimit); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

var chaosStrategies = []xpathviews.Strategy{
	xpathviews.BN, xpathviews.BF, xpathviews.MN,
	xpathviews.MV, xpathviews.HV, xpathviews.CV,
}

// sweep exercises every answering entry point once, asserting that each
// call either succeeds or fails with a contained, typed error — never a
// crash of the test binary.
func sweep(t *testing.T, sys *xpathviews.System, point string) {
	t.Helper()
	for _, strat := range chaosStrategies {
		// NoPlanCache: the sweep asserts each stage's fault point fires,
		// so every call must run the full uncached pipeline (a plan-cache
		// hit legitimately skips filtering and selection).
		res, err := sys.AnswerContext(context.Background(), paperdata.QueryE,
			xpathviews.Options{Strategy: strat, NoPlanCache: true})
		if err == nil {
			if res == nil {
				t.Fatalf("[%s] %v: nil result without error", point, strat)
			}
			continue
		}
		if !errors.Is(err, xpathviews.ErrInternal) {
			t.Fatalf("[%s] %v: error not contained as ErrInternal: %v", point, strat, err)
		}
		var ie *xpathviews.InternalError
		if !errors.As(err, &ie) || ie.Stage == "" {
			t.Fatalf("[%s] %v: ErrInternal without a stage: %v", point, strat, err)
		}
	}
	// No Table I view certifies an answer of QueryE, so the
	// unfaulted contained rewriting is ErrNotAnswerable.
	if _, err := sys.AnswerContext(context.Background(), paperdata.QueryE,
		xpathviews.Options{Strategy: xpathviews.Contained}); err != nil &&
		!errors.Is(err, xpathviews.ErrInternal) && !errors.Is(err, xpathviews.ErrNotAnswerable) {
		t.Fatalf("[%s] contained: error not contained as ErrInternal: %v", point, err)
	}

	// Mutation surface: an insert/delete round-trip through the
	// incremental maintenance path (faults × updates). The fault point
	// fires before any state changes, so a contained failure must leave
	// the document and views exactly as they were; a successful insert is
	// reverted by the paired delete.
	parent := dewey.Code{0, 8} // the book tree's s2 section
	ins, err := sys.InsertSubtree(parent, "<p/>")
	if err != nil {
		if !errors.Is(err, xpathviews.ErrInternal) {
			t.Fatalf("[%s] insert: error not contained as ErrInternal: %v", point, err)
		}
		var ie *xpathviews.InternalError
		if !errors.As(err, &ie) || ie.Stage == "" {
			t.Fatalf("[%s] insert: ErrInternal without a stage: %v", point, err)
		}
	} else {
		if _, derr := sys.DeleteSubtree(ins.Code); derr != nil && !errors.Is(derr, xpathviews.ErrInternal) {
			t.Fatalf("[%s] delete: error not contained as ErrInternal: %v", point, derr)
		}
	}
}

// TestChaosRegisteredPoints checks the full set of fault points the
// pipeline declares, so a new stage cannot silently ship without one.
func TestChaosRegisteredPoints(t *testing.T) {
	want := []string{
		"engine.bn", "engine.bf", "vfilter.filtering",
		"selection.minimum", "selection.heuristic", "selection.costbased",
		"rewrite.refine", "rewrite.join", "rewrite.extract", "rewrite.contained",
		"maintain.apply",
	}
	names := map[string]bool{}
	for _, n := range faults.Names() {
		names[n] = true
	}
	for _, w := range want {
		if !names[w] {
			t.Errorf("fault point %q not registered (have %v)", w, faults.Names())
		}
	}
}

// TestChaosEveryPointEveryMode arms each registered fault point in error
// and panic mode and drives the whole answering surface through it. The
// acceptance bar: a typed ErrInternal or a successful (possibly
// degraded) Result — never an uncontained panic.
func TestChaosEveryPointEveryMode(t *testing.T) {
	sys := chaosSystem(t)
	modes := []struct {
		name string
		m    faults.Mode
	}{{"error", faults.Error}, {"panic", faults.Panic}}
	for _, name := range faults.Names() {
		for _, mode := range modes {
			t.Run(name+"/"+mode.name, func(t *testing.T) {
				defer faults.DisarmAll()
				if !faults.Arm(name, mode.m) {
					t.Fatalf("cannot arm %q", name)
				}
				sweep(t, sys, name)
				if faults.Hits(name) == 0 {
					t.Fatalf("point %q never fired during the sweep", name)
				}
			})
		}
	}
	// With everything disarmed again the pipeline is healthy.
	res, err := sys.Answer(paperdata.QueryE, xpathviews.HV)
	if err != nil || len(res.Answers) == 0 {
		t.Fatalf("pipeline unhealthy after chaos: %v %v", res, err)
	}
}

// TestChaosResilientDegrades: under an injected fault in the primary
// rung, AnswerResilient still serves the query and records both the rung
// that answered and why the earlier one was skipped.
func TestChaosResilientDegrades(t *testing.T) {
	sys := chaosSystem(t)
	for _, mode := range []faults.Mode{faults.Error, faults.Panic} {
		defer faults.DisarmAll()
		faults.Arm("selection.heuristic", mode)
		res, err := sys.AnswerResilient(context.Background(), paperdata.QueryE,
			xpathviews.Options{NoPlanCache: true})
		if err != nil {
			t.Fatalf("mode %v: resilient chain failed outright: %v", mode, err)
		}
		if !res.Degraded || res.Strategy == xpathviews.HV {
			t.Fatalf("mode %v: expected degradation past HV, got strategy=%v degraded=%v reasons=%v",
				mode, res.Strategy, res.Degraded, res.DegradedReasons)
		}
		if len(res.Answers) == 0 {
			t.Fatalf("mode %v: degraded chain lost the answers", mode)
		}
		if len(res.DegradedReasons) == 0 {
			t.Fatalf("mode %v: no degradation reasons recorded", mode)
		}
		faults.DisarmAll()
	}

	// A fault in every view-based rung degrades all the way to direct
	// evaluation.
	defer faults.DisarmAll()
	faults.Arm("vfilter.filtering", faults.Panic)
	faults.Arm("rewrite.contained", faults.Error)
	res, err := sys.AnswerResilient(context.Background(), paperdata.QueryE,
		xpathviews.Options{NoPlanCache: true})
	if err != nil {
		t.Fatalf("resilient chain failed outright: %v", err)
	}
	if res.Strategy != xpathviews.BN || !res.Degraded {
		t.Fatalf("expected degradation to BN, got strategy=%v degraded=%v", res.Strategy, res.Degraded)
	}
	base, err := sys.Answer(paperdata.QueryE, xpathviews.BF)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != len(base.Answers) {
		t.Fatalf("degraded answers differ: %d vs %d", len(res.Answers), len(base.Answers))
	}
}

// TestChaosBNFaultIsInternal: an armed engine.bn point fails a BN call
// with ErrInternal staged at engine.bn, in both modes, and BN answers
// again once it is disarmed.
func TestChaosBNFaultIsInternal(t *testing.T) {
	sys := chaosSystem(t)
	ctx := context.Background()
	opts := xpathviews.Options{Strategy: xpathviews.BN}
	defer faults.DisarmAll()
	for _, mode := range []faults.Mode{faults.Error, faults.Panic} {
		faults.Arm("engine.bn", mode)
		_, err := sys.AnswerContext(ctx, paperdata.QueryE, opts)
		var ie *xpathviews.InternalError
		if !errors.Is(err, xpathviews.ErrInternal) || !errors.As(err, &ie) || ie.Stage != "engine.bn" {
			t.Fatalf("mode %v: err = %v, want ErrInternal at engine.bn", mode, err)
		}
		faults.DisarmAll()
		if res, err := sys.AnswerContext(ctx, paperdata.QueryE, opts); err != nil || len(res.Answers) != 5 {
			t.Fatalf("mode %v, disarmed: err %v", mode, err)
		}
	}
}
