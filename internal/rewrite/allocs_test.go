package rewrite

import (
	"testing"

	"xpathviews/internal/dewey"
	"xpathviews/internal/paperdata"
	"xpathviews/internal/selection"
	"xpathviews/internal/views"
	"xpathviews/internal/xpath"
)

// TestRewriteSteadyStateAllocs is the allocation regression guard for
// the rewrite hot paths on the paper's running example, every pool warm.
//
// miss: a full rewrite that builds its own join skeleton sits
// at ~40 heap allocations (skeleton, Result, Δ-index list, answer slice,
// compensating-pattern bits). The bound leaves a little headroom for
// GC-timed pool evictions but fails if per-answer work creeps back in —
// the old extract dedup alone cost one Code.String() key per answer plus
// a map, and the old joiner allocated a closure per backtracking probe.
//
// hit: with a caller's plan remembering the Δ-list, what is left is the
// Result, the compensating pattern and the answer slice — nothing per
// scanned fragment, no refine scratch, no arena.
func TestRewriteSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector distorts allocation counts")
	}
	tree := paperdata.BookTree()
	enc, err := dewey.Encode(tree, paperdata.BookFST())
	if err != nil {
		t.Fatal(err)
	}
	reg := views.NewRegistry(tree, enc)
	reg.Add(xpath.MustParse(paperdata.ViewV1), 0)
	reg.Add(xpath.MustParse(paperdata.ViewV2), 0)
	q := xpath.MustParse(paperdata.QueryE)
	sel, err := selection.MinimumBudget(q, reg.ViewList, nil)
	if err != nil {
		t.Fatal(err)
	}
	jp, err := PlanJoin(q, sel.Covers)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		opt   Options
		memo  bool
		bound float64
	}{
		{"miss", Options{}, false, 48},
		{"hit", Options{Plan: jp}, true, 10},
	} {
		run := func() {
			res, err := ExecuteOptions(q, sel, enc.FST(), nil, c.opt)
			if err != nil {
				t.Fatal(err)
			}
			if res.Memo != c.memo {
				t.Fatalf("%s: Memo = %v", c.name, res.Memo)
			}
		}
		if c.memo {
			if _, err := ExecuteOptions(q, sel, enc.FST(), nil, c.opt); err != nil { // the computing call
				t.Fatal(err)
			}
		}
		for i := 0; i < 50; i++ {
			run() // warm vtPool, joinerPool, refineScratchPool
		}
		allocs := testing.AllocsPerRun(200, run)
		t.Logf("%s: %.1f allocs/op", c.name, allocs)
		if allocs > c.bound {
			t.Fatalf("steady-state rewrite (%s) allocates %.1f objects/op, want <= %.0f", c.name, allocs, c.bound)
		}
	}
}
