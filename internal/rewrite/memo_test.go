package rewrite_test

// The Δ-list memo on a caller-supplied JoinPlan: a hit must return what a
// full rewrite returns, report that it did no refine/join work, and stop
// being a hit the moment a covered view's generation moves or the plan
// is handed a pattern or cover set it was not built for.

import (
	"errors"
	"sync"
	"testing"
	"time"

	"xpathviews/internal/budget"
	"xpathviews/internal/dewey"
	"xpathviews/internal/engine"
	"xpathviews/internal/paperdata"
	"xpathviews/internal/pattern"
	"xpathviews/internal/rewrite"
	"xpathviews/internal/selection"
	"xpathviews/internal/views"
	"xpathviews/internal/xmark"
	"xpathviews/internal/xmltree"
	"xpathviews/internal/xpath"
)

type memoFixture struct {
	name string
	tree *xmltree.Tree
	enc  *dewey.Encoding
	fst  *dewey.FST
	reg  *views.Registry
	q    *pattern.Pattern
	sel  *selection.Selection
}

func newMemoFixture(t testing.TB, name string, tree *xmltree.Tree, enc *dewey.Encoding, viewSrcs []string, query string) *memoFixture {
	t.Helper()
	reg := views.NewRegistry(tree, enc)
	for _, src := range viewSrcs {
		if _, err := reg.Add(xpath.MustParse(src), 0); err != nil {
			t.Fatal(err)
		}
	}
	q := pattern.Minimize(xpath.MustParse(query))
	sel, err := selection.MinimumBudget(q, reg.ViewList, nil)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return &memoFixture{name: name, tree: tree, enc: enc, fst: enc.FST(), reg: reg, q: q, sel: sel}
}

func bookFixture(t testing.TB, name string, viewSrcs []string, query string) *memoFixture {
	t.Helper()
	tree := paperdata.BookTree()
	enc, err := dewey.Encode(tree, paperdata.BookFST())
	if err != nil {
		t.Fatal(err)
	}
	return newMemoFixture(t, name, tree, enc, viewSrcs, query)
}

func xmarkFixture(t testing.TB, name string, viewSrcs []string, query string) *memoFixture {
	t.Helper()
	tree := xmark.Generate(xmark.Config{Scale: 0.08, Seed: 61})
	enc, _, err := dewey.EncodeTree(tree)
	if err != nil {
		t.Fatal(err)
	}
	return newMemoFixture(t, name, tree, enc, viewSrcs, query)
}

func memoFixtures(t testing.TB) []*memoFixture {
	return []*memoFixture{
		bookFixture(t, "strong", []string{"//s[t]//p"}, "//s[t]//p"),
		bookFixture(t, "join", []string{paperdata.ViewV1, paperdata.ViewV2}, paperdata.QueryE),
		bookFixture(t, "empty", []string{paperdata.ViewV1}, "//s[t]/p[nosuch]"),
		xmarkFixture(t, "xmark-strong", []string{"//person/name"}, "//person/name"),
		xmarkFixture(t, "xmark-join", []string{"//person/address/city", "//person[address]/name"}, "//person[address/city]/name"),
	}
}

// didNoStageWork reports that a Result carries none of the refine/join
// counters and its meter none of their times: the call skipped stages
// 1–3.
func didNoStageWork(r *rewrite.Result, b *budget.B) bool {
	return r.FragmentsScanned == 0 && r.FragmentsJoined == 0 &&
		r.ViewScanned == [rewrite.AttrMaxViews]int32{} && r.ViewKept == [rewrite.AttrMaxViews]int32{} &&
		r.JoinPartitions == 0 && r.GallopHits == 0 && b.Nanos(budget.Refine) == 0 && b.Nanos(budget.Join) == 0
}

// timedWithin runs one ExecuteOptions under b and reports whether the
// stage times it charged fit inside the call's wall time: every stage
// clock started inside the call.
func timedWithin(q *pattern.Pattern, sel *selection.Selection, fst *dewey.FST, b *budget.B, opt rewrite.Options) (*rewrite.Result, bool, error) {
	t0 := time.Now()
	res, err := rewrite.ExecuteOptions(q, sel, fst, b, opt)
	wall := int64(time.Since(t0))
	staged := b.Nanos(budget.Refine) + b.Nanos(budget.Join) + b.Nanos(budget.Extract)
	return res, staged <= wall, err
}

// TestMemoHitMatchesFreshAndNaive: for a single strong cover, 2-view
// joins and an empty outcome, the first execution
// with a plan computes, every later one is served from the memo, and all
// of them agree with a plan-less Execute, with ExecuteNaive and with
// direct evaluation.
func TestMemoHitMatchesFreshAndNaive(t *testing.T) {
	for _, fx := range memoFixtures(t) {
		fresh, err := rewrite.ExecuteOptions(fx.q, fx.sel, fx.fst, nil, rewrite.Options{})
		if err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		naive, err := rewrite.ExecuteNaive(fx.q, fx.sel, fx.fst)
		if err != nil {
			t.Fatalf("%s naive: %v", fx.name, err)
		}
		if !sameCodes(fresh, naive) || !codesMatch(t, fx.enc, engine.Answers(fx.tree, fx.q), fresh) {
			t.Fatalf("%s: fresh %v, naive %v and direct evaluation disagree", fx.name, fresh.Codes(), naive.Codes())
		}
		if fresh.Memo {
			t.Fatalf("%s: a plan-less Execute reported a memo hit", fx.name)
		}
		if fx.name == "empty" && len(fresh.Answers) != 0 {
			t.Fatalf("empty fixture has answers: %v", fresh.Codes())
		}
		jp, err := rewrite.PlanJoin(fx.q, fx.sel.Covers)
		if err != nil {
			t.Fatal(err)
		}
		opt := rewrite.Options{Plan: jp}
		fb := budget.New(nil, 0, 0)
		first, within, err := timedWithin(fx.q, fx.sel, fx.fst, fb, opt)
		if err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		if first.Memo || first.FragmentsScanned == 0 || fb.Nanos(budget.Refine) == 0 || !within {
			t.Fatalf("%s: first execution did not run the stages: %+v", fx.name, first)
		}
		if !sameCodes(first, fresh) {
			t.Fatalf("%s: first %v != fresh %v", fx.name, first.Codes(), fresh.Codes())
		}
		for i := 0; i < 3; i++ {
			hb := budget.New(nil, 0, 0)
			hit, within, err := timedWithin(fx.q, fx.sel, fx.fst, hb, opt)
			if err != nil {
				t.Fatalf("%s hit %d: %v", fx.name, i, err)
			}
			if !hit.Memo || !didNoStageWork(hit, hb) || !within {
				t.Fatalf("%s hit %d: not served from the memo: %+v", fx.name, i, hit)
			}
			if !sameCodes(hit, fresh) {
				t.Fatalf("%s hit %d: %v != fresh %v", fx.name, i, hit.Codes(), fresh.Codes())
			}
			for k, a := range hit.Answers {
				if a.Node != fresh.Answers[k].Node {
					t.Fatalf("%s hit %d: answer %d is a different fragment node", fx.name, i, k)
				}
			}
		}
	}
}

// TestMemoRecomputesOnGenChange: the memo is valid exactly while every
// cover's View.Gen stands still. Dropping a Δ-view fragment and bumping
// Gen, as maintenance does, makes the same plan recompute (and remember
// the new list); bumping the Gen of the non-Δ cover does too.
func TestMemoRecomputesOnGenChange(t *testing.T) {
	fx := bookFixture(t, "join", []string{paperdata.ViewV1, paperdata.ViewV2}, paperdata.QueryE)
	jp, err := rewrite.PlanJoin(fx.q, fx.sel.Covers)
	if err != nil {
		t.Fatal(err)
	}
	opt := rewrite.Options{Plan: jp}
	run := func() *rewrite.Result {
		t.Helper()
		r, err := rewrite.ExecuteOptions(fx.q, fx.sel, fx.fst, nil, opt)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	before := run()
	if hit := run(); !hit.Memo || !sameCodes(hit, before) {
		t.Fatalf("warm call: memo=%v codes=%v, want a hit with %v", hit.Memo, hit.Codes(), before.Codes())
	}

	// Remove the fragment behind the first answer from the Δ-view, the way
	// a delete's splice would, and bump its generation.
	dv := fx.sel.Covers[rewrite.DeltaIndex(jp)].View
	at := dv.FindCode(before.Answers[0].Code)
	if at < 0 {
		t.Fatalf("answer %v is not a Δ-view fragment root", before.Answers[0].Code)
	}
	dv.ReplaceRange(at, at+1, nil)
	dv.Gen++
	after := run()
	if after.Memo || after.FragmentsScanned == 0 {
		t.Fatalf("call after a Gen bump was served from the stale memo: %+v", after)
	}
	if len(after.Answers) != len(before.Answers)-1 {
		t.Fatalf("after dropping a fragment: %v, want one fewer than %v", after.Codes(), before.Codes())
	}
	if ref, err := rewrite.ExecuteOptions(fx.q, fx.sel, fx.fst, nil, rewrite.Options{}); err != nil || !sameCodes(after, ref) {
		t.Fatalf("recomputed %v != fresh %v (err %v)", after.Codes(), ref.Codes(), err)
	}
	if hit := run(); !hit.Memo || !sameCodes(hit, after) {
		t.Fatalf("the recomputed list was not remembered: memo=%v codes=%v", hit.Memo, hit.Codes())
	}

	// Any cover counts, not only the Δ-view.
	other := fx.sel.Covers[1-rewrite.DeltaIndex(jp)].View
	other.Gen++
	if r := run(); r.Memo || !sameCodes(r, after) {
		t.Fatalf("a non-Δ cover's Gen bump did not invalidate: memo=%v codes=%v", r.Memo, r.Codes())
	}
}

// TestMemoIgnoredForOtherQueryOrCovers: a plan handed a pattern object or
// a cover set it was not built for is recomputed inside the call — which
// neither reads nor overwrites what the plan remembers.
func TestMemoIgnoredForOtherQueryOrCovers(t *testing.T) {
	fx := bookFixture(t, "join", []string{paperdata.ViewV1, paperdata.ViewV2}, paperdata.QueryE)
	jp, err := rewrite.PlanJoin(fx.q, fx.sel.Covers)
	if err != nil {
		t.Fatal(err)
	}
	opt := rewrite.Options{Plan: jp}
	warm, err := rewrite.ExecuteOptions(fx.q, fx.sel, fx.fst, nil, opt)
	if err != nil {
		t.Fatal(err)
	}

	// Same text, different pattern object (covers point into its nodes).
	q2 := pattern.Minimize(xpath.MustParse(paperdata.QueryE))
	sel2, err := selection.MinimumBudget(q2, fx.reg.ViewList, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r, err := rewrite.ExecuteOptions(q2, sel2, fx.fst, nil, opt); err != nil || r.Memo || !sameCodes(r, warm) {
		t.Fatalf("other pattern object: memo=%v err=%v", r != nil && r.Memo, err)
	}

	// Same pattern, a different cover set of the same size: a second
	// selection over the same views has its own Cover objects.
	sel3, err := selection.MinimumBudget(fx.q, fx.reg.ViewList, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r, err := rewrite.ExecuteOptions(fx.q, sel3, fx.fst, nil, opt); err != nil || r.Memo || !sameCodes(r, warm) {
		t.Fatalf("other cover set: memo=%v err=%v", r != nil && r.Memo, err)
	}

	// The plan still remembers the list for the pair it was built for.
	if r, err := rewrite.ExecuteOptions(fx.q, fx.sel, fx.fst, nil, opt); err != nil || !r.Memo || !sameCodes(r, warm) {
		t.Fatalf("original pair after the mismatches: memo=%v err=%v", r != nil && r.Memo, err)
	}
}

// TestMemoConcurrentFirstExecutions: many goroutines execute a cold plan
// at once (run under -race). Each either computes and stores or reads a
// sibling's store; every result is the reference, and the plan ends up
// remembering.
func TestMemoConcurrentFirstExecutions(t *testing.T) {
	for _, fx := range []*memoFixture{
		bookFixture(t, "join", []string{paperdata.ViewV1, paperdata.ViewV2}, paperdata.QueryE),
		xmarkFixture(t, "xmark-join", []string{"//person/address/city", "//person[address]/name"}, "//person[address/city]/name"),
	} {
		ref, err := rewrite.ExecuteOptions(fx.q, fx.sel, fx.fst, nil, rewrite.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ref.Codes() // Codes caches unsynchronized: fill it before sharing ref
		for round := 0; round < 10; round++ {
			jp, err := rewrite.PlanJoin(fx.q, fx.sel.Covers)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 4; i++ {
						r, err := rewrite.ExecuteOptions(fx.q, fx.sel, fx.fst, nil, rewrite.Options{Plan: jp})
						if err != nil {
							t.Errorf("%s: %v", fx.name, err)
							return
						}
						if !sameCodes(r, ref) {
							t.Errorf("%s: concurrent result %v != %v", fx.name, r.Codes(), ref.Codes())
							return
						}
					}
				}(g)
			}
			wg.Wait()
			if r, err := rewrite.ExecuteOptions(fx.q, fx.sel, fx.fst, nil, rewrite.Options{Plan: jp}); err != nil || !r.Memo {
				t.Fatalf("%s: plan did not remember after concurrent first executions (err %v)", fx.name, err)
			}
		}
	}
}

// TestMemoHitStillChargesExtraction: a hit skips the refine and join
// charges only. Extraction's per-fragment steps remain, so a budget
// smaller than the Δ-list fails a hit exactly as it fails a miss.
func TestMemoHitStillChargesExtraction(t *testing.T) {
	fx := xmarkFixture(t, "xmark-strong", []string{"//person/name"}, "//person/name")
	jp, err := rewrite.PlanJoin(fx.q, fx.sel.Covers)
	if err != nil {
		t.Fatal(err)
	}
	opt := rewrite.Options{Plan: jp}
	warm, err := rewrite.ExecuteOptions(fx.q, fx.sel, fx.fst, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(len(warm.Answers))
	if n < 10 {
		t.Fatalf("fixture too small: %d answers", n)
	}
	if _, err := rewrite.ExecuteOptions(fx.q, fx.sel, fx.fst, budget.New(nil, n-1, 0), opt); !errors.Is(err, budget.ErrBudget) {
		t.Fatalf("hit under a budget of %d steps for %d fragments: err = %v, want budget exhaustion", n-1, n, err)
	}
	b := budget.New(nil, n, 0)
	hit, err := rewrite.ExecuteOptions(fx.q, fx.sel, fx.fst, b, opt)
	if err != nil || !hit.Memo || !sameCodes(hit, warm) {
		t.Fatalf("hit under an exact budget: memo=%v err=%v", hit != nil && hit.Memo, err)
	}
	if got, _ := b.Spent(); got != n {
		t.Fatalf("a hit charged %d steps, want exactly the %d extraction steps", got, n)
	}
}
