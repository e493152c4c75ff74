package rewrite_test

import (
	"errors"
	"math/rand"
	"testing"

	"xpathviews/internal/budget"
	"xpathviews/internal/dewey"
	"xpathviews/internal/engine"
	"xpathviews/internal/paperdata"
	"xpathviews/internal/pattern"
	"xpathviews/internal/rewrite"
	"xpathviews/internal/selection"
	"xpathviews/internal/vfilter"
	"xpathviews/internal/views"
	"xpathviews/internal/xmark"
	"xpathviews/internal/xmltree"
	"xpathviews/internal/xpath"
)

// TestExample51 replays §V's rewriting walk-through: answering
// Q_e = //s[f//i][t]/p from V1 = //s[t]/p and V2 = //s[p]/f on the book
// tree yields exactly {p3, p4, p5, p6, p7} — with p1, p2 filtered by the
// join (no common s parent with an f fragment) and p8 filtered too.
func TestExample51(t *testing.T) {
	tree := paperdata.BookTree()
	enc, err := dewey.Encode(tree, paperdata.BookFST())
	if err != nil {
		t.Fatal(err)
	}
	reg := views.NewRegistry(tree, enc)
	v1, err := reg.Add(xpath.MustParse(paperdata.ViewV1), 0)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := reg.Add(xpath.MustParse(paperdata.ViewV2), 0)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's fragment sets: eight p's for V1, {f1,f2,f3} for V2.
	if len(v1.Fragments) != 8 {
		t.Fatalf("V1 has %d fragments, want 8", len(v1.Fragments))
	}
	if len(v2.Fragments) != 3 {
		t.Fatalf("V2 has %d fragments, want 3", len(v2.Fragments))
	}

	q := xpath.MustParse(paperdata.QueryE)
	sel, err := selection.MinimumBudget(q, reg.ViewList, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rewrite.ExecuteOptions(q, sel, enc.FST(), nil, rewrite.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"0.8.6.1":  true, // p3
		"0.5.1":    true, // p4
		"0.5.5":    true, // p5
		"0.5.10.1": true, // p6
		"0.5.10.5": true, // p7
	}
	if len(res.Answers) != len(want) {
		t.Fatalf("answers = %v, want 5 of %v", res.Codes(), want)
	}
	for _, a := range res.Answers {
		if !want[a.Code.String()] {
			t.Fatalf("unexpected answer %s (all: %v)", a.Code, res.Codes())
		}
	}
	// Ground truth must agree.
	direct := engine.Answers(tree, q)
	if len(direct) != len(res.Answers) {
		t.Fatalf("direct evaluation found %d answers, rewrite %d", len(direct), len(res.Answers))
	}
}

// TestNaiveJoinAgrees: the ablation baseline must produce identical
// results on the running example.
func TestNaiveJoinAgrees(t *testing.T) {
	tree := paperdata.BookTree()
	enc, _ := dewey.Encode(tree, paperdata.BookFST())
	reg := views.NewRegistry(tree, enc)
	reg.Add(xpath.MustParse(paperdata.ViewV1), 0)
	reg.Add(xpath.MustParse(paperdata.ViewV2), 0)
	q := xpath.MustParse(paperdata.QueryE)
	sel, err := selection.MinimumBudget(q, reg.ViewList, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := rewrite.ExecuteOptions(q, sel, enc.FST(), nil, rewrite.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := rewrite.ExecuteNaive(q, sel, enc.FST())
	if err != nil {
		t.Fatal(err)
	}
	if !sameCodes(a, b) {
		t.Fatalf("holistic %v vs naive %v", a.Codes(), b.Codes())
	}
}

func sameCodes(a, b *rewrite.Result) bool {
	ca, cb := a.Codes(), b.Codes()
	if len(ca) != len(cb) {
		return false
	}
	for i := range ca {
		if dewey.Compare(ca[i], cb[i]) != 0 {
			return false
		}
	}
	return true
}

// TestSingleViewRewrite: a view equal to the query answers it exactly.
func TestSingleViewRewrite(t *testing.T) {
	tree := paperdata.BookTree()
	enc, _ := dewey.Encode(tree, paperdata.BookFST())
	reg := views.NewRegistry(tree, enc)
	reg.Add(xpath.MustParse("//s[t]//p"), 0)
	q := xpath.MustParse("//s[t]//p")
	sel, err := selection.MinimumBudget(q, reg.ViewList, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Covers) != 1 || !sel.Covers[0].Strong {
		t.Fatalf("expected a single strong cover, got %+v", sel.Covers)
	}
	res, err := rewrite.ExecuteOptions(q, sel, enc.FST(), nil, rewrite.Options{})
	if err != nil {
		t.Fatal(err)
	}
	direct := engine.Answers(tree, q)
	if len(res.Answers) != len(direct) {
		t.Fatalf("rewrite %d answers, direct %d", len(res.Answers), len(direct))
	}
}

// TestEquivalence is the headline property: whenever a selection strategy
// declares a random query answerable by random materialized views, the
// rewritten result equals direct evaluation — on randomized documents.
func TestEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	labels := []string{"a", "b", "c", "d", "e"}
	answerable, trials := 0, 0
	for doc := 0; doc < 12; doc++ {
		tree := randomTree(r, 60+r.Intn(120), labels)
		enc, fst, err := dewey.EncodeTree(tree)
		if err != nil {
			t.Fatal(err)
		}
		reg := views.NewRegistry(tree, enc)
		f := vfilter.New()
		for len(reg.ViewList) < 25 {
			vp := randomPattern(r, labels, 4)
			v, err := reg.Add(vp, 0)
			if err != nil {
				continue
			}
			f.AddView(v.ID, v.Pattern)
		}
		for qi := 0; qi < 30; qi++ {
			q := pattern.Minimize(randomPattern(r, labels, 5))
			direct := engine.Answers(tree, q)
			res := f.Filtering(q)
			trials++

			var cands []*views.View
			for _, id := range res.Candidates {
				cands = append(cands, reg.Get(id))
			}
			for name, sel := range map[string]*selection.Selection{
				"minimum":   trySel(func() (*selection.Selection, error) { return selection.MinimumBudget(q, cands, nil) }),
				"heuristic": trySel(func() (*selection.Selection, error) { return selection.HeuristicBudget(q, res, reg, nil) }),
			} {
				if sel == nil {
					continue
				}
				answerable++
				out, err := rewrite.ExecuteOptions(q, sel, fst, nil, rewrite.Options{})
				if err != nil {
					t.Fatalf("%s rewrite of %s failed: %v", name, q, err)
				}
				if !codesMatch(t, enc, direct, out) {
					t.Fatalf("%s: query %s via %d views: rewrite %v != direct %v",
						name, q, len(sel.Covers), out.Codes(), codesOf(enc, direct))
				}
				// The naive join must agree as well.
				nv, err := rewrite.ExecuteNaive(q, sel, fst)
				if err != nil {
					t.Fatalf("naive rewrite: %v", err)
				}
				if !sameCodes(out, nv) {
					t.Fatalf("naive join disagrees on %s", q)
				}
			}
		}
	}
	if answerable < 20 {
		t.Fatalf("only %d answerable cases in %d trials; test too weak", answerable, trials)
	}
}

func trySel(f func() (*selection.Selection, error)) *selection.Selection {
	s, err := f()
	if err != nil {
		return nil
	}
	return s
}

func codesOf(enc *dewey.Encoding, nodes []*xmltree.Node) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = enc.MustCode(n).String()
	}
	return out
}

func codesMatch(t *testing.T, enc *dewey.Encoding, direct []*xmltree.Node, res *rewrite.Result) bool {
	t.Helper()
	want := map[string]bool{}
	for _, n := range direct {
		want[enc.MustCode(n).String()] = true
	}
	if len(res.Answers) != len(want) {
		return false
	}
	for _, a := range res.Answers {
		if !want[a.Code.String()] {
			return false
		}
	}
	return true
}

func randomTree(r *rand.Rand, n int, labels []string) *xmltree.Tree {
	t := xmltree.New(labels[0])
	nodes := []*xmltree.Node{t.Root()}
	for len(nodes) < n {
		parent := nodes[r.Intn(len(nodes))]
		c := t.AddChild(parent, labels[r.Intn(len(labels))])
		nodes = append(nodes, c)
	}
	t.Renumber()
	return t
}

func randomPattern(r *rand.Rand, labels []string, maxNodes int) *pattern.Pattern {
	root := pattern.NewNode(labels[r.Intn(len(labels))], pattern.Descendant)
	nodes := []*pattern.Node{root}
	n := 1 + r.Intn(maxNodes)
	for len(nodes) < n {
		parent := nodes[r.Intn(len(nodes))]
		lb := labels[r.Intn(len(labels))]
		if r.Intn(7) == 0 {
			lb = pattern.Wildcard
		}
		nodes = append(nodes, parent.AddChild(lb, pattern.Axis(r.Intn(2))))
	}
	return &pattern.Pattern{Root: root, Ret: nodes[r.Intn(len(nodes))]}
}

// TestCodesMemoized is the regression test for Result.Codes: the second
// call returns the identical (already sorted) slice with zero further
// allocation.
func TestCodesMemoized(t *testing.T) {
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
	res, err := rewrite.ExecuteOptions(q, sel, enc.FST(), nil, rewrite.Options{})
	if err != nil {
		t.Fatal(err)
	}
	first := res.Codes()
	if len(first) == 0 {
		t.Fatal("no codes on the running example")
	}
	for i := 1; i < len(first); i++ {
		if dewey.Compare(first[i-1], first[i]) > 0 {
			t.Fatalf("codes not sorted: %v", first)
		}
	}
	second := res.Codes()
	if &first[0] != &second[0] || len(first) != len(second) {
		t.Fatal("Codes() rebuilt the slice instead of returning the memo")
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = res.Codes() }); allocs != 0 {
		t.Fatalf("repeated Codes() allocates %.1f objects per call, want 0", allocs)
	}
}

// TestExecuteExactBudget charges the whole §V pipeline — refinement, the
// holistic join and extraction — against a step cap. On XMark two-view
// joins whose Δ-view keeps at least 128 fragments, let S be the steps an
// uncapped run spends: every cap below S must fail with ErrSteps, and a
// cap of exactly S must succeed with the uncapped run's answers. Both on
// a memo miss (stages 1–4 charge) and on a memo hit (extraction only),
// and for both extraction branches: the Δ-view landing on the answer
// node (fragment roots are the answers) and landing above it (a
// compensating query runs inside every joined fragment).
func TestExecuteExactBudget(t *testing.T) {
	tree := xmark.Generate(xmark.Config{Scale: 0.2, Seed: 61})
	enc, _, err := dewey.EncodeTree(tree)
	if err != nil {
		t.Fatal(err)
	}
	for _, fc := range []struct {
		views []string
		query string
	}{
		{[]string{"//person/address/city", "//person[address]/name"}, "//person[address/city]/name"},
		{[]string{"//open_auction/initial", "//open_auction/bidder"}, "//open_auction[initial]/bidder/increase"},
	} {
		fx := newMemoFixture(t, fc.query, tree, enc, fc.views, fc.query)
		jp, err := rewrite.PlanJoin(fx.q, fx.sel.Covers)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name string
			opt  rewrite.Options
			memo bool
		}{
			{"miss", rewrite.Options{}, false},
			{"hit", rewrite.Options{Plan: jp}, true},
		} {
			tag := fx.name + " " + tc.name
			if tc.memo {
				if _, err := rewrite.ExecuteOptions(fx.q, fx.sel, fx.fst, nil, tc.opt); err != nil { // the computing call
					t.Fatal(err)
				}
			}
			b := budget.New(nil, 0, 0)
			ref, err := rewrite.ExecuteOptions(fx.q, fx.sel, fx.fst, b, tc.opt)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			if ref.Memo != tc.memo {
				t.Fatalf("%s: Memo = %v", tag, ref.Memo)
			}
			if !tc.memo {
				if kept := ref.ViewKept[rewrite.DeltaIndex(jp)]; kept < 128 || ref.JoinPartitions != 1 {
					t.Fatalf("%s: Δ-view kept %d fragments, join ran %d times; want >= 128 and 1", tag, kept, ref.JoinPartitions)
				}
			}
			spent, _ := b.Spent()
			for k := int64(1); k < spent; k++ {
				if _, err := rewrite.ExecuteOptions(fx.q, fx.sel, fx.fst, budget.New(nil, k, 0), tc.opt); !errors.Is(err, budget.ErrSteps) {
					t.Fatalf("%s cap %d of %d steps: err = %v, want ErrSteps", tag, k, spent, err)
				}
			}
			got, err := rewrite.ExecuteOptions(fx.q, fx.sel, fx.fst, budget.New(nil, spent, 0), tc.opt)
			if err != nil || got.Memo != tc.memo || !sameCodes(got, ref) {
				t.Fatalf("%s cap %d (exact): err=%v memo=%v, want the uncapped answers", tag, spent, err, got != nil && got.Memo)
			}
			t.Logf("%s: %d steps, %d answers", tag, spent, len(ref.Answers))
		}
	}
}

// TestPlanJoinRefusesUnanswerable: a JoinPlan is proof that its covers
// answer its query, so PlanJoin refuses covers that do not (§IV-A): one
// set with no Δ-cover, and one whose Δ-cover misses a leaf. ExecuteOptions
// refuses them too, both without a plan and with a plan built for an
// answering cover set of the same query.
func TestPlanJoinRefusesUnanswerable(t *testing.T) {
	tree := paperdata.BookTree()
	enc, err := dewey.Encode(tree, paperdata.BookFST())
	if err != nil {
		t.Fatal(err)
	}
	reg := views.NewRegistry(tree, enc)
	cover := func(view string, q *pattern.Pattern) *selection.Cover {
		t.Helper()
		v, err := reg.Add(xpath.MustParse(view), 0)
		if err != nil {
			t.Fatal(err)
		}
		c := selection.ComputeCover(v, q)
		if c == nil {
			t.Fatalf("no homomorphism from %s into %s", view, q)
		}
		return c
	}
	for _, tc := range []struct {
		name, query string
		views       []string // covering every leaf or providing Δ, not both
		wantDelta   bool
	}{
		{"no Δ-cover", "//s[f//i][t]/p", []string{"//s/t", "//s/f//i"}, false},
		{"Δ-cover misses a leaf", "//s[f]/p", []string{"//s/p"}, true},
	} {
		q := xpath.MustParse(tc.query)
		var bad []*selection.Cover
		hasDelta := false
		for _, v := range tc.views {
			c := cover(v, q)
			hasDelta = hasDelta || c.Delta
			bad = append(bad, c)
		}
		if hasDelta != tc.wantDelta {
			t.Fatalf("%s: covers provide Δ = %v, want %v", tc.name, hasDelta, tc.wantDelta)
		}
		if jp, err := rewrite.PlanJoin(q, bad); !errors.Is(err, selection.ErrNotAnswerable) || jp != nil {
			t.Fatalf("%s: PlanJoin = %v, %v; want nil, ErrNotAnswerable", tc.name, jp, err)
		}
		good, err := rewrite.PlanJoin(q, []*selection.Cover{cover(tc.query, q)})
		if err != nil {
			t.Fatalf("%s: PlanJoin on the query's own view: %v", tc.name, err)
		}
		sel := &selection.Selection{Covers: bad}
		for _, plan := range []*rewrite.JoinPlan{nil, good} {
			if _, err := rewrite.ExecuteOptions(q, sel, enc.FST(), nil, rewrite.Options{Plan: plan}); !errors.Is(err, selection.ErrNotAnswerable) {
				t.Fatalf("%s: ExecuteOptions (plan %p) = %v, want ErrNotAnswerable", tc.name, plan, err)
			}
		}
	}
}
