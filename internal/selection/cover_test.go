package selection_test

import (
	"testing"

	"xpathviews/internal/dewey"
	"xpathviews/internal/paperdata"
	"xpathviews/internal/pattern"
	"xpathviews/internal/selection"
	"xpathviews/internal/vfilter"
	"xpathviews/internal/views"
	"xpathviews/internal/xpath"
)

// setupBook materializes the Table I views over the reconstructed book
// tree and builds the VFilter.
func setupBook(t *testing.T) (*views.Registry, *vfilter.Filter) {
	t.Helper()
	tree := paperdata.BookTree()
	enc, err := dewey.Encode(tree, paperdata.BookFST())
	if err != nil {
		t.Fatal(err)
	}
	reg := views.NewRegistry(tree, enc)
	f := vfilter.New()
	for _, src := range paperdata.TableIViews() {
		v, err := reg.Add(xpath.MustParse(src), 0)
		if err != nil {
			t.Fatalf("materialize %s: %v", src, err)
		}
		f.AddView(v.ID, v.Pattern)
	}
	return reg, f
}

// TestExample43Covers reproduces the leaf-cover values of Example 4.3:
// LC(V4, Q_e) = {i, p} and LC(V1, Q_e) = {Δ, t, p}.
func TestExample43Covers(t *testing.T) {
	reg, _ := setupBook(t)
	q := xpath.MustParse(paperdata.QueryE)

	v1 := reg.Get(0) // //s[t]/p
	v4 := reg.Get(3) // //s[p]/f

	c1 := selection.ComputeCover(v1, q)
	if c1 == nil || c1.String() != "{Δ, p, t}" {
		t.Fatalf("LC(V1,Qe) = %v, want {Δ, p, t}", c1)
	}
	c4 := selection.ComputeCover(v4, q)
	if c4 == nil || c4.String() != "{i, p}" {
		t.Fatalf("LC(V4,Qe) = %v, want {i, p}", c4)
	}
	if c4.Delta {
		t.Fatal("LC(V4,Qe) must not contain Δ")
	}
}

// TestExample43Heuristic: Algorithm 2 returns {V1, V4} for Q_e.
func TestExample43Heuristic(t *testing.T) {
	reg, f := setupBook(t)
	q := xpath.MustParse(paperdata.QueryE)
	res := f.Filtering(q)
	sel, err := selection.HeuristicBudget(q, res, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]bool{}
	for _, c := range sel.Covers {
		got[c.View.ID] = true
	}
	if len(got) != 2 || !got[0] || !got[3] {
		t.Fatalf("heuristic selected %v, want {V1, V4}", got)
	}
	if !selection.Answerable(q, sel.Covers) {
		t.Fatal("selection not answerable")
	}
}

// TestMinimumSelection: the minimum set for Q_e is also two views.
func TestMinimumSelection(t *testing.T) {
	reg, _ := setupBook(t)
	q := xpath.MustParse(paperdata.QueryE)
	sel, err := selection.MinimumBudget(q, reg.ViewList, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Covers) != 2 {
		t.Fatalf("minimum selection has %d views, want 2", len(sel.Covers))
	}
	if sel.HomsComputed != reg.Len() {
		t.Fatalf("minimum computed %d homs, want %d (one per view)", sel.HomsComputed, reg.Len())
	}
}

// TestSingleViewStrongCover: a view identical to the query answers it
// alone (condition 3), even with descendant edges on the spine.
func TestSingleViewStrongCover(t *testing.T) {
	reg, _ := setupBook(t)
	q := xpath.MustParse("//s[t]/p")
	c := selection.ComputeCover(reg.Get(0), q) // V1 = //s[t]/p
	if c == nil || !c.Strong || !c.Delta {
		t.Fatalf("identical view is not a strong cover: %+v", c)
	}
	if !selection.Answerable(q, []*selection.Cover{c}) {
		t.Fatal("strong cover alone should answer")
	}
}

// TestCorrelationTrap is Example 4.2's unsound combination, transplanted:
// Q needs two predicates on the SAME branching node; two views each
// guaranteeing one of them through descendant edges must NOT jointly
// answer. (V covers via mode (b) only with a child-only tail.)
func TestCorrelationTrap(t *testing.T) {
	tree := paperdata.BookTree()
	enc, err := dewey.Encode(tree, paperdata.BookFST())
	if err != nil {
		t.Fatal(err)
	}
	reg := views.NewRegistry(tree, enc)
	// Views with // spine tails: guarantees are not rigidly anchored.
	vA, err := reg.Add(xpath.MustParse("//s[t]//p"), 0)
	if err != nil {
		t.Fatal(err)
	}
	vB, err := reg.Add(xpath.MustParse("//s[f]//p"), 0)
	if err != nil {
		t.Fatal(err)
	}
	q := xpath.MustParse("//s[t][f]//p")
	cA := selection.ComputeCover(vA, q)
	cB := selection.ComputeCover(vB, q)
	if cA == nil || cB == nil {
		t.Fatal("expected homomorphisms to exist")
	}
	// Each cover may contain Δ and p, but neither may claim the sibling
	// predicate leaf of the other through a non-rigid anchor.
	if cA.Leaves[findLeaf(t, q, "f")] {
		t.Fatalf("LC(vA) = %v wrongly covers f through a //-tail", cA)
	}
	if cB.Leaves[findLeaf(t, q, "t")] {
		t.Fatalf("LC(vB) = %v wrongly covers t through a //-tail", cB)
	}
}

func findLeaf(t *testing.T, q *pattern.Pattern, label string) *pattern.Node {
	t.Helper()
	for _, l := range q.Leaves() {
		if l.Label == label {
			return l
		}
	}
	t.Fatalf("no leaf %q", label)
	return nil
}
