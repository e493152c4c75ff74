package selection_test

import (
	"testing"

	"xpathviews/internal/dewey"
	"xpathviews/internal/paperdata"
	"xpathviews/internal/selection"
	"xpathviews/internal/views"
	"xpathviews/internal/xpath"
)

// Tests pinning the answerability criterion's edge cases (§IV-A).

func bookRegistry(t *testing.T) *views.Registry {
	t.Helper()
	tree := paperdata.BookTree()
	enc, err := dewey.Encode(tree, paperdata.BookFST())
	if err != nil {
		t.Fatal(err)
	}
	return views.NewRegistry(tree, enc)
}

// TestNoDeltaNotAnswerable: covering every leaf without a Δ-view is not
// enough — the answer node must be extractable (criterion's condition 1).
func TestNoDeltaNotAnswerable(t *testing.T) {
	reg := bookRegistry(t)
	// Both views' answers land strictly inside predicate branches of Q.
	v1, err := reg.Add(xpath.MustParse("//s/t"), 0)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := reg.Add(xpath.MustParse("//s/f//i"), 0)
	if err != nil {
		t.Fatal(err)
	}
	q := xpath.MustParse("//s[f//i][t]/p")
	c1, c2 := selection.ComputeCover(v1, q), selection.ComputeCover(v2, q)
	if c1 == nil || c2 == nil {
		t.Fatal("homomorphisms must exist")
	}
	if c1.Delta || c2.Delta {
		t.Fatalf("neither view may provide Δ: %v %v", c1, c2)
	}
	if selection.Answerable(q, []*selection.Cover{c1, c2}) {
		t.Fatal("answerable without Δ")
	}
	if _, err := selection.MinimumBudget(q, reg.ViewList, nil); err == nil {
		t.Fatal("Minimum must fail without a Δ-capable view")
	}
}

// TestDeltaAloneNotEnough: a Δ-view that cannot certify a predicate leaf
// does not answer alone.
func TestDeltaAloneNotEnough(t *testing.T) {
	reg := bookRegistry(t)
	v, err := reg.Add(xpath.MustParse("//s/p"), 0)
	if err != nil {
		t.Fatal(err)
	}
	q := xpath.MustParse("//s[f]/p")
	c := selection.ComputeCover(v, q)
	if c == nil || !c.Delta {
		t.Fatalf("cover = %v", c)
	}
	if selection.Answerable(q, []*selection.Cover{c}) {
		t.Fatalf("//s/p must not certify [f]: %v", c)
	}
}

// TestNilViewsSkipped: registries with removed views (nil slots) are
// handled by Minimum.
func TestNilViewsSkipped(t *testing.T) {
	reg := bookRegistry(t)
	if _, err := reg.Add(xpath.MustParse("//s/t"), 0); err != nil {
		t.Fatal(err)
	}
	keep, err := reg.Add(xpath.MustParse("//s[f//i][t]/p"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reg.Remove(0) {
		t.Fatal("Remove failed")
	}
	if reg.Len() != 1 || len(reg.Views()) != 1 || reg.Views()[0] != keep {
		t.Fatalf("registry bookkeeping wrong after removal: len=%d", reg.Len())
	}
	q := xpath.MustParse("//s[f//i][t]/p")
	sel, err := selection.MinimumBudget(q, reg.ViewList, nil) // contains a nil slot
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Covers) != 1 || sel.Covers[0].View != keep {
		t.Fatalf("selection = %v", sel.Covers)
	}
}

// TestRemoveRedundantKeepsDelta: redundancy pruning never drops the only
// Δ-view.
func TestRemoveRedundantKeepsDelta(t *testing.T) {
	reg := bookRegistry(t)
	a, _ := reg.Add(xpath.MustParse("//s[t]/p"), 0)    // Δ + t + p
	b, _ := reg.Add(xpath.MustParse("//s[p]/f//i"), 0) // i (+ p via guarantee)
	q := xpath.MustParse("//s[f//i][t]/p")
	ca, cb := selection.ComputeCover(a, q), selection.ComputeCover(b, q)
	if ca == nil || cb == nil {
		t.Fatal("covers must exist")
	}
	sel, err := selection.MinimumBudget(q, reg.ViewList, nil)
	if err != nil {
		t.Fatal(err)
	}
	hasDelta := false
	for _, c := range sel.Covers {
		if c.Delta {
			hasDelta = true
		}
	}
	if !hasDelta {
		t.Fatal("selection lost its Δ-view")
	}
}
