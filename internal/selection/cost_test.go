package selection_test

import (
	"math/rand"
	"testing"

	"xpathviews/internal/dewey"
	"xpathviews/internal/engine"
	"xpathviews/internal/paperdata"
	"xpathviews/internal/pattern"
	"xpathviews/internal/rewrite"
	"xpathviews/internal/selection"
	"xpathviews/internal/vfilter"
	"xpathviews/internal/views"
	"xpathviews/internal/xmltree"
	"xpathviews/internal/xpath"
)

func TestCostBasedOnBook(t *testing.T) {
	reg, f := setupBook(t)
	q := xpath.MustParse(paperdata.QueryE)
	res := f.Filtering(q)
	sel, err := selection.CostBasedBudget(q, res, reg, selection.DefaultCostParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !selection.Answerable(q, sel.Covers) {
		t.Fatal("cost-based selection not answerable")
	}
	if len(sel.Covers) != 2 {
		t.Fatalf("cost-based picked %d views, want 2", len(sel.Covers))
	}
}

// TestCostBasedPrefersSmallFragments: with two interchangeable views, the
// one with smaller materialized fragments wins.
func TestCostBasedPrefersSmallFragments(t *testing.T) {
	tree := paperdata.BookTree()
	enc, err := dewey.Encode(tree, paperdata.BookFST())
	if err != nil {
		t.Fatal(err)
	}
	reg := views.NewRegistry(tree, enc)
	f := vfilter.New()
	big, err := reg.Add(xpath.MustParse("//s[t]//p"), 0) // all 8 paragraphs
	if err != nil {
		t.Fatal(err)
	}
	f.AddView(big.ID, big.Pattern)
	small, err := reg.Add(xpath.MustParse("//s[t]/p"), 0) // same answers here, but compare bytes
	if err != nil {
		t.Fatal(err)
	}
	f.AddView(small.ID, small.Pattern)

	q := xpath.MustParse("//s[t]/p")
	res := f.Filtering(q)
	sel, err := selection.CostBasedBudget(q, res, reg, selection.DefaultCostParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Covers) != 1 {
		t.Fatalf("selected %d views, want 1", len(sel.Covers))
	}
	picked := sel.Covers[0].View
	other := big
	if picked == big {
		other = small
	}
	if picked.TotalBytes > other.TotalBytes {
		t.Fatalf("cost-based picked the larger view (%d > %d bytes)", picked.TotalBytes, other.TotalBytes)
	}
}

// TestCostBasedEquivalence: cost-based selections rewrite to the same
// answers as direct evaluation.
func TestCostBasedEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(509))
	labels := []string{"a", "b", "c", "d"}
	answered := 0
	for doc := 0; doc < 8; doc++ {
		tree := randomCostTree(r, 100, labels)
		enc, fst, err := dewey.EncodeTree(tree)
		if err != nil {
			t.Fatal(err)
		}
		reg := views.NewRegistry(tree, enc)
		f := vfilter.New()
		for len(reg.ViewList) < 20 {
			v, err := reg.Add(randomCostPattern(r, labels, 4), 0)
			if err != nil {
				t.Fatal(err)
			}
			f.AddView(v.ID, v.Pattern)
		}
		for qi := 0; qi < 25; qi++ {
			q := pattern.Minimize(randomCostPattern(r, labels, 5))
			res := f.Filtering(q)
			sel, err := selection.CostBasedBudget(q, res, reg, selection.DefaultCostParams(), nil)
			if err != nil {
				continue
			}
			answered++
			out, err := rewrite.ExecuteOptions(q, sel, fst, nil, rewrite.Options{})
			if err != nil {
				t.Fatalf("rewrite: %v", err)
			}
			direct := engine.Answers(tree, q)
			if len(out.Answers) != len(direct) {
				t.Fatalf("cost-based on %s: %d vs %d answers", q, len(out.Answers), len(direct))
			}
		}
	}
	if answered < 15 {
		t.Fatalf("only %d answerable cases", answered)
	}
}

func randomCostTree(r *rand.Rand, n int, labels []string) *xmltree.Tree {
	t := xmltree.New(labels[0])
	nodes := []*xmltree.Node{t.Root()}
	for len(nodes) < n {
		parent := nodes[r.Intn(len(nodes))]
		nodes = append(nodes, t.AddChild(parent, labels[r.Intn(len(labels))]))
	}
	t.Renumber()
	return t
}

func randomCostPattern(r *rand.Rand, labels []string, maxNodes int) *pattern.Pattern {
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
