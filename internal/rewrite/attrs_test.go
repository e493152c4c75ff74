package rewrite_test

import (
	"math/rand"
	"testing"

	"xpathviews/internal/dewey"
	"xpathviews/internal/engine"
	"xpathviews/internal/pattern"
	"xpathviews/internal/rewrite"
	"xpathviews/internal/selection"
	"xpathviews/internal/views"
	"xpathviews/internal/xmltree"
	"xpathviews/internal/xpath"
)

// These tests exercise §V's "Handling comparison predicates": attribute
// predicates participate in homomorphisms only when syntactically equal,
// and are evaluated inside fragments (on the answer subtree) or
// guaranteed by the view — never on Dewey codes.

func attrDoc(t *testing.T) (*xmltree.Tree, *dewey.Encoding) {
	t.Helper()
	src := `<shop>
	  <item id="1" featured="yes"><name>a</name><price v="10"/></item>
	  <item id="2"><name>b</name><price v="90"/></item>
	  <item id="3" featured="yes"><name>c</name><price v="50"/></item>
	</shop>`
	tree, err := xmltree.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	enc, _, err := dewey.EncodeTree(tree)
	if err != nil {
		t.Fatal(err)
	}
	return tree, enc
}

// TestAttrInsideFragment: a query predicate on/below the answer node is
// checked by refinement inside fragments.
func TestAttrInsideFragment(t *testing.T) {
	tree, enc := attrDoc(t)
	reg := views.NewRegistry(tree, enc)
	v, err := reg.Add(xpath.MustParse("//shop/item"), 0)
	if err != nil {
		t.Fatal(err)
	}
	q := xpath.MustParse("//shop/item[@featured]")
	c := selection.ComputeCover(v, q)
	if c == nil || !selection.Answerable(q, []*selection.Cover{c}) {
		t.Fatalf("cover = %v; item view must answer featured-item query", c)
	}
	res, err := rewrite.ExecuteOptions(q, &selection.Selection{Covers: []*selection.Cover{c}}, enc.FST(), nil, rewrite.Options{})
	if err != nil {
		t.Fatal(err)
	}
	direct := engine.Answers(tree, q)
	if len(res.Answers) != len(direct) || len(res.Answers) != 2 {
		t.Fatalf("rewrite %d answers, direct %d, want 2", len(res.Answers), len(direct))
	}
}

// TestAttrOnInternalNodeRequiresMirror: a query attribute on an internal
// root-path node is only usable when the view's spine carries the same
// predicate (the "exactly the same" rule).
func TestAttrOnInternalNodeRequiresMirror(t *testing.T) {
	tree, enc := attrDoc(t)
	reg := views.NewRegistry(tree, enc)
	plain, err := reg.Add(xpath.MustParse("//item/name"), 0)
	if err != nil {
		t.Fatal(err)
	}
	mirrored, err := reg.Add(xpath.MustParse("//item[@featured]/name"), 0)
	if err != nil {
		t.Fatal(err)
	}

	q := xpath.MustParse("//item[@featured]/name")
	// The plain view cannot certify @featured above its answers.
	cPlain := selection.ComputeCover(plain, q)
	if cPlain != nil && selection.Answerable(q, []*selection.Cover{cPlain}) {
		t.Fatalf("plain //item/name must not answer %s alone: %v", q, cPlain)
	}
	// The mirrored view can.
	cM := selection.ComputeCover(mirrored, q)
	if cM == nil || !selection.Answerable(q, []*selection.Cover{cM}) {
		t.Fatalf("mirrored view should answer: %v", cM)
	}
	res, err := rewrite.ExecuteOptions(q, &selection.Selection{Covers: []*selection.Cover{cM}}, enc.FST(), nil, rewrite.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 2 {
		t.Fatalf("answers = %d, want 2", len(res.Answers))
	}
}

// TestAttrComparisonOperators end-to-end through a view.
func TestAttrComparisonOperators(t *testing.T) {
	tree, enc := attrDoc(t)
	reg := views.NewRegistry(tree, enc)
	v, err := reg.Add(xpath.MustParse("//shop/item"), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		q    string
		want int
	}{
		{"//shop/item[price[@v<60]]", 2},
		{"//shop/item[price[@v>=50]]", 2},
		{"//shop/item[price[@v=90]]", 1},
		{"//shop/item[price[@v!=90]]", 2},
	} {
		q := xpath.MustParse(tc.q)
		c := selection.ComputeCover(v, q)
		if c == nil {
			t.Fatalf("no cover for %s", tc.q)
		}
		res, err := rewrite.ExecuteOptions(q, &selection.Selection{Covers: []*selection.Cover{c}}, enc.FST(), nil, rewrite.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Answers) != tc.want {
			t.Errorf("%s: %d answers, want %d", tc.q, len(res.Answers), tc.want)
		}
	}
}

// TestAttrEquivalenceRandomized is the attribute-aware differential test.
func TestAttrEquivalenceRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(123))
	labels := []string{"a", "b", "c"}
	attrs := []string{"x", "y"}
	answered := 0
	for doc := 0; doc < 10; doc++ {
		tree := randomAttrTree(r, 80, labels, attrs)
		enc, fst, err := dewey.EncodeTree(tree)
		if err != nil {
			t.Fatal(err)
		}
		reg := views.NewRegistry(tree, enc)
		for len(reg.ViewList) < 20 {
			if _, err := reg.Add(randomAttrPattern(r, labels, attrs, 4), 0); err != nil {
				t.Fatal(err)
			}
		}
		for qi := 0; qi < 40; qi++ {
			q := pattern.Minimize(randomAttrPattern(r, labels, attrs, 5))
			sel, err := selection.MinimumBudget(q, reg.ViewList, nil)
			if err != nil {
				continue
			}
			answered++
			out, err := rewrite.ExecuteOptions(q, sel, fst, nil, rewrite.Options{})
			if err != nil {
				t.Fatalf("rewrite %s: %v", q, err)
			}
			direct := engine.Answers(tree, q)
			if len(out.Answers) != len(direct) {
				t.Fatalf("query %s: rewrite %d vs direct %d (views %d)",
					q, len(out.Answers), len(direct), len(sel.Covers))
			}
		}
	}
	if answered < 15 {
		t.Fatalf("only %d answerable attribute cases", answered)
	}
}

func randomAttrTree(r *rand.Rand, n int, labels, attrs []string) *xmltree.Tree {
	t := xmltree.New(labels[0])
	nodes := []*xmltree.Node{t.Root()}
	for len(nodes) < n {
		parent := nodes[r.Intn(len(nodes))]
		c := t.AddChild(parent, labels[r.Intn(len(labels))])
		if r.Intn(3) == 0 {
			c.SetAttr(attrs[r.Intn(len(attrs))], "1")
		}
		nodes = append(nodes, c)
	}
	t.Renumber()
	return t
}

func randomAttrPattern(r *rand.Rand, labels, attrs []string, maxNodes int) *pattern.Pattern {
	root := pattern.NewNode(labels[r.Intn(len(labels))], pattern.Descendant)
	nodes := []*pattern.Node{root}
	n := 1 + r.Intn(maxNodes)
	for len(nodes) < n {
		parent := nodes[r.Intn(len(nodes))]
		c := parent.AddChild(labels[r.Intn(len(labels))], pattern.Axis(r.Intn(2)))
		if r.Intn(5) == 0 {
			c.Attrs = append(c.Attrs, pattern.AttrPred{Name: attrs[r.Intn(len(attrs))], Op: pattern.AttrExists})
		}
		nodes = append(nodes, c)
	}
	return &pattern.Pattern{Root: root, Ret: nodes[r.Intn(len(nodes))]}
}
