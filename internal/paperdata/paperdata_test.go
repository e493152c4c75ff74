package paperdata_test

import (
	"testing"

	"xpathviews/internal/dewey"
	"xpathviews/internal/paperdata"
	"xpathviews/internal/xpath"
)

func TestBookTreeShape(t *testing.T) {
	tree := paperdata.BookTree()
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if tree.Root().Label != paperdata.Book {
		t.Fatalf("root = %s", tree.Root().Label)
	}
	if tree.Size() != 28 {
		t.Fatalf("tree has %d nodes, reconstruction documents 28", tree.Size())
	}
	counts := map[string]int{}
	for _, n := range tree.Nodes() {
		counts[n.Label]++
	}
	// The fragment sets of Example 5.1 depend on these counts.
	if counts[paperdata.Paragraph] != 8 || counts[paperdata.Figure] != 3 ||
		counts[paperdata.Section] != 5 || counts[paperdata.Image] != 3 {
		t.Fatalf("label counts = %v", counts)
	}
}

func TestBookFSTOrders(t *testing.T) {
	fst := paperdata.BookFST()
	for _, c := range []struct {
		parent, child string
		idx, m        int
	}{
		{paperdata.Book, paperdata.Title, 0, 3},
		{paperdata.Book, paperdata.Section, 2, 3},
		{paperdata.Section, paperdata.Paragraph, 1, 4},
		{paperdata.Section, paperdata.Figure, 3, 4},
	} {
		if idx, m, ok := fst.ChildIndex(c.parent, c.child); !ok || idx != c.idx || m != c.m {
			t.Fatalf("%s under %s: index %d of %d (%v), want %d of %d", c.child, c.parent, idx, m, ok, c.idx, c.m)
		}
	}
}

func TestViewsAndQueryParse(t *testing.T) {
	for _, src := range paperdata.TableIViews() {
		if _, err := xpath.Parse(src); err != nil {
			t.Errorf("Table I view %q: %v", src, err)
		}
	}
	for _, src := range []string{paperdata.QueryE, paperdata.ViewV1, paperdata.ViewV2} {
		if _, err := xpath.Parse(src); err != nil {
			t.Errorf("%q: %v", src, err)
		}
	}
}

func TestFindAll(t *testing.T) {
	tree := paperdata.BookTree()
	enc, err := dewey.Encode(tree, paperdata.BookFST())
	if err != nil {
		t.Fatal(err)
	}
	ps := paperdata.FindAll(tree, paperdata.Paragraph)
	if len(ps) != 8 {
		t.Fatalf("FindAll(p) = %d", len(ps))
	}
	// p1 is the document-order 4th paragraph? No — assert the known code
	// of the first paragraph in document order (p4 at 0.5.1).
	if enc.MustCode(ps[0]).String() != "0.5.1" {
		t.Fatalf("first paragraph code = %s, want 0.5.1", enc.MustCode(ps[0]))
	}
}
