package views_test

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"xpathviews/internal/dewey"
	"xpathviews/internal/paperdata"
	"xpathviews/internal/views"
	"xpathviews/internal/xmark"
	"xpathviews/internal/xmltree"
	"xpathviews/internal/xpath"
)

func xmarkEncoded(t *testing.T, scale float64) (*xmltree.Tree, *dewey.Encoding) {
	t.Helper()
	tree := xmark.Generate(xmark.Config{Scale: scale, Seed: 28})
	enc, _, err := dewey.EncodeTree(tree)
	if err != nil {
		t.Fatal(err)
	}
	return tree, enc
}

// checkFragmentPaths asserts every fragment of v carries the interned
// path of its root: the FST decoding of its code, and the very pointer
// the encoding hands out for that root node.
func checkFragmentPaths(t *testing.T, tag string, tree *xmltree.Tree, enc *dewey.Encoding, v *views.View) {
	t.Helper()
	byCode := make(map[string]*xmltree.Node, tree.Size())
	for _, n := range tree.Nodes() {
		byCode[enc.MustCode(n).String()] = n
	}
	for i := range v.Fragments {
		f := &v.Fragments[i]
		want, err := enc.FST().Decode(f.Code)
		if err != nil || f.Path == nil || !slices.Equal(f.Path.Labels, want) {
			t.Fatalf("%s: fragment %s path %v, FST decodes %v (%v)", tag, f.Code, f.Path, want, err)
		}
		if p := enc.PathOf(byCode[f.Code.String()]); p != f.Path {
			t.Fatalf("%s: fragment %s holds path %p, the table interns %p", tag, f.Code, f.Path, p)
		}
	}
}

// TestLabelPathInvariant: after Materialize, on the paper example and on
// XMark, Path.Labels == FST.Decode(Code) for every fragment.
func TestLabelPathInvariant(t *testing.T) {
	book := paperdata.BookTree()
	benc, err := dewey.Encode(book, paperdata.BookFST())
	if err != nil {
		t.Fatal(err)
	}
	xtree, xenc := xmarkEncoded(t, 0.02)
	for _, tc := range []struct {
		tree  *xmltree.Tree
		enc   *dewey.Encoding
		views []string
	}{
		{book, benc, []string{paperdata.ViewV1, paperdata.ViewV2, "//s", "//*", "//s//t"}},
		{xtree, xenc, []string{"//text", "//*/name", "//item[name]", "//*", "//parlist//listitem"}},
	} {
		for _, src := range tc.views {
			v, err := views.Materialize(0, xpath.MustParse(src), tc.tree, tc.enc, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			checkFragmentPaths(t, src, tc.tree, tc.enc, v)
		}
	}
}

// TestLabelPathInterned: within one encoding equal label-paths are one
// pointer and IDs are dense from the root's 0; two encodings of the same
// tree (two Systems) share no path.
func TestLabelPathInterned(t *testing.T) {
	tree, enc := xmarkEncoded(t, 0.02)
	enc2, err := dewey.Encode(tree, enc.FST())
	if err != nil {
		t.Fatal(err)
	}
	byLabels := make(map[string]*dewey.LabelPath)
	ids := make(map[int32]*dewey.LabelPath)
	mine := make(map[*dewey.LabelPath]bool)
	for _, n := range tree.Nodes() {
		p := enc.PathOf(n)
		if want, err := enc.FST().Decode(enc.MustCode(n)); err != nil || !slices.Equal(p.Labels, want) {
			t.Fatalf("node %s: path %v, FST decodes %v (%v)", enc.MustCode(n), p.Labels, want, err)
		}
		key := strings.Join(p.Labels, "/")
		if q, ok := byLabels[key]; ok && q != p {
			t.Fatalf("path %v interned twice (%p, %p)", p.Labels, q, p)
		}
		byLabels[key] = p
		if q, ok := ids[p.ID]; ok && q != p {
			t.Fatalf("id %d names %v and %v", p.ID, q.Labels, p.Labels)
		}
		ids[p.ID] = p
		mine[p] = true
	}
	if root := enc.PathOf(tree.Root()); root.ID != 0 || len(root.Labels) != 1 {
		t.Fatalf("root path %+v, want id 0 and one label", root)
	}
	for id := int32(0); id < int32(len(ids)); id++ {
		if ids[id] == nil {
			t.Fatalf("path ids not dense: %d missing of %d", id, len(ids))
		}
	}
	for _, n := range tree.Nodes() {
		p := enc2.PathOf(n)
		if mine[p] {
			t.Fatalf("two encodings share path %v", p.Labels)
		}
		if !slices.Equal(p.Labels, enc.PathOf(n).Labels) {
			t.Fatalf("encodings disagree on %s: %v vs %v", enc.MustCode(n), p.Labels, enc.PathOf(n).Labels)
		}
	}
	t.Logf("%d nodes, %d distinct root label-paths", tree.Size(), len(byLabels))
}

// TestLabelPathConcurrent: concurrent builders racing to intern the same
// new paths all receive the single published pointer (run under -race).
func TestLabelPathConcurrent(t *testing.T) {
	tree, enc := xmarkEncoded(t, 0.01)
	nodes := tree.Nodes()
	const workers = 8
	got := make([][]*dewey.LabelPath, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := make([]*dewey.LabelPath, len(nodes))
			for i := range nodes {
				// Each worker walks from a different offset, so first
				// interning of a path is contended.
				j := (i + w*len(nodes)/workers) % len(nodes)
				out[j] = enc.PathOf(nodes[j])
			}
			got[w] = out
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if !slices.Equal(got[w], got[0]) {
			t.Fatalf("worker %d received different path pointers than worker 0", w)
		}
	}
}
