package views_test

import (
	"errors"
	"strings"
	"testing"

	"xpathviews/internal/dewey"
	"xpathviews/internal/paperdata"
	"xpathviews/internal/views"
	"xpathviews/internal/xpath"
)

func registry(t *testing.T) *views.Registry {
	t.Helper()
	tree := paperdata.BookTree()
	enc, err := dewey.Encode(tree, paperdata.BookFST())
	if err != nil {
		t.Fatal(err)
	}
	return views.NewRegistry(tree, enc)
}

// TestMaterializePaperFragments pins §V's fragment sets: V1 = //s[t]/p has
// eight p fragments, V2 = //s[p]/f has {f1, f2, f3} with the exact codes.
func TestMaterializePaperFragments(t *testing.T) {
	reg := registry(t)
	v1, err := reg.Add(xpath.MustParse(paperdata.ViewV1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(v1.Fragments) != 8 {
		t.Fatalf("V1 fragments = %d, want 8", len(v1.Fragments))
	}
	v2, err := reg.Add(xpath.MustParse(paperdata.ViewV2), 0)
	if err != nil {
		t.Fatal(err)
	}
	var codes []string
	for _, f := range v2.Fragments {
		codes = append(codes, f.Code.String())
	}
	want := "0.5.7 0.5.10.7 0.8.6.3" // f2, f3, f1 in document order
	if strings.Join(codes, " ") != want {
		t.Fatalf("V2 fragment codes = %v, want %s", codes, want)
	}
}

func TestFragmentTreesAreCopies(t *testing.T) {
	reg := registry(t)
	v, err := reg.Add(xpath.MustParse("//s[p]/f"), 0)
	if err != nil {
		t.Fatal(err)
	}
	f := v.Fragments[0]
	// The fragment root must carry the f subtree (f with child i).
	if f.Tree.Root().Label != "f" || len(f.Tree.Root().Children) != 1 {
		t.Fatalf("fragment shape wrong: %s", f.Tree.Root())
	}
	// Mutating the fragment must not touch the base document.
	f.Tree.Root().Children[0].Label = "mutated"
	for _, n := range reg.Doc.Nodes() {
		if n.Label == "mutated" {
			t.Fatal("fragment aliases the base document")
		}
	}
}

func TestNodeCodesAlignment(t *testing.T) {
	reg := registry(t)
	v, err := reg.Add(xpath.MustParse("//s[p]/f"), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range v.Fragments {
		nodes := f.Tree.Nodes()
		if len(nodes) != len(f.NodeCodes) {
			t.Fatalf("NodeCodes misaligned: %d nodes vs %d codes", len(nodes), len(f.NodeCodes))
		}
		// The root's code must equal the fragment code; children's codes
		// must extend it.
		if f.NodeCodes[0].String() != f.Code.String() {
			t.Fatalf("root code %s != fragment code %s", f.NodeCodes[0], f.Code)
		}
		for i := 1; i < len(nodes); i++ {
			if c := f.NodeCodes[i]; len(c) <= len(f.Code) || !dewey.IsPrefix(f.Code, c) {
				t.Fatalf("node %d code %s not under fragment root %s", i, f.NodeCodes[i], f.Code)
			}
		}
	}
}

func TestSizeLimit(t *testing.T) {
	reg := registry(t)
	// A tiny limit rejects any view with fragments.
	_, err := reg.Add(xpath.MustParse("//s"), 10)
	if err == nil || !errors.Is(err, views.ErrTooLarge) {
		t.Fatalf("expected ErrTooLarge, got %v", err)
	}
	// Unlimited works.
	v, err := reg.Add(xpath.MustParse("//s"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.TotalBytes <= 0 {
		t.Fatal("TotalBytes not accounted")
	}
}

func TestEmptyView(t *testing.T) {
	reg := registry(t)
	v, err := reg.Add(xpath.MustParse("//nosuchlabel"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !v.IsEmpty() {
		t.Fatal("expected empty view")
	}
}

func TestRegistryIDs(t *testing.T) {
	reg := registry(t)
	a, _ := reg.Add(xpath.MustParse("//s"), 0)
	b, _ := reg.Add(xpath.MustParse("//p"), 0)
	if a.ID != 0 || b.ID != 1 || reg.Len() != 2 {
		t.Fatalf("IDs: %d %d len %d", a.ID, b.ID, reg.Len())
	}
	if reg.Get(0) != a || reg.Get(1) != b || reg.Get(99) != nil || reg.Get(-1) != nil {
		t.Fatal("Get wrong")
	}
	// Removal frees the slot, never the ID; unknown and removed IDs fail.
	if !reg.Remove(0) || reg.Remove(0) || reg.Remove(99) || reg.Remove(-1) {
		t.Fatal("Remove: want true once for a live ID, false otherwise")
	}
	if reg.Len() != 1 || reg.Get(0) != nil || len(reg.Views()) != 1 || reg.Views()[0] != b {
		t.Fatalf("after Remove(0): len %d, views %v", reg.Len(), reg.Views())
	}
	if c, _ := reg.Add(xpath.MustParse("//f"), 0); c.ID != 2 || reg.Len() != 2 {
		t.Fatalf("ID after a removal = %d, want 2 (IDs are never reused)", c.ID)
	}
}

// TestMinimizationApplied: registering //s[p][p]/f stores a minimized
// pattern equivalent to //s[p]/f.
func TestMinimizationApplied(t *testing.T) {
	reg := registry(t)
	v, err := reg.Add(xpath.MustParse("//s[p][p]/f"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Pattern.Size() != 3 {
		t.Fatalf("pattern not minimized: %s (%d nodes)", v.Pattern, v.Pattern.Size())
	}
}
