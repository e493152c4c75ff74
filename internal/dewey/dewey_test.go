package dewey_test

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"xpathviews/internal/dewey"
	"xpathviews/internal/paperdata"
	"xpathviews/internal/xmltree"
)

// TestPaperExample21 checks Example 2.1: 0.8.6 decodes to b/s/s under the
// Figure 3 FST.
func TestPaperExample21(t *testing.T) {
	fst := paperdata.BookFST()
	code, err := dewey.ParseCode("0.8.6")
	if err != nil {
		t.Fatal(err)
	}
	path, err := fst.Decode(code)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(path, "/"); got != "b/s/s" {
		t.Fatalf("decode 0.8.6 = %q, want b/s/s", got)
	}
}

// TestBookTreeCodes verifies every concrete code the paper's prose cites.
func TestBookTreeCodes(t *testing.T) {
	tree := paperdata.BookTree()
	enc, err := dewey.Encode(tree, paperdata.BookFST())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{ // code → label path
		"0.8.6":     "b/s/s", // s3
		"0.8.6.0":   "b/s/s/t",
		"0.8.6.1":   "b/s/s/p", // p3
		"0.8.6.3":   "b/s/s/f", // f1
		"0.8.1":     "b/s/p",   // p1
		"0.8":       "b/s",     // s2
		"0.8.6.3.0": "b/s/s/f/i",
	}
	found := make(map[string]string)
	tree.Walk(func(n *xmltree.Node) bool {
		c := enc.MustCode(n)
		found[c.String()] = strings.Join(n.LabelPath(), "/")
		return true
	})
	for code, path := range want {
		got, ok := found[code]
		if !ok {
			t.Errorf("code %s not assigned to any node", code)
			continue
		}
		if got != path {
			t.Errorf("code %s on node with path %s, want %s", code, got, path)
		}
	}
}

// TestDecodeMatchesLabelPath is the core round-trip property: for every
// node, decoding its code through the FST yields exactly its label-path.
func TestDecodeMatchesLabelPath(t *testing.T) {
	trees := []*xmltree.Tree{paperdata.BookTree(), randomTree(rand.New(rand.NewSource(7)), 400, 5)}
	for _, tree := range trees {
		enc, fst, err := dewey.EncodeTree(tree)
		if err != nil {
			t.Fatal(err)
		}
		tree.Walk(func(n *xmltree.Node) bool {
			code := enc.MustCode(n)
			got, err := fst.Decode(code)
			if err != nil {
				t.Fatalf("decode %s: %v", code, err)
			}
			want := n.LabelPath()
			if strings.Join(got, "/") != strings.Join(want, "/") {
				t.Fatalf("decode %s = %v, want %v", code, got, want)
			}
			return true
		})
	}
}

// TestCodesUniqueAndOrdered: codes are unique and Compare agrees with
// document order.
func TestCodesUniqueAndOrdered(t *testing.T) {
	tree := randomTree(rand.New(rand.NewSource(11)), 300, 4)
	enc, _, err := dewey.EncodeTree(tree)
	if err != nil {
		t.Fatal(err)
	}
	nodes := tree.Nodes()
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			ci, cj := enc.MustCode(nodes[i]), enc.MustCode(nodes[j])
			if dewey.Compare(ci, cj) >= 0 {
				t.Fatalf("codes %s (ord %d) and %s (ord %d) not in document order", ci, i, cj, j)
			}
		}
	}
}

// TestPrefixIsAncestor: IsPrefix ⇔ ancestor-or-self, and a prefix one
// component shorter ⇔ parent.
func TestPrefixIsAncestor(t *testing.T) {
	tree := randomTree(rand.New(rand.NewSource(13)), 200, 4)
	enc, _, err := dewey.EncodeTree(tree)
	if err != nil {
		t.Fatal(err)
	}
	nodes := tree.Nodes()
	for _, a := range nodes {
		for _, b := range nodes {
			ca, cb := enc.MustCode(a), enc.MustCode(b)
			wantPrefix := false
			for n := b; n != nil; n = n.Parent {
				wantPrefix = wantPrefix || n == a
			}
			if got := dewey.IsPrefix(ca, cb); got != wantPrefix {
				t.Fatalf("IsPrefix(%s,%s)=%v want %v", ca, cb, got, wantPrefix)
			}
			wantParent := b.Parent == a
			if got := len(ca)+1 == len(cb) && dewey.IsPrefix(ca, cb); got != wantParent {
				t.Fatalf("parent(%s,%s)=%v want %v", ca, cb, got, wantParent)
			}
		}
	}
}

// TestCommonPrefixIsLCA: the common prefix of two codes is the code of
// the nodes' lowest common ancestor.
func TestCommonPrefixIsLCA(t *testing.T) {
	tree := paperdata.BookTree()
	enc, _, err := dewey.EncodeTree(tree)
	if err != nil {
		t.Fatal(err)
	}
	nodes := tree.Nodes()
	lca := func(a, b *xmltree.Node) *xmltree.Node {
		anc := make(map[*xmltree.Node]bool)
		for n := a; n != nil; n = n.Parent {
			anc[n] = true
		}
		for n := b; n != nil; n = n.Parent {
			if anc[n] {
				return n
			}
		}
		return nil
	}
	for _, a := range nodes {
		for _, b := range nodes {
			ca, cb := enc.MustCode(a), enc.MustCode(b)
			got := ca[:dewey.CommonPrefixLen(ca, cb)]
			want := enc.MustCode(lca(a, b))
			if got.String() != want.String() {
				t.Fatalf("CommonPrefixLen(%v,%v) gives %s want %s", a.Label, b.Label, got, want)
			}
		}
	}
}

// TestParseCodeRoundTrip via testing/quick.
func TestParseCodeRoundTrip(t *testing.T) {
	f := func(parts []uint32) bool {
		if len(parts) == 0 {
			return true
		}
		c := dewey.Code(parts)
		back, err := dewey.ParseCode(c.String())
		if err != nil {
			return false
		}
		return dewey.Compare(c, back) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestParseCodeErrors(t *testing.T) {
	for _, bad := range []string{"", "a", "1..2", "1.x", ".", "0.1x", "0. 1", " 0.1", "+1", "-1", "0.4294967296"} {
		if _, err := dewey.ParseCode(bad); err == nil {
			t.Errorf("ParseCode(%q) unexpectedly succeeded", bad)
		}
	}
}

// TestCompareDottedIsStringOrder: CompareDotted agrees with comparing
// the rendered dotted strings, including components whose spellings are
// prefixes of each other (1 vs 12 vs 1.2) and 32-bit extremes.
func TestCompareDottedIsStringOrder(t *testing.T) {
	r := rand.New(rand.NewSource(38))
	comps := []uint32{0, 1, 2, 9, 10, 11, 12, 19, 20, 99, 100, 101, 120, 1000, 4294967295, 429496729}
	code := func() dewey.Code {
		c := make(dewey.Code, r.Intn(4))
		for i := range c {
			if r.Intn(4) == 0 {
				c[i] = r.Uint32()
			} else {
				c[i] = comps[r.Intn(len(comps))]
			}
		}
		return c
	}
	for i := 0; i < 20000; i++ {
		a, b := code(), code()
		want := strings.Compare(a.String(), b.String())
		if got := dewey.CompareDotted(a, b); got != want {
			t.Fatalf("CompareDotted(%v, %v) = %d, strings compare %d", a, b, got, want)
		}
		if got := string(a.AppendTo([]byte("x"))); got != "x"+a.String() {
			t.Fatalf("AppendTo(%v) = %q", a, got)
		}
	}
}

// TestEncodeRejectsForeignFST: encoding fails when a label is missing
// from the FST schema.
func TestEncodeRejectsForeignFST(t *testing.T) {
	tree := xmltree.New("a")
	tree.AddChild(tree.Root(), "zzz")
	tree.Renumber()
	fst := dewey.BuildFSTFromSchema("a", map[string][]string{"a": {"b"}})
	if _, err := dewey.Encode(tree, fst); err == nil {
		t.Fatal("Encode with incomplete FST should fail")
	}
	fst2 := dewey.BuildFSTFromSchema("b", map[string][]string{})
	if _, err := dewey.Encode(tree, fst2); err == nil {
		t.Fatal("Encode with wrong root should fail")
	}
}

// randomTree builds a random labelled tree for property tests.
func randomTree(r *rand.Rand, n int, labels int) *xmltree.Tree {
	alpha := make([]string, labels)
	for i := range alpha {
		alpha[i] = string(rune('a' + i))
	}
	t := xmltree.New(alpha[0])
	nodes := []*xmltree.Node{t.Root()}
	for len(nodes) < n {
		parent := nodes[r.Intn(len(nodes))]
		c := t.AddChild(parent, alpha[r.Intn(labels)])
		nodes = append(nodes, c)
	}
	t.Renumber()
	return t
}
