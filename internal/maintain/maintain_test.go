package maintain_test

import (
	"math/rand"
	"testing"

	"xpathviews/internal/dewey"
	"xpathviews/internal/maintain"
	"xpathviews/internal/paperdata"
	"xpathviews/internal/xmltree"
	"xpathviews/internal/xpath"
)

// childAlphabets maps each parent label of tree to its child alphabet
// under fst, in the FST's order.
func childAlphabets(tree *xmltree.Tree, fst *dewey.FST) map[string][]string {
	out := map[string][]string{}
	tree.Walk(func(n *xmltree.Node) bool {
		for _, c := range n.Children {
			if i, m, ok := fst.ChildIndex(n.Label, c.Label); ok {
				if out[n.Label] == nil {
					out[n.Label] = make([]string, m)
				}
				out[n.Label][i] = c.Label
			}
		}
		return true
	})
	return out
}

// isAncestor reports whether a is a proper ancestor of b.
func isAncestor(a, b *xmltree.Node) bool {
	for p := b.Parent; p != nil; p = p.Parent {
		if p == a {
			return true
		}
	}
	return false
}

func bookFixture(t *testing.T) (*xmltree.Tree, *dewey.Encoding) {
	t.Helper()
	tree := paperdata.BookTree()
	enc, err := dewey.Encode(tree, paperdata.BookFST())
	if err != nil {
		t.Fatal(err)
	}
	return tree, enc
}

// TestChildCodeFillsGaps: the book root's sections sit at components 5
// and 8 (residue 2 mod 3); the first free residue-2 component is 2, so a
// new section must land there instead of growing past 8.
func TestChildCodeFillsGaps(t *testing.T) {
	tree, enc := bookFixture(t)
	code, err := maintain.ChildCode(enc, tree.Root(), paperdata.Section)
	if err != nil {
		t.Fatal(err)
	}
	if got := code.String(); got != "0.2" {
		t.Fatalf("new section code = %s, want 0.2 (first gap in residue class)", got)
	}
	// A new author: residue 1 mod 3, components 1 and 4 taken, next is 7.
	code, err = maintain.ChildCode(enc, tree.Root(), paperdata.Author)
	if err != nil {
		t.Fatal(err)
	}
	if got := code.String(); got != "0.7" {
		t.Fatalf("new author code = %s, want 0.7", got)
	}
}

// TestChildCodeSchemaError: a label outside the parent's child alphabet
// is rejected with ErrSchema before anything mutates.
func TestChildCodeSchemaError(t *testing.T) {
	tree, enc := bookFixture(t)
	if _, err := maintain.ChildCode(enc, tree.Root(), paperdata.Image); err == nil {
		t.Fatal("expected ErrSchema for image under book")
	}
	sub, err := xmltree.ParseString("<s><t/><zzz/></s>")
	if err != nil {
		t.Fatal(err)
	}
	if err := maintain.ValidateSubtree(enc.FST(), paperdata.Book, sub.Root()); err == nil {
		t.Fatal("expected ErrSchema for unknown label inside subtree")
	}
	if err := maintain.ValidateSubtree(enc.FST(), paperdata.Paragraph, tree.Root()); err == nil {
		t.Fatal("expected ErrSchema for book under paragraph")
	}
}

// TestGapReuseAdversarial: the always-insert-then-delete loop at one
// parent must reuse the same component forever, not march toward
// overflow.
func TestGapReuseAdversarial(t *testing.T) {
	tree, enc := bookFixture(t)
	s2 := tree.Root().Children[4] // section s2 at 0.8
	var first dewey.Code
	for i := 0; i < 100; i++ {
		n := tree.AddChild(s2, paperdata.Paragraph)
		code, err := maintain.ChildCode(enc, s2, paperdata.Paragraph)
		if err != nil {
			t.Fatal(err)
		}
		enc.Assign(n, code)
		if i == 0 {
			first = code.Clone()
		} else if dewey.Compare(code, first) != 0 {
			t.Fatalf("iteration %d allocated %s, want stable reuse of %s", i, code, first)
		}
		enc.Forget(n)
		if err := tree.Detach(n); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGapAllocProperty drives a long random interleaving of inserts and
// deletes and checks the allocator's contract after every step batch:
// pre-existing codes never change, codes stay unique, the prefix
// relation mirrors ancestry exactly, and every code still decodes to its
// node's label path under the FST.
func TestGapAllocProperty(t *testing.T) {
	tree, enc := bookFixture(t)
	fst := enc.FST()
	alphabets := childAlphabets(tree, fst)
	rng := rand.New(rand.NewSource(42))

	// Snapshot the seed document's codes: stability means these strings
	// never change, no matter what the mutation stream does.
	original := map[*xmltree.Node]string{}
	tree.Walk(func(n *xmltree.Node) bool {
		original[n] = enc.MustCode(n).String()
		return true
	})

	var inserted []*xmltree.Node
	for step := 0; step < 600; step++ {
		if rng.Intn(3) > 0 || len(inserted) == 0 {
			// Insert a leaf with a schema-valid label under a random
			// coded node that admits children.
			var parents []*xmltree.Node
			tree.Walk(func(n *xmltree.Node) bool {
				if len(alphabets[n.Label]) > 0 {
					parents = append(parents, n)
				}
				return true
			})
			p := parents[rng.Intn(len(parents))]
			alpha := alphabets[p.Label]
			label := alpha[rng.Intn(len(alpha))]
			code, err := maintain.ChildCode(enc, p, label)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			n := tree.AddChild(p, label)
			enc.Assign(n, code)
			inserted = append(inserted, n)
		} else {
			// Delete a random inserted node that is still a leaf (an
			// inserted node may have gained children since).
			i := rng.Intn(len(inserted))
			n := inserted[i]
			if len(n.Children) > 0 {
				continue
			}
			enc.Forget(n)
			if err := tree.Detach(n); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			inserted = append(inserted, nil)
			inserted[i] = inserted[len(inserted)-2]
			inserted = inserted[:len(inserted)-2]
		}

		if step%100 != 99 {
			continue
		}
		// Invariant 1: seed codes untouched.
		for n, want := range original {
			if got := enc.MustCode(n).String(); got != want {
				t.Fatalf("step %d: pre-existing code mutated: %s -> %s", step, want, got)
			}
		}
		// Invariant 2+3+4: uniqueness, FST-decodability, prefix ⟺ ancestry.
		nodes := tree.Nodes()
		codes := make(map[string]bool, len(nodes))
		for _, n := range nodes {
			c := enc.MustCode(n)
			s := c.String()
			if codes[s] {
				t.Fatalf("step %d: duplicate code %s", step, s)
			}
			codes[s] = true
			path, err := fst.Decode(c)
			if err != nil {
				t.Fatalf("step %d: code %s undecodable: %v", step, s, err)
			}
			lp := n.LabelPath()
			if len(path) != len(lp) {
				t.Fatalf("step %d: code %s decodes to %v, node path %v", step, s, path, lp)
			}
			for i := range path {
				if path[i] != lp[i] {
					t.Fatalf("step %d: code %s decodes to %v, node path %v", step, s, path, lp)
				}
			}
		}
		for _, a := range nodes {
			for _, b := range nodes {
				ca, cb := enc.MustCode(a), enc.MustCode(b)
				got := len(ca) < len(cb) && dewey.IsPrefix(ca, cb)
				if want := isAncestor(a, b); got != want {
					t.Fatalf("step %d: IsAncestor(%s,%s)=%v but tree ancestry=%v", step, ca, cb, got, want)
				}
			}
		}
	}
}

// TestResolveCode walks allocated codes back to their nodes and rejects
// codes with no live owner.
func TestResolveCode(t *testing.T) {
	tree, enc := bookFixture(t)
	tree.Walk(func(n *xmltree.Node) bool {
		got, ok := maintain.ResolveCode(tree, enc, enc.MustCode(n))
		if !ok || got != n {
			t.Fatalf("ResolveCode(%s) = %v, %v; want the owning node", enc.MustCode(n), got, ok)
		}
		return true
	})
	if _, ok := maintain.ResolveCode(tree, enc, dewey.Code{0, 2}); ok {
		t.Fatal("ResolveCode resolved a gap component")
	}
	if _, ok := maintain.ResolveCode(tree, enc, nil); ok {
		t.Fatal("ResolveCode resolved the empty code")
	}
}

// TestDirtyDepth pins the lift decisions. Each row names a mutation
// root R (a child-index path from the document root) in two documents
// that differ only outside T(R): in `with`, every predicate R could
// satisfy has another witness elsewhere, so nothing flips and the dirty
// root stays at R; in `without`, T(R) holds the only witness, and the
// dirty root lifts to the highest ancestor whose match flips — or stays
// too, where the pattern cannot image that ancestor at all.
func TestDirtyDepth(t *testing.T) {
	cases := []struct {
		query         string
		with, without string
		r             []int
		lift          int // dirty depth in `without`; in `with` it is len(r)
	}{
		// No predicates: never above the mutation root.
		{"//s/p", "<b><s><p/><p/></s></b>", "<b><s><p/></s></b>", []int{0, 0}, 2},
		{"//s//p", "<b><s><s><p/><p/></s></s></b>", "<b><s><s><p/></s></s></b>", []int{0, 0, 0}, 3},
		// V1 = //s[t]/p: deleting or inserting the section's only title
		// changes its paragraphs; one title of two changes nothing.
		{"//s[t]/p", "<b><s><t/><t/><p/></s></b>", "<b><s><t/><p/></s></b>", []int{0, 0}, 1},
		// The same view under a mutated paragraph: p is no witness of [t],
		// so no ancestor is even asked.
		{"//s[t]/p", "<b><s><t/><p/><p/></s></b>", "<b><s><t/><p/></s></b>", []int{0, 1}, 2},
		// Nested sections: only the section that loses its last title
		// lifts, not the outer one that merely can image an ancestor.
		{"//s[t]/p", "<b><s><t/><s><t/><t/><p/></s></s></b>", "<b><s><t/><s><t/><p/></s></s></b>", []int{0, 1, 0}, 2},
		// Predicate on the document root's child: lifts all the way.
		{"/b[t]//p", "<b><t/><t/><s><p/></s></b>", "<b><t/><s><p/></s></b>", []int{0}, 0},
		// A wildcard images every ancestor, but only the one whose
		// predicate flips counts: b has no t child either way.
		{"//*[t]/p", "<b><s><t/><t/><p/></s></b>", "<b><s><t/><p/></s></b>", []int{0, 0}, 1},
		// Descendant predicate under a wildcard, which images r, a and c:
		// with a sibling x nothing flips; with the only other x under d, r
		// keeps a witness while a (and c) lose theirs.
		{"//*[.//x]/y", "<r><a><y/><c><x/><x/></c></a><y/></r>", "<r><a><y/><c><x/></c></a><y/><d><x/></d></r>", []int{0, 1, 0}, 1},
		{"//*[.//x]/y", "<r><a><y/><c><x/></c><x/></a><y/></r>", "<r><a><y/><c><x/></c></a><y/></r>", []int{0, 1}, 0},
		// Nested predicate: the witness of f/i is the i two levels down; a
		// second f without an i does not stand in for it.
		{"//s[f/i]/p", "<b><s><f><i/></f><f><i/></f><p/></s></b>", "<b><s><f><i/></f><f/><p/></s></b>", []int{0, 0, 0}, 1},
		// Attribute predicate inside a branch: another t counts only with
		// the right value.
		{`//s[t[@k="1"]]/p`, `<b><s><t k="1"/><t k="1"/><p/></s></b>`, `<b><s><t k="1"/><t k="2"/><p/></s></b>`, []int{0, 0}, 1},
		// Attribute on the spine node itself: the flip is moot where the
		// node test fails.
		{`//s[@k="1"][t]/p`, `<b><s k="1"><t/><t/><p/></s></b>`, `<b><s k="2"><t/><p/></s></b>`, []int{0, 0}, 2},
		// A second predicate that fails with and without T(R): no flip.
		{"//s[t][q]/p", "<b><s><t/><t/><p/></s></b>", "<b><s><t/><p/></s></b>", []int{0, 0}, 2},
		// Label mismatch: f images no ancestor of the mutation.
		{"//f[i]", "<b><s><i/><i/></s></b>", "<b><s><i/></s></b>", []int{0, 0}, 2},
		// Child-axis root: /s cannot image the b root, so s[t] is never
		// asked although its title goes.
		{"/s[t]/p", "<b><s><t/><t/><p/></s></b>", "<b><s><t/><p/></s></b>", []int{0, 0}, 2},
		// A whole section as the mutated subtree, witness of b's [s/t].
		{"/b[s/t]//p", "<b><s><t/><p/></s><s><t/></s><p/></b>", "<b><s><t/><p/></s><s/><p/></b>", []int{0}, 0},
	}
	for _, tc := range cases {
		p, err := xpath.Parse(tc.query)
		if err != nil {
			t.Fatalf("%s: %v", tc.query, err)
		}
		for _, doc := range []struct {
			name, xml string
			want      int
		}{{"with", tc.with, len(tc.r)}, {"without", tc.without, tc.lift}} {
			tree, err := xmltree.ParseString(doc.xml)
			if err != nil {
				t.Fatalf("%s: %v", doc.xml, err)
			}
			r := tree.Root()
			for _, i := range tc.r {
				r = r.Children[i]
			}
			if got := maintain.DirtyDepth(p, r.Chain(), maintain.SubtreeLabels(r)); got != doc.want {
				t.Errorf("DirtyDepth(%s, %s in %s [%s another witness]) = %d, want %d",
					tc.query, r.Label, doc.xml, doc.name, got, doc.want)
			}
		}
	}
}

// TestRecordRoundTrip: WAL records encode/decode losslessly, and the key
// codec keeps numeric and lexicographic order aligned.
func TestRecordRoundTrip(t *testing.T) {
	recs := []maintain.Record{
		{Op: maintain.OpInsert, Code: dewey.Code{0, 8}, XML: "<p/>"},
		{Op: maintain.OpInsert, Code: dewey.Code{0, 5, 7}, XML: "<i/><!-- x -->"},
		{Op: maintain.OpDelete, Code: dewey.Code{0, 8, 6, 3, 0}},
		{Op: maintain.OpDelete, Code: dewey.Code{0}},
	}
	for _, r := range recs {
		got, err := maintain.DecodeRecord(r.Encode())
		if err != nil {
			t.Fatalf("%v: %v", r, err)
		}
		if got.Op != r.Op || got.XML != r.XML || dewey.Compare(got.Code, r.Code) != 0 {
			t.Fatalf("round trip: got %+v want %+v", got, r)
		}
	}
	for _, bad := range [][]byte{nil, {'I'}, {'X', 0}, {'I', 200, 'a'}} {
		if _, err := maintain.DecodeRecord(bad); err == nil {
			t.Fatalf("DecodeRecord(%v) accepted garbage", bad)
		}
	}

	prev := ""
	for _, seq := range []uint64{0, 1, 9, 10, 99, 1000000, 1<<40 - 1} {
		k := maintain.Key(seq)
		if k <= prev {
			t.Fatalf("keys out of order: %q after %q", k, prev)
		}
		prev = k
		got, ok := maintain.ParseKey(k)
		if !ok || got != seq {
			t.Fatalf("ParseKey(%q) = %d, %v; want %d", k, got, ok, seq)
		}
	}
	for _, bad := range []string{"", "m!", "m!123", "x!0000000000000001", "m!00000000000000ab"} {
		if _, ok := maintain.ParseKey(bad); ok {
			t.Fatalf("ParseKey(%q) accepted garbage", bad)
		}
	}
}
