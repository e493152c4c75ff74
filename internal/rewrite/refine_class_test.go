package rewrite

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"xpathviews/internal/budget"
	"xpathviews/internal/dewey"
	"xpathviews/internal/engine"
	"xpathviews/internal/paperdata"
	"xpathviews/internal/pattern"
	"xpathviews/internal/selection"
	"xpathviews/internal/views"
	"xpathviews/internal/xmark"
	"xpathviews/internal/xmltree"
	"xpathviews/internal/xpath"
)

// refineViewReference is the decode-per-fragment refinement that the
// path-class memo replaced, kept as the differential oracle: every
// fragment's code is decoded through the FST and its label-path matched
// against the root-path pattern, in fragment order, one budget step per
// fragment.
func refineViewReference(q *pattern.Pattern, c *selection.Cover, fst *dewey.FST, b *budget.B) (frags []*views.Fragment, labels [][]string, scanned int, err error) {
	comp := compensating(q, c.X)
	trivialComp := len(comp.Root.Children) == 0 && len(comp.Root.Attrs) == 0
	rootPath := rootToNodePath(q, c.X)
	for fi := range c.View.Fragments {
		f := &c.View.Fragments[fi]
		if err := b.Step(1); err != nil {
			return frags, labels, scanned, err
		}
		scanned++
		l, err := fst.Decode(f.Code)
		if err != nil {
			return frags, labels, scanned, fmt.Errorf("decode %s: %w", f.Code, err)
		}
		if !labelPathMatches(l, rootPath) {
			continue
		}
		if !trivialComp && !engine.MatchesAtRoot(f.Tree, comp) {
			continue
		}
		frags = append(frags, f)
		labels = append(labels, l)
	}
	return frags, labels, scanned, nil
}

// refineFixture is one encoded document with a registered view set and a
// pool of nodes queries are sampled around.
type refineFixture struct {
	name  string
	tree  *xmltree.Tree
	enc   *dewey.Encoding
	reg   *views.Registry
	nodes []*xmltree.Node
}

func newRefineFixture(t testing.TB, name string, tree *xmltree.Tree, enc *dewey.Encoding, viewSrcs ...string) *refineFixture {
	t.Helper()
	reg := views.NewRegistry(tree, enc)
	for _, src := range viewSrcs {
		if _, err := reg.Add(xpath.MustParse(src), 0); err != nil {
			t.Fatalf("%s: view %s: %v", name, src, err)
		}
	}
	return &refineFixture{name: name, tree: tree, enc: enc, reg: reg, nodes: tree.Nodes()}
}

func paperRefineFixture(t testing.TB) *refineFixture {
	tree := paperdata.BookTree()
	enc, err := dewey.Encode(tree, paperdata.BookFST())
	if err != nil {
		t.Fatal(err)
	}
	return newRefineFixture(t, "paper", tree, enc,
		paperdata.ViewV1, paperdata.ViewV2, "//s[a][.//i]//p", "//s[*//t]//p", "//p", "//s", "//t")
}

func xmarkRefineFixture(t testing.TB, scale float64) *refineFixture {
	tree := xmark.Generate(xmark.Config{Scale: scale, Seed: 28})
	enc, _, err := dewey.EncodeTree(tree)
	if err != nil {
		t.Fatal(err)
	}
	return newRefineFixture(t, "xmark", tree, enc,
		"//name", "//text", "//listitem", "//keyword", "//item[name]", "//person",
		"//bidder", "//description", "//parlist//text", "//*/date", "//address/city")
}

// randomQuery samples a node and spells a query that lands on it: a
// suffix of its label-path with random skips (descendant steps) and
// wildcards, plus, half the time, a predicate taken from the node's real
// children so the compensating pattern is non-trivial.
func (f *refineFixture) randomQuery(r *rand.Rand) *pattern.Pattern {
	n := f.nodes[r.Intn(len(f.nodes))]
	chain := n.Chain()
	var b strings.Builder
	start := r.Intn(len(chain))
	desc := start > 0 || r.Intn(2) == 0
	for i := start; i < len(chain); i++ {
		if i > start && i < len(chain)-1 && r.Intn(4) == 0 {
			desc = true // skip this ancestor
			continue
		}
		if desc {
			b.WriteString("//")
		} else {
			b.WriteString("/")
		}
		desc = r.Intn(4) == 0
		if r.Intn(6) == 0 {
			b.WriteString("*")
		} else {
			b.WriteString(chain[i].Label)
		}
		if i < len(chain)-1 && r.Intn(6) == 0 && len(chain[i].Children) > 0 {
			fmt.Fprintf(&b, "[%s]", chain[i].Children[r.Intn(len(chain[i].Children))].Label)
		}
	}
	if len(n.Children) > 0 && r.Intn(2) == 0 {
		c := n.Children[r.Intn(len(n.Children))]
		if len(c.Children) > 0 && r.Intn(2) == 0 {
			fmt.Fprintf(&b, "[%s//%s]", c.Label, c.Children[r.Intn(len(c.Children))].Label)
		} else {
			fmt.Fprintf(&b, "[%s]", c.Label)
		}
	}
	return pattern.Minimize(xpath.MustParse(b.String()))
}

// answerableQueries returns up to want (query, minimum selection) pairs.
func (f *refineFixture) answerableQueries(t testing.TB, r *rand.Rand, tries, want int) ([]*pattern.Pattern, []*selection.Selection) {
	t.Helper()
	var qs []*pattern.Pattern
	var sels []*selection.Selection
	for i := 0; i < tries && len(qs) < want; i++ {
		q := f.randomQuery(r)
		sel, err := selection.MinimumBudget(q, f.reg.ViewList, nil)
		if err != nil {
			continue
		}
		qs = append(qs, q)
		sels = append(sels, sel)
	}
	return qs, sels
}

// checkAgainstReference asserts one refined view equals the oracle:
// same kept fragments (pointers, in order), same scan count, the same
// labels the join will read, and no more path tests than classes seen.
func checkAgainstReference(t *testing.T, tag string, got *refinedView, frags []*views.Fragment, labels [][]string, scanned int) {
	t.Helper()
	if got.scanned != scanned {
		t.Fatalf("%s: scanned %d fragments, reference %d", tag, got.scanned, scanned)
	}
	if !slices.Equal(got.frags, frags) {
		t.Fatalf("%s: kept %d fragments, reference kept %d (or a different set/order)", tag, len(got.frags), len(frags))
	}
	for i, f := range got.frags {
		if !slices.Equal(f.Path.Labels, labels[i]) {
			t.Fatalf("%s: fragment %s labels %v, FST decodes %v", tag, f.Code, f.Path.Labels, labels[i])
		}
	}
	if got.paths > got.scanned || (got.scanned > 0 && got.paths == 0) {
		t.Fatalf("%s: %d paths tested over %d fragments", tag, got.paths, got.scanned)
	}
}

// TestRefineDifferential: over the paper example and XMark, for random
// answerable queries, class-memoized refinement keeps exactly the
// fragments the decode-per-fragment oracle keeps, scans as many, and the
// virtual tree built from its output carries the FST-decoded labels —
// per view and through refineAll.
func TestRefineDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	var trivial, nonTrivial, shared, answerable int
	for _, f := range []*refineFixture{paperRefineFixture(t), xmarkRefineFixture(t, 0.05)} {
		fst := f.enc.FST()
		qs, sels := f.answerableQueries(t, r, 3000, 150)
		answerable += len(qs)
		for qi, q := range qs {
			covers := sels[qi].Covers
			refs := make([][]*views.Fragment, len(covers))
			refLabels := make([][][]string, len(covers))
			refScanned := make([]int, len(covers))
			anyEmpty := false
			for ci, c := range covers {
				tag := fmt.Sprintf("%s %s cover %d (%s)", f.name, q, ci, c.View.Pattern)
				var err error
				refs[ci], refLabels[ci], refScanned[ci], err = refineViewReference(q, c, fst, nil)
				if err != nil {
					t.Fatalf("%s: reference: %v", tag, err)
				}
				anyEmpty = anyEmpty || len(refs[ci]) == 0
				comp := compensating(q, c.X)
				if len(comp.Root.Children) == 0 && len(comp.Root.Attrs) == 0 {
					trivial++
				} else {
					nonTrivial++
				}
				var out refinedView
				if err := refineView(q, c, &out, nil); err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				checkAgainstReference(t, tag, &out, refs[ci], refLabels[ci], refScanned[ci])
				if out.paths < out.scanned {
					shared++
				}
				releaseRefined([]refinedView{out})
			}
			refined := make([]refinedView, len(covers))
			empty, err := refineAll(q, covers, refined, nil)
			if err != nil {
				t.Fatalf("%s %s: %v", f.name, q, err)
			}
			if empty != anyEmpty {
				t.Fatalf("%s %s: empty=%v, reference %v", f.name, q, empty, anyEmpty)
			}
			if !empty {
				for ci := range covers {
					checkAgainstReference(t, fmt.Sprintf("%s %s cover %d", f.name, q, ci),
						&refined[ci], refs[ci], refLabels[ci], refScanned[ci])
				}
				vt, _, _ := buildVirtual(fst, refined, 0)
				for _, n := range vt.nodes {
					want, err := fst.Decode(n.code)
					if err != nil || n.label != want[len(want)-1] {
						t.Fatalf("%s %s: virtual node %s labelled %q, FST decodes %v (%v)", f.name, q, n.code, n.label, want, err)
					}
				}
				putVtree(vt)
			}
			releaseRefined(refined)
		}
	}
	t.Logf("%d answerable queries: %d trivial and %d non-trivial compensating covers, %d refinements sharing a path class",
		answerable, trivial, nonTrivial, shared)
	if answerable < 150 || trivial < 50 || nonTrivial < 50 || shared < 50 {
		t.Fatalf("differential too weak: %d queries, %d trivial, %d non-trivial, %d shared", answerable, trivial, nonTrivial, shared)
	}
}

// TestRefineExactBudget: under every step cap from 1 to one past the
// refinement's total, refineAll fails exactly where the
// oracle does — same error, same fragments scanned per view.
func TestRefineExactBudget(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	f := xmarkRefineFixture(t, 0.02)
	fst := f.enc.FST()
	qs, sels := f.answerableQueries(t, r, 4000, 40)
	if len(qs) < 40 {
		t.Fatalf("only %d answerable queries", len(qs))
	}
	// Random queries rarely need a join; these select two views each, so
	// caps also fall inside the second view's scan.
	for _, src := range []string{
		"//*[date]/bidder",
		"//closed_auction[annotation//text]/date",
		"//open_auction[annotation/description//text]/bidder",
	} {
		q := pattern.Minimize(xpath.MustParse(src))
		sel, err := selection.MinimumBudget(q, f.reg.ViewList, nil)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		qs = append(qs, q)
		sels = append(sels, sel)
	}
	caps, multi := 0, 0
	for qi, q := range qs {
		covers := sels[qi].Covers
		if len(covers) > 1 {
			multi++
		}
		total := 0
		for _, c := range covers {
			total += len(c.View.Fragments)
		}
		for k := int64(1); k <= int64(total)+1; k++ {
			caps++
			// The oracle chain: views in order, stopping at the first
			// empty one or the first budget failure, like refineAll.
			bRef := budget.New(nil, k, 0)
			var refErr error
			refScanned := make([]int, len(covers))
			refEmpty := false
			for ci, c := range covers {
				frags, _, n, err := refineViewReference(q, c, fst, bRef)
				refScanned[ci] = n
				if err != nil {
					refErr = err
					break
				}
				if len(frags) == 0 {
					refEmpty = true
					break
				}
			}
			refined := make([]refinedView, len(covers))
			empty, err := refineAll(q, covers, refined, budget.New(nil, k, 0))
			if (err == nil) != (refErr == nil) || (err != nil && !errors.Is(err, budget.ErrSteps)) {
				t.Fatalf("%s cap %d/%d: err %v, reference %v", q, k, total, err, refErr)
			}
			if err == nil && empty != refEmpty {
				t.Fatalf("%s cap %d: empty=%v, reference %v", q, k, empty, refEmpty)
			}
			for ci := range covers {
				if refined[ci].scanned != refScanned[ci] {
					t.Fatalf("%s cap %d: view %d scanned %d, reference %d", q, k, ci, refined[ci].scanned, refScanned[ci])
				}
			}
			releaseRefined(refined)
		}
	}
	t.Logf("%d queries (%d multi-view), %d caps", len(qs), multi, caps)
	if caps < 3000 || multi < 3 {
		t.Fatalf("budget sweep too weak: %d caps, %d multi-view queries", caps, multi)
	}
}

// TestRefineScratchReuse drives one scratch across a small path table
// (the paper's book) and a large one (XMark) in alternation, with the
// epoch started just below, at, and past its wrap, and the verdicts
// poisoned so a stale entry that survived the wrap would read as
// current: every refinement must still equal the oracle.
func TestRefineScratchReuse(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	type job struct {
		q   *pattern.Pattern
		c   *selection.Cover
		fst *dewey.FST
	}
	var small, large []job
	for _, f := range []*refineFixture{paperRefineFixture(t), xmarkRefineFixture(t, 0.03)} {
		qs, sels := f.answerableQueries(t, r, 2000, 20)
		for qi, q := range qs {
			for _, c := range sels[qi].Covers {
				j := job{q, c, f.enc.FST()}
				if f.name == "paper" {
					small = append(small, j)
				} else {
					large = append(large, j)
				}
			}
		}
	}
	if len(small) == 0 || len(large) == 0 {
		t.Fatalf("fixtures produced %d small and %d large jobs", len(small), len(large))
	}
	for _, start := range []uint32{0, math.MaxUint32 - 2, math.MaxUint32 - 1, math.MaxUint32} {
		sc := new(refineScratch)
		sc.epoch = start
		for round := 0; round < 6; round++ {
			jobs := small
			if round%2 == 1 {
				jobs = large
			}
			for _, j := range jobs {
				if sc.epoch == math.MaxUint32 {
					// The next begin wraps: stamp every verdict with the
					// epoch it wraps to and flip it.
					for i := range sc.verdicts {
						sc.verdicts[i] = pathVerdict{epoch: 1, ok: !sc.verdicts[i].ok}
					}
				}
				var out refinedView
				if err := sc.refine(j.q, j.c, &out, nil); err != nil {
					t.Fatal(err)
				}
				frags, labels, scanned, err := refineViewReference(j.q, j.c, j.fst, nil)
				if err != nil {
					t.Fatal(err)
				}
				checkAgainstReference(t, fmt.Sprintf("start %d round %d %s", start, round, j.q), &out, frags, labels, scanned)
				clear(sc.frags)
				sc.frags = sc.frags[:0]
			}
		}
	}
}

// TestRefineAllocsFlat: a warm refinement allocates the same handful of
// objects (the compensating pattern and root path, built once per call)
// whether the view holds a few dozen fragments or a few thousand —
// nothing is allocated per fragment or per path class.
func TestRefineAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector distorts allocation counts")
	}
	var counts []float64
	for _, scale := range []float64{0.01, 0.2} {
		tree := xmark.Generate(xmark.Config{Scale: scale, Seed: 28})
		enc, _, err := dewey.EncodeTree(tree)
		if err != nil {
			t.Fatal(err)
		}
		f := newRefineFixture(t, "xmark", tree, enc, "//text")
		q := pattern.Minimize(xpath.MustParse("//item/description//text[keyword]"))
		sel, err := selection.MinimumBudget(q, f.reg.ViewList, nil)
		if err != nil {
			t.Fatal(err)
		}
		c := sel.Covers[0]
		run := func() {
			var out refinedView
			if err := refineView(q, c, &out, nil); err != nil {
				t.Fatal(err)
			}
			releaseRefined([]refinedView{out})
		}
		for i := 0; i < 20; i++ {
			run()
		}
		allocs := testing.AllocsPerRun(100, run)
		t.Logf("scale %.2f: %d fragments, %.1f allocs/op", scale, len(c.View.Fragments), allocs)
		counts = append(counts, allocs)
	}
	if counts[1] > counts[0] || counts[1] > 10 {
		t.Fatalf("refine allocations grow with fragment count: %v", counts)
	}
}
