package rewrite_test

import (
	"math/rand"
	"sort"
	"testing"

	"xpathviews/internal/dewey"
	"xpathviews/internal/engine"
	"xpathviews/internal/paperdata"
	"xpathviews/internal/pattern"
	"xpathviews/internal/rewrite"
	"xpathviews/internal/views"
	"xpathviews/internal/xmark"
	"xpathviews/internal/xpath"
)

// contained runs the contained rewriting without a budget.
func contained(t *testing.T, q *pattern.Pattern, all []*views.View) *rewrite.ContainedResult {
	t.Helper()
	res, err := rewrite.ContainedBudget(q, all, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestContainedSubsetAndCompleteness on the book tree: a more
// restrictive view yields a strict, sound subset; an equivalent view
// yields the full set with Complete=true.
func TestContainedSubsetAndCompleteness(t *testing.T) {
	tree := paperdata.BookTree()
	enc, err := dewey.Encode(tree, paperdata.BookFST())
	if err != nil {
		t.Fatal(err)
	}
	reg := views.NewRegistry(tree, enc)
	// Restrictive: only paragraphs of sections that also have a figure.
	restrictive, err := reg.Add(xpath.MustParse("//s[t][f]/p"), 0)
	if err != nil {
		t.Fatal(err)
	}

	q := xpath.MustParse("//s[t]/p")
	direct := engine.Answers(tree, q)

	res := contained(t, q, reg.ViewList)
	if res.Complete {
		t.Fatal("restrictive view must not be reported complete")
	}
	if len(res.Answers) == 0 || len(res.Answers) >= len(direct) {
		t.Fatalf("contained answers = %d, want a non-empty strict subset of %d", len(res.Answers), len(direct))
	}
	directSet := map[string]bool{}
	for _, n := range direct {
		directSet[enc.MustCode(n).String()] = true
	}
	for _, a := range res.Answers {
		if !directSet[a.Code.String()] {
			t.Fatalf("contained rewriting returned a wrong answer %s", a.Code)
		}
	}
	if len(res.ViewsUsed) != 1 || res.ViewsUsed[0] != restrictive.ID {
		t.Fatalf("ViewsUsed = %v", res.ViewsUsed)
	}

	// Add an equivalent view: result becomes complete.
	if _, err := reg.Add(xpath.MustParse("//s[t]/p"), 0); err != nil {
		t.Fatal(err)
	}
	res2 := contained(t, q, reg.ViewList)
	if !res2.Complete || len(res2.Answers) != len(direct) {
		t.Fatalf("with an equivalent view: complete=%v answers=%d want %d",
			res2.Complete, len(res2.Answers), len(direct))
	}
}

// TestContainedSoundnessRandomized: contained answers are always a subset
// of direct evaluation, on random documents/views/queries.
func TestContainedSoundnessRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(311))
	labels := []string{"a", "b", "c", "d"}
	contributed := 0
	for doc := 0; doc < 12; doc++ {
		tree := randomTree(r, 100, labels)
		enc, _, err := dewey.EncodeTree(tree)
		if err != nil {
			t.Fatal(err)
		}
		reg := views.NewRegistry(tree, enc)
		for len(reg.ViewList) < 20 {
			if _, err := reg.Add(randomPattern(r, labels, 4), 0); err != nil {
				t.Fatal(err)
			}
		}
		for qi := 0; qi < 25; qi++ {
			q := pattern.Minimize(randomPattern(r, labels, 5))
			res := contained(t, q, reg.ViewList)
			if len(res.Answers) == 0 {
				continue
			}
			contributed++
			want := map[string]bool{}
			for _, n := range engine.Answers(tree, q) {
				want[enc.MustCode(n).String()] = true
			}
			for _, a := range res.Answers {
				if !want[a.Code.String()] {
					t.Fatalf("unsound contained answer %s for %s", a.Code, q)
				}
			}
			if res.Complete && len(res.Answers) != len(want) {
				t.Fatalf("Complete claimed but %d != %d for %s", len(res.Answers), len(want), q)
			}
		}
	}
	if contributed < 15 {
		t.Fatalf("only %d contributing cases", contributed)
	}
}

// mapContained is the contained rung's former union: a Code.String() set
// over the contributing views' fragments in view order, then an unstable
// sort. The first-seen fragment of each code survives.
func mapContained(reg *views.Registry, used []int) []rewrite.Answer {
	seen := map[string]bool{}
	var out []rewrite.Answer
	for _, id := range used {
		v := reg.Get(id)
		for fi := range v.Fragments {
			f := &v.Fragments[fi]
			if key := f.Code.String(); !seen[key] {
				seen[key] = true
				out = append(out, rewrite.Answer{Code: f.Code, Node: f.Tree.Root()})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return dewey.Compare(out[i].Code, out[j].Code) < 0 })
	return out
}

// TestContainedDedupMatchesMap: the sort-and-compact union of overlapping
// views returns exactly the map-based union — same codes, same order, and
// the same surviving fragment node for every code — on XMark views whose
// fragment sets overlap, and on random documents and views.
func TestContainedDedupMatchesMap(t *testing.T) {
	check := func(tag string, reg *views.Registry, q *pattern.Pattern) (dups int) {
		t.Helper()
		res := contained(t, q, reg.ViewList)
		want := mapContained(reg, res.ViewsUsed)
		if len(res.Answers) != len(want) {
			t.Fatalf("%s %s: %d answers, map union has %d", tag, q, len(res.Answers), len(want))
		}
		for i, a := range res.Answers {
			if dewey.Compare(a.Code, want[i].Code) != 0 || a.Node != want[i].Node {
				t.Fatalf("%s %s: answer %d is %s (node %p), map union keeps %s (node %p)",
					tag, q, i, a.Code, a.Node, want[i].Code, want[i].Node)
			}
		}
		for _, id := range res.ViewsUsed {
			dups += len(reg.Get(id).Fragments)
		}
		return dups - len(want)
	}

	tree := xmark.Generate(xmark.Config{Scale: 0.05, Seed: 61})
	enc, _, err := dewey.EncodeTree(tree)
	if err != nil {
		t.Fatal(err)
	}
	reg := views.NewRegistry(tree, enc)
	for _, src := range []string{
		"//person[address]/name", "//person[emailaddress]/name", "//people/person/name",
		"//person/name", "//person[profile]/name", "//item/name",
	} {
		if _, err := reg.Add(xpath.MustParse(src), 0); err != nil {
			t.Fatal(err)
		}
	}
	if dups := check("xmark", reg, pattern.Minimize(xpath.MustParse("//person/name"))); dups == 0 {
		t.Fatal("xmark: the contributing views do not overlap")
	}

	r := rand.New(rand.NewSource(37))
	labels := []string{"a", "b", "c"}
	overlapping := 0
	for doc := 0; doc < 8; doc++ {
		tree := randomTree(r, 80, labels)
		enc, _, err := dewey.EncodeTree(tree)
		if err != nil {
			t.Fatal(err)
		}
		reg := views.NewRegistry(tree, enc)
		for len(reg.ViewList) < 16 {
			if _, err := reg.Add(randomPattern(r, labels, 3), 0); err != nil {
				t.Fatal(err)
			}
		}
		for qi := 0; qi < 20; qi++ {
			if check("random", reg, pattern.Minimize(randomPattern(r, labels, 3))) > 0 {
				overlapping++
			}
		}
	}
	if overlapping < 10 {
		t.Fatalf("only %d random cases had overlapping contributing views", overlapping)
	}
}
