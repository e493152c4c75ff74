package xpathviews_test

// The label-path race hammer. §V refinement reads each fragment's
// interned root label-path without a lock, while fragment builders —
// AddView, InsertSubtree/DeleteSubtree maintenance and Advise's trial
// materialization — intern new paths into the System's table under its
// own mutex. 64 goroutines mix plan-missing answers with all three
// builders, and writers nest their inserts to a depth of their own so
// new paths keep being published while readers refine. Run with -race;
// the final differential check catches what the detector cannot.

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"

	"xpathviews"
	"xpathviews/internal/advisor"
	"xpathviews/internal/dewey"
	"xpathviews/internal/maintain"
	"xpathviews/internal/workload"
	"xpathviews/internal/xmark"
	"xpathviews/internal/xmltree"
)

func TestLabelPathHammer(t *testing.T) {
	// XMark's schema, plus one recursive edge so inserts can nest
	// parlist/listitem to any depth.
	schema := xmark.Schema()
	schema["listitem"] = append(slices.Clone(schema["listitem"]), "parlist")
	doc := xmark.Generate(xmark.Config{Scale: 0.05, Seed: 29})
	sys, err := xpathviews.OpenWithFST(doc, dewey.BuildFSTFromSchema("site", schema))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{
		"//listitem//text",
		"//parlist/listitem",
		"//item[description]/name",
		"//item/name",
	} {
		if _, err := sys.AddView(v, xpathviews.DefaultFragmentLimit); err != nil {
			t.Fatal(err)
		}
	}
	queries := []string{
		"//item[description//text]/name",
		"//parlist/listitem//text",
		"//description//listitem[text]",
		"//item/description//listitem//text",
	}

	var items []*xmltree.Node
	sys.Document().Walk(func(n *xmltree.Node) bool {
		if n.Label == "item" {
			items = append(items, n)
		}
		return true
	})
	const readers, writers, builders, advisers = 40, 12, 6, 6 // 64 goroutines
	if len(items) < writers {
		t.Fatalf("document too small: %d items for %d writers", len(items), writers)
	}
	parentCodes := make([]dewey.Code, writers)
	for i := range parentCodes {
		parentCodes[i] = sys.Encoding().MustCode(items[i])
	}
	// Writer w nests parlist/listitem w+1 levels deep under a fresh
	// description: deeper writers publish paths no document node had.
	nested := func(depth int) string {
		var b strings.Builder
		b.WriteString("<description>")
		for i := 0; i < depth; i++ {
			b.WriteString("<parlist><listitem><text/>")
		}
		for i := 0; i < depth; i++ {
			b.WriteString("</listitem></parlist>")
		}
		b.WriteString("</description>")
		return b.String()
	}
	stats := advisor.StatsFromEntries([]workload.Entry{
		{Freq: 5, Query: "//listitem/text"},
		{Freq: 3, Query: "//item[description]/name"},
	})

	seedMax := int32(0)
	for _, n := range sys.Document().Nodes() {
		seedMax = max(seedMax, sys.Encoding().PathOf(n).ID)
	}

	var wg sync.WaitGroup
	ctx := context.Background()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			// NoPlanCache: every call plans afresh, so every call refines.
			opts := xpathviews.Options{Strategy: xpathviews.HV, NoPlanCache: true}
			for i := 0; i < 20; i++ {
				q := queries[(r+i)%len(queries)]
				if _, err := sys.AnswerContext(ctx, q, opts); err != nil && !errors.Is(err, xpathviews.ErrNotAnswerable) {
					t.Errorf("reader %d: %s: %v", r, q, err)
					return
				}
			}
		}(r)
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				res, err := sys.InsertSubtree(parentCodes[w], nested(w+1))
				if err != nil {
					t.Errorf("writer %d insert: %v", w, err)
					return
				}
				if _, err := sys.DeleteSubtree(res.Code); err != nil {
					t.Errorf("writer %d delete %s: %v", w, res.Code, err)
					return
				}
			}
		}(w)
	}
	for b := 0; b < builders; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			srcs := []string{"//listitem/text", "//parlist//text", "//description/parlist"}
			for i := 0; i < 4; i++ {
				id, err := sys.AddView(srcs[(b+i)%len(srcs)], xpathviews.DefaultFragmentLimit)
				if err != nil {
					t.Errorf("builder %d: %v", b, err)
					return
				}
				sys.RemoveView(id)
			}
		}(b)
	}
	for a := 0; a < advisers; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < 2; i++ {
				if _, err := sys.Advise(stats, xpathviews.AdviceOptions{ByteBudget: 256 << 10, MaxCandidates: 6}); err != nil {
					t.Errorf("adviser %d: %v", a, err)
					return
				}
			}
		}(a)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Writers reverted their inserts and builders removed their views:
	// the registered views must equal a clean materialization, paths
	// included, and every view answer must equal direct evaluation.
	freshEqual(t, sys, "label-path hammer")
	answersAgree(t, sys, queries, "label-path hammer")
	// The nested inserts reach label-paths the seed document never had:
	// the deepest one is numbered past every seed path.
	probe, err := sys.InsertSubtree(parentCodes[0], nested(writers))
	if err != nil {
		t.Fatal(err)
	}
	n, ok := maintain.ResolveCode(sys.Document(), sys.Encoding(), probe.Code)
	for ok && len(n.Children) > 0 {
		n = n.Children[len(n.Children)-1]
	}
	if !ok || sys.Encoding().PathOf(n).ID <= seedMax {
		t.Fatalf("a %d-deep insert reached no new label-path (seed max id %d)", writers, seedMax)
	}
}

// TestLabelPathPerSystem: within one System, fragments of different
// views whose roots share a label-path share one *LabelPath; two
// Systems over the same document own disjoint tables.
func TestLabelPathPerSystem(t *testing.T) {
	viewSrcs := []string{"//person/name", "//*/name", "//item[name]/name", "//text"}
	open := func() *xpathviews.System {
		sys, err := xpathviews.Open(xmark.Generate(xmark.Config{Scale: 0.02, Seed: 30}))
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range viewSrcs {
			if _, err := sys.AddView(v, xpathviews.DefaultFragmentLimit); err != nil {
				t.Fatal(err)
			}
		}
		return sys
	}
	paths := func(sys *xpathviews.System) map[*dewey.LabelPath]bool {
		byLabels := make(map[string]*dewey.LabelPath)
		out := make(map[*dewey.LabelPath]bool)
		for _, v := range sys.Registry().Views() {
			for i := range v.Fragments {
				p := v.Fragments[i].Path
				key := strings.Join(p.Labels, "/")
				if q, ok := byLabels[key]; ok && q != p {
					t.Fatalf("path %s interned twice in one System", key)
				}
				byLabels[key] = p
				out[p] = true
			}
		}
		return out
	}
	a, b := paths(open()), paths(open())
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("twin Systems hold %d and %d distinct paths", len(a), len(b))
	}
	for p := range b {
		if a[p] {
			t.Fatalf("two Systems share path %v", p.Labels)
		}
	}
}
