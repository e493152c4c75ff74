package rewrite

// Microbenchmarks for the holistic-join kernel in isolation: the
// loser-tree virtual-tree build and the upper-pattern join. Run with
// `go test -run='^$' -bench=BenchmarkJoinKernel -benchmem ./internal/rewrite`.

import (
	"testing"

	"xpathviews/internal/dewey"
	"xpathviews/internal/pattern"
	"xpathviews/internal/selection"
	"xpathviews/internal/views"
	"xpathviews/internal/xmark"
	"xpathviews/internal/xpath"
)

// joinBenchEnv refines an 8-view selection over a scale-1.0 XMark
// document once; the refined streams are read-only for the join, so
// every benchmark iteration reuses them.
type joinBenchEnv struct {
	fst     *dewey.FST
	plan    *JoinPlan
	refined []refinedView
}

func newJoinBenchEnv(tb testing.TB) *joinBenchEnv {
	tb.Helper()
	doc := xmark.Generate(xmark.Config{Scale: 1.0, Seed: 2008})
	enc, fst, err := dewey.EncodeTree(doc)
	if err != nil {
		tb.Fatal(err)
	}
	reg := views.NewRegistry(doc, enc)
	for _, v := range []string{
		"//person/name",
		"//person/emailaddress",
		"//person/phone",
		"//person/address/city",
		"//person/homepage",
		"//person/creditcard",
		"//person/profile/age",
		"//person/watches/watch",
	} {
		if _, err := reg.Add(xpath.MustParse(v), 0); err != nil {
			tb.Fatal(err)
		}
	}
	q := pattern.Minimize(xpath.MustParse(
		"//person[emailaddress][phone][address/city][homepage][creditcard][profile/age][watches/watch]/name"))
	sel, err := selection.Minimum(q, reg.ViewList)
	if err != nil {
		tb.Fatal(err)
	}
	jp, err := PlanJoin(q, sel.Covers)
	if err != nil {
		tb.Fatal(err)
	}
	refined := make([]refinedView, len(sel.Covers))
	for i, c := range sel.Covers {
		if err := refineView(q, c, &refined[i], nil); err != nil {
			tb.Fatal(err)
		}
	}
	return &joinBenchEnv{fst: fst, plan: jp, refined: refined}
}

func BenchmarkJoinKernel(b *testing.B) {
	env := newJoinBenchEnv(b)
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			vt, _, _ := buildVirtual(env.fst, env.refined)
			putVtree(vt)
		}
	})
	b.Run("join-seq", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			vt, anchors, _ := buildVirtual(env.fst, env.refined)
			if _, err := joinUpper(env.plan, env.refined, vt, anchors, nil); err != nil {
				b.Fatal(err)
			}
			putVtree(vt)
		}
	})
}
