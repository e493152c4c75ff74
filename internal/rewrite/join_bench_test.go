package rewrite

// Microbenchmarks for the holistic-join kernel in isolation: the
// virtual-tree build (the head-scan merge) and the upper-pattern join.
// Run with
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

// joinShapes are the benchmarked selections over one scale-1.0 XMark
// document, named by their width k. The workloads select 1–3 views per
// answer; the 8-view case is kept as a wide stress shape. desc puts a
// '//' predicate off the Δ-path of a '//'-rooted query over every bidder
// time: the shape the backtracking embed rescanned the arena for once
// per Δ-fragment.
var joinShapes = []struct {
	name  string
	query string
	k     int
}{
	{"k1", "//person/name", 1},
	{"k2", "//person[address/city]/name", 2},
	{"k3", "//person[address/city][profile/age]/name", 3},
	{"k8", "//person[emailaddress][phone][address/city][homepage][creditcard][profile/age][watches/watch]/name", 8},
	{"desc", "//*[.//date]/time", 2},
}

// joinBenchEnv is one shape refined once; the refined streams are
// read-only for the join, so every benchmark iteration reuses them.
type joinBenchEnv struct {
	fst     *dewey.FST
	plan    *JoinPlan
	refined []refinedView
}

// newJoinBenchEnvs materializes the views every shape draws from and
// refines each shape's minimum selection.
func newJoinBenchEnvs(tb testing.TB) []*joinBenchEnv {
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
		"//date",
		"//time",
	} {
		if _, err := reg.Add(xpath.MustParse(v), 0); err != nil {
			tb.Fatal(err)
		}
	}
	envs := make([]*joinBenchEnv, len(joinShapes))
	for si, shape := range joinShapes {
		q := pattern.Minimize(xpath.MustParse(shape.query))
		sel, err := selection.MinimumBudget(q, reg.ViewList, nil)
		if err != nil {
			tb.Fatal(err)
		}
		if len(sel.Covers) != shape.k {
			tb.Fatalf("%s: selected %d views, want %d", shape.name, len(sel.Covers), shape.k)
		}
		jp, err := PlanJoin(q, sel.Covers)
		if err != nil {
			tb.Fatal(err)
		}
		refined := make([]refinedView, len(sel.Covers))
		for i, c := range sel.Covers {
			if err := refineView(&jp.cover[i], c, &refined[i], nil); err != nil {
				tb.Fatal(err)
			}
		}
		envs[si] = &joinBenchEnv{fst: fst, plan: jp, refined: refined}
	}
	return envs
}

func BenchmarkJoinKernel(b *testing.B) {
	envs := newJoinBenchEnvs(b)
	for si, shape := range joinShapes {
		env := envs[si]
		b.Run(shape.name+"/build", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				vt, _, _ := buildVirtual(env.fst, env.refined, env.plan.deltaIdx)
				putVtree(vt)
			}
		})
		b.Run(shape.name+"/join", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				vt, anchors, _ := buildVirtual(env.fst, env.refined, env.plan.deltaIdx)
				if _, err := joinUpper(env.plan, env.refined, vt, anchors, nil); err != nil {
					b.Fatal(err)
				}
				putVtree(vt)
			}
		})
	}
}
