// Serving hot-path benchmark for the plan cache. Run with
// `go test -run='^$' -bench AnswerPlanCache -benchmem .`.
package xpathviews_test

import (
	"context"
	"testing"

	"xpathviews"
	"xpathviews/internal/xmark"
)

// servingViews is the materialized set for the serving benchmarks: the
// eight person-leaf views a predicate-heavy query selects from, plus
// descendant-axis variants that widen the candidate set the planner must
// weigh (more homomorphisms per miss, same rewrite per hit).
var servingViews = []string{
	"//person/name",
	"//person/emailaddress",
	"//person/phone",
	"//person/address/city",
	"//person/homepage",
	"//person/creditcard",
	"//person/profile/age",
	"//person/watches/watch",
	"//person//name",
	"//person//city",
	"//person//age",
	"//person//phone",
	"//person//emailaddress",
	"//person//homepage",
	"//person//creditcard",
	"//person//watch",
}

// servingQuery is a predicate-heavy query whose leaf cover selects four
// of servingViews.
const servingQuery = "//person[address/city][profile/age][phone]/name"

func servingBenchSystem(tb testing.TB, scale float64, seed int64) *xpathviews.System {
	tb.Helper()
	doc := xmark.Generate(xmark.Config{Scale: scale, Seed: seed})
	sys, err := xpathviews.Open(doc)
	if err != nil {
		tb.Fatal(err)
	}
	for _, v := range servingViews {
		if _, err := sys.AddView(v, 0); err != nil {
			tb.Fatal(err)
		}
	}
	return sys
}

// BenchmarkAnswerPlanCache contrasts the serving hot path with a warm
// plan cache (hit: rewrite only) against the uncached pipeline (miss:
// parse + filter + selection + rewrite). Run with -benchmem: the hit
// path's allocs/op must sit below the miss path's.
func BenchmarkAnswerPlanCache(b *testing.B) {
	sys := servingBenchSystem(b, 0.05, 2008)
	ctx := context.Background()
	q := servingQuery
	run := func(b *testing.B, opts xpathviews.Options) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			res, err := sys.AnswerContext(ctx, q, opts)
			if err != nil {
				b.Fatal(err)
			}
			_ = res
		}
	}
	b.Run("hit", func(b *testing.B) {
		opts := xpathviews.Options{Strategy: xpathviews.MV}
		if _, err := sys.AnswerContext(ctx, q, opts); err != nil { // warm the plan
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		run(b, opts)
	})
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		run(b, xpathviews.Options{Strategy: xpathviews.MV, NoPlanCache: true})
	})
}
