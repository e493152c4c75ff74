package advisor_test

import (
	"slices"
	"testing"

	"xpathviews/internal/advisor"
	"xpathviews/internal/dewey"
	"xpathviews/internal/pattern"
	"xpathviews/internal/views"
	"xpathviews/internal/workload"
	"xpathviews/internal/xmark"
	"xpathviews/internal/xmltree"
	"xpathviews/internal/xpath"
)

func testDoc(t *testing.T) (*xmltree.Tree, *dewey.Encoding) {
	t.Helper()
	doc := xmark.Generate(xmark.Config{Scale: 0.05, Seed: 42})
	enc, _, err := dewey.EncodeTree(doc)
	if err != nil {
		t.Fatal(err)
	}
	return doc, enc
}

func statsOf(entries ...workload.Entry) []advisor.QueryStat {
	return advisor.StatsFromEntries(entries)
}

// TestGenerateCandidatesNeverUniverse feeds the generator queries whose
// generalizations brush against the universe pattern (//*, //*//*) and
// checks every emitted candidate still carries a concrete label.
func TestGenerateCandidatesNeverUniverse(t *testing.T) {
	var pats []*pattern.Pattern
	for _, s := range []string{
		"//person/name",
		"//open_auction[bidder]/seller",
		"//*",
		"//*//*",
	} {
		pats = append(pats, pattern.Minimize(mustParse(t, s)))
	}
	freqs := []int{10, 5, 3, 1}
	cands := advisor.GenerateCandidates(pats, freqs, len(pats))
	if len(cands) == 0 {
		t.Fatal("no candidates generated")
	}
	seen := make(map[string]bool)
	for _, c := range cands {
		if advisor.IsUniverse(c.Pattern) {
			t.Fatalf("universe candidate emitted: %s (source %s)", c.Key, c.Source)
		}
		if seen[c.Key] {
			t.Fatalf("duplicate candidate %s", c.Key)
		}
		seen[c.Key] = true
	}
	// The all-wildcard queries alone must yield nothing at all.
	wild := []*pattern.Pattern{pattern.Minimize(mustParse(t, "//*"))}
	if got := advisor.GenerateCandidates(wild, []int{1}, 1); len(got) != 0 {
		t.Fatalf("universe query produced %d candidates", len(got))
	}
}

// TestAdviseRootOnlyQuery exercises the spine-length-1 edge: no wildcard
// steps, prefix == verbatim, and a branch hanging directly off the
// answer node.
func TestAdviseRootOnlyQuery(t *testing.T) {
	doc, enc := testDoc(t)
	stats := statsOf(
		workload.Entry{Freq: 10, Query: "//person"},
		workload.Entry{Freq: 5, Query: "//person[address]"},
	)
	adv, err := advisor.Advise(doc, enc, nil, stats, advisor.Options{ByteBudget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(adv.Views) == 0 {
		t.Fatal("no views advised for a root-only workload")
	}
	if adv.Predicted.WeightedFraction != 1 {
		t.Fatalf("root-only workload not fully covered: %+v", adv.Predicted)
	}
	if adv.TotalBytes > adv.ByteBudget {
		t.Fatalf("advised %d bytes over budget %d", adv.TotalBytes, adv.ByteBudget)
	}
}

// TestAdviseDeltaLeafPlacement checks answerability is predicted for
// both Δ placements: answer node at the end of the spine with a
// side branch (Δ interior to the leaf set) and answer node as the only
// spine node (Δ at the root).
func TestAdviseDeltaLeafPlacement(t *testing.T) {
	doc, enc := testDoc(t)
	stats := statsOf(
		// Δ = seller, second leaf = bidder branch.
		workload.Entry{Freq: 8, Query: "//open_auction[bidder]/seller"},
		// Δ = name at the spine leaf, no branches.
		workload.Entry{Freq: 4, Query: "//person/name"},
	)
	adv, err := advisor.Advise(doc, enc, nil, stats, advisor.Options{ByteBudget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if adv.Predicted.WeightedFraction != 1 {
		t.Fatalf("Δ-leaf workload not fully covered: %+v", adv.Predicted)
	}
	for _, v := range adv.Views {
		p, err := xpath.Parse(v.XPath)
		if err != nil {
			t.Fatalf("advised view %q does not parse back: %v", v.XPath, err)
		}
		if advisor.IsUniverse(p) {
			t.Fatalf("universe view advised: %s", v.XPath)
		}
		if v.Bytes <= 0 || v.Fragments <= 0 {
			t.Fatalf("advised view %q has no materialization: %+v", v.XPath, v)
		}
	}
}

// TestAdviseUnsatisfiablePruned: queries over labels absent from the
// document generate candidates, but none may survive trial
// materialization or be advised.
func TestAdviseUnsatisfiablePruned(t *testing.T) {
	doc, enc := testDoc(t)
	stats := statsOf(
		workload.Entry{Freq: 10, Query: "//zzz/yyy"},
		workload.Entry{Freq: 3, Query: "//nosuchlabel[zzz]/yyy"},
	)
	adv, err := advisor.Advise(doc, enc, nil, stats, advisor.Options{ByteBudget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if adv.CandidatesGenerated == 0 {
		t.Fatal("expected candidates to be generated before pruning")
	}
	if adv.CandidatesKept != 0 {
		t.Fatalf("%d unsatisfiable candidates survived materialization", adv.CandidatesKept)
	}
	if len(adv.Views) != 0 {
		t.Fatalf("unsatisfiable workload got %d advised views", len(adv.Views))
	}
}

// TestAdvisePerViewLimitPrunes: a tiny per-view cap must prune oversized
// candidates rather than blow the budget.
func TestAdvisePerViewLimitPrunes(t *testing.T) {
	doc, enc := testDoc(t)
	stats := statsOf(workload.Entry{Freq: 10, Query: "//person/name"})
	adv, err := advisor.Advise(doc, enc, nil, stats, advisor.Options{
		ByteBudget:   1 << 20,
		PerViewLimit: 8, // nothing real fits in 8 bytes
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(adv.Views) != 0 || adv.CandidatesKept != 0 {
		t.Fatalf("oversized candidates survived a per-view cap of 8 bytes: %+v", adv)
	}
}

// TestAdviseGeneralizes: with shared-prefix queries and a budget too
// small for all verbatim views, the advisor should still cover traffic,
// typically via a generalized (prefix/lgg/widen) view.
func TestAdviseGeneralizes(t *testing.T) {
	doc, enc := testDoc(t)
	stats := statsOf(
		workload.Entry{Freq: 6, Query: "//person/name"},
		workload.Entry{Freq: 5, Query: "//person/emailaddress"},
		workload.Entry{Freq: 4, Query: "//person/address/city"},
		workload.Entry{Freq: 3, Query: "//person/address/country"},
	)
	adv, err := advisor.Advise(doc, enc, nil, stats, advisor.Options{ByteBudget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if adv.Predicted.WeightedFraction < 0.99 {
		t.Fatalf("shared-prefix workload poorly covered: %+v", adv.Predicted)
	}
}

// TestExactSelectorNotWorse: for a pool small enough for the exponential
// search, the exact answer must cover at least as much weighted traffic
// as the greedy one at the same budget.
func TestExactSelectorNotWorse(t *testing.T) {
	doc, enc := testDoc(t)
	stats := statsOf(
		workload.Entry{Freq: 7, Query: "//person/name"},
		workload.Entry{Freq: 5, Query: "//open_auction/seller"},
		workload.Entry{Freq: 2, Query: "//item/location"},
	)
	budget := 24 << 10
	greedy, err := advisor.Advise(doc, enc, nil, stats, advisor.Options{
		ByteBudget: budget, MaxCandidates: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := advisor.Advise(doc, enc, nil, stats, advisor.Options{
		ByteBudget: budget, MaxCandidates: 12, ExactThreshold: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if exact.Predicted.WeightedFraction < greedy.Predicted.WeightedFraction {
		t.Fatalf("exact selector worse than greedy: %.3f < %.3f",
			exact.Predicted.WeightedFraction, greedy.Predicted.WeightedFraction)
	}
	if exact.TotalBytes > budget || greedy.TotalBytes > budget {
		t.Fatalf("selection over budget: exact %d, greedy %d > %d",
			exact.TotalBytes, greedy.TotalBytes, budget)
	}
}

// TestEvaluateAgainstNaive sanity-checks the baseline helpers used by
// the CLI and the acceptance benchmark.
func TestEvaluateAgainstNaive(t *testing.T) {
	doc, enc := testDoc(t)
	stats := statsOf(
		workload.Entry{Freq: 9, Query: "//person/name"},
		workload.Entry{Freq: 1, Query: "//item/location"},
	)
	naive, bytes := advisor.NaiveTopK(doc, enc, nil, stats, 1<<20)
	if len(naive) == 0 || bytes <= 0 {
		t.Fatalf("naive baseline empty: %d views, %d bytes", len(naive), bytes)
	}
	cov := advisor.Evaluate(naive, stats)
	if cov.WeightedFraction != 1 {
		t.Fatalf("naive baseline with full budget should cover everything: %+v", cov)
	}
	if cov.TotalFreq != 10 {
		t.Fatalf("TotalFreq = %d, want 10", cov.TotalFreq)
	}
}

// TestAdvisorCandidatePaths: fragments the advisor materializes — trial
// candidates during Advise, the naive baseline's views — carry the
// encoding's interned root label-path, equal to the FST decoding of
// their codes, exactly like registry-built fragments.
func TestAdvisorCandidatePaths(t *testing.T) {
	doc, enc := testDoc(t)
	stats := statsOf(
		workload.Entry{Freq: 7, Query: "//person/name"},
		workload.Entry{Freq: 5, Query: "//open_auction[bidder]/seller"},
		workload.Entry{Freq: 2, Query: "//item/description//text"},
	)
	adv, err := advisor.Advise(doc, enc, nil, stats, advisor.Options{ByteBudget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	naive, _ := advisor.NaiveTopK(doc, enc, nil, stats, 1<<20)
	for _, av := range adv.Views {
		v, err := views.Materialize(0, mustParse(t, av.XPath), doc, enc, nil, adv.PerViewLimit)
		if err != nil {
			t.Fatal(err)
		}
		naive = append(naive, v)
	}
	byCode := make(map[string]*xmltree.Node, doc.Size())
	for _, n := range doc.Nodes() {
		byCode[enc.MustCode(n).String()] = n
	}
	checked := 0
	for _, v := range naive {
		for i := range v.Fragments {
			f := &v.Fragments[i]
			want, err := enc.FST().Decode(f.Code)
			if err != nil || f.Path == nil || !slices.Equal(f.Path.Labels, want) {
				t.Fatalf("%s: fragment %s path %v, FST decodes %v (%v)", v.Pattern, f.Code, f.Path, want, err)
			}
			if p := enc.PathOf(byCode[f.Code.String()]); p != f.Path {
				t.Fatalf("%s: fragment %s path is not the interned one", v.Pattern, f.Code)
			}
			checked++
		}
	}
	if len(adv.Views) == 0 || checked == 0 {
		t.Fatalf("nothing checked: %d advised views, %d fragments", len(adv.Views), checked)
	}
}
