package xpathviews_test

import (
	"context"
	"errors"
	"testing"

	"xpathviews"
	"xpathviews/internal/advisor"
	"xpathviews/internal/pattern"
	"xpathviews/internal/workload"
	"xpathviews/internal/xmark"
	"xpathviews/internal/xpath"
)

// canon is the recorder's tally key: the minimized pattern string.
func canon(src string) string {
	return pattern.Minimize(xpath.MustParse(src)).String()
}

// TestRecorderHookClassification drives each serving path and checks
// the recorder's outcome buckets.
func TestRecorderHookClassification(t *testing.T) {
	doc := xmark.Generate(xmark.Config{Scale: 0.05, Seed: 42})
	sys, err := xpathviews.Open(doc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.AddView("//person/name", 0); err != nil {
		t.Fatal(err)
	}
	rec, err := xpathviews.NewRecorder(nil)
	if err != nil {
		t.Fatal(err)
	}
	rec.SetSampling(1)
	sys.SetRecorder(rec)
	ctx := context.Background()

	const answerable, unanswerable = "//person/name", "//item/location"

	// View strategy, served from the view: Answered.
	if _, err := sys.AnswerContext(ctx, answerable, xpathviews.Options{Strategy: xpathviews.HV}); err != nil {
		t.Fatal(err)
	}
	// Direct evaluation succeeds but no view was used: FellBack.
	if _, err := sys.AnswerContext(ctx, answerable, xpathviews.Options{Strategy: xpathviews.BN}); err != nil {
		t.Fatal(err)
	}
	// No view certifies the query: Failed.
	if _, err := sys.AnswerContext(ctx, unanswerable, xpathviews.Options{Strategy: xpathviews.HV}); !errors.Is(err, xpathviews.ErrNotAnswerable) {
		t.Fatalf("want ErrNotAnswerable, got %v", err)
	}
	// Starved step budget: BudgetExhausted.
	if _, err := sys.AnswerContext(ctx, unanswerable, xpathviews.Options{Strategy: xpathviews.BN, MaxSteps: 1}); !errors.Is(err, xpathviews.ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	// Resilient chain answering on a view rung: Answered.
	if _, err := sys.AnswerResilient(ctx, answerable, xpathviews.Options{}); err != nil {
		t.Fatal(err)
	}
	// Resilient chain degrading to direct evaluation: FellBack.
	if _, err := sys.AnswerResilient(ctx, unanswerable, xpathviews.Options{}); err != nil {
		t.Fatal(err)
	}

	byQuery := make(map[string]advisor.QueryStat)
	for _, st := range rec.Snapshot() {
		byQuery[st.Query] = st
	}
	a := byQuery[canon("//person/name")]
	if a.Counts[advisor.Answered] != 2 || a.Counts[advisor.FellBack] != 1 {
		t.Fatalf("answerable query tallies = %v", a.Counts)
	}
	u := byQuery[canon("//item/location")]
	if u.Counts[advisor.Failed] != 1 || u.Counts[advisor.BudgetExhausted] != 1 || u.Counts[advisor.FellBack] != 1 {
		t.Fatalf("unanswerable query tallies = %v", u.Counts)
	}

	// Detaching the recorder stops tallying.
	sys.SetRecorder(nil)
	if _, err := sys.AnswerContext(ctx, answerable, xpathviews.Options{Strategy: xpathviews.HV}); err != nil {
		t.Fatal(err)
	}
	if got := rec.Snapshot(); got[0].Freq()+got[1].Freq() != 6 {
		t.Fatalf("detached recorder kept tallying: %v", got)
	}
}

// TestAdviseApplyRoundTrip: advice applied to the live system makes the
// workload answerable from views.
func TestAdviseApplyRoundTrip(t *testing.T) {
	doc := xmark.Generate(xmark.Config{Scale: 0.05, Seed: 42})
	sys, err := xpathviews.Open(doc)
	if err != nil {
		t.Fatal(err)
	}
	stats := advisor.StatsFromEntries([]workload.Entry{
		{Freq: 5, Query: "//person/name"},
		{Freq: 3, Query: "//open_auction[bidder]/seller"},
	})
	adv, err := sys.Advise(stats, xpathviews.AdviceOptions{ByteBudget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if adv.Predicted.WeightedFraction != 1 {
		t.Fatalf("tiny workload not fully covered: %+v", adv.Predicted)
	}
	ids, err := sys.ApplyAdvice(adv)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(adv.Views) {
		t.Fatalf("applied %d of %d views", len(ids), len(adv.Views))
	}
	for _, e := range []string{"//person/name", "//open_auction[bidder]/seller"} {
		if _, err := sys.Answer(e, xpathviews.HV); err != nil {
			if _, err2 := sys.Answer(e, xpathviews.MV); err2 != nil {
				t.Fatalf("applied advice does not answer %s: HV %v, MV %v", e, err, err2)
			}
		}
	}
}

// acceptanceWorkload builds a deterministic Zipf-weighted workload over
// positive XMark queries and splits it into a training slice and a
// held-out slice whose tail the training never saw.
func acceptanceWorkload(t testing.TB, positives []*pattern.Pattern) (train, holdout []advisor.QueryStat) {
	t.Helper()
	seen := make(map[string]bool)
	var distinct []string
	for _, q := range positives {
		s := pattern.Minimize(q).String()
		if !seen[s] {
			seen[s] = true
			distinct = append(distinct, s)
		}
	}
	if len(distinct) < 60 {
		t.Fatalf("only %d distinct positive queries", len(distinct))
	}
	nTrain := len(distinct) * 2 / 3
	zipf := func(qs []string) []advisor.QueryStat {
		entries := make([]workload.Entry, len(qs))
		for i, q := range qs {
			f := 240 / (i + 1)
			if f < 1 {
				f = 1
			}
			entries[i] = workload.Entry{Freq: f, Query: q}
		}
		return advisor.StatsFromEntries(entries)
	}
	// Held-out slice: the middle third overlaps training, the last third
	// is unseen; ranked in reverse so its hot queries differ from
	// training's.
	hold := append([]string(nil), distinct[len(distinct)/3:]...)
	for i, j := 0, len(hold)-1; i < j; i, j = i+1, j-1 {
		hold[i], hold[j] = hold[j], hold[i]
	}
	return zipf(distinct[:nTrain]), zipf(hold)
}

// replayFraction replays the workload against the system and returns
// the frequency-weighted fraction answered from views (HV, then MV).
func replayFraction(t testing.TB, sys *xpathviews.System, stats []advisor.QueryStat) float64 {
	t.Helper()
	answered, total := 0, 0
	for _, st := range stats {
		f := st.Freq()
		total += f
		_, err := sys.Answer(st.Query, xpathviews.HV)
		if errors.Is(err, xpathviews.ErrNotAnswerable) {
			_, err = sys.Answer(st.Query, xpathviews.MV)
		}
		switch {
		case err == nil:
			answered += f
		case !errors.Is(err, xpathviews.ErrNotAnswerable):
			t.Fatal(err)
		}
	}
	if total == 0 {
		return 0
	}
	return float64(answered) / float64(total)
}

// TestAdvisedBeatsNaiveTopK is the acceptance criterion: on a generated
// XMark workload with a budget fitting at most half the naive
// per-query views, the advised set must answer (HV or MV) a strictly
// higher frequency-weighted fraction of a held-out slice than the
// naive top-k baseline at the same budget. The measured numbers are
// logged.
func TestAdvisedBeatsNaiveTopK(t *testing.T) {
	if testing.Short() {
		t.Skip("acceptance benchmark; skipped in -short")
	}
	const scale, seed = 0.12, 2008
	doc := xmark.Generate(xmark.Config{Scale: scale, Seed: seed})
	g := workload.New(seed, xmark.Schema(), xmark.Attributes(),
		workload.Params{MaxDepth: 4, ProbWild: 0.2, ProbDesc: 0.2, NumPred: 1, NumNestedPath: 1})
	positives := g.Positive(doc, 150, 30000)
	train, holdout := acceptanceWorkload(t, positives)

	sysAdvised, err := xpathviews.Open(doc)
	if err != nil {
		t.Fatal(err)
	}

	// The budget: shrink from the all-verbatim total until the naive
	// baseline fits at most half of the per-query views — the
	// constrained setting the advisor is for.
	_, naiveFullBytes := advisor.NaiveTopK(doc, sysAdvised.Encoding(), nil, train, 1<<31)
	budget := naiveFullBytes / 3
	naiveViews, naiveBytes := advisor.NaiveTopK(doc, sysAdvised.Encoding(), nil, train, budget)
	for 2*len(naiveViews) > len(train) && budget > 1024 {
		budget = budget * 2 / 3
		naiveViews, naiveBytes = advisor.NaiveTopK(doc, sysAdvised.Encoding(), nil, train, budget)
	}
	if 2*len(naiveViews) > len(train) {
		t.Fatalf("budget %d still fits %d of %d naive views — not a constrained setting",
			budget, len(naiveViews), len(train))
	}

	adv, err := sysAdvised.Advise(train, xpathviews.AdviceOptions{ByteBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	if adv.TotalBytes > budget {
		t.Fatalf("advised %d bytes over budget %d", adv.TotalBytes, budget)
	}
	if _, err := sysAdvised.ApplyAdvice(adv); err != nil {
		t.Fatal(err)
	}

	sysNaive, err := xpathviews.Open(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range naiveViews {
		if _, err := sysNaive.AddViewPattern(v.Pattern, 0); err != nil {
			t.Fatal(err)
		}
	}

	advisedFrac := replayFraction(t, sysAdvised, holdout)
	naiveFrac := replayFraction(t, sysNaive, holdout)
	if advisedFrac <= naiveFrac {
		t.Fatalf("advised set (%.3f) does not beat naive top-k (%.3f) on the held-out slice",
			advisedFrac, naiveFrac)
	}

	t.Logf("advised %.1f%% vs naive %.1f%% at %d bytes (%d vs %d views, %d vs %d bytes)",
		100*advisedFrac, 100*naiveFrac, budget, len(adv.Views), len(naiveViews), adv.TotalBytes, naiveBytes)
}
