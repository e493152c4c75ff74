package xpathviews_test

// Explain tests on the paper's running example (query E over the
// Table I views): a golden rendering with volatile numbers redacted,
// plus semantic checks that the explained plan is the plan Select
// actually chooses.

import (
	"encoding/json"
	"regexp"
	"sort"
	"strings"
	"testing"

	"xpathviews"
	"xpathviews/internal/paperdata"
	"xpathviews/internal/xpath"
)

var (
	durRe = regexp.MustCompile(`[0-9][0-9.]*(ns|µs|ms|s)`)
	numRe = regexp.MustCompile(`[0-9]+`)
)

// redact replaces durations and counts so the golden comparison checks
// structure and plan content, not wall-clock noise.
func redact(s string) string {
	return numRe.ReplaceAllString(durRe.ReplaceAllString(s, "DUR"), "N")
}

const explainGolden = `query:    //s[f//i][t]/p
strategy: HV
plan:     cache miss
views:    candidates N of N touched, N views
  vN: //s[t]/p (N fragments)
  vN: //s[p]/f (N fragments)
selected: N views, N homomorphisms
  vN: //s[p]/f — lands on f, covers {i, p}
  vN: //s[t]/p — lands on p, covers {Δ, p, t}
memo:     miss (N root paths tested)
answers:  N
stages:
  parse    DUR
  filter   DUR
  select   DUR
  refine   DUR
  join     DUR
  extract  DUR
  total    DUR
budget:   N steps, N homs
trace:
  answer DUR strategy=HV answers=N budget_steps=N budget_homs=N
  ├─ parse DUR
  ├─ plan DUR cache=miss negative=false candidates=N
  │  ├─ vfilter DUR views=N candidates=N touched=N query_paths=N
  │  └─ select DUR algo=selection.heuristic candidates=N covers=N leaves_covered=N homs=N
  ├─ rewrite DUR views=N memo=miss fragments_scanned=N
  │  ├─ refine DUR paths=N
  │  ├─ join DUR fragments_joined=N
  │  └─ extract DUR
  └─ collect DUR answers=N
`

// TestExplainGolden: Explain on the paper's example renders the full
// report — plan cache status, surviving and selected views with their
// leaf covers, every stage with nonzero timing, and the span tree.
func TestExplainGolden(t *testing.T) {
	sys, _ := obsSystem(t)
	ex, err := sys.Explain(paperdata.QueryE, xpathviews.HV)
	if err != nil {
		t.Fatal(err)
	}
	if got := redact(ex.Text()); got != explainGolden {
		t.Fatalf("explain text drifted:\n--- got ---\n%s\n--- want ---\n%s", got, explainGolden)
	}
	// Every stage really ran and was timed.
	if len(ex.Stages) != 6 {
		t.Fatalf("got %d stages, want 6", len(ex.Stages))
	}
	for _, st := range ex.Stages {
		if st.Nanos <= 0 {
			t.Fatalf("stage %q has no timing", st.Name)
		}
	}
	if ex.TotalNanos <= 0 {
		t.Fatal("no total timing")
	}
	if ex.BudgetSteps <= 0 || ex.BudgetHoms <= 0 {
		t.Fatalf("budget spend not tracked: steps=%d homs=%d", ex.BudgetSteps, ex.BudgetHoms)
	}
	// Each selected view tests at least one root path on a miss, and no
	// more than it has fragments.
	frags := 0
	for _, v := range ex.Surviving {
		frags += v.Fragments
	}
	if ex.PathsTested < len(ex.Selected) || ex.PathsTested > frags {
		t.Fatalf("paths_tested = %d with %d selected views over %d fragments", ex.PathsTested, len(ex.Selected), frags)
	}
	js, err := ex.JSON()
	if err != nil || !strings.Contains(string(js), `"paths_tested"`) {
		t.Fatalf("explain JSON lacks paths_tested (%v):\n%s", err, js)
	}
}

// TestExplainMatchesSelect: the selected view set Explain reports is
// exactly the set Select chooses for the same query and strategy.
func TestExplainMatchesSelect(t *testing.T) {
	sys, _ := obsSystem(t)
	ex, err := sys.Explain(paperdata.QueryE, xpathviews.HV)
	if err != nil {
		t.Fatal(err)
	}
	q, err := xpath.Parse(paperdata.QueryE)
	if err != nil {
		t.Fatal(err)
	}
	sel, cand, err := sys.Select(q, xpathviews.HV)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Candidates != cand {
		t.Fatalf("explain candidates = %d, Select reports %d", ex.Candidates, cand)
	}
	var want, got []int
	for _, c := range sel.Covers {
		want = append(want, c.View.ID)
	}
	for _, c := range ex.Selected {
		got = append(got, c.ID)
	}
	sort.Ints(want)
	sort.Ints(got)
	if len(got) != len(want) {
		t.Fatalf("explain selected %v, Select chose %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("explain selected %v, Select chose %v", got, want)
		}
	}
}

// TestExplainHit: explaining a warm query shows the cache hit and still
// reports the filter/select cost the cached plan originally paid.
func TestExplainHit(t *testing.T) {
	sys, _ := obsSystem(t)
	if _, err := sys.Explain(paperdata.QueryE, xpathviews.HV); err != nil {
		t.Fatal(err)
	}
	ex, err := sys.Explain(paperdata.QueryE, xpathviews.HV)
	if err != nil {
		t.Fatal(err)
	}
	if ex.PlanCache != "hit" {
		t.Fatalf("plan cache = %q, want hit", ex.PlanCache)
	}
	if ex.Memo != "hit" || !strings.Contains(ex.Text(), "\nmemo:     hit\n") || !strings.Contains(ex.Trace, "memo=hit") {
		t.Fatalf("hit explain does not say the memo answered: memo=%q\n%s", ex.Memo, ex.Text())
	}
	if ex.PathsTested != 0 {
		t.Fatalf("memo hit reports %d root paths tested; refinement did not run", ex.PathsTested)
	}
	for _, st := range ex.Stages {
		switch st.Name {
		case "filter", "select":
			if st.Nanos <= 0 {
				t.Fatalf("hit explain lost the cached plan's %s cost", st.Name)
			}
		case "parse":
			if st.Nanos != 0 {
				t.Fatalf("hit explain reparsed the query (%d ns)", st.Nanos)
			}
		}
	}
	if len(ex.Selected) == 0 {
		t.Fatal("hit explain lost the selected view set")
	}
}

// TestExplainNotAnswerable: an unanswerable query still explains, with
// the error and the empty selection visible.
func TestExplainNotAnswerable(t *testing.T) {
	sys, _ := obsSystem(t)
	ex, err := sys.Explain("//nosuchlabel[x]", xpathviews.HV)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Error == "" {
		t.Fatal("explanation missing the error")
	}
	if len(ex.Selected) != 0 {
		t.Fatalf("unanswerable query selected views: %+v", ex.Selected)
	}
}

// TestExplainJSON: the JSON exposition round-trips with the key fields.
func TestExplainJSON(t *testing.T) {
	sys, _ := obsSystem(t)
	ex, err := sys.Explain(paperdata.QueryE, xpathviews.HV)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := ex.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"query", "strategy", "plan_cache", "surviving_views",
		"selected_views", "stages", "budget_steps_spent", "total_ns"} {
		if _, ok := back[key]; !ok {
			t.Fatalf("explain JSON missing %q:\n%s", key, raw)
		}
	}
}
