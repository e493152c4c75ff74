package xpathviews_test

// One plan-cache entry per query, keyed by the query text as sent and,
// once it parses, by its canonical spelling. These tests pin what that
// may never cost: a text the parser rejects answered from a cached
// variant, a second lookup or a second count for one call, a second
// selection for a second spelling or a herd of callers, and an answer
// that differs from direct evaluation once writers stop.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"xpathviews"
	"xpathviews/internal/dewey"
	"xpathviews/internal/paperdata"
	"xpathviews/internal/xmark"
)

// spacedQueryE is paperdata.QueryE spaced where the parser allows it.
const spacedQueryE = "// s[ f // i ][ t ]/ p"

// TestPlanEntryParseErrors: a text the parser rejects is rejected on
// every call — cold, after an accepted variant of it is cached, without
// the plan cache and through the fallback chain — with the same error.
func TestPlanEntryParseErrors(t *testing.T) {
	ctx := context.Background()
	for _, bad := range []string{"/ /s[f/ /i][t]/p", "//s[f//i][t]/\np", "//s[f//i][t]/ /p"} {
		sys := chaosSystem(t)
		hv := xpathviews.Options{Strategy: xpathviews.HV}
		_, cold := sys.AnswerContext(ctx, bad, hv)
		if cold == nil {
			t.Fatalf("%q parsed", bad)
		}
		if _, err := sys.AnswerContext(ctx, paperdata.QueryE, hv); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name   string
			answer func(context.Context, string, xpathviews.Options) (*xpathviews.Result, error)
			opts   xpathviews.Options
		}{
			{"warm", sys.AnswerContext, hv},
			{"no plan cache", sys.AnswerContext, xpathviews.Options{Strategy: xpathviews.HV, NoPlanCache: true}},
			{"resilient", sys.AnswerResilient, xpathviews.Options{}},
		} {
			res, err := c.answer(ctx, bad, c.opts)
			if err == nil || err.Error() != cold.Error() {
				n := -1
				if res != nil {
					n = len(res.Answers)
				}
				t.Fatalf("%s %q: %d answers, err %v; a cold call fails with %v", c.name, bad, n, err, cold)
			}
		}
	}
}

// TestPlanEntryOneLookup: a refused query on the default chain reads its
// entry once — HV's and MV's negative plans, the contained refusal and
// the BN answer all hang off it — and counts one hit.
func TestPlanEntryOneLookup(t *testing.T) {
	sys, _ := degradedSystem(t, 0.02)
	ctx := context.Background()
	const q = "//keyword"
	if _, err := sys.AnswerResilient(ctx, q, xpathviews.Options{}); err != nil {
		t.Fatal(err)
	}
	keys := sys.PlanCacheLen()
	before := sys.PlanCacheStats()
	res, err := sys.AnswerResilient(ctx, q, xpathviews.Options{})
	if err != nil || res.Strategy != xpathviews.BN || !res.Memo {
		t.Fatalf("warm refused call: strategy %v memo %v err %v, want a BN memo hit", res.Strategy, res.Memo, err)
	}
	after := sys.PlanCacheStats()
	if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits != 1 || misses != 0 {
		t.Fatalf("warm refused call counted %d hits and %d misses, want 1 and 0", hits, misses)
	}
	if n := sys.PlanCacheLen(); n != keys {
		t.Fatalf("warm refused call moved the key count %d -> %d", keys, n)
	}
}

// TestPlanEntryOneSelectionPerStrategy: one query asked under each view
// strategy and through the fallback chain, each in two accepted
// spellings, runs one selection per strategy: the second spelling, and
// the chain's HV rung, are served from the one entry.
func TestPlanEntryOneSelectionPerStrategy(t *testing.T) {
	sys, reg := obsSystem(t)
	ctx := context.Background()
	selections := func() int64 { return reg.Histogram("xpv_select_ns").Snapshot().Count }
	for _, c := range []struct {
		name   string
		answer func(context.Context, string, xpathviews.Options) (*xpathviews.Result, error)
		strat  xpathviews.Strategy
		want   int64
	}{
		{"HV", sys.AnswerContext, xpathviews.HV, 1},
		{"MV", sys.AnswerContext, xpathviews.MV, 1},
		{"MN", sys.AnswerContext, xpathviews.MN, 1},
		{"CV", sys.AnswerContext, xpathviews.CV, 1},
		{"resilient", sys.AnswerResilient, xpathviews.HV, 0}, // HV's plan is cached already
	} {
		before := selections()
		for _, src := range []string{spacedQueryE, paperdata.QueryE} {
			res, err := c.answer(ctx, src, xpathviews.Options{Strategy: c.strat})
			if err != nil || res.Strategy != c.strat {
				t.Fatalf("%s %q: strategy %v err %v", c.name, src, res.Strategy, err)
			}
		}
		if got := selections() - before; got != c.want {
			t.Fatalf("%s: %d selections for two spellings, want %d", c.name, got, c.want)
		}
	}
	if n := sys.PlanCacheLen(); n != 2 {
		t.Fatalf("two spellings of one query hold %d keys, want 2", n)
	}
}

// TestPlanEntryColdHerd: 64 goroutines asking one cold text share one
// entry and one selection; one call counts the miss, the rest hit. The
// view set makes MV's exact selection take a while (dozens of copies of
// the two views the query needs), so the herd really overlaps it.
func TestPlanEntryColdHerd(t *testing.T) {
	sys, err := xpathviews.Open(xmark.Generate(xmark.Config{Scale: 0.01, Seed: 7}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		for _, v := range []string{"//person/address/city", "//person[address]/name"} {
			if _, err := sys.AddView(v, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	reg := xpathviews.NewMetricsRegistry()
	sys.SetMetricsRegistry(reg)
	const callers = 64
	var wg sync.WaitGroup
	gate := make(chan struct{})
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			if _, err := sys.AnswerContext(context.Background(), "// person[ address/city ]/ name", xpathviews.Options{Strategy: xpathviews.MV}); err != nil {
				errs <- err
			}
		}()
	}
	close(gate)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := reg.Histogram("xpv_select_ns").Snapshot().Count; n != 1 {
		t.Fatalf("%d callers on one cold text ran %d selections, want 1", callers, n)
	}
	if st := sys.PlanCacheStats(); st.Misses != 1 || st.Hits != callers-1 {
		t.Fatalf("stats %+v, want 1 miss and %d hits", st, callers-1)
	}
}

// TestPlanEntryHammer races readers of several spellings under every
// view strategy, and refused queries through the fallback chain, against
// a writer that adds and removes views and inserts and deletes
// subtrees. Once the writer stops, with the view set restored, every
// answer must equal direct evaluation (a contained answer: be a subset
// of it, and equal it when complete).
func TestPlanEntryHammer(t *testing.T) {
	sys, _ := degradedSystem(t, 0.02)
	ctx := context.Background()
	answered := [][2]string{ // two accepted spellings of each answerable query
		{"//person[address/city]/name", "// person[ address/city ]/ name"},
		{"//item/location", "// item/ location"},
	}
	refused := []string{"//person/name", "//mail/text[bold]", "//keyword"}
	strats := []xpathviews.Strategy{xpathviews.HV, xpathviews.MV, xpathviews.MN, xpathviews.CV}
	var targets []dewey.Code
	for _, label := range []string{"people", "mail", "person"} {
		targets = append(targets, firstCode(t, sys, label))
	}
	payloads := []string{
		"<person><name/><address><city/></address></person>",
		"<text><bold/><keyword/></text>",
		"<address><city/></address>",
	}

	stop := make(chan struct{})
	var wg, started sync.WaitGroup
	errs := make(chan error, 8)
	read := func(g int, ask func(i int) error) {
		defer wg.Done()
		for i := 0; ; i++ {
			if i == 1 {
				started.Done()
			}
			select {
			case <-stop:
				return
			default:
			}
			if err := ask(g + i); err != nil {
				errs <- err
				if i == 0 {
					started.Done()
				}
				return
			}
		}
	}
	for g := 0; g < 4; g++ {
		wg.Add(2)
		started.Add(2)
		go read(g, func(i int) error {
			q, strat := answered[i%len(answered)][i/2%2], strats[i%len(strats)]
			_, err := sys.AnswerContext(ctx, q, xpathviews.Options{Strategy: strat})
			if err != nil && !errors.Is(err, xpathviews.ErrNotAnswerable) {
				return fmt.Errorf("%v %s: %v", strat, q, err)
			}
			return nil
		})
		go read(g, func(i int) error {
			q := refused[i%len(refused)]
			if _, err := sys.AnswerResilient(ctx, q, xpathviews.Options{}); err != nil {
				return fmt.Errorf("resilient %s: %v", q, err)
			}
			return nil
		})
	}
	started.Wait() // every reader is past its first call: the writer races them
	for i := 0; i < 24; i++ {
		k := i % len(targets)
		ins, err := sys.InsertSubtree(targets[k], payloads[k])
		if err != nil {
			t.Fatal(err)
		}
		id, err := sys.AddView("//person/name", xpathviews.DefaultFragmentLimit)
		if err != nil {
			t.Fatal(err)
		}
		if i%3 == 2 {
			if _, err := sys.DeleteSubtree(ins.Code); err != nil {
				t.Fatal(err)
			}
		}
		if !sys.RemoveView(id) {
			t.Fatalf("RemoveView(%d) failed", id)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	bn := func(q string) []string {
		base, err := sys.Answer(q, xpathviews.BN)
		if err != nil {
			t.Fatal(err)
		}
		return answerCodes(base)
	}
	for _, spellings := range answered {
		want := bn(spellings[0])
		for _, q := range spellings {
			for _, strat := range strats {
				res, err := sys.AnswerContext(ctx, q, xpathviews.Options{Strategy: strat})
				if err != nil {
					t.Fatalf("%v %s after the writer: %v", strat, q, err)
				}
				if got := answerCodes(res); !slices.Equal(got, want) {
					t.Fatalf("%v %s after the writer: %d answers, BN has %d", strat, q, len(got), len(want))
				}
			}
		}
	}
	for _, q := range refused {
		want := bn(q)
		res, err := sys.AnswerResilient(ctx, q, xpathviews.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := answerCodes(res)
		if !isSubset(got, want) || (!res.Partial && !slices.Equal(got, want)) {
			t.Fatalf("%s after the writer served by %v (partial %v, memo %v): %d answers, BN has %d",
				q, res.Strategy, res.Partial, res.Memo, len(got), len(want))
		}
	}
}
