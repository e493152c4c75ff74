package xpathviews_test

// TestOneAnsweringPath: AnswerContext is the one-rung chain of the same
// path AnswerResilient runs, so the two must agree call for call on every
// strategy, whichever way the plan cache serves the call.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"xpathviews"
	"xpathviews/internal/paperdata"
	"xpathviews/internal/xmark"
)

var allStrategies = []xpathviews.Strategy{
	xpathviews.BN, xpathviews.BF, xpathviews.MN, xpathviews.MV,
	xpathviews.HV, xpathviews.CV, xpathviews.Contained,
}

// spellingPair is one query in two spellings that normalize to different
// source-alias keys but minimize to the same canonical pattern.
type spellingPair struct{ src, alt string }

// pathCorpus is one document, its views and the queries run over it.
type pathCorpus struct {
	name    string
	open    func(t *testing.T) *xpathviews.System
	queries []spellingPair
}

func pathCorpora() []pathCorpus {
	withViews := func(t *testing.T, sys *xpathviews.System, err error, views []string) *xpathviews.System {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range views {
			if _, err := sys.AddView(v, xpathviews.DefaultFragmentLimit); err != nil {
				t.Fatalf("AddView(%q): %v", v, err)
			}
		}
		return sys
	}
	return []pathCorpus{
		{
			name: "book",
			open: func(t *testing.T) *xpathviews.System {
				sys, err := xpathviews.OpenWithFST(paperdata.BookTree(), paperdata.BookFST())
				return withViews(t, sys, err, paperdata.TableIViews())
			},
			queries: []spellingPair{
				{paperdata.QueryE, "//s[f//i][t][t]/p"},
				{"//s[t]/p", "//s[t][t]/p"},
				{"//s/f/i", "//s[f]/f/i"}, // no view answers it: a negative plan
			},
		},
		{
			name: "xmark",
			open: func(t *testing.T) *xpathviews.System {
				sys, err := xpathviews.Open(xmark.Generate(xmark.Config{Scale: 0.02, Seed: 7}))
				return withViews(t, sys, err, []string{
					"//person/address/city", "//person[address]/name",
					"//item/location", "//open_auction/interval/start",
				})
			},
			queries: []spellingPair{
				{"//person[address/city]/name", "//person[address/city][address]/name"},
				{"//item/location", "//item[location]/location"},
				{"//person/profile/age", "//person[profile]/profile/age"}, // negative
			},
		},
	}
}

// errClass names the errors.Is class of a serving error.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, xpathviews.ErrNotAnswerable):
		return "not-answerable"
	case errors.Is(err, xpathviews.ErrBudgetExceeded):
		return "budget"
	case errors.Is(err, xpathviews.ErrInternal):
		return "internal"
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return "canceled"
	default:
		return "other: " + err.Error()
	}
}

// outcome is what the two entry points must agree on.
func outcome(res *xpathviews.Result, err error) string {
	if err != nil {
		return errClass(err)
	}
	return fmt.Sprintf("codes=%s partial=%v views=%v hit=%v",
		strings.Join(res.Codes(), ","), res.Partial, res.ViewsUsed, res.PlanCacheHit)
}

func TestOneAnsweringPath(t *testing.T) {
	ctx := context.Background()
	for _, c := range pathCorpora() {
		t.Run(c.name, func(t *testing.T) {
			for _, p := range c.queries {
				if canon(p.src) != canon(p.alt) || p.src == p.alt {
					t.Fatalf("%q and %q are not two spellings of one canonical query", p.src, p.alt)
				}
			}
			answered := make(map[xpathviews.Strategy]int)
			for _, strat := range allStrategies {
				// One system per entry point, so both see the same cache
				// history.
				direct, chained := c.open(t), c.open(t)
				for _, p := range c.queries {
					base, err := direct.Answer(p.src, xpathviews.BN)
					if err != nil {
						t.Fatal(err)
					}
					want := strings.Join(base.Codes(), ",")
					// hit and parsed say how a view strategy's plan is served.
					steps := []struct {
						name, src            string
						noCache, hit, parsed bool
					}{
						{"miss", p.src, false, false, true},
						{"alias-hit", p.src, false, true, false}, // a cached negative plan for the unanswerable query
						{"canonical-hit", p.alt, false, true, true},
						{"no-plan-cache", p.src, true, false, true},
					}
					for _, st := range steps {
						where := fmt.Sprintf("%v %s %s", strat, st.name, st.src)
						a, aerr := direct.AnswerContext(ctx, st.src,
							xpathviews.Options{Strategy: strat, NoPlanCache: st.noCache})
						r, rerr := chained.AnswerResilient(ctx, st.src,
							xpathviews.Options{Fallback: []xpathviews.Strategy{strat}, NoPlanCache: st.noCache})
						if got, exp := outcome(r, rerr), outcome(a, aerr); got != exp {
							t.Fatalf("%s: AnswerResilient %s, AnswerContext %s", where, got, exp)
						}
						if aerr != nil {
							if !errors.Is(aerr, xpathviews.ErrNotAnswerable) || strat == xpathviews.BN || strat == xpathviews.BF {
								t.Fatalf("%s: %v", where, aerr)
							}
							continue
						}
						if a.Strategy != strat || r.Strategy != strat {
							t.Fatalf("%s: Strategy %v, resilient Strategy %v", where, a.Strategy, r.Strategy)
						}
						answered[strat]++
						got := a.Codes()
						switch {
						case strat == xpathviews.Contained:
							for _, code := range got {
								if !slices.Contains(base.Codes(), code) {
									t.Fatalf("%s: contained answer %s is not a BN answer", where, code)
								}
							}
							if !a.Partial && strings.Join(got, ",") != want {
								t.Fatalf("%s: complete contained answers %v, BN %s", where, got, want)
							}
						case strings.Join(got, ",") != want:
							t.Fatalf("%s: answers %v, BN %s", where, got, want)
						}
						if strat == xpathviews.BN || strat == xpathviews.BF || strat == xpathviews.Contained {
							continue
						}
						if a.PlanCacheHit != st.hit || (a.ParseNanos > 0) != st.parsed || (r.ParseNanos > 0) != st.parsed {
							t.Fatalf("%s: hit=%v ParseNanos=%d (resilient %d), want hit=%v parsed=%v",
								where, a.PlanCacheHit, a.ParseNanos, r.ParseNanos, st.hit, st.parsed)
						}
					}
				}
			}
			// Every strategy, Contained included, must have answered
			// something, or the agreement above proves little.
			for _, strat := range allStrategies {
				if answered[strat] == 0 {
					t.Fatalf("%v answered no query on %s", strat, c.name)
				}
			}
		})
	}
}
