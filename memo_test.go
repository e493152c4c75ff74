package xpathviews_test

// The rewrite memo through the whole stack: a cached plan's join skeleton
// remembers which Δ-view fragments survive refinement and the join, so a
// plan-cache hit pays for extraction only. These tests pin what that may
// never cost: a wrong answer after a mutation (with or without a
// view-set change beside it), a fault point or a budget that no longer
// fires on a hit.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"xpathviews"
	"xpathviews/internal/dewey"
	"xpathviews/internal/faults"
	"xpathviews/internal/paperdata"
	"xpathviews/internal/xmark"
	"xpathviews/internal/xmltree"
)

// firstCode returns the code of the first document node with the label.
func firstCode(t *testing.T, sys *xpathviews.System, label string) dewey.Code {
	t.Helper()
	var found *xmltree.Node
	sys.Document().Walk(func(n *xmltree.Node) bool {
		if n.Label == label {
			found = n
			return false
		}
		return true
	})
	if found == nil {
		t.Fatalf("no %q node in the document", label)
	}
	return sys.Encoding().MustCode(found).Clone()
}

// TestMemoDifferentialXMark interleaves inserts and deletes with repeated
// hot queries over XMark, under each view strategy; in the addview run
// every mutation is followed by an AddView, which drops every cached
// plan, so each memo-backed plan is recomputed from scratch after the
// mutation, while in the other run the plans outlive every mutation.
// Every view answer — the shared slice a memo hit returns, or a
// recompute — must equal a fresh (plan-cache-bypassing) rewrite and BN
// on the document as it stands, every query must see both a memo hit and
// a recompute right after a mutation that dirtied its views, and a
// mutation must move the generation of exactly the views it dirtied. CV
// is the strategy whose choice reads fragment bytes: the plan it keeps
// across mutations was chosen on bytes that have since changed, and must
// still answer exactly.
func TestMemoDifferentialXMark(t *testing.T) {
	for _, run := range []string{"mutations", "mutations+addview"} {
		t.Run(run, func(t *testing.T) {
			for _, strat := range []xpathviews.Strategy{xpathviews.HV, xpathviews.MV, xpathviews.MN, xpathviews.CV} {
				t.Run(strat.String(), func(t *testing.T) { memoDifferential(t, run, strat) })
			}
		})
	}
}

func memoDifferential(t *testing.T, run string, strat xpathviews.Strategy) {
	sys, err := xpathviews.Open(xmark.Generate(xmark.Config{Scale: 0.02, Seed: 77}))
	if err != nil {
		t.Fatal(err)
	}
	var viewIDs []int
	for _, v := range []string{
		"//person/address/city",
		"//person[address]/name",
		"//item[location]/name",
		"//person/name",
	} {
		id, err := sys.AddView(v, xpathviews.DefaultFragmentLimit)
		if err != nil {
			t.Fatal(err)
		}
		viewIDs = append(viewIDs, id)
	}
	queries := []string{
		"//person/name",               // one strong cover: no join stage
		"//person[address/city]/name", // two covers joined
		"//item[location]/name",
	}
	hits := make([]int, len(queries))
	missesAfterMutation := make([]int, len(queries))
	// ask runs every hot query three times against the current
	// document; dirtied marks the calls that follow a mutation.
	ask := func(tag string, dirtied bool) {
		t.Helper()
		for qi, q := range queries {
			base, err := sys.Answer(q, xpathviews.BN)
			if err != nil {
				t.Fatalf("%s: BN %s: %v", tag, q, err)
			}
			want := answerCodes(base)
			fresh, err := sys.AnswerContext(context.Background(), q,
				xpathviews.Options{Strategy: strat, NoPlanCache: true})
			if err != nil {
				t.Fatalf("%s: fresh %v %s: %v", tag, strat, q, err)
			}
			if fresh.Memo || !slices.Equal(answerCodes(fresh), want) {
				t.Fatalf("%s: fresh %v %s (memo=%v) diverges from BN:\n got %v\nwant %v",
					tag, strat, q, fresh.Memo, answerCodes(fresh), want)
			}
			for rep := 0; rep < 3; rep++ {
				res, err := sys.Answer(q, strat)
				if err != nil {
					t.Fatalf("%s: %v %s: %v", tag, strat, q, err)
				}
				if got := answerCodes(res); !slices.Equal(got, want) {
					t.Fatalf("%s: %v %s (memo=%v, rep %d) diverges from BN:\n got %v\nwant %v",
						tag, strat, q, res.Memo, rep, got, want)
				}
				switch {
				case res.Memo:
					hits[qi]++
				case rep == 0 && dirtied:
					missesAfterMutation[qi]++
				case rep > 0:
					t.Fatalf("%s: %v %s rep %d recomputed although nothing changed since rep 0", tag, strat, q, rep)
				}
			}
		}
	}
	gens := func() []uint64 {
		out := make([]uint64, len(viewIDs))
		for i, id := range viewIDs {
			out[i], _ = sys.ViewGeneration(id)
		}
		return out
	}
	// mutate applies one mutation and checks the generation rule.
	mutate := func(tag string, f func() (*xpathviews.MaintainResult, error)) *xpathviews.MaintainResult {
		t.Helper()
		before := gens()
		res, err := f()
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		moved := 0
		for i, g := range gens() {
			if g != before[i] && g != before[i]+1 {
				t.Fatalf("%s: view %d generation %d -> %d", tag, viewIDs[i], before[i], g)
			}
			if g != before[i] {
				moved++
			}
		}
		if moved != res.DirtyViews {
			t.Fatalf("%s: %d generations moved, %d views dirtied", tag, moved, res.DirtyViews)
		}
		if run == "mutations+addview" {
			// A view no hot query uses: only the plan generation moves.
			if _, err := sys.AddView("//closed_auction/price", xpathviews.DefaultFragmentLimit); err != nil {
				t.Fatalf("%s: AddView: %v", tag, err)
			}
		}
		return res
	}

	ask("seed", false)
	people, region := firstCode(t, sys, "people"), firstCode(t, sys, "africa")
	for round := 0; round < 4; round++ {
		tag := fmt.Sprintf("round-%d", round)
		// Targeted: a person and an item that enter every hot
		// query's answer, then leave it again.
		p := mutate(tag+" insert person", func() (*xpathviews.MaintainResult, error) {
			return sys.InsertSubtree(people, "<person><name/><address><city/></address></person>")
		})
		it := mutate(tag+" insert item", func() (*xpathviews.MaintainResult, error) {
			return sys.InsertSubtree(region, "<item><location/><name/></item>")
		})
		if p.DirtyViews == 0 || it.DirtyViews == 0 {
			t.Fatalf("%s: targeted inserts dirtied %d and %d views", tag, p.DirtyViews, it.DirtyViews)
		}
		ask(tag+" inserted", true)
		mutate(tag+" delete person", func() (*xpathviews.MaintainResult, error) { return sys.DeleteSubtree(p.Code) })
		mutate(tag+" delete item", func() (*xpathviews.MaintainResult, error) { return sys.DeleteSubtree(it.Code) })
		ask(tag+" deleted", true)
	}
	// Random: whatever the mutator hits, hit or miss, answers hold.
	m := &mutator{rng: rand.New(rand.NewSource(18))}
	for i := 0; i < 30; i++ {
		m.step(t, sys)
		ask(fmt.Sprintf("random-%d", i), false)
	}
	freshEqual(t, sys, "end")
	for qi, q := range queries {
		if hits[qi] == 0 || missesAfterMutation[qi] == 0 {
			t.Fatalf("%s: %d memo hits, %d recomputes after a dirtying mutation; want both > 0",
				q, hits[qi], missesAfterMutation[qi])
		}
	}
}

// TestMemoAfterMutation: a mutation drops no cached plan. The plan over
// the dirtied view keeps hitting and recomputes its remembered answers
// once, equal to BN on the mutated document, then serves them again; the
// plan over the untouched view stays a memo hit throughout.
func TestMemoAfterMutation(t *testing.T) {
	sys, err := xpathviews.Open(xmark.Generate(xmark.Config{Scale: 0.02, Seed: 5}))
	if err != nil {
		t.Fatal(err)
	}
	idCity, err := sys.AddView("//person/address/city", xpathviews.DefaultFragmentLimit)
	if err != nil {
		t.Fatal(err)
	}
	idLoc, err := sys.AddView("//item/location", xpathviews.DefaultFragmentLimit)
	if err != nil {
		t.Fatal(err)
	}
	qCity, qLoc := "//person/address/city", "//item/location"
	answer := func(q string) *xpathviews.Result {
		t.Helper()
		res, err := sys.Answer(q, xpathviews.HV)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return res
	}
	for _, q := range []string{qCity, qLoc} {
		answer(q)
		if res := answer(q); !res.PlanCacheHit || !res.Memo {
			t.Fatalf("warm %s: plan hit %v, memo %v", q, res.PlanCacheHit, res.Memo)
		}
	}
	genCity0, _ := sys.ViewGeneration(idCity)
	genLoc0, _ := sys.ViewGeneration(idLoc)
	inv0 := sys.PlanCacheStats().Invalidations

	mres, err := sys.InsertSubtree(firstCode(t, sys, "item"), "<location/>")
	if err != nil {
		t.Fatal(err)
	}
	if mres.DirtyViews == 0 {
		t.Fatal("inserting a location dirtied no view")
	}
	if g, _ := sys.ViewGeneration(idLoc); g != genLoc0+1 {
		t.Fatalf("location view generation = %d, want %d", g, genLoc0+1)
	}
	if g, _ := sys.ViewGeneration(idCity); g != genCity0 {
		t.Fatalf("city view generation moved to %d on an unrelated mutation", g)
	}

	base, err := sys.Answer(qLoc, xpathviews.BN)
	if err != nil {
		t.Fatal(err)
	}
	want := answerCodes(base)
	if res := answer(qLoc); !res.PlanCacheHit || res.Memo || !slices.Equal(answerCodes(res), want) {
		t.Fatalf("dirtied view's first call: plan hit %v (want true), memo %v (want false), %d answers (BN %d)",
			res.PlanCacheHit, res.Memo, len(res.Answers), len(want))
	}
	if res := answer(qLoc); !res.PlanCacheHit || !res.Memo || !slices.Equal(answerCodes(res), want) {
		t.Fatalf("dirtied view's second call: plan hit %v, memo %v, %d answers (BN %d)",
			res.PlanCacheHit, res.Memo, len(res.Answers), len(want))
	}
	if res := answer(qCity); !res.PlanCacheHit || !res.Memo {
		t.Fatalf("clean view's call: plan hit %v, memo %v", res.PlanCacheHit, res.Memo)
	}
	if inv := sys.PlanCacheStats().Invalidations; inv != inv0 {
		t.Fatalf("a mutation invalidated cached plans: %d -> %d", inv0, inv)
	}
}

// TestMemoChaosWarmPlan: the rewrite stage's three fault points still
// fire when the plan is warm and its memo would answer. Each armed point
// fails exactly one call as ErrInternal, and the next call is a memo hit
// again.
func TestMemoChaosWarmPlan(t *testing.T) {
	sys := chaosSystem(t)
	defer faults.DisarmAll()
	opts := xpathviews.Options{Strategy: xpathviews.HV}
	call := func() (*xpathviews.Result, error) {
		return sys.AnswerContext(context.Background(), paperdata.QueryE, opts)
	}
	cold, err := call()
	if err != nil || cold.Memo {
		t.Fatalf("cold call: memo=%v err=%v", cold != nil && cold.Memo, err)
	}
	want := answerCodes(cold)
	for _, point := range []string{"rewrite.refine", "rewrite.join", "rewrite.extract"} {
		if res, err := call(); err != nil || !res.Memo {
			t.Fatalf("[%s] plan not warm before arming: memo=%v err=%v", point, res != nil && res.Memo, err)
		}
		if !faults.ArmN(point, faults.Error, 1) {
			t.Fatalf("fault point %q not registered", point)
		}
		_, err := call()
		var ie *xpathviews.InternalError
		if !errors.As(err, &ie) || ie.Stage != "rewrite" {
			t.Fatalf("[%s] armed on a warm plan: err = %v, want ErrInternal at the rewrite stage", point, err)
		}
		res, err := call()
		if err != nil || !res.Memo || !slices.Equal(answerCodes(res), want) {
			t.Fatalf("[%s] call after the fault: memo=%v err=%v", point, res != nil && res.Memo, err)
		}
	}
}

// TestMemoBudgetOnHit: a hit is not free of the step budget. Extraction
// charges one step per Δ-list fragment, so MaxSteps below the list's
// length is ErrBudgetExceeded on a warm plan too, and enough steps for
// extraction alone — far fewer than the refine scan needs — succeed.
func TestMemoBudgetOnHit(t *testing.T) {
	sys, err := xpathviews.Open(xmark.Generate(xmark.Config{Scale: 0.05, Seed: 7}))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"//person/address/city", "//person[address]/name"} {
		if _, err := sys.AddView(v, xpathviews.DefaultFragmentLimit); err != nil {
			t.Fatal(err)
		}
	}
	const q = "//person[address/city]/name"
	ask := func(maxSteps int64) (*xpathviews.Result, error) {
		return sys.AnswerContext(context.Background(), q, xpathviews.Options{Strategy: xpathviews.HV, MaxSteps: maxSteps})
	}
	cold, err := ask(0)
	if err != nil || cold.Memo {
		t.Fatalf("cold call: memo=%v err=%v", cold != nil && cold.Memo, err)
	}
	n := int64(len(cold.Answers))
	if n < 20 {
		t.Fatalf("fixture too small: %d answers", n)
	}
	if _, err := ask(n - 1); !errors.Is(err, xpathviews.ErrBudgetExceeded) {
		t.Fatalf("warm plan, MaxSteps %d for a Δ-list of %d: err = %v, want ErrBudgetExceeded", n-1, n, err)
	}
	res, err := ask(n)
	if err != nil || !res.Memo || len(res.Answers) != int(n) {
		t.Fatalf("warm plan, MaxSteps %d: memo=%v err=%v", n, res != nil && res.Memo, err)
	}
}

// sameArray reports whether two non-empty answer slices share a backing
// array.
func sameArray(a, b []xpathviews.Answer) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// memoXMarkSystem opens an XMark document with the given views.
func memoXMarkSystem(t testing.TB, scale float64, viewSrcs ...string) *xpathviews.System {
	t.Helper()
	sys, err := xpathviews.Open(xmark.Generate(xmark.Config{Scale: scale, Seed: 77}))
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

// TestMemoSharedAnswers: a memo hit returns the memo's answer slice
// itself — two consecutive hits share one backing array — and a mutation
// of a covered view makes the next call build a new array that equals BN
// on the mutated document, which the following hit shares in turn.
func TestMemoSharedAnswers(t *testing.T) {
	sys := memoXMarkSystem(t, 0.02, "//person/address/city", "//person[address]/name", "//person/name")
	for _, q := range []string{"//person/name", "//person[address/city]/name"} {
		ask := func() *xpathviews.Result {
			t.Helper()
			res, err := sys.Answer(q, xpathviews.HV)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			return res
		}
		prev := ask()
		people := firstCode(t, sys, "people")
		for _, step := range []string{"warm", "insert", "delete"} {
			var ins *xpathviews.MaintainResult
			switch step {
			case "insert":
				var err error
				if ins, err = sys.InsertSubtree(people, "<person><name/><address><city/></address></person>"); err != nil {
					t.Fatal(err)
				}
			case "delete":
				if _, err := sys.DeleteSubtree(firstCode(t, sys, "person")); err != nil {
					t.Fatal(err)
				}
			}
			r1 := ask()
			if step != "warm" && (r1.Memo || sameArray(r1.Answers, prev.Answers)) {
				t.Fatalf("%s after %s: memo=%v, shares the stale array: %v", q, step, r1.Memo, sameArray(r1.Answers, prev.Answers))
			}
			if step == "insert" && ins.DirtyViews == 0 {
				t.Fatalf("%s: the insert dirtied no view", q)
			}
			base, err := sys.Answer(q, xpathviews.BN)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(answerCodes(r1), answerCodes(base)) {
				t.Fatalf("%s after %s: view answers diverge from BN", q, step)
			}
			r2 := ask()
			if !r2.Memo || !sameArray(r1.Answers, r2.Answers) || len(r1.Answers) != len(r2.Answers) {
				t.Fatalf("%s after %s: consecutive calls memo=%v share=%v, want a hit on the same array",
					q, step, r2.Memo, sameArray(r1.Answers, r2.Answers))
			}
			if cap(r2.Answers) != len(r2.Answers) {
				t.Fatalf("%s: shared answers have spare capacity %d > %d", q, cap(r2.Answers), len(r2.Answers))
			}
			prev = r2
		}
	}
}

// TestMemoTruncatedAppend: MaxAnswers hands out a prefix of the shared
// slice with no spare capacity, so appending to a truncated result (or to
// a full one) reallocates and the next uncapped hit still equals BN —
// whether extraction copied fragment roots or ran a compensating query
// inside the fragments.
func TestMemoTruncatedAppend(t *testing.T) {
	for _, c := range []struct{ view, q string }{
		{"//person/name", "//person/name"},
		{"//person[address]", "//person[address]/name"},
	} {
		memoTruncatedAppend(t, memoXMarkSystem(t, 0.03, c.view), c.q)
	}
}

func memoTruncatedAppend(t *testing.T, sys *xpathviews.System, q string) {
	base, err := sys.Answer(q, xpathviews.BN)
	if err != nil {
		t.Fatal(err)
	}
	want := answerCodes(base)
	if len(want) < 10 {
		t.Fatalf("%s: fixture too small: %d answers", q, len(want))
	}
	if _, err := sys.Answer(q, xpathviews.HV); err != nil { // warm the plan and its memo
		t.Fatalf("%s: %v", q, err)
	}
	bogus := xpathviews.Answer{Code: base.Answers[0].Code, Node: base.Answers[0].Node}
	for _, k := range []int{1, len(want) / 2, 0} {
		res, err := sys.AnswerContext(context.Background(), q, xpathviews.Options{Strategy: xpathviews.HV, MaxAnswers: k})
		if err != nil || !res.Memo {
			t.Fatalf("%s, MaxAnswers %d: memo=%v err=%v", q, k, res != nil && res.Memo, err)
		}
		if cap(res.Answers) != len(res.Answers) {
			t.Fatalf("%s, MaxAnswers %d: answers have spare capacity %d > %d", q, k, cap(res.Answers), len(res.Answers))
		}
		if k > 0 && (len(res.Answers) != k || !res.Truncated) {
			t.Fatalf("%s, MaxAnswers %d: %d answers, truncated=%v", q, k, len(res.Answers), res.Truncated)
		}
		_ = append(res.Answers, bogus, bogus)
		full, err := sys.Answer(q, xpathviews.HV)
		if err != nil || !full.Memo {
			t.Fatalf("%s: after appending to a MaxAnswers %d hit: memo=%v err=%v", q, k, full != nil && full.Memo, err)
		}
		if got := answerCodes(full); !slices.Equal(got, want) {
			t.Fatalf("%s: appending to a MaxAnswers %d hit changed the next hit's answers:\n got %v\nwant %v", q, k, got, want)
		}
	}
}
