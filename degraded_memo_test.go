package xpathviews_test

// The degraded path's memos through the whole stack. A query no view
// answers leaves the contained and BN rungs' outcomes on the negative
// plan its first view rung looked up, stamped with the BN evaluator that
// every insert and delete replaces. These tests pin what that may never
// cost: a different rung, answer or Partial flag than the uncached
// chain after any mutation or view-set change, a budget or a fault
// point that no longer fires on a hit, an empty contained view that
// gains a fragment and is never consulted, and answers kept that no
// caller asked for.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"xpathviews"
	"xpathviews/internal/dewey"
	"xpathviews/internal/faults"
	"xpathviews/internal/xmark"
)

// degradedViews is a view set under which most of degradedQueries are
// refused. The last view is empty: an XMark text element holds at most
// one of bold, keyword and emph.
var degradedViews = []string{
	"//person/address/city",
	"//person[address]/name",
	"//open_auction[bidder]/seller",
	"//item/location",
	"//mail/text[bold][keyword]",
}

var degradedQueries = []string{
	"//person[address/city]/name", // HV joins two views
	"//item/location",             // HV, one strong cover
	"//person/name",               // refused: contained from //person[address]/name
	"//open_auction/seller",       // refused: contained from //open_auction[bidder]/seller
	"//mail/text[bold]",           // refused: its one contained view is empty, so BN
	"//keyword",                   // refused, no contained view: BN
	"//person/profile/age",        // refused, no contained view: BN
}

// degradedSystem opens a small XMark document with degradedViews and
// returns it with the empty view's ID.
func degradedSystem(t testing.TB, scale float64) (*xpathviews.System, int) {
	t.Helper()
	sys, err := xpathviews.Open(xmark.Generate(xmark.Config{Scale: scale, Seed: 7}))
	if err != nil {
		t.Fatal(err)
	}
	var id int
	for _, v := range degradedViews {
		if id, err = sys.AddView(v, xpathviews.DefaultFragmentLimit); err != nil {
			t.Fatal(err)
		}
	}
	return sys, id
}

// isSubset reports whether every code of sub (sorted) is in super (sorted).
func isSubset(sub, super []string) bool {
	for _, c := range sub {
		if _, ok := slices.BinarySearch(super, c); !ok {
			return false
		}
	}
	return true
}

// TestDegradedMemoDifferential interleaves inserts, deletes, AddView,
// RemoveView and CompactFilter with repeated AnswerResilient calls. After
// every step each query is asked with NoPlanCache (no plan, no memo) and
// twice through the plan cache: the rung, Partial, the views used and
// the answer codes must be identical, a BN-rung answer must equal
// Answer(q, BN) and a contained-rung answer must be a subset of it, and
// the second call must be a memo hit.
func TestDegradedMemoDifferential(t *testing.T) {
	sys, emptyID := degradedSystem(t, 0.05)
	ctx := context.Background()
	served := map[string]map[xpathviews.Strategy]int{}
	ask := func(tag string) map[string]*xpathviews.Result {
		t.Helper()
		out := map[string]*xpathviews.Result{}
		for _, q := range degradedQueries {
			base, err := sys.Answer(q, xpathviews.BN)
			if err != nil {
				t.Fatalf("%s: BN %s: %v", tag, q, err)
			}
			want := answerCodes(base)
			fresh, err := sys.AnswerResilient(ctx, q, xpathviews.Options{NoPlanCache: true})
			if err != nil {
				t.Fatalf("%s: uncached %s: %v", tag, q, err)
			}
			if fresh.Memo {
				t.Fatalf("%s: uncached %s reports a memo hit", tag, q)
			}
			for rep := 0; rep < 2; rep++ {
				res, err := sys.AnswerResilient(ctx, q, xpathviews.Options{})
				if err != nil {
					t.Fatalf("%s: %s rep %d: %v", tag, q, rep, err)
				}
				got := answerCodes(res)
				if res.Strategy != fresh.Strategy || res.Partial != fresh.Partial ||
					!slices.Equal(res.ViewsUsed, fresh.ViewsUsed) || !slices.Equal(got, answerCodes(fresh)) {
					t.Fatalf("%s: %s rep %d served by %v (partial %v, views %v, %d answers), uncached by %v (partial %v, views %v, %d answers)",
						tag, q, rep, res.Strategy, res.Partial, res.ViewsUsed, len(got),
						fresh.Strategy, fresh.Partial, fresh.ViewsUsed, len(fresh.Answers))
				}
				switch res.Strategy {
				case xpathviews.BN:
					if !slices.Equal(got, want) {
						t.Fatalf("%s: %s rep %d (memo %v): BN rung diverges from Answer(BN):\n got %v\nwant %v",
							tag, q, rep, res.Memo, got, want)
					}
				case xpathviews.Contained:
					if !isSubset(got, want) {
						t.Fatalf("%s: %s rep %d (memo %v): contained answers %v not a subset of BN's %v",
							tag, q, rep, res.Memo, got, want)
					}
				}
				if rep == 1 && !res.Memo {
					t.Fatalf("%s: %s served by %v twice without a change between: second call is no memo hit",
						tag, q, res.Strategy)
				}
				out[q] = res
			}
			if served[q] == nil {
				served[q] = map[xpathviews.Strategy]int{}
			}
			served[q][fresh.Strategy]++
		}
		// The oracle never memoizes.
		for rep := 0; rep < 2; rep++ {
			res, err := sys.AnswerContext(ctx, "//keyword", xpathviews.Options{Strategy: xpathviews.BN})
			if err != nil || res.Memo {
				t.Fatalf("%s: AnswerContext BN rep %d: memo=%v err=%v", tag, rep, res != nil && res.Memo, err)
			}
		}
		return out
	}
	const trapQ = "//mail/text[bold]"
	rung := func(res map[string]*xpathviews.Result, q string) xpathviews.Strategy { return res[q].Strategy }

	if r := ask("seed"); rung(r, trapQ) != xpathviews.BN {
		t.Fatalf("seed: %s served by %v, want BN (its only contained view is empty)", trapQ, rung(r, trapQ))
	}

	// The trap: the empty view gains a fragment. The contained rung must
	// consult it on the very next call.
	mail := firstCode(t, sys, "mail")
	ins, err := sys.InsertSubtree(mail, "<text><bold/><keyword/></text>")
	if err != nil {
		t.Fatal(err)
	}
	r := ask("trap insert")
	if res := r[trapQ]; res.Strategy != xpathviews.Contained || !slices.Equal(res.ViewsUsed, []int{emptyID}) || len(res.Answers) != 1 {
		t.Fatalf("after the insert %s is served by %v from views %v with %d answers, want contained from [%d] with 1",
			trapQ, res.Strategy, res.ViewsUsed, len(res.Answers), emptyID)
	}

	// A person without an address: BN's answers move, the contained
	// views' fragments do not.
	person, err := sys.InsertSubtree(firstCode(t, sys, "people"), "<person><name/><profile><age/></profile></person>")
	if err != nil {
		t.Fatal(err)
	}
	ask("person insert")
	if _, err := sys.DeleteSubtree(ins.Code); err != nil {
		t.Fatal(err)
	}
	if r := ask("trap delete"); rung(r, trapQ) != xpathviews.BN {
		t.Fatalf("after the delete %s is served by %v, want BN", trapQ, rung(r, trapQ))
	}

	// A view that answers a refused query, then its removal.
	id, err := sys.AddView("//person/name", xpathviews.DefaultFragmentLimit)
	if err != nil {
		t.Fatal(err)
	}
	if r := ask("addview"); rung(r, "//person/name") != xpathviews.HV {
		t.Fatalf("after AddView //person/name is served by %v, want HV", rung(r, "//person/name"))
	}
	if !sys.RemoveView(id) {
		t.Fatal("RemoveView failed")
	}
	if r := ask("removeview"); rung(r, "//person/name") != xpathviews.Contained {
		t.Fatalf("after RemoveView //person/name is served by %v, want contained", rung(r, "//person/name"))
	}
	sys.CompactFilter()
	ask("compact")
	if _, err := sys.DeleteSubtree(person.Code); err != nil {
		t.Fatal(err)
	}
	ask("person delete")

	m := &mutator{rng: rand.New(rand.NewSource(45))}
	for i := 0; i < 12; i++ {
		m.step(t, sys)
		ask(fmt.Sprintf("random-%d", i))
	}
	for _, q := range []string{"//person/name", "//open_auction/seller", "//keyword"} {
		if served[q][xpathviews.Contained]+served[q][xpathviews.BN] == 0 {
			t.Fatalf("%s was never served by a degraded rung: %v", q, served[q])
		}
	}
}

// TestDegradedMemoBypass: NoPlanCache and a chain without a view rung
// never memoize.
func TestDegradedMemoBypass(t *testing.T) {
	sys, _ := degradedSystem(t, 0.02)
	ctx := context.Background()
	for _, opts := range []xpathviews.Options{
		{NoPlanCache: true},
		{Fallback: []xpathviews.Strategy{xpathviews.Contained, xpathviews.BN}},
	} {
		for _, q := range []string{"//person/name", "//keyword"} {
			for rep := 0; rep < 3; rep++ {
				res, err := sys.AnswerResilient(ctx, q, opts)
				if err != nil || res.Memo {
					t.Fatalf("%+v %s rep %d: memo=%v err=%v", opts.Fallback, q, rep, res != nil && res.Memo, err)
				}
			}
		}
	}
}

// TestDegradedMemoBudget: a memo hit charges exactly what the evaluation
// it replays charged, so a MaxSteps (or, on the contained rung, a
// MaxHoms) one below a miss's spend fails the hit too.
func TestDegradedMemoBudget(t *testing.T) {
	sys, _ := degradedSystem(t, 0.05)
	ctx := context.Background()
	for _, tc := range []struct {
		q     string
		chain []xpathviews.Strategy
		want  xpathviews.Strategy
	}{
		{"//keyword", nil, xpathviews.BN},
		{"//person/name", []xpathviews.Strategy{xpathviews.HV, xpathviews.MV, xpathviews.Contained}, xpathviews.Contained},
	} {
		var homs int64
		call := func(maxSteps int64) (*xpathviews.Result, int64, error) {
			tr := xpathviews.NewTrace()
			res, err := sys.AnswerResilient(ctx, tc.q, xpathviews.Options{Fallback: tc.chain, MaxSteps: maxSteps, Trace: tr})
			if err != nil {
				return nil, 0, err
			}
			steps, _ := tr.Root().Attr("budget_steps")
			h, _ := tr.Root().Attr("budget_homs")
			homs = h.(int64)
			if tr.Find("rung:"+tc.want.String()) == nil {
				t.Fatalf("%s: no rung:%v span", tc.q, tc.want)
			}
			// A refusing contained rung before BN reports its memo too.
			for _, rung := range []string{"rung:contained", "rung:BN"} {
				if sp := tr.Find(rung); sp != nil {
					if memo, _ := sp.Attr("memo"); memo != map[bool]string{false: "miss", true: "hit"}[res.Memo] {
						t.Fatalf("%s: %s span memo=%v, Result.Memo %v", tc.q, rung, memo, res.Memo)
					}
				}
			}
			return res, steps.(int64), nil
		}
		miss, spend, err := call(0)
		if err != nil || miss.Memo || miss.Strategy != tc.want {
			t.Fatalf("%s cold: strategy %v memo %v err %v", tc.q, miss.Strategy, miss.Memo, err)
		}
		missHoms := homs
		if spend < 2 {
			t.Fatalf("%s: the miss spent %d steps", tc.q, spend)
		}
		hit, hitSpend, err := call(0)
		if err != nil || !hit.Memo || hitSpend != spend || homs != missHoms {
			t.Fatalf("%s warm: memo %v, spent %d steps and %d homs of the miss's %d and %d, err %v",
				tc.q, hit.Memo, hitSpend, homs, spend, missHoms, err)
		}
		if missHoms > 0 {
			opts := xpathviews.Options{Fallback: tc.chain, MaxHoms: int(missHoms) - 1}
			if _, err := sys.AnswerResilient(ctx, tc.q, opts); !errors.Is(err, xpathviews.ErrBudgetExceeded) {
				t.Fatalf("%s warm, MaxHoms %d below the spend %d: err = %v, want ErrBudgetExceeded", tc.q, missHoms-1, missHoms, err)
			}
		} else if tc.want == xpathviews.Contained {
			t.Fatalf("%s: the contained miss charged no homomorphism", tc.q)
		}
		if _, _, err := call(spend - 1); !errors.Is(err, xpathviews.ErrBudgetExceeded) {
			t.Fatalf("%s warm, MaxSteps %d below the spend %d: err = %v, want ErrBudgetExceeded", tc.q, spend-1, spend, err)
		}
		if _, err := sys.AnswerResilient(ctx, tc.q, xpathviews.Options{Fallback: tc.chain, MaxSteps: spend - 1, NoPlanCache: true}); !errors.Is(err, xpathviews.ErrBudgetExceeded) {
			t.Fatalf("%s uncached, MaxSteps %d: err = %v, want ErrBudgetExceeded", tc.q, spend-1, err)
		}
		if res, got, err := call(spend); err != nil || !res.Memo || got != spend {
			t.Fatalf("%s warm, MaxSteps %d: memo %v spent %d err %v", tc.q, spend, res != nil && res.Memo, got, err)
		}
	}
}

// TestDegradedMemoFaults: an armed engine.bn or rewrite.contained fails
// a memo hit exactly as it fails a miss, in both modes, and the memo
// serves again once the point is disarmed.
func TestDegradedMemoFaults(t *testing.T) {
	sys, _ := degradedSystem(t, 0.02)
	ctx := context.Background()
	defer faults.DisarmAll()
	for _, tc := range []struct {
		point, q string
		// after is the rung that serves with the point armed; none when
		// the whole chain fails.
		after xpathviews.Strategy
		fails bool
	}{
		{"engine.bn", "//keyword", 0, true},
		{"rewrite.contained", "//person/name", xpathviews.BN, false},
	} {
		warm, err := sys.AnswerResilient(ctx, tc.q, xpathviews.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []faults.Mode{faults.Error, faults.Panic} {
			if hit, err := sys.AnswerResilient(ctx, tc.q, xpathviews.Options{}); err != nil || !hit.Memo {
				t.Fatalf("[%s] not warm before arming: err %v", tc.point, err)
			}
			faults.Arm(tc.point, mode)
			for _, opts := range []xpathviews.Options{{}, {NoPlanCache: true}} {
				res, err := sys.AnswerResilient(ctx, tc.q, opts)
				if tc.fails {
					if !errors.Is(err, xpathviews.ErrInternal) {
						t.Fatalf("[%s %v] nocache=%v: err = %v, want ErrInternal", tc.point, mode, opts.NoPlanCache, err)
					}
					continue
				}
				if err != nil || res.Strategy != tc.after || len(res.DegradedReasons) != 3 {
					t.Fatalf("[%s %v] nocache=%v: served by %v after %v, err %v; want %v after three refusals",
						tc.point, mode, opts.NoPlanCache, res.Strategy, res.DegradedReasons, err, tc.after)
				}
			}
			faults.DisarmAll()
			res, err := sys.AnswerResilient(ctx, tc.q, xpathviews.Options{})
			if err != nil || !res.Memo || res.Strategy != warm.Strategy || !slices.Equal(answerCodes(res), answerCodes(warm)) {
				t.Fatalf("[%s %v] after disarming: strategy %v memo %v err %v", tc.point, mode, res.Strategy, res.Memo, err)
			}
		}
	}
}

// TestDegradedMemoHammer runs AnswerResilient on refused queries from
// several goroutines beside a writer inserting and deleting subtrees
// (make race runs it ten times under the race detector). Once the
// writer stops, every answer equals BN's, or is a subset of it when the
// contained rung serves.
func TestDegradedMemoHammer(t *testing.T) {
	sys, _ := degradedSystem(t, 0.02)
	ctx := context.Background()
	refused := []string{"//person/name", "//open_auction/seller", "//mail/text[bold]", "//keyword", "//person/profile/age"}
	var targets []dewey.Code
	for _, label := range []string{"people", "mail", "open_auctions", "person"} {
		targets = append(targets, firstCode(t, sys, label))
	}
	payloads := []string{
		"<person><name/><profile><age/></profile></person>",
		"<text><bold/><keyword/></text>",
		"<open_auction><bidder/><seller/></open_auction>",
		"<address><city/></address>",
	}
	stop := make(chan struct{})
	var wg, started sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		started.Add(1)
		go func(g int) {
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
				q := refused[(g+i)%len(refused)]
				res, err := sys.AnswerResilient(ctx, q, xpathviews.Options{})
				if err == nil && res.Strategy != xpathviews.Contained && res.Strategy != xpathviews.BN {
					err = fmt.Errorf("served by %v", res.Strategy)
				}
				if err != nil {
					errs <- fmt.Errorf("%s: %v", q, err)
					if i == 0 {
						started.Done()
					}
					return
				}
			}
		}(g)
	}
	started.Wait() // every reader is past its first call: the writer races them
	for i := 0; i < 24; i++ {
		k := i % len(targets)
		res, err := sys.InsertSubtree(targets[k], payloads[k])
		if err != nil {
			t.Fatal(err)
		}
		if i%3 == 2 {
			if _, err := sys.DeleteSubtree(res.Code); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, q := range refused {
		base, err := sys.Answer(q, xpathviews.BN)
		if err != nil {
			t.Fatal(err)
		}
		want := answerCodes(base)
		for rep := 0; rep < 2; rep++ {
			res, err := sys.AnswerResilient(ctx, q, xpathviews.Options{})
			if err != nil {
				t.Fatal(err)
			}
			got := answerCodes(res)
			if res.Strategy == xpathviews.BN && !slices.Equal(got, want) || !isSubset(got, want) {
				t.Fatalf("%s rep %d served by %v (memo %v): %d answers, BN has %d",
					q, rep, res.Strategy, res.Memo, len(got), len(want))
			}
		}
	}
}

// TestDegradedMemoRetainedHeap measures what a broad refused query
// leaves on its negative plan after the call. Truncated by MaxAnswers,
// nothing: the BN answer is not remembered, and the repeat is no hit.
// Untruncated, about one Answer (32 B) per answer, and after an insert
// the repeat replaces that memo instead of adding a second one.
func TestDegradedMemoRetainedHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are distorted under -race")
	}
	sys := memoXMarkSystem(t, 0.2) // no views: every query is refused
	ctx := context.Background()
	const q = "//text"
	base, err := sys.Answer(q, xpathviews.BN)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(len(base.Answers))
	base = nil
	if n < 1000 {
		t.Fatalf("%s has %d answers, want a broad query", q, n)
	}
	ask := func(src string, max int) *xpathviews.Result {
		t.Helper()
		res, err := sys.AnswerResilient(ctx, src, xpathviews.Options{MaxAnswers: max})
		if err != nil || res.Strategy != xpathviews.BN {
			t.Fatalf("%s: err %v", src, err)
		}
		return res
	}
	heap := func() int64 {
		runtime.GC()
		runtime.GC() // and what sync.Pool's victim cache kept through the first
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	ask("//keyword", 0) // lazily built state is not charged to q
	ask("//keyword", 0)
	memo := 32 * n // one Answer per answer

	h0 := heap()
	for rep := 0; rep < 2; rep++ {
		if res := ask(q, 10); !res.Truncated || res.Memo {
			t.Fatalf("MaxAnswers 10, rep %d: truncated %v memo %v, want a truncated miss", rep, res.Truncated, res.Memo)
		}
	}
	h1 := heap()
	t.Logf("truncated: %d B retained (%d answers)", h1-h0, n)
	if h1-h0 > memo/4 {
		t.Fatalf("a truncated refused query retains %d B, more than a quarter of its %d-answer set (%d B)", h1-h0, n, memo)
	}

	if ask(q, 0).Memo || !ask(q, 0).Memo {
		t.Fatal("untruncated: want a miss, then a memo hit")
	}
	h2 := heap()
	t.Logf("remembered: %d B retained", h2-h1)
	if h2-h1 < memo*3/4 || h2-h1 > memo*3/2 {
		t.Fatalf("a remembered %d-answer set retains %d B, want about %d", n, h2-h1, memo)
	}

	if _, err := sys.InsertSubtree(firstCode(t, sys, "people"), "<person><name/></person>"); err != nil {
		t.Fatal(err)
	}
	h3 := heap() // the stale memo is still held
	if ask(q, 0).Memo || !ask(q, 0).Memo {
		t.Fatal("after an insert: want a miss, then a memo hit")
	}
	h4 := heap()
	t.Logf("after an insert: %+d B retained by the repeat", h4-h3)
	if h4-h3 > memo/2 || h4-h3 < -memo/2 {
		t.Fatalf("the repeat after an insert retains %+d B: the stale %d B memo was not replaced one for one", h4-h3, memo)
	}
	runtime.KeepAlive(sys) // the heap readings above include the System
}
