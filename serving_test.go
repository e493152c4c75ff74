package xpathviews_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"xpathviews"
	"xpathviews/internal/paperdata"
	"xpathviews/internal/xmark"
	"xpathviews/internal/xpath"
)

// exponentialSystem builds a document and a pairwise view set that makes
// the exact Minimum selection's subset enumeration combinatorial: the
// query has ten leaves and every view covers only a small slice of them,
// so set cover has to search.
func exponentialSystem(t *testing.T) (*xpathviews.System, string) {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < 3; i++ {
		sb.WriteString("<a>")
		for j := 0; j < 10; j++ {
			fmt.Fprintf(&sb, "<l%d/>", j)
		}
		sb.WriteString("</a>")
	}
	sb.WriteString("</r>")
	sys, err := xpathviews.OpenXMLString(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := sys.AddView(fmt.Sprintf("//a/l%d", i), 0); err != nil {
			t.Fatal(err)
		}
		for j := i + 1; j < 10; j++ {
			if _, err := sys.AddView(fmt.Sprintf("//a[l%d][l%d]", i, j), 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	q := "//a[l0][l1][l2][l3][l4][l5][l6][l7][l8]/l9"
	return sys, q
}

// TestExpiredContextReturnsFast is the acceptance criterion: an already-
// expired context must come back well under 100ms even when the view set
// would make exact selection exponential.
func TestExpiredContextReturnsFast(t *testing.T) {
	sys, q := exponentialSystem(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := sys.AnswerContext(ctx, q, xpathviews.Options{Strategy: xpathviews.MV})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 100*time.Millisecond {
		t.Fatalf("expired context took %v, want <100ms", elapsed)
	}

	// Same for an expired deadline.
	dctx, dcancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer dcancel()
	time.Sleep(time.Millisecond)
	start = time.Now()
	_, err = sys.AnswerContext(dctx, q, xpathviews.Options{Strategy: xpathviews.MV})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if time.Since(start) > 100*time.Millisecond {
		t.Fatal("expired deadline not rejected promptly")
	}
}

// TestTimeoutCancelsMidTraversal arms Options.Timeout with a deadline
// that expires before the document walk can finish; the cooperative
// budget checks must observe it.
func TestTimeoutCancelsMidTraversal(t *testing.T) {
	doc := xmark.Generate(xmark.Config{Scale: 0.06, Seed: 41})
	sys, err := xpathviews.Open(doc)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sys.AnswerContext(context.Background(), "//*",
		xpathviews.Options{Strategy: xpathviews.BN, Timeout: time.Nanosecond})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestMaxStepsBudget(t *testing.T) {
	sys, q := exponentialSystem(t)
	// One step cannot even pay for filtering, let alone enumeration.
	_, err := sys.AnswerContext(context.Background(), q,
		xpathviews.Options{Strategy: xpathviews.MV, MaxSteps: 1})
	if !errors.Is(err, xpathviews.ErrBudgetExceeded) {
		t.Fatalf("MV err = %v, want ErrBudgetExceeded", err)
	}
	// Direct evaluation is budgeted too.
	_, err = sys.AnswerContext(context.Background(), "//a",
		xpathviews.Options{Strategy: xpathviews.BN, MaxSteps: 1})
	if !errors.Is(err, xpathviews.ErrBudgetExceeded) {
		t.Fatalf("BN err = %v, want ErrBudgetExceeded", err)
	}
	// A generous budget changes nothing about the answer.
	res, err := sys.AnswerContext(context.Background(), q,
		xpathviews.Options{Strategy: xpathviews.MV, MaxSteps: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	base, err := sys.Answer(q, xpathviews.BF)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(res.Codes(), ",") != strings.Join(base.Codes(), ",") {
		t.Fatal("budgeted answers differ from unbudgeted")
	}
}

func TestMaxHomsBudget(t *testing.T) {
	sys, q := exponentialSystem(t)
	// MN computes a homomorphism per candidate view (55 of them); one is
	// not enough.
	_, err := sys.AnswerContext(context.Background(), q,
		xpathviews.Options{Strategy: xpathviews.MN, MaxHoms: 1})
	if !errors.Is(err, xpathviews.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	// SelectContext is budgeted the same way.
	qp, err := xpath.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = sys.SelectContext(context.Background(), qp,
		xpathviews.Options{Strategy: xpathviews.MN, MaxHoms: 1})
	if !errors.Is(err, xpathviews.ErrBudgetExceeded) {
		t.Fatalf("SelectContext err = %v, want ErrBudgetExceeded", err)
	}
}

func TestMaxAnswersTruncates(t *testing.T) {
	sys, err := xpathviews.OpenXMLString("<r><b/><b/><b/><b/><b/></r>")
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.AnswerContext(context.Background(), "//b",
		xpathviews.Options{Strategy: xpathviews.BF, MaxAnswers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 3 || !res.Truncated {
		t.Fatalf("answers=%d truncated=%v, want 3/true", len(res.Answers), res.Truncated)
	}
	res, err = sys.AnswerContext(context.Background(), "//b",
		xpathviews.Options{Strategy: xpathviews.BF, MaxAnswers: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 5 || res.Truncated {
		t.Fatalf("answers=%d truncated=%v, want 5/false", len(res.Answers), res.Truncated)
	}
}

// TestResilientDegradesToBN: with no views at all, the default chain
// falls all the way to direct evaluation and records every skipped rung.
func TestResilientDegradesToBN(t *testing.T) {
	sys, err := xpathviews.OpenXMLString("<a><b>x</b><b>y</b></a>")
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.AnswerResilient(context.Background(), "//b", xpathviews.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != xpathviews.BN {
		t.Fatalf("Strategy = %v, want BN", res.Strategy)
	}
	if !res.Degraded || len(res.DegradedReasons) != 3 {
		t.Fatalf("Degraded=%v reasons=%v, want 3 skipped rungs", res.Degraded, res.DegradedReasons)
	}
	if len(res.Answers) != 2 {
		t.Fatalf("answers = %d, want 2", len(res.Answers))
	}
}

// TestResilientFirstRungWins: with views answering the query, HV answers
// directly and nothing degrades.
func TestResilientFirstRungWins(t *testing.T) {
	sys, err := xpathviews.OpenWithFST(paperdata.BookTree(), paperdata.BookFST())
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range paperdata.TableIViews() {
		if _, err := sys.AddView(src, xpathviews.DefaultFragmentLimit); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sys.AnswerResilient(context.Background(), paperdata.QueryE, xpathviews.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != xpathviews.HV || res.Degraded || len(res.DegradedReasons) != 0 {
		t.Fatalf("strategy=%v degraded=%v reasons=%v", res.Strategy, res.Degraded, res.DegradedReasons)
	}
	base, err := sys.Answer(paperdata.QueryE, xpathviews.BF)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(res.Codes(), ",") != strings.Join(base.Codes(), ",") {
		t.Fatal("resilient answers differ from direct evaluation")
	}
}

// TestResilientContainedRung: a custom chain can stop at the contained
// rung when a view certifies the answers.
func TestResilientContainedRung(t *testing.T) {
	sys, err := xpathviews.OpenXMLString("<a><b>x</b><c/><b>y</b></a>")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.AddView("//b", 0); err != nil {
		t.Fatal(err)
	}
	res, err := sys.AnswerResilient(context.Background(), "//b",
		xpathviews.Options{Fallback: []xpathviews.Strategy{xpathviews.Contained}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != xpathviews.Contained || len(res.Answers) != 2 || res.Partial {
		t.Fatalf("strategy=%v answers=%d partial=%v", res.Strategy, len(res.Answers), res.Partial)
	}
}

// TestMVAnswersWhereHVRefuses pins why MV stays in DefaultFallback,
// shrunk from the XMark bench pools. Algorithm 2 (HV) tries, for each
// query leaf, only the views on VFILTER's list for that leaf's root path.
// The one view //australia/item[shipping] covers the mailbox leaf by
// compensation inside its item fragments, but its only path ends in
// shipping, so mailbox's list is empty and HV refuses. MV searches every
// candidate's cover and answers with that view.
func TestMVAnswersWhereHVRefuses(t *testing.T) {
	doc, err := os.ReadFile("testdata/mv_where_hv_refuses.xml")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := xpathviews.OpenXMLString(string(doc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.AddView("//australia/item[shipping]", 0); err != nil {
		t.Fatal(err)
	}
	const q = "//australia/item[mailbox]/shipping"
	ctx := context.Background()
	if _, err := sys.AnswerContext(ctx, q, xpathviews.Options{Strategy: xpathviews.HV}); !errors.Is(err, xpathviews.ErrNotAnswerable) {
		t.Fatalf("HV: err = %v, want ErrNotAnswerable", err)
	}
	mv, err := sys.AnswerContext(ctx, q, xpathviews.Options{Strategy: xpathviews.MV})
	if err != nil {
		t.Fatalf("MV: %v", err)
	}
	bn, err := sys.AnswerContext(ctx, q, xpathviews.Options{Strategy: xpathviews.BN})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(mv.Codes(), ","), strings.Join(bn.Codes(), ","); got != want || len(bn.Answers) != 3 {
		t.Fatalf("MV answers %q, BN %q (want 3 shippings)", got, want)
	}
	res, err := sys.AnswerResilient(ctx, q, xpathviews.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != xpathviews.MV || len(res.DegradedReasons) != 1 {
		t.Fatalf("resilient served at %v after %v, want MV after HV's refusal", res.Strategy, res.DegradedReasons)
	}
}

// TestResilientCancelAborts: cancellation is not degradable — the chain
// stops instead of serving a degraded answer to a caller that left.
func TestResilientCancelAborts(t *testing.T) {
	sys, err := xpathviews.OpenXMLString("<a><b/></a>")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.AnswerResilient(ctx, "//b", xpathviews.Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestResilientAllRungsFail: when every rung fails the chain reports all
// reasons and the final error still matches the last failure.
func TestResilientAllRungsFail(t *testing.T) {
	sys, err := xpathviews.OpenXMLString("<a><b/></a>")
	if err != nil {
		t.Fatal(err)
	}
	_, err = sys.AnswerResilient(context.Background(), "//b",
		xpathviews.Options{Fallback: []xpathviews.Strategy{xpathviews.HV, xpathviews.MV}})
	if err == nil {
		t.Fatal("no views: a views-only chain must fail")
	}
	if !errors.Is(err, xpathviews.ErrNotAnswerable) {
		t.Fatalf("err = %v, want ErrNotAnswerable in the chain", err)
	}
	if !strings.Contains(err.Error(), "HV") || !strings.Contains(err.Error(), "MV") {
		t.Fatalf("error does not name the failed rungs: %v", err)
	}
}
