package xpathviews_test

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"xpathviews"
	"xpathviews/internal/paperdata"
	"xpathviews/internal/workload"
	"xpathviews/internal/xmark"
	"xpathviews/internal/xmltree"
)

func TestFacadeEndToEnd(t *testing.T) {
	sys, err := xpathviews.OpenWithFST(paperdata.BookTree(), paperdata.BookFST())
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range paperdata.TableIViews() {
		if _, err := sys.AddView(src, xpathviews.DefaultFragmentLimit); err != nil {
			t.Fatal(err)
		}
	}
	if sys.NumViews() != 4 {
		t.Fatalf("NumViews = %d", sys.NumViews())
	}

	var results []*xpathviews.Result
	for _, strat := range []xpathviews.Strategy{xpathviews.BN, xpathviews.BF, xpathviews.MN, xpathviews.MV, xpathviews.HV} {
		res, err := sys.Answer(paperdata.QueryE, strat)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		results = append(results, res)
	}
	want := strings.Join(results[0].Codes(), ",")
	if want == "" {
		t.Fatal("no answers")
	}
	for _, res := range results[1:] {
		if got := strings.Join(res.Codes(), ","); got != want {
			t.Fatalf("%v answers %s, want %s", res.Strategy, got, want)
		}
	}
	// View strategies must report the selected views and filter stats.
	hv := results[4]
	if len(hv.ViewsUsed) != 2 || hv.CandidatesAfterFilter != 2 {
		t.Fatalf("HV metadata: views=%v candidates=%d", hv.ViewsUsed, hv.CandidatesAfterFilter)
	}
	mn := results[2]
	if mn.HomsComputed != 4 {
		t.Fatalf("MN must compute one homomorphism per view, got %d", mn.HomsComputed)
	}
}

func TestFacadeErrors(t *testing.T) {
	sys, err := xpathviews.OpenXMLString("<a><b/></a>")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Answer("not-a-query", xpathviews.BN); err == nil {
		t.Fatal("bad query accepted")
	}
	if _, err := sys.AddView("also bad", 0); err == nil {
		t.Fatal("bad view accepted")
	}
	if _, err := sys.Answer("//b", xpathviews.HV); err == nil {
		t.Fatal("HV with no views must fail as not answerable")
	}
	if _, err := xpathviews.OpenXMLString("<a><b></a>"); err == nil {
		t.Fatal("malformed XML accepted")
	}
}

func TestMarshalAnswer(t *testing.T) {
	sys, _ := xpathviews.OpenXMLString("<a><b>txt</b></a>")
	res, err := sys.Answer("//b", xpathviews.BN)
	if err != nil || len(res.Answers) != 1 {
		t.Fatalf("res=%v err=%v", res, err)
	}
	xml, err := xpathviews.MarshalAnswer(res.Answers[0])
	if err != nil || xml != "<b>txt</b>" {
		t.Fatalf("MarshalAnswer = %q, %v", xml, err)
	}
}

// TestStrategiesAgreeOnXMark is the facade-level differential test on a
// realistic document and generated views.
func TestStrategiesAgreeOnXMark(t *testing.T) {
	doc := xmark.Generate(xmark.Config{Scale: 0.06, Seed: 77})
	sys, err := xpathviews.Open(doc)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.New(78, xmark.Schema(), xmark.Attributes(), workload.Params{
		MaxDepth: 4, ProbWild: 0.2, ProbDesc: 0.2, NumPred: 1, NumNestedPath: 1,
	})
	for _, q := range gen.Positive(doc, 80, 4000) {
		if _, err := sys.AddViewPattern(q, xpathviews.DefaultFragmentLimit); err != nil {
			continue
		}
	}
	r := rand.New(rand.NewSource(79))
	_ = r
	answered := 0
	for i := 0; i < 60; i++ {
		q := gen.Query()
		base, err := sys.Answer(q.String(), xpathviews.BF)
		if err != nil {
			t.Fatal(err)
		}
		want := strings.Join(base.Codes(), ",")
		for _, strat := range []xpathviews.Strategy{xpathviews.MN, xpathviews.MV, xpathviews.HV, xpathviews.CV} {
			res, err := sys.Answer(q.String(), strat)
			if err != nil {
				continue // not answerable by the views — fine
			}
			answered++
			if got := strings.Join(res.Codes(), ","); got != want {
				t.Fatalf("%v on %s: %s != %s", strat, q, got, want)
			}
		}
	}
	if answered < 10 {
		t.Fatalf("only %d answered cases; differential test too weak", answered)
	}
}

func TestOpenRejectsNilishDocs(t *testing.T) {
	tr := xmltree.New("only")
	sys, err := xpathviews.Open(tr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Answer("/only", xpathviews.BN)
	if err != nil || len(res.Answers) != 1 {
		t.Fatalf("single-node doc: %v %v", res, err)
	}
}

// TestFacadeExtensions covers the two §VII extensions through the facade.
func TestFacadeExtensions(t *testing.T) {
	sys, err := xpathviews.OpenWithFST(paperdata.BookTree(), paperdata.BookFST())
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableAttributePruning()
	for _, src := range paperdata.TableIViews() {
		if _, err := sys.AddView(src, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Equivalent strategies still work with pruning enabled.
	res, err := sys.Answer(paperdata.QueryE, xpathviews.HV)
	if err != nil || len(res.Answers) != 5 {
		t.Fatalf("HV with attribute pruning: %v, %v", res, err)
	}

	// Contained rewriting: the exact view makes it complete.
	got, err := sys.Answer("//s[t]/p", xpathviews.Contained)
	if err != nil {
		t.Fatal(err)
	}
	if got.Partial || len(got.Answers) != 8 || got.Strategy != xpathviews.Contained {
		t.Fatalf("contained: partial=%v answers=%d strategy=%v, want complete with 8",
			got.Partial, len(got.Answers), got.Strategy)
	}
	// A query no view certifies any answer of is not answerable.
	if _, err := sys.Answer("//s/f/i", xpathviews.Contained); !errors.Is(err, xpathviews.ErrNotAnswerable) {
		t.Fatalf("uncertifiable query: err = %v, want ErrNotAnswerable", err)
	}
}
