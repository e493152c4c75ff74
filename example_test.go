package xpathviews_test

import (
	"fmt"
	"log"

	"xpathviews"
)

// The library's basic flow: open a document, materialize views, answer a
// query from the views and compare with direct evaluation.
func Example() {
	sys, err := xpathviews.OpenXMLString(
		`<lib><book genre="f"><title>A</title><author>X</author></book>` +
			`<book><title>B</title></book></lib>`)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sys.AddView("//book[author]/title", xpathviews.DefaultFragmentLimit); err != nil {
		log.Fatal(err)
	}

	res, err := sys.Answer("//lib/book[author]/title", xpathviews.HV)
	if err != nil {
		log.Fatal(err)
	}
	for _, a := range res.Answers {
		xml, _ := xpathviews.MarshalAnswer(a)
		fmt.Printf("%s %s\n", a.Code, xml)
	}
	// Output:
	// 0.0.1 <title>A</title>
}

// Contained rewriting returns a sound subset of answers when no
// equivalent rewriting exists — here the only view is more restrictive
// than the query.
func ExampleStrategy_contained() {
	sys, err := xpathviews.OpenXMLString(
		`<lib><book><title>A</title><author>X</author></book>` +
			`<book><title>B</title></book></lib>`)
	if err != nil {
		log.Fatal(err)
	}
	// The view demands an author; the query does not.
	if _, err := sys.AddView("//book[author]/title", 0); err != nil {
		log.Fatal(err)
	}

	if _, err := sys.Answer("//book/title", xpathviews.HV); err != nil {
		fmt.Println("equivalent rewriting:", err)
	}
	res, err := sys.Answer("//book/title", xpathviews.Contained)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("contained: %d answer(s), complete=%v\n", len(res.Answers), !res.Partial)
	// Output:
	// equivalent rewriting: selection: query is not answerable by the view set
	// contained: 1 answer(s), complete=false
}

// Strategies can be compared on the same system; all equivalent
// strategies return the same answers.
func ExampleStrategy() {
	sys, _ := xpathviews.OpenXMLString(`<a><b><c/></b><b/></a>`)
	sys.AddView("//a/b[c]", 0)
	for _, st := range []xpathviews.Strategy{xpathviews.BN, xpathviews.BF, xpathviews.HV} {
		res, err := sys.Answer("//a/b[c]", st)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(st, res.Codes())
	}
	// Output:
	// BN [0.0]
	// BF [0.0]
	// HV [0.0]
}
