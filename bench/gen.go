package main

import (
	"math"
	"math/rand"
	"sort"

	"xpathviews"
	"xpathviews/internal/engine"
	"xpathviews/internal/pattern"
	"xpathviews/internal/workload"
	"xpathviews/internal/xmark"
	"xpathviews/internal/xmltree"
)

// definitionSeed drives the *text* of the seeded views and query pools.
// It is a constant of the benchmark, not an input: the view set is the
// system's configuration and the pools are the traffic's vocabulary, and
// both must be the same on every run for two runs' latencies to be
// comparable within a 10 % bound. The run's --seed varies everything
// drawn from them: the document's content, which generated views are
// positive and fit the cap on it, the request order, the Zipf draws and
// the mutation sites.
const definitionSeed = 2008

// paperParams are §VI-A's generator settings.
var paperParams = workload.Params{MaxDepth: 4, ProbWild: 0.2, ProbDesc: 0.2, NumPred: 1, NumNestedPath: 1}

func newGenerator(seed int64) *workload.Generator {
	return workload.New(seed, xmark.Schema(), xmark.Attributes(), paperParams)
}

// tableIII are the reconstructed Table III queries Q1–Q4 (one, two, two
// and three views) and anchorViews the eight views that answer them —
// the experiments.NewEnv recipe.
var tableIII = []string{
	"//site//closed_auction[buyer]/annotation/happiness",
	"//person[address/city]/name",
	"//open_auctions/open_auction[interval/start]/bidder/increase",
	"//people/person[profile/age][watches]/address/city",
}

var anchorViews = []string{
	"//site//closed_auction[buyer]/annotation/happiness",
	"//person[address]/name",
	"//person/address/city",
	"//open_auction/bidder/increase",
	"//open_auction/interval/start",
	"//people/person/address/city",
	"//person/profile/age",
	"//person/watches",
}

// maintainViews cover the regions the churn mutations touch (items,
// descriptions, mailboxes, people) plus bystander regions.
var maintainViews = []string{
	"//item/location",
	"//item[location]/name",
	"//item/description//keyword",
	"//mail[from]/date",
	"//person/address/city",
	"//person[address]/name",
	"//open_auction/bidder/increase",
	"//closed_auction/price",
}

// mutationSpec is one inserted-subtree shape of 1, 5, 9 or 17 nodes.
type mutationSpec struct {
	parent string // label of the insertion parent
	xml    string
}

var mutationSpecs = []mutationSpec{
	{"item", "<quantity/>"},
	{"item", "<mailbox><mail><from/><to/><date/></mail></mailbox>"},
	{"item", "<description><parlist><listitem><text><bold/><keyword/></text></listitem>" +
		"<listitem><text><emph/></text></listitem></parlist></description>"},
	{"people", "<person><name/><emailaddress/><phone/>" +
		"<address><street/><city/><country/><zipcode/></address>" +
		"<homepage/><creditcard/><profile><interest/><education/><age/></profile>" +
		"<watches><watch/></watches></person>"},
}

// churnQueries are lib-churn's hot set: the first four read views the
// mutation specs dirty (a pending insert adds one answer to each), the
// last four read views no mutation touches.
var churnQueries = []struct {
	src     string
	mutated bool
}{
	{"//item/description//keyword", true},
	{"//mail[from]/date", true},
	{"//person/address/city", true},
	{"//person[address]/name", true},
	{"//item/location", false},
	{"//item[location]/name", false},
	{"//open_auction/bidder/increase", false},
	{"//closed_auction/price", false},
}

// addSeededViews materializes n generated positive views under the
// fragment cap, as §VI does, and reports how many were over the cap.
func addSeededViews(sys *xpathviews.System, doc *xmltree.Tree, idx *engine.LabelIndex, n int) (skipped int) {
	gen := newGenerator(definitionSeed + 1)
	target := sys.NumViews() + n
	for tries := 0; sys.NumViews() < target && tries < n*60; tries++ {
		q := gen.Query()
		if len(engine.AnswersFast(doc, idx, q)) == 0 {
			continue
		}
		if _, err := sys.AddViewPattern(q, xpathviews.DefaultFragmentLimit); err != nil {
			skipped++
		}
	}
	return skipped
}

// positiveQueries yields distinct generated queries that are positive on
// doc, in generation order, until keep returns false. want, when not
// nil, drops a query before it is evaluated.
func positiveQueries(doc *xmltree.Tree, idx *engine.LabelIndex, genSeed int64, maxTries int,
	want func(q *pattern.Pattern) bool, keep func(q *pattern.Pattern, src string, answers int) bool) {
	gen := newGenerator(genSeed)
	seen := make(map[string]bool)
	for tries := 0; tries < maxTries; tries++ {
		q := gen.Query()
		src := q.String()
		if seen[src] {
			continue
		}
		seen[src] = true
		if want != nil && !want(q) {
			continue
		}
		n := len(engine.AnswersFast(doc, idx, q))
		if n == 0 {
			continue
		}
		if !keep(q, src, n) {
			return
		}
	}
}

// zipf draws ranks 0..n-1 with P(r) ∝ (r+1)^-s from a precomputed CDF,
// so the sequence depends only on the seed and on math/rand's stable
// generator.
type zipf struct {
	cdf []float64
	rng *rand.Rand
}

func newZipf(seed int64, n int, s float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for r := range cdf {
		sum += math.Pow(float64(r+1), -s)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	return &zipf{cdf: cdf, rng: rand.New(rand.NewSource(seed))}
}

func (z *zipf) next() int {
	r := sort.SearchFloat64s(z.cdf, z.rng.Float64())
	if r >= len(z.cdf) {
		r = len(z.cdf) - 1
	}
	return r
}

// nodesLabeled returns the document's nodes with the given label in
// document order.
func nodesLabeled(doc *xmltree.Tree, label string) []*xmltree.Node {
	var out []*xmltree.Node
	doc.Walk(func(n *xmltree.Node) bool {
		if n.Label == label {
			out = append(out, n)
		}
		return true
	})
	return out
}
