// Package experiments regenerates every table and figure of the paper's
// evaluation (§VI). It is shared by the root bench suite (bench_test.go)
// and the xpvbench command.
//
// Workload reconstruction notes (see DESIGN.md): the four Table III
// queries did not survive in the source text; the specs below use XMark
// vocabulary, satisfy the constraints the prose states (max depth 4; Q1
// answerable by one view, Q2/Q3 by two, Q4 by three; Q2 the shallowest at
// depth 3), and are made answerable by seeding a handful of anchor views
// into the generated view population — mirroring how the paper "extracted"
// its test queries from the materialized workload.
package experiments

import (
	"context"
	"fmt"
	"time"

	"xpathviews"
	"xpathviews/internal/engine"
	"xpathviews/internal/pattern"
	"xpathviews/internal/vfilter"
	"xpathviews/internal/workload"
	"xpathviews/internal/xmark"
	"xpathviews/internal/xpath"
)

// Config sizes an experiment environment. The zero value is unusable;
// use Default() or Quick().
type Config struct {
	// Scale is the XMark document scale (1.0 ≈ 70k nodes).
	Scale float64
	// NumViews is the number of generated positive views to materialize
	// (the paper used 1000).
	NumViews int
	// FragmentLimit caps per-view materialized bytes (paper: 128 KB).
	FragmentLimit int
	// Seed drives document and workload generation.
	Seed int64
	// FilterSizes are the view-set sizes for Figures 10-12 (the paper
	// used 1000..8000).
	FilterSizes []int
	// UtilityQueries is the number of test queries for Figure 10.
	UtilityQueries int
}

// Default mirrors the paper's setup, scaled to run on a laptop in
// minutes. Scale 2.5 (~175k nodes) is where the paper's Figure 8 ordering
// emerges in memory: fragment-capped view strategies stop paying for
// document growth while the direct baselines keep scanning.
func Default() Config {
	return Config{
		Scale:          2.5,
		NumViews:       1000,
		FragmentLimit:  128 << 10,
		Seed:           2008,
		FilterSizes:    []int{1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000},
		UtilityQueries: 200,
	}
}

// Quick is a smaller configuration for unit tests and -short benches.
func Quick() Config {
	return Config{
		Scale:          0.08,
		NumViews:       150,
		FragmentLimit:  128 << 10,
		Seed:           2008,
		FilterSizes:    []int{250, 500, 1000, 2000},
		UtilityQueries: 40,
	}
}

// QuerySpec is one Table III row.
type QuerySpec struct {
	Name string
	// XPath source of the query.
	XPath string
	// ViewsNeeded is the number of views the paper's Table III reports
	// for the query (1, 2, 2, 3).
	ViewsNeeded int
}

// TableIII returns the reconstructed test queries Q1..Q4.
func TableIII() []QuerySpec {
	return []QuerySpec{
		{Name: "Q1", XPath: "//site//closed_auction[buyer]/annotation/happiness", ViewsNeeded: 1},
		{Name: "Q2", XPath: "//person[address/city]/name", ViewsNeeded: 2},
		{Name: "Q3", XPath: "//open_auctions/open_auction[interval/start]/bidder/increase", ViewsNeeded: 2},
		{Name: "Q4", XPath: "//people/person[profile/age][watches]/address/city", ViewsNeeded: 3},
	}
}

// anchorViews make the Table III queries answerable (they join the
// generated population and are subject to the same filtering/selection
// machinery — and the same 128 KB cap — as every other view).
func anchorViews() []string {
	return []string{
		"//site//closed_auction[buyer]/annotation/happiness", // answers Q1 alone
		"//person[address]/name",                             // Q2 Δ-view
		"//person/address/city",                              // Q2 + Q4 predicate view
		"//open_auction/bidder/increase",                     // Q3 Δ-view
		"//open_auction/interval/start",                      // Q3 predicate view
		"//people/person/address/city",                       // Q4 Δ-view
		"//person/profile/age",                               // Q4 predicate view
		"//person/watches",                                   // Q4 predicate view
	}
}

// Env is a fully materialized experiment environment.
type Env struct {
	Cfg Config
	Sys *xpathviews.System
	// Queries are the Table III specs parsed.
	Queries []QuerySpec
	// SkippedViews counts generated views over the fragment cap.
	SkippedViews int
	// DocNodes is the document size.
	DocNodes int
}

// NewEnv builds the Figure 8/9 environment: document, anchors, and
// NumViews generated positive views under the fragment cap.
func NewEnv(cfg Config) (*Env, error) {
	doc := xmark.Generate(xmark.Config{Scale: cfg.Scale, Seed: cfg.Seed})
	sys, err := xpathviews.Open(doc)
	if err != nil {
		return nil, err
	}
	env := &Env{Cfg: cfg, Sys: sys, Queries: TableIII(), DocNodes: doc.Size()}
	for _, a := range anchorViews() {
		if _, err := sys.AddView(a, cfg.FragmentLimit); err != nil {
			return nil, fmt.Errorf("experiments: anchor view %s: %w (raise Scale or the cap)", a, err)
		}
	}
	gen := workload.New(cfg.Seed+1, xmark.Schema(), xmark.Attributes(), workload.Params{
		MaxDepth: 4, ProbWild: 0.2, ProbDesc: 0.2, NumPred: 1, NumNestedPath: 1,
	})
	idx := engine.BuildLabelIndex(doc)
	tries := 0
	maxTries := cfg.NumViews * 60
	for sys.NumViews() < cfg.NumViews+len(anchorViews()) && tries < maxTries {
		tries++
		q := gen.Query()
		// The paper materializes positive queries only.
		if len(engine.AnswersFast(doc, idx, q)) == 0 {
			continue
		}
		if _, err := sys.AddViewPattern(q, cfg.FragmentLimit); err != nil {
			env.SkippedViews++
			continue
		}
	}
	if sys.NumViews() < cfg.NumViews {
		return nil, fmt.Errorf("experiments: only materialized %d of %d views", sys.NumViews(), cfg.NumViews)
	}
	return env, nil
}

// Fig8Row is one bar of Figure 8.
type Fig8Row struct {
	Query    string
	Strategy xpathviews.Strategy
	Elapsed  time.Duration
	Answers  int
	Views    int // number of views used (view strategies)
	Err      string
}

// Fig8 measures query processing time for Q1..Q4 × {BN, BF, MN, MV, HV}.
// Each measurement is the best of three runs after one warm-up (which
// also pays one-time index construction). Every run bypasses the plan
// cache, so a view strategy pays the whole pipeline (parse, filter,
// select, refine, join, extract) as the paper's figure does, instead of
// replaying a cached plan's remembered answers.
func (e *Env) Fig8() []Fig8Row {
	var rows []Fig8Row
	strategies := []xpathviews.Strategy{xpathviews.BN, xpathviews.BF, xpathviews.MN, xpathviews.MV, xpathviews.HV}
	ctx := context.Background()
	for _, qs := range e.Queries {
		for _, st := range strategies {
			row := Fig8Row{Query: qs.Name, Strategy: st}
			opts := xpathviews.Options{Strategy: st, NoPlanCache: true}
			res, err := e.Sys.AnswerContext(ctx, qs.XPath, opts) // warm-up
			if err != nil {
				row.Err = err.Error()
				rows = append(rows, row)
				continue
			}
			best := time.Duration(0)
			for rep := 0; rep < 3; rep++ {
				t0 := time.Now()
				res, _ = e.Sys.AnswerContext(ctx, qs.XPath, opts)
				if el := time.Since(t0); best == 0 || el < best {
					best = el
				}
			}
			row.Elapsed = best
			row.Answers = len(res.Answers)
			row.Views = len(res.ViewsUsed)
			rows = append(rows, row)
		}
	}
	return rows
}

// Fig9Row is one bar of Figure 9 (lookup = selection time only).
type Fig9Row struct {
	Query    string
	Strategy xpathviews.Strategy
	Elapsed  time.Duration
	Views    int
	Homs     int
	Err      string
}

// Fig9 measures view-selection (lookup) time for Q1..Q4 × {MN, MV, HV}.
func (e *Env) Fig9() []Fig9Row {
	var rows []Fig9Row
	for _, qs := range e.Queries {
		q := pattern.Minimize(xpath.MustParse(qs.XPath))
		for _, st := range []xpathviews.Strategy{xpathviews.MN, xpathviews.MV, xpathviews.HV} {
			row := Fig9Row{Query: qs.Name, Strategy: st}
			t0 := time.Now()
			sel, _, err := e.Sys.Select(q, st)
			row.Elapsed = time.Since(t0)
			if err != nil {
				row.Err = err.Error()
			} else {
				row.Views = len(sel.Covers)
				row.Homs = sel.HomsComputed
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// FilterEnv holds the Figures 10-12 machinery: filters over growing view
// sets, plus the raw view patterns for utility computation.
type FilterEnv struct {
	Cfg     Config
	Sizes   []int
	Filters []*vfilter.Filter
	Views   []*pattern.Pattern
	// TestQueries is the Figure 10 query set.
	TestQueries []*pattern.Pattern
}

// NewFilterEnv generates the view sets V_1..V_k of §VI-B
// (num_nestedpath=2, no attribute predicates) and builds one automaton
// per size.
func NewFilterEnv(cfg Config) *FilterEnv {
	gen := workload.New(cfg.Seed+2, xmark.Schema(), xmark.Attributes(), workload.Params{
		MaxDepth: 4, ProbWild: 0.2, ProbDesc: 0.2, NumPred: 0, NumNestedPath: 2,
	})
	fe := &FilterEnv{Cfg: cfg, Sizes: cfg.FilterSizes}
	maxSize := cfg.FilterSizes[len(cfg.FilterSizes)-1]
	for len(fe.Views) < maxSize {
		fe.Views = append(fe.Views, gen.Query())
	}
	for _, n := range cfg.FilterSizes {
		f := vfilter.New()
		for id := 0; id < n; id++ {
			f.AddView(id, fe.Views[id])
		}
		fe.Filters = append(fe.Filters, f)
	}
	for i := 0; i < cfg.UtilityQueries; i++ {
		fe.TestQueries = append(fe.TestQueries, gen.Query())
	}
	return fe
}

// Fig10Row reports utility U(Q) = |V”|/|V_Q| statistics for one view-set
// size.
type Fig10Row struct {
	NumViews   int
	AvgUtility float64
	MaxUtility float64
	MaxCandSet int // largest |V''| observed (paper: never above 50)
}

// Fig10 computes average and maximum utility over the test queries.
func (fe *FilterEnv) Fig10() []Fig10Row {
	var rows []Fig10Row
	for si, f := range fe.Filters {
		n := fe.Sizes[si]
		sum, maxU := 0.0, 0.0
		maxCand := 0
		counted := 0
		for _, q := range fe.TestQueries {
			res := f.Filtering(q)
			vq := 0
			for id := 0; id < n; id++ {
				if pattern.Contains(fe.Views[id], q) {
					vq++
				}
			}
			if vq == 0 {
				continue // utility undefined when no view contains Q
			}
			u := float64(len(res.Candidates)) / float64(vq)
			sum += u
			if u > maxU {
				maxU = u
			}
			if len(res.Candidates) > maxCand {
				maxCand = len(res.Candidates)
			}
			counted++
		}
		row := Fig10Row{NumViews: n, MaxUtility: maxU, MaxCandSet: maxCand}
		if counted > 0 {
			row.AvgUtility = sum / float64(counted)
		}
		rows = append(rows, row)
	}
	return rows
}

// Fig11Row reports automaton size scaling.
type Fig11Row struct {
	NumViews int
	States   int
	Bytes    int
	// ScaleVsFirst is S_i/S_1.
	ScaleVsFirst float64
}

// Fig11 measures the stored size of each automaton.
func (fe *FilterEnv) Fig11() []Fig11Row {
	var rows []Fig11Row
	base := 0
	for si, f := range fe.Filters {
		b := f.StoredSize()
		if base == 0 {
			base = b
		}
		rows = append(rows, Fig11Row{
			NumViews:     fe.Sizes[si],
			States:       f.NumStates(),
			Bytes:        b,
			ScaleVsFirst: float64(b) / float64(base),
		})
	}
	return rows
}

// Fig12Row reports filtering time for one query at one view-set size.
type Fig12Row struct {
	Query    string
	NumViews int
	Elapsed  time.Duration
}

// Fig12 measures the filtering time of Q1..Q4 on each automaton.
func (fe *FilterEnv) Fig12() []Fig12Row {
	const reps = 50
	var rows []Fig12Row
	for _, qs := range TableIII() {
		q := xpath.MustParse(qs.XPath)
		for si, f := range fe.Filters {
			t0 := time.Now()
			for r := 0; r < reps; r++ {
				f.Filtering(q)
			}
			rows = append(rows, Fig12Row{
				Query:    qs.Name,
				NumViews: fe.Sizes[si],
				Elapsed:  time.Since(t0) / reps,
			})
		}
	}
	return rows
}
