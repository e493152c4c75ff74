// Package advisor closes the materialization loop the paper leaves
// open: §IV selects which *given* views answer one query, but never asks
// which views are worth materializing in the first place. The advisor
// takes a workload of (query, frequency) entries, generalizes the
// queries into candidate view patterns (GenerateCandidates), and picks a
// set to materialize under a byte budget by estimated benefit against
// the §IV-B cost model (Advise).
//
// Benefit is estimated with the same leaf-cover machinery §IV uses at
// query time (selection.ComputeCover / selection.Answerable), weighted
// by frequency; cost follows the §IV-B cost model
// (selection.CostParams: join width + scan volume). The greedy picks
// the candidate with the best marginal benefit per cost until the byte
// budget is exhausted; for small candidate pools an exact exponential
// search is available (Options.ExactThreshold), mirroring the
// exact-vs-heuristic split of §IV-B.
package advisor

import (
	"fmt"
	"sort"

	"xpathviews/internal/dewey"
	"xpathviews/internal/engine"
	"xpathviews/internal/pattern"
	"xpathviews/internal/selection"
	"xpathviews/internal/views"
	"xpathviews/internal/workload"
	"xpathviews/internal/xmltree"
	"xpathviews/internal/xpath"
)

// Options tunes one Advise run.
type Options struct {
	// ByteBudget caps the total materialized bytes of the advised set
	// (required, > 0).
	ByteBudget int
	// PerViewLimit caps one view's materialized bytes; 0 means the byte
	// budget itself (no single view may exceed what fits anyway).
	PerViewLimit int
	// MaxCandidates caps how many candidates are trial-materialized,
	// keeping advice time bounded on huge workloads (0 = 256). The most
	// supported candidates (by frequency-weighted coverage) are kept.
	MaxCandidates int
	// ExactThreshold switches to the exact exponential subset search
	// when the materialized candidate pool is at most this large
	// (0 = always greedy). The exact search maximizes fully-answerable
	// weighted frequency; ties break toward fewer bytes.
	ExactThreshold int
	// Cost weights the §IV-B cost model; the zero value means
	// selection.DefaultCostParams.
	Cost selection.CostParams
	// PartialWeight credits partially covered queries during the greedy
	// (0 = default 0.25). Partial credit lets the greedy assemble
	// multi-view answers one cover at a time.
	PartialWeight float64
	// LGGTop bounds the pairwise-generalization pool (0 = default 24).
	LGGTop int
}

func (o Options) withDefaults() Options {
	if o.PerViewLimit <= 0 || o.PerViewLimit > o.ByteBudget {
		o.PerViewLimit = o.ByteBudget
	}
	if o.MaxCandidates <= 0 {
		o.MaxCandidates = 256
	}
	if o.Cost == (selection.CostParams{}) {
		o.Cost = selection.DefaultCostParams()
	}
	if o.PartialWeight <= 0 {
		o.PartialWeight = 0.25
	}
	if o.LGGTop <= 0 {
		o.LGGTop = 24
	}
	return o
}

// AdvisedView is one view of the advised set.
type AdvisedView struct {
	// XPath is the view pattern in parseable XPath form.
	XPath string
	// Source names the generalization that produced it (see candidates).
	Source string
	// Bytes is the trial-materialized fragment total.
	Bytes int
	// Fragments is the trial fragment count.
	Fragments int
}

// Coverage summarizes how much of a workload a view set answers.
type Coverage struct {
	// Queries / QueriesAnswerable count distinct queries.
	Queries, QueriesAnswerable int
	// TotalFreq / FreqAnswerable weight them by workload frequency.
	TotalFreq, FreqAnswerable int
	// WeightedFraction = FreqAnswerable / TotalFreq (0 when empty).
	WeightedFraction float64
}

// Advice is the advised materialization set with its predicted effect.
type Advice struct {
	Views      []AdvisedView
	TotalBytes int
	ByteBudget int
	// PerViewLimit echoes the effective per-view cap, for ApplyAdvice.
	PerViewLimit int
	// Predicted is the workload coverage of the advised set (estimated
	// with the §IV answerability criterion, not a full rewrite).
	Predicted Coverage
	// CandidatesGenerated / Tried / Kept trace the funnel: generated by
	// generalization, trial-materialized after support ranking, and
	// surviving satisfiability + size pruning.
	CandidatesGenerated, CandidatesTried, CandidatesKept int
	// Exact reports that the exponential selector produced the set.
	Exact bool
}

// workQuery is one distinct parsed workload query.
type workQuery struct {
	pat    *pattern.Pattern
	leaves []*pattern.Node
	freq   int
}

// parseEntries parses, minimizes and dedups the workload's queries;
// unparseable entries are skipped (workload files may carry anything).
func parseEntries(entries []workload.Entry) []*workQuery {
	var out []*workQuery
	at := make(map[string]int)
	for _, e := range entries {
		p, err := xpath.Parse(e.Query)
		if err != nil {
			continue
		}
		p = pattern.Minimize(p)
		key := p.String()
		f := e.Freq
		if f < 1 {
			f = 1
		}
		if i, ok := at[key]; ok {
			out[i].freq += f
			continue
		}
		at[key] = len(out)
		out = append(out, &workQuery{pat: p, leaves: p.Leaves(), freq: f})
	}
	return out
}

// candState is one trial-materialized candidate with its per-query
// covers.
type candState struct {
	cand   *Candidate
	covers []*selection.Cover // aligned with the query list; nil = no cover
	view   *views.View
	bytes  int
}

// Advise proposes a view set to materialize for the workload under the
// byte budget. doc/enc/idx describe the document views would be
// materialized over (idx may be nil).
func Advise(doc *xmltree.Tree, enc *dewey.Encoding, idx *engine.LabelIndex, entries []workload.Entry, opts Options) (*Advice, error) {
	if opts.ByteBudget <= 0 {
		return nil, fmt.Errorf("advisor: ByteBudget must be positive")
	}
	opts = opts.withDefaults()
	if idx == nil {
		idx = engine.BuildLabelIndex(doc)
	}
	qs := parseEntries(entries)
	adv := &Advice{ByteBudget: opts.ByteBudget, PerViewLimit: opts.PerViewLimit}
	if len(qs) == 0 {
		return adv, nil
	}

	pats := make([]*pattern.Pattern, len(qs))
	freqs := make([]int, len(qs))
	for i, q := range qs {
		pats[i] = q.pat
		freqs[i] = q.freq
	}
	cands := GenerateCandidates(pats, freqs, opts.LGGTop)
	adv.CandidatesGenerated = len(cands)

	// Coverage matrix on unmaterialized stand-ins (ComputeCover only
	// reads the pattern), so unsupported candidates cost no
	// materialization work.
	pool := make([]*candState, 0, len(cands))
	for ci, c := range cands {
		stub := &views.View{ID: ci, Pattern: c.Pattern}
		cs := &candState{cand: c, covers: make([]*selection.Cover, len(qs))}
		support := 0
		for qi, q := range qs {
			cov := selection.ComputeCover(stub, q.pat)
			if cov != nil && cov.Size() > 0 {
				cs.covers[qi] = cov
				support += q.freq
			}
		}
		if support > 0 {
			// bytes temporarily holds negated support for the ranking
			// below; trial materialization overwrites it with real bytes.
			cs.bytes = -support
			pool = append(pool, cs)
		}
	}
	// Rank by support, keep the MaxCandidates best.
	sort.Slice(pool, func(i, j int) bool {
		if pool[i].bytes != pool[j].bytes {
			return pool[i].bytes < pool[j].bytes
		}
		return pool[i].cand.Key < pool[j].cand.Key
	})
	if len(pool) > opts.MaxCandidates {
		pool = pool[:opts.MaxCandidates]
	}
	adv.CandidatesTried = len(pool)

	// Trial materialization: prune unsatisfiable (empty) and oversized
	// candidates.
	kept := pool[:0]
	for _, cs := range pool {
		v, err := views.Materialize(len(kept), cs.cand.Pattern, doc, enc, idx, opts.PerViewLimit)
		if err != nil || v.IsEmpty() {
			continue
		}
		cs.view = v
		cs.bytes = v.TotalBytes
		kept = append(kept, cs)
	}
	pool = kept
	adv.CandidatesKept = len(pool)
	if len(pool) == 0 {
		return adv, nil
	}

	chosen := greedySelect(pool, qs, opts)
	if opts.ExactThreshold > 0 && len(pool) <= opts.ExactThreshold {
		exact := exactSelect(pool, qs, opts.ByteBudget)
		if betterSet(exact, chosen, pool, qs) {
			chosen = exact
			adv.Exact = true
		}
	}

	sort.Ints(chosen)
	for _, ci := range chosen {
		cs := pool[ci]
		adv.Views = append(adv.Views, AdvisedView{
			XPath:     cs.cand.Key,
			Source:    cs.cand.Source,
			Bytes:     cs.bytes,
			Fragments: len(cs.view.Fragments),
		})
		adv.TotalBytes += cs.bytes
	}
	adv.Predicted = coverageOf(chosen, pool, qs)
	return adv, nil
}

// qState tracks the per-query covered universe during selection.
type qState struct {
	covered map[*pattern.Node]bool
	delta   bool
}

func (st *qState) apply(c *selection.Cover) {
	for n := range c.Leaves {
		st.covered[n] = true
	}
	if c.Delta {
		st.delta = true
	}
}

// contrib is a query's score contribution: full weight when answerable,
// partial credit proportional to the covered share of LF(Q) otherwise.
func contrib(q *workQuery, st *qState, partial float64) float64 {
	lf := len(q.leaves) + 1 // +1 for Δ
	got := len(st.covered)
	if st.delta {
		got++
	}
	if got == 0 {
		return 0
	}
	if st.delta && got == lf {
		return float64(q.freq)
	}
	return partial * float64(q.freq) * float64(got) / float64(lf)
}

// greedySelect picks candidates by marginal benefit per §IV-B cost until
// nothing fits or nothing helps.
func greedySelect(pool []*candState, qs []*workQuery, opts Options) []int {
	states := make([]*qState, len(qs))
	for i := range states {
		states[i] = &qState{covered: make(map[*pattern.Node]bool)}
	}
	inSet := make([]bool, len(pool))
	var chosen []int
	total := 0
	for {
		best, bestRatio, bestGain := -1, 0.0, 0.0
		for ci, cs := range pool {
			if inSet[ci] || total+cs.bytes > opts.ByteBudget {
				continue
			}
			gain := 0.0
			for qi, cov := range cs.covers {
				if cov == nil {
					continue
				}
				st := states[qi]
				cur := contrib(qs[qi], st, opts.PartialWeight)
				// Evaluate the union without mutating the state.
				extra := 0
				for n := range cov.Leaves {
					if !st.covered[n] {
						extra++
					}
				}
				lf := len(qs[qi].leaves) + 1
				got := len(st.covered) + extra
				delta := st.delta || cov.Delta
				if delta {
					got++
				}
				var next float64
				if delta && got == lf {
					next = float64(qs[qi].freq)
				} else if got > 0 {
					next = opts.PartialWeight * float64(qs[qi].freq) * float64(got) / float64(lf)
				}
				if next > cur {
					gain += next - cur
				}
			}
			if gain <= 0 {
				continue
			}
			cost := opts.Cost.ViewWeight + opts.Cost.ByteWeight*float64(cs.bytes)
			if cost <= 0 {
				cost = 1e-9
			}
			ratio := gain / cost
			if best < 0 || ratio > bestRatio ||
				(ratio == bestRatio && cs.bytes < pool[best].bytes) {
				best, bestRatio, bestGain = ci, ratio, gain
			}
		}
		if best < 0 || bestGain <= 0 {
			return chosen
		}
		inSet[best] = true
		chosen = append(chosen, best)
		total += pool[best].bytes
		for qi, cov := range pool[best].covers {
			if cov != nil {
				states[qi].apply(cov)
			}
		}
	}
}

// exactSelect enumerates all subsets within the budget (candidate pools
// this is enabled for are small) and returns the one maximizing
// fully-answerable weighted frequency; ties break toward fewer bytes.
func exactSelect(pool []*candState, qs []*workQuery, budget int) []int {
	var best []int
	bestScore, bestBytes := -1, 0
	cur := make([]int, 0, len(pool))
	var dfs func(i, bytes int)
	dfs = func(i, bytes int) {
		if i == len(pool) {
			score := answeredWeight(cur, pool, qs)
			if score > bestScore || (score == bestScore && bytes < bestBytes) {
				best = append([]int(nil), cur...)
				bestScore, bestBytes = score, bytes
			}
			return
		}
		dfs(i+1, bytes)
		if bytes+pool[i].bytes <= budget {
			cur = append(cur, i)
			dfs(i+1, bytes+pool[i].bytes)
			cur = cur[:len(cur)-1]
		}
	}
	dfs(0, 0)
	return best
}

// answeredWeight is the frequency-weighted sum over fully answerable
// queries for the given candidate subset.
func answeredWeight(set []int, pool []*candState, qs []*workQuery) int {
	w := 0
	for qi, q := range qs {
		var covers []*selection.Cover
		for _, ci := range set {
			if c := pool[ci].covers[qi]; c != nil {
				covers = append(covers, c)
			}
		}
		if len(covers) > 0 && selection.Answerable(q.pat, covers) {
			w += q.freq
		}
	}
	return w
}

func betterSet(a, b []int, pool []*candState, qs []*workQuery) bool {
	wa, wb := answeredWeight(a, pool, qs), answeredWeight(b, pool, qs)
	if wa != wb {
		return wa > wb
	}
	ba, bb := 0, 0
	for _, ci := range a {
		ba += pool[ci].bytes
	}
	for _, ci := range b {
		bb += pool[ci].bytes
	}
	return ba < bb
}

func coverageOf(set []int, pool []*candState, qs []*workQuery) Coverage {
	var cov Coverage
	cov.Queries = len(qs)
	for qi, q := range qs {
		cov.TotalFreq += q.freq
		var covers []*selection.Cover
		for _, ci := range set {
			if c := pool[ci].covers[qi]; c != nil {
				covers = append(covers, c)
			}
		}
		if len(covers) > 0 && selection.Answerable(q.pat, covers) {
			cov.QueriesAnswerable++
			cov.FreqAnswerable += q.freq
		}
	}
	if cov.TotalFreq > 0 {
		cov.WeightedFraction = float64(cov.FreqAnswerable) / float64(cov.TotalFreq)
	}
	return cov
}

// Evaluate reports how much of the workload the given view set answers,
// by the §IV answerability criterion (covers + Answerable).
func Evaluate(viewSet []*views.View, entries []workload.Entry) Coverage {
	qs := parseEntries(entries)
	var cov Coverage
	cov.Queries = len(qs)
	for _, q := range qs {
		cov.TotalFreq += q.freq
		var covers []*selection.Cover
		for _, v := range viewSet {
			if v == nil {
				continue
			}
			if c := selection.ComputeCover(v, q.pat); c != nil && c.Size() > 0 {
				covers = append(covers, c)
			}
		}
		if len(covers) > 0 && selection.Answerable(q.pat, covers) {
			cov.QueriesAnswerable++
			cov.FreqAnswerable += q.freq
		}
	}
	if cov.TotalFreq > 0 {
		cov.WeightedFraction = float64(cov.FreqAnswerable) / float64(cov.TotalFreq)
	}
	return cov
}

// NaiveTopK is the baseline the advisor competes with: materialize the
// most frequent workload queries verbatim, most frequent first, skipping
// what does not fit, until the byte budget is spent. Returns the views
// and their total bytes.
func NaiveTopK(doc *xmltree.Tree, enc *dewey.Encoding, idx *engine.LabelIndex, entries []workload.Entry, budget int) ([]*views.View, int) {
	if idx == nil {
		idx = engine.BuildLabelIndex(doc)
	}
	qs := parseEntries(entries)
	sort.SliceStable(qs, func(i, j int) bool { return qs[i].freq > qs[j].freq })
	var out []*views.View
	total := 0
	for _, q := range qs {
		remaining := budget - total
		if remaining <= 0 {
			break
		}
		v, err := views.Materialize(len(out), q.pat, doc, enc, idx, remaining)
		if err != nil || v.IsEmpty() {
			continue
		}
		out = append(out, v)
		total += v.TotalBytes
	}
	return out, total
}
