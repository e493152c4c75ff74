package selection

import (
	"sort"

	"xpathviews/internal/budget"
	"xpathviews/internal/faults"
	"xpathviews/internal/pattern"
	"xpathviews/internal/vfilter"
	"xpathviews/internal/views"
)

// fpCostBased is the chaos-test fault point for cost-based selection.
var fpCostBased = faults.New("selection.costbased")

// This file implements the cost model §IV-B mentions but omits "due to
// space limitation": selection that trades off the two factors the paper
// identifies — the number of views (join width) and the size of their
// materialized fragments (scan volume). The exact-minimum method
// optimizes only the first, the heuristic's length-descending lists only
// approximate the second; CostBasedBudget optimizes their weighted sum
// with the classical greedy weighted set-cover rule (pick the cover with
// the lowest cost per newly covered element), then prunes redundancy.

// CostParams weights the two factors. Cost(V) = ViewWeight +
// ByteWeight · TotalBytes(V).
type CostParams struct {
	ViewWeight float64
	ByteWeight float64
}

// DefaultCostParams makes one view "cost" about as much as 64 KB of
// fragments, so small extra views are preferred over large single ones
// but gratuitous joins still count.
func DefaultCostParams() CostParams {
	return CostParams{ViewWeight: 1, ByteWeight: 1.0 / (64 << 10)}
}

func (p CostParams) cost(v *views.View) float64 {
	return p.ViewWeight + p.ByteWeight*float64(v.TotalBytes)
}

// Cost exposes the per-view cost so serving layers can record the
// predicted cost of a selection next to its realized execution time
// (cost-model calibration).
func (p CostParams) Cost(v *views.View) float64 { return p.cost(v) }

// CostBasedBudget selects an answering view set greedily by cost per
// newly covered LF element, over VFILTER's candidates, computing
// homomorphisms lazily like Algorithm 2. It returns ErrNotAnswerable when
// no answering subset exists among the candidates. Under the
// cancellation/step budget b (nil: unbounded) each lazily computed
// homomorphism charges Hom, each greedy round a step.
func CostBasedBudget(q *pattern.Pattern, res *vfilter.Result, reg *views.Registry, params CostParams, b *budget.B) (*Selection, error) {
	if err := fpCostBased.Fire(); err != nil {
		return nil, err
	}
	sel := &Selection{}

	// Candidate order: cheap views first so that lazily computed covers
	// are more likely to pay off early.
	seen := make(map[int]bool)
	var candIDs []int
	for _, list := range res.Lists {
		for _, le := range list {
			if !seen[le.View] {
				seen[le.View] = true
				candIDs = append(candIDs, le.View)
			}
		}
	}
	sort.Slice(candIDs, func(i, j int) bool {
		a, b := reg.Get(candIDs[i]), reg.Get(candIDs[j])
		return params.cost(a) < params.cost(b)
	})

	var berr error
	covers := make(map[int]*Cover, len(candIDs))
	coverOf := func(id int) *Cover {
		c, ok := covers[id]
		if !ok {
			if berr == nil {
				berr = b.Hom()
			}
			if berr != nil {
				return nil
			}
			sel.HomsComputed++
			c = ComputeCover(reg.Get(id), q)
			covers[id] = c
		}
		return c
	}

	need := make(map[*pattern.Node]bool)
	for _, l := range q.Leaves() {
		need[l] = true
	}
	delta := false
	var chosen []*Cover

	gain := func(c *Cover) int {
		if c == nil {
			return 0
		}
		g := 0
		for n := range c.Leaves {
			if need[n] {
				g++
			}
		}
		if !delta && c.Delta {
			g++
		}
		return g
	}

	for len(need) > 0 || !delta {
		if err := b.Step(len(candIDs) + 1); err != nil {
			return nil, err
		}
		best := -1
		bestScore := 0.0
		var bestCover *Cover
		for _, id := range candIDs {
			c := coverOf(id)
			if berr != nil {
				return nil, berr
			}
			g := gain(c)
			if g == 0 {
				continue
			}
			score := params.cost(reg.Get(id)) / float64(g)
			if best < 0 || score < bestScore {
				best, bestScore, bestCover = id, score, c
			}
		}
		if best < 0 {
			return nil, ErrNotAnswerable
		}
		chosen = append(chosen, bestCover)
		for n := range bestCover.Leaves {
			delete(need, n)
		}
		if bestCover.Delta {
			delta = true
		}
	}
	sel.Covers = removeRedundant(q, chosen)
	return sel, nil
}
