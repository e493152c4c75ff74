// Package selection implements §IV: the leaf-cover LC(V,Q), the multiple
// view/query answerability criterion ⋃ LC(V,Q) = LF(Q), the exact
// minimum view-set selection, and the heuristic minimal selection of
// Algorithm 2 driven by VFilter's sorted lists.
//
// The paper's prose definition of leaf-cover condition 2 ("the predicates
// for n and its ancestors hold on V") is made precise here in a way that
// keeps the rewriting of §V equivalent (sound) — see DESIGN.md,
// "Reconstructed details". A leaf n of Q is covered by view V under a
// homomorphism h with x = h(RET(V)) when either
//
//	(a) n is a descendant-or-self of x — the predicate is checked inside
//	    V's materialized fragments by the compensating query; or
//	(b) n's anchor y (the deepest node on Q's root→x path that is an
//	    ancestor of n) has a spine preimage v_y in V (h(v_y) = y) that is
//	    connected to RET(V) by child-only edges, and V's subtree at v_y
//	    guarantees y's whole branch containing n (a homomorphism from
//	    that branch into V's subtree at v_y). The child-only tail makes
//	    the guarantee's anchor sit at a fixed ancestor of every fragment
//	    root, which the holistic join pins (Example 4.2's trap is what
//	    this rigidity rule prevents).
//
// Additionally a view can be a *strong* cover (the paper's condition 3,
// single-view answerability): a homomorphism from Q's upper pattern into
// V pinning the answer positions makes every fragment of V a direct
// witness for all of Q above x.
package selection

import (
	"fmt"
	"slices"
	"sort"

	"xpathviews/internal/budget"
	"xpathviews/internal/faults"
	"xpathviews/internal/pattern"
	"xpathviews/internal/vfilter"
	"xpathviews/internal/views"
)

// Fault points at the selection stage boundaries (chaos tests).
var (
	fpMinimum   = faults.New("selection.minimum")
	fpHeuristic = faults.New("selection.heuristic")
)

// Pin records one rigid anchor produced by a mode-(b) cover: during the
// holistic join, query node Y must map to the K-th ancestor of the
// view's fragment root.
type Pin struct {
	Y *pattern.Node
	K int
}

// Cover is LC(V,Q) for one view under its best homomorphism.
type Cover struct {
	View *views.View
	Q    *pattern.Pattern
	// X is h(RET(V)): the query node the view's answers land on.
	X *pattern.Node
	// Delta reports Δ ∈ LC(V,Q): X is an ancestor-or-self of RET(Q).
	Delta bool
	// Leaves is the set of covered query leaves.
	Leaves map[*pattern.Node]bool
	// Pins are the rigid anchors backing mode-(b) coverage.
	Pins []Pin
	// Strong reports a single-view strong cover: every leaf of Q outside
	// X's subtree is guaranteed by V itself, pinned at the fragment root.
	Strong bool
}

// Size returns |LC(V,Q)| over the LF universe (leaves plus Δ).
func (c *Cover) Size() int {
	n := len(c.Leaves)
	if c.Delta {
		n++
	}
	return n
}

// String renders the cover like the paper's Equation (1), e.g. "{Δ, t, p}".
func (c *Cover) String() string {
	var parts []string
	if c.Delta {
		parts = append(parts, "Δ")
	}
	var labels []string
	for n := range c.Leaves {
		labels = append(labels, n.Label)
	}
	sort.Strings(labels)
	parts = append(parts, labels...)
	out := "{"
	for i, p := range parts {
		if i > 0 {
			out += ", "
		}
		out += p
	}
	return out + "}"
}

// ComputeCover computes LC(V,Q), choosing the spine mapping (and hence
// the homomorphism) that maximizes coverage; Delta wins ties. Returns nil
// when no homomorphism from V to Q exists (LC = ∅, §IV-A).
func ComputeCover(v *views.View, q *pattern.Pattern) *Cover {
	h := pattern.NewHom(v.Pattern, q)
	if !h.Exists() {
		return nil
	}
	vSpine := v.Pattern.Spine()
	// rigidK[i] >= 0 when the spine tail from index i to RET(V) uses only
	// child edges; the value is the number of edges (the pin offset K).
	rigidK := make([]int, len(vSpine))
	rigidK[len(vSpine)-1] = 0
	for i := len(vSpine) - 2; i >= 0; i-- {
		if rigidK[i+1] >= 0 && vSpine[i+1].Axis == pattern.Child {
			rigidK[i] = rigidK[i+1] + 1
		} else {
			rigidK[i] = -1
		}
	}

	var best *Cover
	for _, m := range h.SpineMappings() {
		c := coverForMapping(v, q, vSpine, rigidK, m)
		if best == nil || better(c, best) {
			best = c
		}
	}
	if best != nil {
		// A strong cover is only usable when the view is also the
		// Δ-view: its guarantee pins Q's upper pattern at the view's own
		// fragment roots, so answers must be extracted from this view.
		best.Strong = best.Delta && strongCover(v, q, best.X)
		if best.Strong {
			// A strong cover guarantees everything above/off X; leaves
			// under X are covered by the compensating query.
			for _, n := range q.Leaves() {
				best.Leaves[n] = true
			}
			best.Pins = nil
		}
	}
	return best
}

func better(a, b *Cover) bool {
	if a.Size() != b.Size() {
		return a.Size() > b.Size()
	}
	if a.Delta != b.Delta {
		return a.Delta
	}
	// Prefer fewer pins (cheaper joins).
	return len(a.Pins) < len(b.Pins)
}

func coverForMapping(v *views.View, q *pattern.Pattern, vSpine []*pattern.Node, rigidK []int, m pattern.SpineMapping) *Cover {
	x := m.Ret()
	// Attribute predicates on internal root→x nodes cannot be checked on
	// Dewey codes (§V); they are usable only when the view's own spine
	// node carries the same predicates (so the view guarantees them). A
	// mapping violating this is unusable for joining.
	imgAt := make(map[*pattern.Node]int, len(m.Images))
	for i, img := range m.Images {
		imgAt[img] = i
	}
	for n := x.Parent; n != nil; n = n.Parent {
		if len(n.Attrs) == 0 {
			continue
		}
		i, mapped := imgAt[n]
		if !mapped || !pattern.AttrsImplied(n.Attrs, vSpine[i].Attrs) {
			return &Cover{View: v, Q: q, X: x, Leaves: map[*pattern.Node]bool{}}
		}
	}
	c := &Cover{
		View:   v,
		Q:      q,
		X:      x,
		Delta:  pattern.AncestorOrSelf(x, q.Ret),
		Leaves: make(map[*pattern.Node]bool),
	}
	// Mode (a): leaves inside X's subtree.
	for _, n := range q.Leaves() {
		if pattern.AncestorOrSelf(x, n) {
			c.Leaves[n] = true
		}
	}
	// Mode (b): rigid guarantees anchored on the root→x path.
	for y, i := range imgAt {
		if rigidK[i] < 0 {
			continue
		}
		vy := vSpine[i]
		for _, branch := range y.Children {
			if pattern.AncestorOrSelf(branch, x) {
				continue // the continuation toward x, not a predicate branch
			}
			if covered := branchGuaranteed(v.Pattern, vy, y, branch); covered {
				markLeaves(branch, c.Leaves)
				c.Pins = append(c.Pins, Pin{Y: y, K: rigidK[i]})
			}
		}
	}
	return c
}

// branchGuaranteed reports whether V's subtree at vy guarantees query
// node y's predicate branch: a homomorphism from (y + branch) into V
// mapping y to vy.
func branchGuaranteed(vPat *pattern.Pattern, vy *pattern.Node, y *pattern.Node, branch *pattern.Node) bool {
	// Build the probe pattern: a copy of y (label + attrs, no other
	// children) with the branch subtree underneath.
	probeRoot := pattern.NewNode(y.Label, pattern.Descendant)
	probeRoot.Attrs = append([]pattern.AttrPred(nil), y.Attrs...)
	attachCopy(probeRoot, branch)
	probe := &pattern.Pattern{Root: probeRoot, Ret: probeRoot}
	h := pattern.NewHom(probe, vPat)
	return h.CanMap(probeRoot, vy)
}

func attachCopy(parent *pattern.Node, n *pattern.Node) {
	c := parent.AddChild(n.Label, n.Axis)
	c.Attrs = append([]pattern.AttrPred(nil), n.Attrs...)
	for _, ch := range n.Children {
		attachCopy(c, ch)
	}
}

func markLeaves(n *pattern.Node, set map[*pattern.Node]bool) {
	if n.IsLeaf() {
		set[n] = true
		return
	}
	for _, c := range n.Children {
		markLeaves(c, set)
	}
}

// strongCover reports the paper's single-view answerability condition 3:
// a homomorphism from Q's upper pattern (Q minus the strict descendants
// of x) into V that maps the x position onto RET(V) and respects root
// axes. Every fragment of V then witnesses all of Q outside x's subtree.
func strongCover(v *views.View, q *pattern.Pattern, x *pattern.Node) bool {
	upper, _ := upperPattern(q, x)
	h := pattern.NewHom(upper, v.Pattern)
	for _, m := range h.SpineMappings() {
		if m.Ret() == v.Pattern.Ret {
			return true
		}
	}
	return false
}

// upperPattern clones q, drops the strict descendants of x, and sets the
// clone's answer node to x's copy (so its spine is root→x).
func upperPattern(q *pattern.Pattern, x *pattern.Node) (*pattern.Pattern, *pattern.Node) {
	var ux *pattern.Node
	var rec func(n *pattern.Node) *pattern.Node
	rec = func(n *pattern.Node) *pattern.Node {
		cp := pattern.NewNode(n.Label, n.Axis)
		cp.Attrs = append([]pattern.AttrPred(nil), n.Attrs...)
		if n == x {
			ux = cp
			return cp // children dropped
		}
		for _, ch := range n.Children {
			cc := rec(ch)
			cc.Parent = cp
			cp.Children = append(cp.Children, cc)
		}
		return cp
	}
	root := rec(q.Root)
	return &pattern.Pattern{Root: root, Ret: ux}, ux
}

// LF returns the universe LF(Q) = LEAF(Q) ∪ {Δ} as (leaves, hasDelta
// placeholder); Δ is tracked separately by the selection routines.
func LF(q *pattern.Pattern) []*pattern.Node { return q.Leaves() }

// Answerable reports whether the covers jointly answer Q: some cover has
// Δ and every leaf of Q is covered by some cover.
func Answerable(q *pattern.Pattern, covers []*Cover) bool {
	delta := false
	need := q.Leaves()
	covered := make(map[*pattern.Node]bool, len(need))
	for _, c := range covers {
		if c == nil {
			continue
		}
		if c.Delta {
			delta = true
		}
		for n := range c.Leaves {
			covered[n] = true
		}
	}
	if !delta {
		return false
	}
	for _, n := range need {
		if !covered[n] {
			return false
		}
	}
	return true
}

// ErrNotAnswerable reports that no subset of the candidate views answers
// the query.
var ErrNotAnswerable = fmt.Errorf("selection: query is not answerable by the view set")

// Selection is the outcome of a view-selection strategy.
type Selection struct {
	Covers []*Cover
	// HomsComputed counts homomorphism computations performed — the cost
	// driver Figures 8 and 9 attribute MN's slowness to.
	HomsComputed int
}

// Views returns the selected views.
func (s *Selection) Views() []*views.View {
	out := make([]*views.View, len(s.Covers))
	for i, c := range s.Covers {
		out[i] = c.View
	}
	return out
}

// TotalFragmentBytes sums the selected views' materialized sizes — the
// quantity the heuristic method optimizes indirectly.
func (s *Selection) TotalFragmentBytes() int {
	total := 0
	for _, c := range s.Covers {
		total += c.View.TotalBytes
	}
	return total
}

// MinimumBudget performs exact minimum selection over the given
// candidate views: the smallest set whose covers answer Q (§IV-B's
// "naive method", O(2^n) worst case, implemented as an element-driven
// set-cover search with size pruning). Under the cancellation/step
// budget b (nil: unbounded) every candidate homomorphism charges Hom,
// and every node of the subset-cover search charges a step, so
// adversarial view sets that force the O(2^n) worst case abort promptly
// instead of running away.
func MinimumBudget(q *pattern.Pattern, candidates []*views.View, b *budget.B) (*Selection, error) {
	if err := fpMinimum.Fire(); err != nil {
		return nil, err
	}
	sel := &Selection{}
	var covers []*Cover
	for _, v := range candidates {
		if v == nil {
			continue
		}
		if err := b.Hom(); err != nil {
			return nil, err
		}
		sel.HomsComputed++
		if c := ComputeCover(v, q); c != nil && c.Size() > 0 {
			covers = append(covers, c)
		}
	}
	best, err := minimumCover(q, covers, b)
	if err != nil {
		return nil, err
	}
	if best == nil {
		return nil, ErrNotAnswerable
	}
	sel.Covers = best
	return sel, nil
}

// minimumCover searches for a smallest answering subset of covers,
// charging one budget step per search node.
func minimumCover(q *pattern.Pattern, covers []*Cover, b *budget.B) ([]*Cover, error) {
	leaves := q.Leaves()
	var best []*Cover
	var berr error
	// Depth-first search on the first uncovered element (Δ first, then
	// leaves in preorder), pruning on the best size found so far.
	var dfs func(chosen []*Cover)
	dfs = func(chosen []*Cover) {
		if berr != nil {
			return
		}
		if berr = b.Step(1); berr != nil {
			return
		}
		if best != nil && len(chosen) >= len(best) {
			return
		}
		// find an uncovered element
		delta := false
		covered := make(map[*pattern.Node]bool)
		for _, c := range chosen {
			if c.Delta {
				delta = true
			}
			for n := range c.Leaves {
				covered[n] = true
			}
		}
		var candidates []*Cover
		if !delta {
			for _, c := range covers {
				if c.Delta {
					candidates = append(candidates, c)
				}
			}
		} else {
			var missing *pattern.Node
			for _, n := range leaves {
				if !covered[n] {
					missing = n
					break
				}
			}
			if missing == nil {
				cp := append([]*Cover(nil), chosen...)
				best = cp
				return
			}
			for _, c := range covers {
				if c.Leaves[missing] {
					candidates = append(candidates, c)
				}
			}
		}
		for _, c := range candidates {
			already := false
			for _, ch := range chosen {
				if ch == c {
					already = true
					break
				}
			}
			if already {
				continue
			}
			dfs(append(chosen, c))
		}
	}
	dfs(nil)
	if berr != nil {
		return nil, berr
	}
	return best, nil
}

// HeuristicBudget implements Algorithm 2: greedy selection over
// VFilter's sorted lists, computing homomorphisms lazily, preferring
// views whose containing path pattern is longest (a proxy for smaller
// materialized fragments). The "random" leaf choice of line 3 is made
// deterministic (preorder) for reproducibility. The result is a minimal
// (not necessarily minimum) answering set. Under the cancellation/step
// budget b (nil: unbounded) each lazily computed homomorphism charges Hom
// and each list probe a step.
func HeuristicBudget(q *pattern.Pattern, res *vfilter.Result, reg *views.Registry, b *budget.B) (*Selection, error) {
	if err := fpHeuristic.Fire(); err != nil {
		return nil, err
	}
	sel := &Selection{}
	leafPathIdx := leafPathIndexes(q, res.QueryPaths)
	uncovered := make(map[*pattern.Node]bool)
	for _, n := range q.Leaves() {
		uncovered[n] = true
	}
	delta := false
	coverByView := make(map[int]*Cover)
	var chosen []*Cover
	var berr error

	tryView := func(id int, want *pattern.Node, wantDelta bool) bool {
		if berr != nil {
			return false
		}
		if berr = b.Step(1); berr != nil {
			return false
		}
		c, seen := coverByView[id]
		if !seen {
			v := reg.Get(id)
			if v == nil {
				return false
			}
			if berr = b.Hom(); berr != nil {
				return false
			}
			sel.HomsComputed++
			c = ComputeCover(v, q)
			coverByView[id] = c
		}
		if c == nil {
			return false
		}
		if want != nil && !c.Leaves[want] {
			return false
		}
		if wantDelta && !c.Delta {
			return false
		}
		for _, ch := range chosen {
			if ch == c {
				return false
			}
		}
		chosen = append(chosen, c)
		for n := range c.Leaves {
			delete(uncovered, n)
		}
		if c.Delta {
			delta = true
		}
		return true
	}

	for _, leaf := range q.Leaves() {
		if !uncovered[leaf] {
			continue
		}
		pi, ok := leafPathIdx[leaf]
		if !ok {
			return nil, fmt.Errorf("selection: no path pattern for leaf %q", leaf.Label)
		}
		found := false
		for _, le := range res.Lists[pi] {
			if tryView(le.View, leaf, false) {
				found = true
				break
			}
		}
		if berr != nil {
			return nil, berr
		}
		if !found {
			return nil, ErrNotAnswerable // lines 15-18
		}
	}
	if !delta {
		// Cover Δ: try views from every list, longest first.
		var all []vfilter.ListEntry
		for _, l := range res.Lists {
			all = append(all, l...)
		}
		slices.SortFunc(all, vfilter.CompareListEntries)
		for _, le := range all {
			if tryView(le.View, nil, true) {
				break
			}
		}
		if berr != nil {
			return nil, berr
		}
		if !delta {
			return nil, ErrNotAnswerable
		}
	}
	sel.Covers = removeRedundant(q, chosen)
	return sel, nil
}

// removeRedundant drops views whose contribution is subsumed by the rest
// (line 20 of Algorithm 2), keeping the answerability invariant.
func removeRedundant(q *pattern.Pattern, chosen []*Cover) []*Cover {
	out := append([]*Cover(nil), chosen...)
	for i := len(out) - 1; i >= 0; i-- {
		reduced := append(append([]*Cover(nil), out[:i]...), out[i+1:]...)
		if Answerable(q, reduced) {
			out = reduced
		}
	}
	return out
}

// leafPathIndexes maps each leaf of q to the index of its normalized
// root-to-leaf path within paths.
func leafPathIndexes(q *pattern.Pattern, paths []pattern.Path) map[*pattern.Node]int {
	keyIdx := make(map[string]int, len(paths))
	for i, p := range paths {
		keyIdx[p.Key()] = i
	}
	out := make(map[*pattern.Node]int)
	var steps []pattern.Step
	var rec func(n *pattern.Node)
	rec = func(n *pattern.Node) {
		steps = append(steps, pattern.Step{Axis: n.Axis, Label: n.Label})
		if n.IsLeaf() {
			norm := pattern.Normalize(pattern.Path{Steps: append([]pattern.Step(nil), steps...)})
			if i, ok := keyIdx[norm.Key()]; ok {
				out[n] = i
			}
		}
		for _, c := range n.Children {
			rec(c)
		}
		steps = steps[:len(steps)-1]
	}
	rec(q.Root)
	return out
}
