package maintain

// Dirty-root detection: how far above the mutation root must a view be
// re-evaluated?
//
// Patterns here are downward-only ({/, //, *, []}), so an answer f's
// spine embedding is a descending chain of images ending at f. If any
// image lies inside the mutated subtree T(R), the whole tail of the
// chain — including f — lies inside T(R). An answer OUTSIDE T(R)
// therefore keeps every spine image outside T(R), and an image w whose
// subtree misses T(R) matches its spine node exactly as before
// (attributes of surviving nodes never change under subtree
// mutations). So f changes membership only if, for some spine node
// spine[j] imaged at a proper ancestor w of R, the match of spine[j]
// at w flips.
//
// Patterns are negation-free, hence monotone: every embedding that
// exists without T(R) exists with it. A flip is therefore always the
// same event, for insert and delete alike: the off-spine predicates of
// spine[j] hold at w in the document WITH T(R) and fail in the document
// WITHOUT it — plain ∧ ¬masked, where "masked" evaluates the predicate
// over the same tree but never enters T(R). Both documents are read
// from the one tree that has T(R) attached, which is why an insert
// computes its dirty roots after the graft and a delete before the
// detach.
//
// When no predicate flips, no answer outside T(R) changes and the dirty
// root is R itself; when spine[j] flips at w, the answers under w may
// change and the dirty root lifts to w. The common mutation — one more
// witness where others exist, or one of several going away — flips
// nothing, however high a wildcard or a //-predicate could structurally
// image.

import (
	"xpathviews/internal/engine"
	"xpathviews/internal/pattern"
	"xpathviews/internal/xmltree"
)

// DirtyDepth returns the depth (0 = document root) of the dirty root
// for pattern p and a mutation rooted at R = chain[len(chain)-1], where
// chain is the root-to-R node chain of the document with T(R) attached
// and mutLabels the label set of T(R). The result is always in
// [0, len(chain)-1], and every answer of p whose membership the
// mutation changes lies under chain[result].
func DirtyDepth(p *pattern.Pattern, chain []*xmltree.Node, mutLabels map[string]struct{}) int {
	spine := p.Spine()
	k := len(chain) - 1
	best := k
	// prev[i] = "spine[0..j-1] can embed along chain[0..i] with chain[i]
	// the image of spine[j-1]", by labels and axes alone: the structural
	// filter in front of the predicate checks.
	rows := make([]bool, 2*(k+1))
	prev, cur := rows[:k+1], rows[k+1:]
	for j, pn := range spine {
		anyPrev := false // OR of prev[0..i-1], maintained incrementally
		for i := 0; i <= k; i++ {
			ok := pn.Label == pattern.Wildcard || pn.Label == chain[i].Label
			if ok {
				switch {
				case j == 0:
					// The pattern root hangs off the virtual document root:
					// Child axis images only the real root (depth 0).
					ok = pn.Axis == pattern.Descendant || i == 0
				case pn.Axis == pattern.Child:
					ok = i > 0 && prev[i-1]
				default:
					ok = anyPrev
				}
			}
			cur[i] = ok
			if i < k && prev[i] {
				anyPrev = true
			}
		}
		var next *pattern.Node
		if j+1 < len(spine) {
			next = spine[j+1]
		}
		for i := 0; i < best; i++ {
			if cur[i] && flips(pn, next, chain[i], chain[k], mutLabels) {
				best = i
				break
			}
		}
		if best == 0 {
			return 0
		}
		prev, cur = cur, prev
	}
	return best
}

// flips reports whether spine node pn (spine continuation next, nil at
// the answer node) matches at w with T(r) in the document and not
// without it. Only an off-spine branch that can image a node of T(r) —
// one carrying a wildcard or a label of mutLabels — can tell the two
// documents apart; the others are evaluated once, and only after some
// branch was seen to depend on T(r). Every evaluation stops at its
// first witness.
func flips(pn, next *pattern.Node, w, r *xmltree.Node, mutLabels map[string]struct{}) bool {
	if !engine.NodeTest(pn, w) {
		return false
	}
	flipped := false
	for _, pc := range pn.Children {
		if pc == next || !touches(pc, mutLabels) || engine.ExistsUnder(pc, w, r) {
			continue
		}
		if !engine.ExistsUnder(pc, w, nil) {
			return false // fails in both documents
		}
		flipped = true
	}
	if !flipped {
		return false
	}
	for _, pc := range pn.Children {
		if pc != next && !touches(pc, mutLabels) && !engine.ExistsUnder(pc, w, nil) {
			return false
		}
	}
	return true
}

// touches reports whether any node of the pattern subtree at n could
// image a node of the mutated subtree: a wildcard matches anything,
// otherwise the label must occur among the subtree's labels.
func touches(n *pattern.Node, mutLabels map[string]struct{}) bool {
	if n.Label == pattern.Wildcard {
		return true
	}
	if _, ok := mutLabels[n.Label]; ok {
		return true
	}
	for _, c := range n.Children {
		if touches(c, mutLabels) {
			return true
		}
	}
	return false
}
