package engine

import (
	"xpathviews/internal/pattern"
	"xpathviews/internal/xmltree"
)

// MatchesAtRoot reports whether q embeds in t with q's root pinned to t's
// root node (root axes are ignored: the caller asserts the anchoring).
// This is how compensating queries are evaluated against materialized
// fragments, whose root is by construction the node the view's answer
// node matched. Fragments are small, so this is a direct navigational
// check rather than the DP matcher.
func MatchesAtRoot(t *xmltree.Tree, q *pattern.Pattern) bool {
	return labelOK(q.Root, t.Root()) && embedsAt(q.Root, t.Root(), nil)
}

// AnswersAtRoot returns the images of q's answer node over embeddings of
// q in t with q's root pinned to t's root, in document order. It powers
// final result extraction from the Δ-view's fragments (§V). Fragments
// are small, so it navigates directly rather than building DP tables.
func AnswersAtRoot(t *xmltree.Tree, q *pattern.Pattern) []*xmltree.Node {
	spine := q.Spine()
	seen := make(map[*xmltree.Node]bool)
	var out []*xmltree.Node
	var down func(step int, dn *xmltree.Node)
	down = func(step int, dn *xmltree.Node) {
		pn := spine[step]
		if !matchNodeNav(pn, dn, spine, step) {
			return
		}
		if step == len(spine)-1 {
			if !seen[dn] {
				seen[dn] = true
				out = append(out, dn)
			}
			return
		}
		next := spine[step+1]
		if next.Axis == pattern.Child {
			for _, c := range dn.Children {
				down(step+1, c)
			}
			return
		}
		var rec func(d *xmltree.Node)
		rec = func(d *xmltree.Node) {
			for _, c := range d.Children {
				down(step+1, c)
				rec(c)
			}
		}
		rec(dn)
	}
	down(0, t.Root())
	SortNodes(t, out)
	return out
}
