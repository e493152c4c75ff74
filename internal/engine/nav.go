package engine

// Navigational evaluation: one top-down walk answers a pattern inside
// any subtree, and three callers share it. BN runs it over the document
// root (§VI's navigational baseline), extraction over each joined
// Δ-fragment with the compensating pattern's root pinned by a Child
// axis (§V's last step), and incremental view maintenance over a dirty
// root (maintain.ApplyDelta), the subtree that holds every answer a
// mutation can change. Beside it sit the short-circuiting boolean checks
// (MatchesAtRoot, ExistsUnder) that refinement and the dirty-root
// computation ask on their hot paths.

import (
	"xpathviews/internal/budget"
	"xpathviews/internal/pattern"
	"xpathviews/internal/xmltree"
)

// AnswersWithin returns, in document order, the answers that lie in the
// subtree rooted at scope (inclusive) of the pattern whose Spine() is
// spine, and the number of nodes it visited: the scope's size, unless b
// aborted the walk with its error. b is charged one step per visited
// node; a nil b never aborts. Matching is against the whole tree scope
// belongs to: ancestors above scope take part in spine embedding and
// predicate checks as usual, only the candidate set is restricted. A
// Child-axis pattern root images the tree's root alone (a node without
// a parent), a Descendant-axis root any node.
//
// The walk is top-down and keeps its state per depth, not per node: for
// the node at each depth of the current root-to-node path, which spine
// steps embed with it as their image, and which embed at one of its
// proper ancestors. A node's row follows from its parent's, so the
// predicate checks of a step run only where the axis to the previous
// step's image already holds, each node is visited once, answers come
// out in document order without a visited set or a sort, and memory is
// one pair of rows per level of the tree whatever the scope's size.
// Below a node whose row is all false only the pattern root can embed,
// so there the walk tests that one step.
func AnswersWithin(spine []*pattern.Node, scope *xmltree.Node, b *budget.B) (answers []*xmltree.Node, visited int, err error) {
	w := navWalk{spine: spine}
	depth := scope.Depth()
	// Frame 0 is the virtual document root's (nothing embeds there);
	// a few levels of headroom keep a shallow scope from regrowing.
	w.flags = make([]bool, (2*len(spine)+1)*(depth+8))
	w.above(scope.Parent, depth-1)
	if err := w.walk(scope, depth, b); err != nil {
		return nil, w.visited, err
	}
	return w.out, w.visited, nil
}

type navWalk struct {
	spine []*pattern.Node
	// flags holds one frame of 2·len(spine)+1 entries per depth, frame
	// d+1 for the path's node at depth d: entry s says spine[0..s]
	// embeds along the path with that node as the image of spine[s],
	// entry len(spine)+s that it does so at a proper ancestor and
	// spine[s+1] is a descendant step (the only reader of that entry),
	// and the last entry that one of the others is set. A frame whose
	// last entry is false holds stale values in the others.
	flags   []bool
	out     []*xmltree.Node
	visited int
}

// above fills the frames of n (at depth d) and its ancestors, root
// first; a nil n is the virtual root, whose frame stays zero.
func (w *navWalk) above(n *xmltree.Node, d int) {
	if n == nil {
		return
	}
	w.above(n.Parent, d-1)
	w.enter(n, d)
}

// walk visits the subtree at n, a node at depth d. The meter is a
// parameter, not a field: a field would make the caller's meter escape
// to the heap with the rest of the walk's state.
func (w *navWalk) walk(n *xmltree.Node, d int, b *budget.B) error {
	if err := b.Step(1); err != nil {
		return err
	}
	w.visited++
	if w.enter(n, d) {
		w.out = append(w.out, n)
	}
	for _, c := range n.Children {
		if err := w.walk(c, d+1, b); err != nil {
			return err
		}
	}
	return nil
}

// enter computes the frame of n, a node at depth d whose parent's frame
// is in place, and reports whether n is an answer.
func (w *navWalk) enter(n *xmltree.Node, d int) bool {
	m := len(w.spine)
	k := 2*m + 1
	if need := k * (d + 2); len(w.flags) < need {
		w.flags = append(w.flags, make([]bool, need-len(w.flags))...)
	}
	parent := w.flags[k*d : k*(d+1)]
	own := w.flags[k*(d+1) : k*(d+2)]
	if !parent[2*m] {
		// Nothing embeds at or above the parent, so only spine[0] can
		// embed here. The virtual document root has the real root as
		// its only child: a Child-axis pattern root images the root
		// alone, a Descendant-axis root any node.
		root := w.spine[0]
		if (root.Axis == pattern.Child && n.Parent != nil) || !labelOK(root, n) || !matchNodeNav(root, n, w.spine, 0) {
			own[2*m] = false
			return false
		}
		clear(own)
		own[0], own[2*m] = true, true
		return m == 1
	}
	live := false
	for s, pn := range w.spine {
		own[m+s] = (parent[m+s] || parent[s]) && s+1 < m && w.spine[s+1].Axis == pattern.Descendant
		var reachable bool
		switch {
		case s == 0:
			// n has a parent: the virtual root's frame is never live.
			reachable = pn.Axis == pattern.Descendant
		case pn.Axis == pattern.Child:
			reachable = parent[s-1]
		default:
			reachable = own[m+s-1]
		}
		own[s] = reachable && matchNodeNav(pn, n, w.spine, s)
		live = live || own[s] || own[m+s]
	}
	own[2*m] = live
	return own[m-1]
}

// MatchesAtRoot reports whether q embeds in t with q's root pinned to t's
// root node (root axes are ignored: the caller asserts the anchoring).
// This is how compensating queries are checked against materialized
// fragments, whose root is by construction the node the view's answer
// node matched. It stops at the first witness of each predicate.
func MatchesAtRoot(t *xmltree.Tree, q *pattern.Pattern) bool {
	return labelOK(q.Root, t.Root()) && embedsAt(q.Root, t.Root(), nil)
}

// NodeTest checks pn's own constraints at dn: label and attribute
// predicates, no structure.
func NodeTest(pn *pattern.Node, dn *xmltree.Node) bool {
	return labelOK(pn, dn) && attrsOK(pn, dn)
}

func labelOK(pn *pattern.Node, dn *xmltree.Node) bool {
	return pn.Label == pattern.Wildcard || pn.Label == dn.Label
}

func attrsOK(pn *pattern.Node, dn *xmltree.Node) bool {
	for _, a := range pn.Attrs {
		v, ok := dn.Attr(a.Name)
		if !ok || !pattern.CompareAttr(a.Op, v, a.Value) {
			return false
		}
	}
	return true
}

// matchNodeNav checks label, attributes and all off-spine predicate
// branches of spine[step] at dn, navigationally.
func matchNodeNav(pn *pattern.Node, dn *xmltree.Node, spine []*pattern.Node, step int) bool {
	if !NodeTest(pn, dn) {
		return false
	}
	for _, pc := range pn.Children {
		if step+1 < len(spine) && pc == spine[step+1] {
			continue // the spine continuation is handled by the walk
		}
		if !ExistsUnder(pc, dn, nil) {
			return false
		}
	}
	return true
}

// embedsAt reports whether the pattern subtree rooted at pn embeds with
// image dn, whose label the caller has checked, by exhaustive
// navigation that never enters the subtree rooted at mask.
func embedsAt(pn *pattern.Node, dn, mask *xmltree.Node) bool {
	if !attrsOK(pn, dn) {
		return false
	}
	for _, pc := range pn.Children {
		if !ExistsUnder(pc, dn, mask) {
			return false
		}
	}
	return true
}

// ExistsUnder reports whether the predicate branch pn has a witness
// below dn — among dn's children for a Child-axis branch, among its
// proper descendants otherwise — stopping at the first one. A non-nil
// mask hides the subtree rooted there: the answer is the one the
// document would give with that subtree detached, which is how view
// maintenance asks whether a predicate's truth depends on a mutated
// subtree (maintain.DirtyDepth).
func ExistsUnder(pn *pattern.Node, dn, mask *xmltree.Node) bool {
	deep := pn.Axis == pattern.Descendant
	for _, c := range dn.Children {
		if c == mask {
			continue
		}
		// Most candidates fail on the label: test it before any call.
		if labelOK(pn, c) && embedsAt(pn, c, mask) {
			return true
		}
		if deep && ExistsUnder(pn, c, mask) {
			return true
		}
	}
	return false
}
