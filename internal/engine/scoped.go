package engine

// Scoped evaluation for incremental view maintenance: AnswersWithin
// re-evaluates a pattern only over the candidates inside one subtree,
// matching them navigationally against the full document. The maintain
// subsystem picks the scope (the "dirty root") so that every answer
// whose membership a mutation can change lies inside it; this evaluator
// then recomputes exactly that slice of the answer set.

import (
	"xpathviews/internal/pattern"
	"xpathviews/internal/xmltree"
)

// AnswersWithin returns, in document order, the answers of q that lie in
// the subtree rooted at scope (inclusive), and the number of document
// nodes it visited to find them (the scope's size). Matching is against
// the whole document — ancestors above scope participate in spine
// embedding and predicate checks as usual — only the candidate set is
// restricted.
//
// The walk is top-down and keeps its state per depth, not per node: for
// the node at each depth of the current root-to-node path, which spine
// steps embed with it as their image, and which embed at one of its
// proper ancestors. A node's row follows from its parent's, so the
// predicate checks of a step run only where the axis to the previous
// step's image already holds, and memory is one pair of rows per level
// of the document whatever the scope's size.
func AnswersWithin(t *xmltree.Tree, q *pattern.Pattern, scope *xmltree.Node) (answers []*xmltree.Node, visited int) {
	w := scopedWalk{spine: q.Spine(), root: t.Root()}
	depth := scope.Depth()
	// Frame 0 is the virtual document root's (nothing embeds there);
	// a few levels of headroom keep a shallow scope from regrowing.
	w.flags = make([]bool, 2*len(w.spine)*(depth+8))
	w.above(scope.Parent, depth-1)
	w.walk(scope, depth)
	return w.out, w.visited
}

type scopedWalk struct {
	spine []*pattern.Node
	root  *xmltree.Node
	// flags holds one frame of 2·len(spine) entries per depth, frame
	// d+1 for the path's node at depth d: entry s says spine[0..s]
	// embeds along the path with that node as the image of spine[s],
	// entry len(spine)+s that it does so at a proper ancestor.
	flags   []bool
	out     []*xmltree.Node
	visited int
}

// above fills the frames of n (at depth d) and its ancestors, root
// first; a nil n is the virtual root, whose frame stays zero.
func (w *scopedWalk) above(n *xmltree.Node, d int) {
	if n == nil {
		return
	}
	w.above(n.Parent, d-1)
	w.enter(n, d)
}

func (w *scopedWalk) walk(n *xmltree.Node, d int) {
	w.visited++
	if w.enter(n, d) {
		w.out = append(w.out, n)
	}
	for _, c := range n.Children {
		w.walk(c, d+1)
	}
}

// enter computes the frame of n, a node at depth d whose parent's frame
// is in place, and reports whether n is an answer.
func (w *scopedWalk) enter(n *xmltree.Node, d int) bool {
	m := len(w.spine)
	if need := 2 * m * (d + 2); len(w.flags) < need {
		w.flags = append(w.flags, make([]bool, need-len(w.flags))...)
	}
	parent := w.flags[2*m*d : 2*m*(d+1)]
	own := w.flags[2*m*(d+1) : 2*m*(d+2)]
	for s, pn := range w.spine {
		own[m+s] = parent[m+s] || parent[s]
		var reachable bool
		switch {
		case s == 0:
			// The virtual document root has the real root as its only
			// child: a Child-axis pattern root images the document root
			// alone, a Descendant-axis root images any node.
			reachable = pn.Axis == pattern.Descendant || n == w.root
		case pn.Axis == pattern.Child:
			reachable = parent[s-1]
		default:
			reachable = own[m+s-1]
		}
		own[s] = reachable && matchNodeNav(pn, n, w.spine, s)
	}
	return own[m-1]
}
