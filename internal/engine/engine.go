// Package engine evaluates tree patterns over XML trees. It provides the
// two direct-evaluation baselines of the paper's §VI — BN ("basic node
// index") and BF ("full index") — the one navigational walk that BN,
// §V's extraction and view maintenance share (AnswersWithin), the
// checks fragment refinement asks, the structural-join evaluator behind
// BF and view materialization, and the DP matcher that is the
// test-suite's ground truth.
package engine

import (
	"sort"

	"xpathviews/internal/pattern"
	"xpathviews/internal/xmltree"
)

// Answers computes the set of data nodes that are images of q's answer
// node under some embedding of q in t, in document order. It is the
// reference evaluator: a two-pass dynamic program, O(|q|·|t|) time.
func Answers(t *xmltree.Tree, q *pattern.Pattern) []*xmltree.Node {
	m := newMatcher(t, q)
	return m.answers()
}

// matcher runs the embed DP between one pattern and one tree.
type matcher struct {
	t      *xmltree.Tree
	q      *pattern.Pattern
	qNodes []*pattern.Node
	qIdx   map[*pattern.Node]int
	nodes  []*xmltree.Node // document order; index = ord

	// feas[i] is the bottom-up feasibility row of pattern node i:
	// feas[i][ord] reports that the pattern subtree at i embeds with
	// image nodes[ord].
	feas [][]bool
	// below[i][ord] reports that feas[i] holds at some proper descendant
	// of nodes[ord].
	below [][]bool
}

func newMatcher(t *xmltree.Tree, q *pattern.Pattern) *matcher {
	m := &matcher{t: t, q: q, qNodes: q.Nodes(), nodes: t.Nodes()}
	m.qIdx = make(map[*pattern.Node]int, len(m.qNodes))
	for i, n := range m.qNodes {
		m.qIdx[n] = i
	}
	n := len(m.nodes)
	m.feas = make([][]bool, len(m.qNodes))
	m.below = make([][]bool, len(m.qNodes))
	for i := range m.feas {
		m.feas[i] = make([]bool, n)
		m.below[i] = make([]bool, n)
	}
	// Pattern nodes in reverse preorder → children before parents.
	for i := len(m.qNodes) - 1; i >= 0; i-- {
		m.fillFeas(i)
	}
	return m
}

func (m *matcher) fillFeas(i int) {
	pn := m.qNodes[i]
	row := m.feas[i]
	for ord := len(m.nodes) - 1; ord >= 0; ord-- {
		dn := m.nodes[ord]
		row[ord] = m.nodeFeasible(pn, dn)
	}
	// below row: post-order aggregation (children have larger ords but
	// below depends on children's feas+below; compute via recursion over
	// tree structure instead).
	bel := m.below[i]
	var agg func(dn *xmltree.Node) bool
	agg = func(dn *xmltree.Node) bool {
		any := false
		for _, c := range dn.Children {
			cAny := agg(c)
			if row[m.t.Ord(c)] || cAny {
				any = true
			}
		}
		bel[m.t.Ord(dn)] = any
		return any || row[m.t.Ord(dn)]
	}
	agg(m.t.Root())
}

func (m *matcher) nodeFeasible(pn *pattern.Node, dn *xmltree.Node) bool {
	if pn.Label != pattern.Wildcard && pn.Label != dn.Label {
		return false
	}
	for _, a := range pn.Attrs {
		v, ok := dn.Attr(a.Name)
		if !ok || !pattern.CompareAttr(a.Op, v, a.Value) {
			return false
		}
	}
	for _, pc := range pn.Children {
		ci := m.qIdx[pc]
		ok := false
		if pc.Axis == pattern.Child {
			for _, dc := range dn.Children {
				if m.feas[ci][m.t.Ord(dc)] {
					ok = true
					break
				}
			}
		} else {
			ok = m.below[ci][m.t.Ord(dn)]
		}
		if !ok {
			return false
		}
	}
	return true
}

// answers runs the top-down pass: reach[i][ord] reports that pattern node
// i can take image nodes[ord] in some complete embedding.
func (m *matcher) answers() []*xmltree.Node {
	n := len(m.nodes)
	reach := make([][]bool, len(m.qNodes))
	for i := range reach {
		reach[i] = make([]bool, n)
	}
	if m.q.Root.Axis == pattern.Child {
		if m.feas[0][0] {
			reach[0][0] = true
		}
	} else {
		copy(reach[0], m.feas[0])
	}
	// preorder: parents before children
	for i, pn := range m.qNodes {
		if i == 0 {
			continue
		}
		pi := m.qIdx[pn.Parent]
		if pn.Axis == pattern.Child {
			for ord, ok := range reach[pi] {
				if !ok {
					continue
				}
				for _, dc := range m.nodes[ord].Children {
					co := m.t.Ord(dc)
					if m.feas[i][co] {
						reach[i][co] = true
					}
				}
			}
		} else {
			// descendant: propagate down the tree
			var push func(dn *xmltree.Node, underReached bool)
			push = func(dn *xmltree.Node, underReached bool) {
				ord := m.t.Ord(dn)
				if underReached && m.feas[i][ord] {
					reach[i][ord] = true
				}
				next := underReached || reach[pi][ord]
				for _, c := range dn.Children {
					push(c, next)
				}
			}
			push(m.t.Root(), false)
		}
	}
	retRow := reach[m.qIdx[m.q.Ret]]
	var out []*xmltree.Node
	for ord, ok := range retRow {
		if ok {
			out = append(out, m.nodes[ord])
		}
	}
	return out
}

// LabelIndex maps each label to its nodes in document order — the paper's
// "basic node index".
type LabelIndex struct {
	byLabel map[string][]*xmltree.Node
}

// BuildLabelIndex scans the tree once.
func BuildLabelIndex(t *xmltree.Tree) *LabelIndex {
	idx := &LabelIndex{byLabel: make(map[string][]*xmltree.Node)}
	t.Walk(func(n *xmltree.Node) bool {
		idx.byLabel[n.Label] = append(idx.byLabel[n.Label], n)
		return true
	})
	return idx
}

// Nodes returns the document-ordered node list for a label.
func (ix *LabelIndex) Nodes(label string) []*xmltree.Node { return ix.byLabel[label] }

// AddSubtree registers every node of the subtree rooted at n (which must
// already be attached to t and renumbered) and restores document order
// for the touched labels only — incremental maintenance instead of a
// full rebuild.
func (ix *LabelIndex) AddSubtree(t *xmltree.Tree, n *xmltree.Node) {
	touched := make(map[string]struct{})
	var walk func(m *xmltree.Node)
	walk = func(m *xmltree.Node) {
		ix.byLabel[m.Label] = append(ix.byLabel[m.Label], m)
		touched[m.Label] = struct{}{}
		for _, c := range m.Children {
			walk(c)
		}
	}
	walk(n)
	for label := range touched {
		SortNodes(t, ix.byLabel[label])
	}
}

// RemoveSubtree unregisters every node of the subtree rooted at n.
// Relative order of the survivors is preserved, so no re-sort is needed.
func (ix *LabelIndex) RemoveSubtree(n *xmltree.Node) {
	dead := make(map[*xmltree.Node]struct{})
	touched := make(map[string]struct{})
	var walk func(m *xmltree.Node)
	walk = func(m *xmltree.Node) {
		dead[m] = struct{}{}
		touched[m.Label] = struct{}{}
		for _, c := range m.Children {
			walk(c)
		}
	}
	walk(n)
	for label := range touched {
		nodes := ix.byLabel[label]
		kept := nodes[:0]
		for _, m := range nodes {
			if _, gone := dead[m]; !gone {
				kept = append(kept, m)
			}
		}
		for i := len(kept); i < len(nodes); i++ {
			nodes[i] = nil
		}
		if len(kept) == 0 {
			delete(ix.byLabel, label)
		} else {
			ix.byLabel[label] = kept
		}
	}
}

// Count returns the number of nodes with the given label.
func (ix *LabelIndex) Count(label string) int { return len(ix.byLabel[label]) }

// SortNodes orders nodes by document order in place.
func SortNodes(t *xmltree.Tree, nodes []*xmltree.Node) {
	sort.Slice(nodes, func(i, j int) bool { return t.Ord(nodes[i]) < t.Ord(nodes[j]) })
}
