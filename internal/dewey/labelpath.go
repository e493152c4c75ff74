package dewey

import (
	"sync"

	"xpathviews/internal/xmltree"
)

// LabelPath is an interned root-to-node label-path: every node of one
// encoded document whose ancestors carry the same labels shares one
// *LabelPath. It is immutable once published, so readers (§V
// refinement, the join's virtual tree) dereference it without a lock.
type LabelPath struct {
	// ID is dense within the owning Encoding's table: 0 is the root
	// path, later paths are numbered in the order they were first
	// interned. Refinement indexes per-query verdict arrays by it.
	ID int32
	// Labels is the path from the document root down, e.g. [b s s]. It
	// equals the FST decoding of any code the path was interned for and
	// must not be modified.
	Labels []string
}

// pathTable interns label-paths as a trie keyed by (parent path, label).
// Only fragment builders write it, under mu; paths are bounded by the
// document's label structure and never reclaimed.
type pathTable struct {
	mu   sync.Mutex
	root *LabelPath
	kids map[pathKey]*LabelPath
	n    int32
	// chain[d] is the depth-d ancestor of the node interned last, with
	// its path. Builders visit answers in document order, so consecutive
	// calls share most of the chain and probe the trie only below it. It
	// keeps at most one chain of nodes reachable after they are deleted.
	chain []chainLink
}

type pathKey struct {
	parent int32
	label  string
}

type chainLink struct {
	node *xmltree.Node
	path *LabelPath
}

// PathOf returns the interned root label-path of n, a node of the
// encoded tree. It walks n's ancestor chain through the trie — one map
// probe per level not shared with the previous call, no FST decode —
// and allocates only when the path is new. Safe for concurrent use.
func (e *Encoding) PathOf(n *xmltree.Node) *LabelPath {
	t := &e.paths
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.intern(n)
}

func (t *pathTable) intern(n *xmltree.Node) *LabelPath {
	depth := 0
	for a := n.Parent; a != nil; a = a.Parent {
		depth++
	}
	for len(t.chain) <= depth {
		t.chain = append(t.chain, chainLink{})
	}
	// Overwrite the chain from n upwards until an ancestor is already in
	// place: a node fixes all of its ancestors, so the levels above the
	// first match are n's too.
	d := depth
	for a := n; a != nil && t.chain[d].node != a; a, d = a.Parent, d-1 {
		t.chain[d] = chainLink{node: a}
	}
	for l := d + 1; l <= depth; l++ {
		label := t.chain[l].node.Label
		if l == 0 {
			if t.root == nil {
				t.root = &LabelPath{ID: 0, Labels: []string{label}}
				t.kids = make(map[pathKey]*LabelPath)
				t.n = 1
			}
			t.chain[0].path = t.root
			continue
		}
		parent := t.chain[l-1].path
		k := pathKey{parent.ID, label}
		p, ok := t.kids[k]
		if !ok {
			labels := make([]string, len(parent.Labels)+1)
			copy(labels, parent.Labels)
			labels[len(parent.Labels)] = label
			p = &LabelPath{ID: t.n, Labels: labels}
			t.n++
			t.kids[k] = p
		}
		t.chain[l].path = p
	}
	return t.chain[depth].path
}
