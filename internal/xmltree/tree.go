// Package xmltree provides the XML data model used throughout the library:
// an unordered, labelled tree in the sense of the paper's Section II.
//
// Nodes carry an element label over a finite alphabet, an optional set of
// attributes, and optional text content. Sibling order is preserved for
// serialization and for assigning extended Dewey codes deterministically,
// but none of the algorithms depend on it: queries treat the tree as
// unordered.
package xmltree

import (
	"fmt"
	"sort"
	"strings"
)

// Node is a single element node in an XML tree.
type Node struct {
	// Label is the element name, drawn from the document's finite alphabet.
	Label string
	// Attributes holds attribute name → value pairs; nil when absent.
	Attributes map[string]string
	// Text is the concatenated character data directly under this element.
	Text string

	// Parent is nil for the root.
	Parent   *Node
	Children []*Node

	// ord is the node's position in document (pre) order, assigned by
	// Tree.renumber. It doubles as a cheap node identity.
	ord int
}

// Tree is a rooted XML tree.
type Tree struct {
	root  *Node
	size  int
	byOrd []*Node // document-order index; byOrd[i].ord == i
}

// New creates a tree with a fresh root carrying the given label.
func New(rootLabel string) *Tree {
	t := &Tree{root: &Node{Label: rootLabel}}
	t.renumber()
	return t
}

// FromRoot adopts an existing node structure as a tree. The caller must not
// modify the structure except through Tree methods afterwards.
func FromRoot(root *Node) *Tree {
	if root == nil {
		panic("xmltree: FromRoot with nil root")
	}
	t := &Tree{root: root}
	t.renumber()
	return t
}

// Root returns the root node.
func (t *Tree) Root() *Node { return t.root }

// Size returns the number of element nodes in the tree.
func (t *Tree) Size() int { return t.size }

// NodeAt returns the node with the given document-order ordinal,
// or nil when out of range.
func (t *Tree) NodeAt(ord int) *Node {
	if ord < 0 || ord >= len(t.byOrd) {
		return nil
	}
	return t.byOrd[ord]
}

// AddChild appends a new child with the given label under parent and
// returns it. The tree is renumbered lazily: callers that add many nodes
// should finish with Renumber; all read-side methods renumber on demand.
func (t *Tree) AddChild(parent *Node, label string) *Node {
	if parent == nil {
		panic("xmltree: AddChild with nil parent")
	}
	n := &Node{Label: label, Parent: parent}
	parent.Children = append(parent.Children, n)
	t.byOrd = nil // invalidate
	return n
}

// Graft adopts sub — a parentless node structure, e.g. a parsed
// document's root — as a new child of parent and renumbers eagerly, so
// concurrent readers never race on a lazy renumber afterwards.
func (t *Tree) Graft(parent, sub *Node) {
	if parent == nil || sub == nil {
		panic("xmltree: Graft with nil node")
	}
	if sub.Parent != nil {
		panic("xmltree: Graft of an attached subtree")
	}
	sub.Parent = parent
	parent.Children = append(parent.Children, sub)
	t.renumber()
}

// GraftAt is Graft at an explicit sibling position: sub becomes
// parent.Children[i], shifting later siblings right. Callers that keep
// an external sibling order (the Dewey code order of the maintenance
// layer) use it to splice a node where that order dictates.
func (t *Tree) GraftAt(parent, sub *Node, i int) {
	if parent == nil || sub == nil {
		panic("xmltree: GraftAt with nil node")
	}
	if sub.Parent != nil {
		panic("xmltree: GraftAt of an attached subtree")
	}
	if i < 0 || i > len(parent.Children) {
		panic("xmltree: GraftAt position out of range")
	}
	sub.Parent = parent
	parent.Children = append(parent.Children, nil)
	copy(parent.Children[i+1:], parent.Children[i:])
	parent.Children[i] = sub
	t.renumber()
}

// Detach removes the subtree rooted at n from the tree and renumbers
// eagerly. The detached structure keeps its internal links but loses its
// Parent. Detaching the root is an error.
func (t *Tree) Detach(n *Node) error {
	if n == t.root {
		return fmt.Errorf("xmltree: cannot detach the root")
	}
	p := n.Parent
	if p == nil {
		return fmt.Errorf("xmltree: node %q is not attached", n.Label)
	}
	for i, c := range p.Children {
		if c == n {
			p.Children = append(p.Children[:i], p.Children[i+1:]...)
			n.Parent = nil
			t.renumber()
			return nil
		}
	}
	return fmt.Errorf("xmltree: node %q missing from its parent's children", n.Label)
}

// Renumber recomputes document order after structural edits.
func (t *Tree) Renumber() { t.renumber() }

func (t *Tree) renumber() {
	t.byOrd = t.byOrd[:0]
	var walk func(n *Node)
	walk = func(n *Node) {
		n.ord = len(t.byOrd)
		t.byOrd = append(t.byOrd, n)
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t.root)
	t.size = len(t.byOrd)
}

func (t *Tree) ensureNumbered() {
	if t.byOrd == nil || len(t.byOrd) != t.size || (len(t.byOrd) > 0 && t.byOrd[0] != t.root) {
		t.renumber()
	}
}

// Ord returns n's document-order ordinal within t.
func (t *Tree) Ord(n *Node) int {
	t.ensureNumbered()
	return n.ord
}

// Walk visits every node in document order. Returning false from fn stops
// the walk early.
func (t *Tree) Walk(fn func(n *Node) bool) {
	t.ensureNumbered()
	for _, n := range t.byOrd {
		if !fn(n) {
			return
		}
	}
}

// Nodes returns all nodes in document order. The slice is shared with the
// tree and must not be mutated.
func (t *Tree) Nodes() []*Node {
	t.ensureNumbered()
	return t.byOrd
}

// Depth returns the number of edges from the root to n (root depth is 0).
func (n *Node) Depth() int {
	d := 0
	for p := n.Parent; p != nil; p = p.Parent {
		d++
	}
	return d
}

// IsAncestorOf reports whether n is a proper ancestor of m.
func (n *Node) IsAncestorOf(m *Node) bool {
	for p := m.Parent; p != nil; p = p.Parent {
		if p == n {
			return true
		}
	}
	return false
}

// LabelPath returns the sequence of labels from the root down to n,
// inclusive.
func (n *Node) LabelPath() []string {
	depth := n.Depth()
	path := make([]string, depth+1)
	for m := n; m != nil; m = m.Parent {
		path[depth] = m.Label
		depth--
	}
	return path
}

// Chain returns the nodes from the root down to n, inclusive.
func (n *Node) Chain() []*Node {
	depth := n.Depth()
	chain := make([]*Node, depth+1)
	for m := n; m != nil; m = m.Parent {
		chain[depth] = m
		depth--
	}
	return chain
}

// Attr returns the value of the named attribute and whether it is present.
func (n *Node) Attr(name string) (string, bool) {
	v, ok := n.Attributes[name]
	return v, ok
}

// SetAttr sets an attribute on n, allocating the map on first use.
func (n *Node) SetAttr(name, value string) {
	if n.Attributes == nil {
		n.Attributes = make(map[string]string, 2)
	}
	n.Attributes[name] = value
}

// SubtreeSize returns the number of nodes in the subtree rooted at n,
// including n.
func (n *Node) SubtreeSize() int {
	s := 1
	for _, c := range n.Children {
		s += c.SubtreeSize()
	}
	return s
}

// CopySubtree returns a deep copy of the subtree rooted at n. The copy's
// root has a nil Parent.
func (n *Node) CopySubtree() *Node {
	cp := &Node{Label: n.Label, Text: n.Text}
	if n.Attributes != nil {
		cp.Attributes = make(map[string]string, len(n.Attributes))
		for k, v := range n.Attributes {
			cp.Attributes[k] = v
		}
	}
	cp.Children = make([]*Node, 0, len(n.Children))
	for _, c := range n.Children {
		cc := c.CopySubtree()
		cc.Parent = cp
		cp.Children = append(cp.Children, cc)
	}
	return cp
}

// Alphabet returns the sorted set of distinct element labels in the tree.
func (t *Tree) Alphabet() []string {
	seen := make(map[string]struct{})
	t.Walk(func(n *Node) bool {
		seen[n.Label] = struct{}{}
		return true
	})
	out := make([]string, 0, len(seen))
	for l := range seen {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// Stats summarises a tree for reporting.
type Stats struct {
	Nodes    int
	MaxDepth int
	Labels   int
}

// Stats computes summary statistics in one pass.
func (t *Tree) Stats() Stats {
	s := Stats{Nodes: t.Size(), Labels: len(t.Alphabet())}
	t.Walk(func(n *Node) bool {
		if d := n.Depth(); d > s.MaxDepth {
			s.MaxDepth = d
		}
		return true
	})
	return s
}

// String renders a compact single-line form of the subtree rooted at n,
// useful in tests and error messages: label(child, child, ...).
func (n *Node) String() string {
	var b strings.Builder
	n.writeCompact(&b)
	return b.String()
}

func (n *Node) writeCompact(b *strings.Builder) {
	b.WriteString(n.Label)
	if len(n.Children) == 0 {
		return
	}
	b.WriteByte('(')
	for i, c := range n.Children {
		if i > 0 {
			b.WriteByte(',')
		}
		c.writeCompact(b)
	}
	b.WriteByte(')')
}

// Validate checks structural invariants: parent/child links are mutual and
// the tree is acyclic. It is used by tests and by the XML parser.
func (t *Tree) Validate() error {
	seen := make(map[*Node]bool)
	var walk func(n *Node) error
	walk = func(n *Node) error {
		if seen[n] {
			return fmt.Errorf("xmltree: node %q reachable twice (cycle or DAG)", n.Label)
		}
		seen[n] = true
		for _, c := range n.Children {
			if c.Parent != n {
				return fmt.Errorf("xmltree: child %q of %q has wrong parent link", c.Label, n.Label)
			}
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if t.root.Parent != nil {
		return fmt.Errorf("xmltree: root %q has non-nil parent", t.root.Label)
	}
	return walk(t.root)
}
