// Package pattern implements the tree-pattern model of the paper's
// Section II for the XPath fragment {/, //, *, []}, together with the
// pattern-level algorithms the system is built on: decomposition into
// root-to-leaf path patterns (§III-A), normalization (§III-C), the
// string form STR(P) consumed by the VFilter NFA (§III-B), homomorphism
// and containment checking (§II), an exact canonical-model containment
// test used by the test-suite, and tree-pattern minimization.
package pattern

import (
	"fmt"
	"sort"
	"strings"
)

// Wildcard is the label that matches any element label.
const Wildcard = "*"

// Axis is the edge type connecting a pattern node to its parent (or, for
// the root, to the virtual document root).
type Axis uint8

const (
	// Child is the '/' axis: exactly one tree edge.
	Child Axis = iota
	// Descendant is the '//' axis: one or more tree edges.
	Descendant
)

func (a Axis) String() string {
	if a == Descendant {
		return "//"
	}
	return "/"
}

// AttrOp is a comparison operator in an attribute predicate (§V,
// "Handling comparison predicates").
type AttrOp uint8

const (
	AttrExists AttrOp = iota
	AttrEq
	AttrNe
	AttrLt
	AttrLe
	AttrGt
	AttrGe
)

var attrOpNames = [...]string{"", "=", "!=", "<", "<=", ">", ">="}

func (o AttrOp) String() string { return attrOpNames[o] }

// AttrPred is a predicate over an attribute of a pattern node, e.g.
// [@category] or [@price<100].
type AttrPred struct {
	Name  string
	Op    AttrOp
	Value string
}

func (p AttrPred) String() string {
	if p.Op == AttrExists {
		return "@" + p.Name
	}
	v := p.Value
	if _, ok := parseInt(v); !ok {
		// Non-numeric literals must be quoted to re-parse; pick the
		// quote character the value does not contain.
		if strings.ContainsRune(v, '\'') {
			v = `"` + v + `"`
		} else {
			v = "'" + v + "'"
		}
	}
	return "@" + p.Name + p.Op.String() + v
}

// Node is a tree-pattern node.
type Node struct {
	// Label is an element label or Wildcard.
	Label string
	// Axis relates this node to its parent (the virtual document root for
	// the pattern root).
	Axis     Axis
	Parent   *Node
	Children []*Node
	// Attrs are attribute predicates attached to this node.
	Attrs []AttrPred
}

// Pattern is a tree pattern: a rooted unordered tree of Nodes with a
// designated answer node RET(P).
type Pattern struct {
	Root *Node
	// Ret is the answer node; it must be a node of the tree.
	Ret *Node
}

// NewNode allocates a pattern node.
func NewNode(label string, axis Axis) *Node { return &Node{Label: label, Axis: axis} }

// AddChild links child under n and returns it.
func (n *Node) AddChild(label string, axis Axis) *Node {
	c := &Node{Label: label, Axis: axis, Parent: n}
	n.Children = append(n.Children, c)
	return c
}

// IsLeaf reports whether n has no children.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// Size returns the number of nodes in p.
func (p *Pattern) Size() int {
	count := 0
	p.Walk(func(*Node) bool { count++; return true })
	return count
}

// Walk visits the pattern's nodes preorder; fn returning false aborts.
func (p *Pattern) Walk(fn func(n *Node) bool) {
	var rec func(n *Node) bool
	rec = func(n *Node) bool {
		if !fn(n) {
			return false
		}
		for _, c := range n.Children {
			if !rec(c) {
				return false
			}
		}
		return true
	}
	rec(p.Root)
}

// Nodes returns all nodes in preorder.
func (p *Pattern) Nodes() []*Node {
	var out []*Node
	p.Walk(func(n *Node) bool { out = append(out, n); return true })
	return out
}

// Leaves returns the leaf nodes of p in preorder. (LEAF(Q) in §IV-A.)
func (p *Pattern) Leaves() []*Node {
	var out []*Node
	p.Walk(func(n *Node) bool {
		if n.IsLeaf() {
			out = append(out, n)
		}
		return true
	})
	return out
}

// Spine returns the path of nodes from the root to the answer node,
// inclusive.
func (p *Pattern) Spine() []*Node {
	var rev []*Node
	for n := p.Ret; n != nil; n = n.Parent {
		rev = append(rev, n)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Depth returns the number of labelled steps on the longest root-to-leaf
// path (the paper's max_depth knob counts steps, i.e. nodes).
func (p *Pattern) Depth() int {
	var rec func(n *Node) int
	rec = func(n *Node) int {
		best := 0
		for _, c := range n.Children {
			if d := rec(c); d > best {
				best = d
			}
		}
		return best + 1
	}
	return rec(p.Root)
}

// AncestorOrSelf reports whether a is an ancestor of b or b itself,
// within the same pattern.
func AncestorOrSelf(a, b *Node) bool {
	for n := b; n != nil; n = n.Parent {
		if n == a {
			return true
		}
	}
	return false
}

// Clone deep-copies the pattern, preserving the answer-node designation.
func (p *Pattern) Clone() *Pattern {
	var ret *Node
	var rec func(n *Node) *Node
	rec = func(n *Node) *Node {
		cp := &Node{Label: n.Label, Axis: n.Axis}
		if len(n.Attrs) > 0 {
			cp.Attrs = append([]AttrPred(nil), n.Attrs...)
		}
		for _, c := range n.Children {
			cc := rec(c)
			cc.Parent = cp
			cp.Children = append(cp.Children, cc)
		}
		if n == p.Ret {
			ret = cp
		}
		return cp
	}
	root := rec(p.Root)
	if ret == nil {
		ret = root
	}
	return &Pattern{Root: root, Ret: ret}
}

// SubtreeAt returns a new Pattern whose root is a copy of the subtree at
// n. The answer node is p.Ret's copy when p.Ret lies in the subtree, the
// new root otherwise. The new root keeps n's axis.
func (p *Pattern) SubtreeAt(n *Node) *Pattern {
	sub := &Pattern{Root: n, Ret: n}
	if AncestorOrSelf(n, p.Ret) {
		sub.Ret = p.Ret
	}
	return sub.Clone()
}

// Validate checks structural invariants: mutual parent/child links, the
// answer node belonging to the tree, and non-empty labels.
func (p *Pattern) Validate() error {
	if p.Root == nil {
		return fmt.Errorf("pattern: nil root")
	}
	foundRet := false
	var rec func(n *Node) error
	rec = func(n *Node) error {
		if n.Label == "" {
			return fmt.Errorf("pattern: empty label")
		}
		if n == p.Ret {
			foundRet = true
		}
		for _, c := range n.Children {
			if c.Parent != n {
				return fmt.Errorf("pattern: node %q has a child %q with a broken parent link", n.Label, c.Label)
			}
			if err := rec(c); err != nil {
				return err
			}
		}
		return nil
	}
	if p.Root.Parent != nil {
		return fmt.Errorf("pattern: root has a parent")
	}
	if err := rec(p.Root); err != nil {
		return err
	}
	if p.Ret == nil || !foundRet {
		return fmt.Errorf("pattern: answer node not in tree")
	}
	return nil
}

// String renders the pattern in XPath syntax. Branches are emitted in a
// canonical (sorted) order so that equal patterns render identically; the
// answer-node position is the main path, predicates are bracketed.
func (p *Pattern) String() string {
	var b strings.Builder
	spine := p.Spine()
	onSpine := make(map[*Node]bool, len(spine))
	for _, n := range spine {
		onSpine[n] = true
	}
	for i, n := range spine {
		b.WriteString(n.Axis.String())
		b.WriteString(n.Label)
		for _, a := range n.Attrs {
			b.WriteString("[")
			b.WriteString(a.String())
			b.WriteString("]")
		}
		preds := make([]string, 0, len(n.Children))
		for _, c := range n.Children {
			if onSpine[c] && i+1 < len(spine) && spine[i+1] == c {
				continue
			}
			preds = append(preds, predString(c))
		}
		sort.Strings(preds)
		for _, s := range preds {
			b.WriteString("[")
			b.WriteString(s)
			b.WriteString("]")
		}
	}
	return b.String()
}

// predString renders a predicate subtree in relative XPath form: the
// top step of a predicate uses "." for a child axis (implicitly) and
// ".//" for a descendant axis.
func predString(n *Node) string {
	var b strings.Builder
	writePredNode(&b, n, true)
	return b.String()
}

func writePredNode(b *strings.Builder, n *Node, first bool) {
	if first {
		if n.Axis == Descendant {
			b.WriteString(".//")
		}
	} else {
		b.WriteString(n.Axis.String())
	}
	b.WriteString(n.Label)
	for _, a := range n.Attrs {
		b.WriteString("[")
		b.WriteString(a.String())
		b.WriteString("]")
	}
	if len(n.Children) == 0 {
		return
	}
	// The first child continues the path, other children become nested
	// predicates; render in sorted order via collected strings.
	parts := make([]string, 0, len(n.Children))
	for _, c := range n.Children {
		var cb strings.Builder
		writePredNode(&cb, c, false)
		parts = append(parts, cb.String())
	}
	sort.Strings(parts)
	// Longest part continues the path for readability; the rest bracket.
	main := 0
	for i, s := range parts {
		if len(s) > len(parts[main]) {
			main = i
		}
	}
	for i, s := range parts {
		if i == main {
			continue
		}
		b.WriteString("[")
		if strings.HasPrefix(s, "/") && !strings.HasPrefix(s, "//") {
			s = s[1:]
		} else if strings.HasPrefix(s, "//") {
			s = "." + s
		}
		b.WriteString(s)
		b.WriteString("]")
	}
	s := parts[main]
	b.WriteString(s)
}

// Equal reports whether p and q are identical as unordered trees with the
// same answer-node position. It is a syntactic check (up to sibling
// order), not semantic equivalence; use Equivalent for the latter.
func (p *Pattern) Equal(q *Pattern) bool {
	return nodeEqual(p.Root, q.Root, p.Ret, q.Ret)
}

func nodeEqual(a, b *Node, retA, retB *Node) bool {
	if a.Label != b.Label || a.Axis != b.Axis || len(a.Children) != len(b.Children) {
		return false
	}
	if (a == retA) != (b == retB) {
		return false
	}
	if !attrsEqual(a.Attrs, b.Attrs) {
		return false
	}
	// Unordered children: try to match them one-to-one (sizes are tiny).
	used := make([]bool, len(b.Children))
	for _, ca := range a.Children {
		ok := false
		for i, cb := range b.Children {
			if used[i] {
				continue
			}
			if nodeEqual(ca, cb, retA, retB) {
				used[i] = true
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

func attrsEqual(a, b []AttrPred) bool {
	if len(a) != len(b) {
		return false
	}
	used := make([]bool, len(b))
	for _, x := range a {
		ok := false
		for i, y := range b {
			if !used[i] && x == y {
				used[i] = true
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}
