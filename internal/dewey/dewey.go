// Package dewey implements the extended Dewey encoding of Lu et al. (cited
// as [22] in the paper) together with the finite state transducer (FST)
// that decodes a code back into its root-to-node label-path.
//
// Extended Dewey assigns each node a vector of integers, one per ancestor
// step. Unlike plain Dewey, the component for a node is chosen so that
// `component mod m` identifies the node's label among the m distinct child
// labels of its parent's label. Consequently a code alone — plus the FST,
// which is tiny — reveals the node's entire label-path, which is what lets
// the paper's rewriting join view fragments "without accessing the base
// data" (§II, §V).
package dewey

import (
	"cmp"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"xpathviews/internal/xmltree"
)

// Code is an extended Dewey code: the root's component is always 0 and the
// code of a node extends its parent's code by one component.
type Code []uint32

// Clone returns an independent copy of c.
func (c Code) Clone() Code {
	out := make(Code, len(c))
	copy(out, c)
	return out
}

// String renders the code in dotted form, e.g. "0.8.6".
func (c Code) String() string {
	if len(c) == 0 {
		return ""
	}
	return string(c.AppendTo(make([]byte, 0, 4*len(c))))
}

// AppendTo appends the code's dotted form to dst and returns the
// extended slice: String without the allocation, for encoders that
// write many codes into one buffer.
func (c Code) AppendTo(dst []byte) []byte {
	for i, v := range c {
		if i > 0 {
			dst = append(dst, '.')
		}
		dst = strconv.AppendUint(dst, uint64(v), 10)
	}
	return dst
}

// ParseCode parses the dotted form produced by String. Every component
// is a plain unsigned decimal that fits 32 bits: no sign, no spaces, no
// trailing bytes.
func ParseCode(s string) (Code, error) {
	if s == "" {
		return nil, fmt.Errorf("dewey: empty code")
	}
	parts := strings.Split(s, ".")
	c := make(Code, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseUint(p, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("dewey: bad component %q in %q", p, s)
		}
		c[i] = uint32(v)
	}
	return c, nil
}

// CompareDotted orders codes as their dotted forms (String) sort as
// strings, without rendering them. Components compare as decimal
// strings, where a proper prefix sorts first: '.' and the end of the
// string both sort before any digit, so "1" < "1.2" < "12".
func CompareDotted(a, b Code) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return compareDecimal(a[i], b[i])
		}
	}
	return cmp.Compare(len(a), len(b))
}

// compareDecimal compares x and y by their decimal spellings: the
// longer spelling is cut to the shorter one's digit count, and a tie
// means the shorter spelling is a prefix of the longer and sorts first.
func compareDecimal(x, y uint32) int {
	dx, dy := decimalDigits(x), decimalDigits(y)
	tx, ty := x, y
	for d := dx; d > dy; d-- {
		tx /= 10
	}
	for d := dy; d > dx; d-- {
		ty /= 10
	}
	switch {
	case tx < ty:
		return -1
	case tx > ty:
		return 1
	}
	return cmp.Compare(dx, dy)
}

// decimalDigits is the length of v's decimal spelling.
func decimalDigits(v uint32) int {
	d := 1
	for ; v >= 10; v /= 10 {
		d++
	}
	return d
}

// Compare orders codes in document order: component-wise numeric, with a
// prefix (ancestor) sorting before its extensions.
func Compare(a, b Code) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// IsPrefix reports whether a is a (non-strict) prefix of b, i.e. a encodes
// an ancestor-or-self of b's node.
func IsPrefix(a, b Code) bool {
	if len(a) > len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// IsAncestor reports whether a encodes a proper ancestor of b's node.
func IsAncestor(a, b Code) bool { return len(a) < len(b) && IsPrefix(a, b) }

// IsParent reports whether a encodes the parent of b's node.
func IsParent(a, b Code) bool { return len(a)+1 == len(b) && IsPrefix(a, b) }

// CommonPrefixLen returns the number of leading components a and b
// share. The virtual-tree build uses it to pop its rightmost-path stack
// in one O(min depth) scan per merged code instead of re-checking
// IsPrefix against every popped level.
func CommonPrefixLen(a, b Code) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// CommonPrefix returns the longest common prefix of a and b, i.e. the code
// of the lowest common ancestor.
func CommonPrefix(a, b Code) Code {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return a[:i]
}

// FST is the finite state transducer of the encoding. State identity is an
// element label; for each label it stores the sorted alphabet of child
// labels observed under elements with that label. Decoding a component x in
// state l yields the child alphabet entry at index x mod m.
type FST struct {
	root     string
	children map[string][]string // label → sorted distinct child labels
	index    map[string]map[string]int
}

// BuildFST scans a tree and constructs its FST.
func BuildFST(t *xmltree.Tree) *FST {
	f := &FST{
		root:     t.Root().Label,
		children: make(map[string][]string),
		index:    make(map[string]map[string]int),
	}
	sets := make(map[string]map[string]struct{})
	t.Walk(func(n *xmltree.Node) bool {
		s, ok := sets[n.Label]
		if !ok {
			s = make(map[string]struct{})
			sets[n.Label] = s
		}
		for _, c := range n.Children {
			s[c.Label] = struct{}{}
		}
		return true
	})
	for label, set := range sets {
		alpha := make([]string, 0, len(set))
		for l := range set {
			alpha = append(alpha, l)
		}
		sort.Strings(alpha)
		f.children[label] = alpha
		idx := make(map[string]int, len(alpha))
		for i, l := range alpha {
			idx[l] = i
		}
		f.index[label] = idx
	}
	return f
}

// BuildFSTFromSchema constructs an FST from an explicit schema: for each
// parent label, its child alphabet in the order given. The order determines
// the modulus classes and therefore the exact numeric codes; the paper's
// book example relies on a fixed order (t, a, s under b; t, p, s, f under
// s).
func BuildFSTFromSchema(rootLabel string, childAlphabets map[string][]string) *FST {
	f := &FST{
		root:     rootLabel,
		children: make(map[string][]string, len(childAlphabets)),
		index:    make(map[string]map[string]int, len(childAlphabets)),
	}
	for label, alpha := range childAlphabets {
		cp := make([]string, len(alpha))
		copy(cp, alpha)
		f.children[label] = cp
		idx := make(map[string]int, len(cp))
		for i, l := range cp {
			idx[l] = i
		}
		f.index[label] = idx
	}
	return f
}

// RootLabel returns the label of the document root the FST was built from.
func (f *FST) RootLabel() string { return f.root }

// ChildAlphabet returns the ordered child alphabet of the given label; the
// returned slice must not be modified.
func (f *FST) ChildAlphabet(label string) []string { return f.children[label] }

// ChildIndex returns childLabel's position in parentLabel's child
// alphabet together with the alphabet size m. ok is false when the FST
// has never seen childLabel under parentLabel — the schema constraint
// incremental inserts must respect, because growing an alphabet would
// change m and silently re-label every existing code.
func (f *FST) ChildIndex(parentLabel, childLabel string) (idx, m int, ok bool) {
	alpha := f.index[parentLabel]
	m = len(f.children[parentLabel])
	idx, ok = alpha[childLabel]
	return idx, m, ok
}

// Decode converts a code into its label-path. The first component must be
// 0 (the root). Decode fails if the code is inconsistent with the FST.
func (f *FST) Decode(c Code) ([]string, error) {
	if len(c) == 0 {
		return nil, fmt.Errorf("dewey: decode empty code")
	}
	if c[0] != 0 {
		return nil, fmt.Errorf("dewey: code %s does not start at the root", c)
	}
	path := make([]string, 0, len(c))
	label := f.root
	path = append(path, label)
	for _, comp := range c[1:] {
		alpha := f.children[label]
		m := len(alpha)
		if m == 0 {
			return nil, fmt.Errorf("dewey: label %q has no children in FST, cannot decode %s", label, c)
		}
		label = alpha[int(comp)%m]
		path = append(path, label)
	}
	return path, nil
}

// DecodeAppend appends the label-path of c to buf and returns the
// extended slice. It lets hot paths decode thousands of codes into one
// shared slab instead of allocating per call.
func (f *FST) DecodeAppend(c Code, buf []string) ([]string, error) {
	if len(c) == 0 {
		return buf, fmt.Errorf("dewey: decode empty code")
	}
	if c[0] != 0 {
		return buf, fmt.Errorf("dewey: code %s does not start at the root", c)
	}
	label := f.root
	buf = append(buf, label)
	for _, comp := range c[1:] {
		alpha := f.children[label]
		m := len(alpha)
		if m == 0 {
			return buf, fmt.Errorf("dewey: label %q has no children in FST, cannot decode %s", label, c)
		}
		label = alpha[int(comp)%m]
		buf = append(buf, label)
	}
	return buf, nil
}

// DecodeString is Decode joined with "/" — handy for tests and debugging.
func (f *FST) DecodeString(c Code) (string, error) {
	p, err := f.Decode(c)
	if err != nil {
		return "", err
	}
	return strings.Join(p, "/"), nil
}

// Encoding maps every node of a tree to its extended Dewey code, and
// owns the tree's interned root label-paths (see PathOf).
type Encoding struct {
	fst   *FST
	codes map[*xmltree.Node]Code
	paths pathTable
}

// Encode assigns extended Dewey codes to every node of t under the given
// FST. For the i-th labelled child class of size m, each child receives the
// smallest component greater than its preceding sibling's component that is
// congruent to its label's index modulo m.
func Encode(t *xmltree.Tree, f *FST) (*Encoding, error) {
	e := &Encoding{fst: f, codes: make(map[*xmltree.Node]Code, t.Size())}
	root := t.Root()
	if root.Label != f.root {
		return nil, fmt.Errorf("dewey: tree root %q does not match FST root %q", root.Label, f.root)
	}
	e.codes[root] = Code{0}
	var walk func(n *xmltree.Node) error
	walk = func(n *xmltree.Node) error {
		alpha := f.index[n.Label]
		m := len(alpha)
		if len(n.Children) > 0 && m == 0 {
			return fmt.Errorf("dewey: FST has no child alphabet for %q", n.Label)
		}
		parent := e.codes[n]
		next := uint32(0)
		for _, c := range n.Children {
			i, ok := alpha[c.Label]
			if !ok {
				return fmt.Errorf("dewey: label %q not in child alphabet of %q", c.Label, n.Label)
			}
			comp := next
			if r := comp % uint32(m); r != uint32(i) {
				d := (uint32(i) - r + uint32(m)) % uint32(m)
				comp += d
			}
			code := make(Code, len(parent)+1)
			copy(code, parent)
			code[len(parent)] = comp
			e.codes[c] = code
			next = comp + 1
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(root); err != nil {
		return nil, err
	}
	return e, nil
}

// EncodeTree builds the FST from the tree itself and encodes it.
func EncodeTree(t *xmltree.Tree) (*Encoding, *FST, error) {
	f := BuildFST(t)
	e, err := Encode(t, f)
	if err != nil {
		return nil, nil, err
	}
	return e, f, nil
}

// CodeOf returns the code of n; ok is false when n was not part of the
// encoded tree.
func (e *Encoding) CodeOf(n *xmltree.Node) (Code, bool) {
	c, ok := e.codes[n]
	return c, ok
}

// MustCode is CodeOf for nodes known to be in the tree; it panics otherwise.
func (e *Encoding) MustCode(n *xmltree.Node) Code {
	c, ok := e.codes[n]
	if !ok {
		panic(fmt.Sprintf("dewey: node %q has no code", n.Label))
	}
	return c
}

// Assign records code c for node n. Incremental maintenance uses it to
// extend the encoding over inserted nodes without re-encoding the tree.
func (e *Encoding) Assign(n *xmltree.Node, c Code) { e.codes[n] = c }

// Forget drops n's code after the node leaves the tree.
func (e *Encoding) Forget(n *xmltree.Node) { delete(e.codes, n) }

// Len reports the number of coded nodes.
func (e *Encoding) Len() int { return len(e.codes) }

// FST returns the transducer the encoding was built with.
func (e *Encoding) FST() *FST { return e.fst }
