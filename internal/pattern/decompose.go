package pattern

import (
	"slices"
	"sort"
	"strings"
)

// A Path is a path pattern: a branch-free pattern represented as a list of
// steps. It is the currency of the VFilter: views and queries are
// decomposed into Paths (§III-A), normalized (§III-C), and turned into
// strings over the filter's alphabet (§III-B).
type Path struct {
	Steps []Step
}

// Step is one location step of a path pattern.
type Step struct {
	Axis  Axis
	Label string // element label or Wildcard
}

// Len returns the number of labels in the path — the quantity "l" stored
// in the sorted lists LIST(Pi) of Algorithm 1.
func (p Path) Len() int { return len(p.Steps) }

// String renders the path in XPath syntax, e.g. "//s/*//t".
func (p Path) String() string {
	var b strings.Builder
	for _, s := range p.Steps {
		b.WriteString(s.Axis.String())
		b.WriteString(s.Label)
	}
	return b.String()
}

// Key returns a map key identifying the path exactly.
func (p Path) Key() string { return p.String() }

// Clone returns an independent copy.
func (p Path) Clone() Path {
	return Path{Steps: append([]Step(nil), p.Steps...)}
}

// Decompose returns D(P): the set of distinct root-to-leaf path patterns
// of p, in first-occurrence order (§III-A). Attribute predicates are not
// part of path decomposition — the paper's VFilter is structural only
// (§VI-B "we do not generate attribute predicates ... since we aim at
// verifying the efficiency of VFILTER for structural filtering").
func Decompose(p *Pattern) []Path {
	var out []Path
	seen := make(map[string]struct{})
	var steps []Step
	var rec func(n *Node)
	rec = func(n *Node) {
		steps = append(steps, Step{Axis: n.Axis, Label: n.Label})
		if n.IsLeaf() {
			path := Path{Steps: append([]Step(nil), steps...)}
			if k := path.Key(); k != "" {
				if _, dup := seen[k]; !dup {
					seen[k] = struct{}{}
					out = append(out, path)
				}
			}
		}
		for _, c := range n.Children {
			rec(c)
		}
		steps = steps[:len(steps)-1]
	}
	rec(p.Root)
	return out
}

// DecomposeNormalized returns the normalized decomposition of p with
// duplicates (after normalization) removed. This is what both VFilter
// construction and query-side filtering consume.
func DecomposeNormalized(p *Pattern) []Path {
	raw := Decompose(p)
	var out []Path
	seen := make(map[string]struct{})
	for _, path := range raw {
		n := Normalize(path)
		if k := n.Key(); k != "" {
			if _, dup := seen[k]; !dup {
				seen[k] = struct{}{}
				out = append(out, n)
			}
		}
	}
	return out
}

// PathAttrs is a normalized path pattern together with the distinct
// attribute-predicate names its nodes carry — the information the
// attribute-pruning VFILTER extension (§VII future work) indexes.
type PathAttrs struct {
	Path Path
	// Attrs holds sorted, distinct attribute names appearing on the
	// path's nodes.
	Attrs []string
}

// DecomposeNormalizedWithAttrs is DecomposeNormalized plus, per surviving
// path, the attribute names along it. When two root-to-leaf paths
// normalize identically their attribute sets are intersected — the right
// semantics for the *view* side of attribute pruning: a view path may
// only demand names that every occurrence carries. The query side uses
// DecomposeNormalizedWithAttrsUnion.
func DecomposeNormalizedWithAttrs(p *Pattern) []PathAttrs {
	return decomposeAttrs(p, intersectSorted)
}

// DecomposeNormalizedWithAttrsUnion unions attribute names of identically
// normalizing paths — the query side of attribute pruning, where any
// occurrence satisfying a requirement suffices (over-approximation keeps
// the filter free of false negatives).
func DecomposeNormalizedWithAttrsUnion(p *Pattern) []PathAttrs {
	return decomposeAttrs(p, unionSorted)
}

func decomposeAttrs(p *Pattern, combine func(a, b []string) []string) []PathAttrs {
	var out []PathAttrs
	index := make(map[string]int)
	var steps []Step
	var names []string
	var rec func(n *Node)
	rec = func(n *Node) {
		steps = append(steps, Step{Axis: n.Axis, Label: n.Label})
		mark := len(names)
		for _, a := range n.Attrs {
			names = append(names, a.Name)
		}
		if n.IsLeaf() {
			norm := Normalize(Path{Steps: append([]Step(nil), steps...)})
			key := norm.Key()
			attrs := sortedDistinct(names)
			if i, dup := index[key]; dup {
				out[i].Attrs = combine(out[i].Attrs, attrs)
			} else {
				index[key] = len(out)
				out = append(out, PathAttrs{Path: norm, Attrs: attrs})
			}
		}
		for _, c := range n.Children {
			rec(c)
		}
		steps = steps[:len(steps)-1]
		names = names[:mark]
	}
	rec(p.Root)
	return out
}

func sortedDistinct(in []string) []string {
	if len(in) == 0 {
		return nil
	}
	cp := append([]string(nil), in...)
	sort.Strings(cp)
	out := cp[:1]
	for _, s := range cp[1:] {
		if s != out[len(out)-1] {
			out = append(out, s)
		}
	}
	return out
}

func unionSorted(a, b []string) []string {
	var out []string
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i >= len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func intersectSorted(a, b []string) []string {
	var out []string
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return out
}

// SubsetSorted reports whether every element of sub (sorted) appears in
// super (sorted).
func SubsetSorted(sub, super []string) bool {
	j := 0
	for _, s := range sub {
		for j < len(super) && super[j] < s {
			j++
		}
		if j >= len(super) || super[j] != s {
			return false
		}
	}
	return true
}

// Normalize returns N(P) (§III-C): within every maximal run of wildcard
// steps (a subsequence l0 α1 * α2 * ... αn * αn+1 ln+1 where only
// wildcards appear between the anchor labels), if any of the run's edges
// is a descendant edge, the run is rewritten so that the descendant edge
// comes first and all remaining edges are child edges. Runs touching the
// ends of the path (leading or trailing wildcards) are treated the same
// way, anchored at the virtual root or at the leaf.
//
// The rewrite preserves equivalence: both forms say "at least n+1 edges,
// at least one of them unconstrained in length", with the same wildcard
// count. Proposition 3.2: equivalent path patterns normalize identically.
func Normalize(p Path) Path {
	steps := append([]Step(nil), p.Steps...)
	i := 0
	for i < len(steps) {
		if steps[i].Label != Wildcard {
			i++
			continue
		}
		// [i, j) is a maximal run of wildcard steps.
		j := i
		for j < len(steps) && steps[j].Label == Wildcard {
			j++
		}
		// The run's edges are the axes of steps i..j-1 (edges entering
		// each wildcard) plus, if a labelled step follows, the axis of
		// step j (the edge leaving the run).
		hasDesc := false
		for k := i; k < j; k++ {
			if steps[k].Axis == Descendant {
				hasDesc = true
			}
		}
		if j < len(steps) && steps[j].Axis == Descendant {
			hasDesc = true
		}
		if hasDesc {
			steps[i].Axis = Descendant
			for k := i + 1; k < j; k++ {
				steps[k].Axis = Child
			}
			if j < len(steps) {
				steps[j].Axis = Child
			}
		}
		i = j + 1
	}
	return Path{Steps: steps}
}

// The VFilter alphabet (§III-B): element labels, the wildcard symbol, and
// the descendant-axis marker. The paper prints the marker as a special
// character; we use "^".
const (
	// SymWildcard is the input symbol for a wildcard step label.
	SymWildcard = Wildcard
	// SymDescend is the input symbol marking a descendant axis.
	SymDescend = "^"
)

// Str converts a (normalized) path pattern into the VFilter input string
// STR(P): each step contributes the descendant marker when its axis is
// '//' followed by its label symbol (§III-B). The result is a slice of
// symbols rather than a concatenated string so that multi-character
// element labels stay unambiguous.
func Str(p Path) []string { return AppendStr(nil, p) }

// AppendStr appends STR(p) to dst and returns the extended slice, so a
// caller reading many paths can reuse one symbol buffer.
func AppendStr(dst []string, p Path) []string {
	dst = slices.Grow(dst, 2*len(p.Steps))
	for _, s := range p.Steps {
		if s.Axis == Descendant {
			dst = append(dst, SymDescend)
		}
		dst = append(dst, s.Label)
	}
	return dst
}

// PathPattern converts a Path into an equivalent branch-free Pattern whose
// answer node is the final step.
func (p Path) Pattern() *Pattern {
	if len(p.Steps) == 0 {
		return nil
	}
	root := NewNode(p.Steps[0].Label, p.Steps[0].Axis)
	cur := root
	for _, s := range p.Steps[1:] {
		cur = cur.AddChild(s.Label, s.Axis)
	}
	return &Pattern{Root: root, Ret: cur}
}

// PathOf converts a branch-free pattern into a Path; ok is false when pat
// has branches.
func PathOf(pat *Pattern) (Path, bool) {
	var steps []Step
	for n := pat.Root; ; n = n.Children[0] {
		steps = append(steps, Step{Axis: n.Axis, Label: n.Label})
		if len(n.Children) == 0 {
			return Path{Steps: steps}, true
		}
		if len(n.Children) > 1 {
			return Path{}, false
		}
	}
}
