package advisor

// Candidate generation: from workload queries to view patterns worth
// trial-materializing. Each generalization makes the candidate contain
// more queries (a homomorphism from the view into the query is what
// selection needs, §IV-A), at the price of materializing more bytes:
//
//   - verbatim: the query itself as a view;
//   - spine prefixes: the root→x path alone for every spine node x —
//     anchoring the view higher covers every leaf below x by the
//     compensating query (mode (a) of the leaf cover), so one prefix
//     view can serve many sibling queries;
//   - attr-stripping: the same minus attribute predicates;
//   - axis widening: every edge relaxed to descendant;
//   - wildcard steps: one spine label at a time replaced by '*';
//   - pairwise least-general generalizations (LGG) of frequent queries —
//     the prefix/branch merging of query-clustering approaches.
//
// Candidates that generalize to the universe (no concrete label left)
// are pruned here; candidates that are unsatisfiable on the document
// (empty trial materialization) or blow the per-view byte cap are pruned
// by Advise after trial materialization.

import (
	"sort"

	"xpathviews/internal/pattern"
)

// Candidate is one view pattern proposed for materialization.
type Candidate struct {
	Pattern *pattern.Pattern
	// Key is the canonical (minimized) string form, the dedup identity.
	Key string
	// Source names the generalization that produced the candidate.
	Source string
}

// GenerateCandidates derives deduplicated candidate view patterns from
// the (already minimized) workload queries. freqs aligns with qs; the
// lggTop most frequent queries are additionally generalized pairwise.
func GenerateCandidates(qs []*pattern.Pattern, freqs []int, lggTop int) []*Candidate {
	g := &candGen{seen: make(map[string]bool)}
	for _, q := range qs {
		g.add(q, "verbatim")
		spine := q.Spine()
		for i := range spine {
			g.add(spinePrefix(spine, i, true), "prefix")
			g.add(spinePrefix(spine, i, false), "prefix-noattr")
		}
		g.add(widen(q), "widen")
		// Wildcard one spine step at a time on the branch-free form.
		if len(spine) >= 2 {
			for i := range spine {
				g.add(wildcardStep(spine, i), "wildcard")
			}
		}
	}
	// Pairwise LGG over the most frequent queries.
	order := make([]int, len(qs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if freqs[order[a]] != freqs[order[b]] {
			return freqs[order[a]] > freqs[order[b]]
		}
		return order[a] < order[b]
	})
	if lggTop > len(order) {
		lggTop = len(order)
	}
	for a := 0; a < lggTop; a++ {
		for b := a + 1; b < lggTop; b++ {
			if p := lgg(qs[order[a]], qs[order[b]]); p != nil {
				g.add(p, "lgg")
			}
		}
	}
	return g.out
}

type candGen struct {
	seen map[string]bool
	out  []*Candidate
}

func (g *candGen) add(p *pattern.Pattern, source string) {
	if p == nil {
		return
	}
	p = pattern.Minimize(p)
	if IsUniverse(p) {
		return
	}
	key := p.String()
	if g.seen[key] {
		return
	}
	g.seen[key] = true
	g.out = append(g.out, &Candidate{Pattern: p, Key: key, Source: source})
}

// IsUniverse reports a pattern with no concrete label at all — its
// materialization would be (nearly) the whole document, e.g. //* or
// //*//*. Such candidates are never worth proposing.
func IsUniverse(p *pattern.Pattern) bool {
	concrete := false
	p.Walk(func(n *pattern.Node) bool {
		if n.Label != pattern.Wildcard {
			concrete = true
			return false
		}
		return true
	})
	return !concrete
}

// spinePrefix builds the branch-free path root→spine[i], answer node at
// the end. keepAttrs retains the spine nodes' attribute predicates.
func spinePrefix(spine []*pattern.Node, i int, keepAttrs bool) *pattern.Pattern {
	var root, cur *pattern.Node
	for j := 0; j <= i; j++ {
		n := spine[j]
		if cur == nil {
			cur = pattern.NewNode(n.Label, n.Axis)
			root = cur
		} else {
			cur = cur.AddChild(n.Label, n.Axis)
		}
		if keepAttrs {
			cur.Attrs = append([]pattern.AttrPred(nil), n.Attrs...)
		}
	}
	return &pattern.Pattern{Root: root, Ret: cur}
}

// widen clones q with every edge relaxed to the descendant axis.
func widen(q *pattern.Pattern) *pattern.Pattern {
	c := q.Clone()
	c.Walk(func(n *pattern.Node) bool {
		n.Axis = pattern.Descendant
		return true
	})
	return c
}

// wildcardStep is the branch-free spine with step i's label replaced by
// '*' (and its attribute predicates dropped: a wildcard step is a pure
// structural placeholder).
func wildcardStep(spine []*pattern.Node, i int) *pattern.Pattern {
	p := spinePrefix(spine, len(spine)-1, true)
	cur := p.Root
	for j := 0; j < i; j++ {
		cur = cur.Children[0]
	}
	cur.Label = pattern.Wildcard
	cur.Attrs = nil
	return p
}

// lgg is the least general generalization of two queries' spines: the
// longest common prefix where differing labels become wildcards,
// differing axes become descendant, and only shared attribute
// predicates survive. Returns nil when the result carries no concrete
// label.
func lgg(a, b *pattern.Pattern) *pattern.Pattern {
	sa, sb := a.Spine(), b.Spine()
	n := len(sa)
	if len(sb) < n {
		n = len(sb)
	}
	var root, cur *pattern.Node
	for i := 0; i < n; i++ {
		label := sa[i].Label
		if label != sb[i].Label {
			label = pattern.Wildcard
		}
		axis := sa[i].Axis
		if axis != sb[i].Axis {
			axis = pattern.Descendant
		}
		if cur == nil {
			cur = pattern.NewNode(label, axis)
			root = cur
		} else {
			cur = cur.AddChild(label, axis)
		}
		if label != pattern.Wildcard {
			cur.Attrs = sharedAttrs(sa[i].Attrs, sb[i].Attrs)
		}
	}
	if root == nil {
		return nil
	}
	p := &pattern.Pattern{Root: root, Ret: cur}
	if IsUniverse(p) {
		return nil
	}
	return p
}

// sharedAttrs returns the predicates present in both lists.
func sharedAttrs(a, b []pattern.AttrPred) []pattern.AttrPred {
	var out []pattern.AttrPred
	for _, x := range a {
		for _, y := range b {
			if x == y {
				out = append(out, x)
				break
			}
		}
	}
	return out
}
