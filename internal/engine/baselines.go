package engine

import (
	"xpathviews/internal/budget"
	"xpathviews/internal/faults"
	"xpathviews/internal/pattern"
	"xpathviews/internal/xmltree"
)

// Fault points at the baseline-evaluator stage boundaries (chaos tests).
var (
	fpBN = faults.New("engine.bn")
	fpBF = faults.New("engine.bf")
)

// This file implements the two direct-evaluation baselines of §VI.
//
// BN — "executing queries directly on the XML database with basic node
// index support" — is a navigational evaluator: it walks the tree top
// down, re-scanning subtrees for every descendant step. Its only index is
// the label→nodes list, used to seed descendant steps at the root.
//
// BF — "full index support to accelerate query performance" — combines
// the label index with a root-label-path index (every distinct root-to-
// node label-path, pre-materialized) and falls back to the linear-time
// matcher for patterns the path index cannot answer alone. The paper
// observes BF's index is ~4× the size of BN's (635 MB vs 150 MB for a
// 56 MB document); IndexBytes reports an equivalent accounting here.

// BN is the navigational baseline evaluator.
type BN struct {
	t *xmltree.Tree
}

// NewBN prepares a BN evaluator for t.
func NewBN(t *xmltree.Tree) *BN { return &BN{t: t} }

// Eval returns the answers of q on the document, in document order.
func (e *BN) Eval(q *pattern.Pattern) []*xmltree.Node {
	out, _ := e.EvalBudget(q, nil)
	return out
}

// EvalBudget is Eval under a cancellation/step budget: the navigational
// walk charges one step per visited candidate node and aborts with the
// budget's error. A nil budget never aborts.
func (e *BN) EvalBudget(q *pattern.Pattern, b *budget.B) ([]*xmltree.Node, error) {
	if err := fpBN.Fire(); err != nil {
		return nil, err
	}
	// Navigational: maintain the set of data nodes matched by the
	// current pattern node, found by walking, then check predicates by
	// recursive exploration. Deliberately index-free.
	seen := make(map[*xmltree.Node]bool)
	var out []*xmltree.Node
	var berr error
	spine := q.Spine()
	var walk func(step int, from *xmltree.Node, self bool)
	walk = func(step int, from *xmltree.Node, self bool) {
		pn := spine[step]
		var try func(dn *xmltree.Node)
		try = func(dn *xmltree.Node) {
			if berr != nil {
				return
			}
			if berr = b.Step(1); berr != nil {
				return
			}
			if matchNodeNav(pn, dn, spine, step) {
				if step == len(spine)-1 {
					if !seen[dn] {
						seen[dn] = true
						out = append(out, dn)
					}
				} else {
					walk(step+1, dn, false)
				}
			}
		}
		if pn.Axis == pattern.Child {
			if self {
				try(from)
			} else {
				for _, c := range from.Children {
					try(c)
				}
			}
		} else {
			var rec func(dn *xmltree.Node)
			rec = func(dn *xmltree.Node) {
				for _, c := range dn.Children {
					if berr != nil {
						return
					}
					try(c)
					rec(c)
				}
			}
			if self {
				try(from)
			}
			rec(from)
		}
	}
	// The virtual document root: treat the real root as the only child.
	virtual := &xmltree.Node{Children: []*xmltree.Node{e.t.Root()}}
	walk(0, virtual, false)
	if berr != nil {
		return nil, berr
	}
	SortNodes(e.t, out)
	return out, nil
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

// BF is the fully indexed baseline evaluator.
type BF struct {
	t     *xmltree.Tree
	label *LabelIndex
	// paths maps a root label-path (joined with '/') to its nodes in
	// document order.
	paths map[string][]*xmltree.Node
	bytes int
}

// NewBF builds all BF indexes for t.
func NewBF(t *xmltree.Tree) *BF {
	e := &BF{t: t, label: BuildLabelIndex(t), paths: make(map[string][]*xmltree.Node)}
	var path []byte
	var walk func(n *xmltree.Node)
	walk = func(n *xmltree.Node) {
		mark := len(path)
		if len(path) > 0 {
			path = append(path, '/')
		}
		path = append(path, n.Label...)
		key := string(path)
		e.paths[key] = append(e.paths[key], n)
		for _, c := range n.Children {
			walk(c)
		}
		path = path[:mark]
	}
	walk(t.Root())
	for k, v := range e.paths {
		e.bytes += len(k) + 8*len(v)
	}
	for k, v := range e.label.byLabel {
		e.bytes += len(k) + 8*len(v)
	}
	return e
}

// IndexBytes reports an accounting of the index footprint, the analogue
// of the paper's 635 MB full-index figure.
func (e *BF) IndexBytes() int { return e.bytes }

// Eval answers q. Branch-free, wildcard-free, child-only patterns are
// answered straight from the path index; everything else uses the
// linear-time matcher seeded by the label index.
func (e *BF) Eval(q *pattern.Pattern) []*xmltree.Node {
	out, _ := e.EvalBudget(q, nil)
	return out
}

// EvalBudget is Eval under a cancellation/step budget. Pure path-index
// lookups are charged one step; structural-join evaluation is budgeted
// inside AnswersFastBudget.
func (e *BF) EvalBudget(q *pattern.Pattern, b *budget.B) ([]*xmltree.Node, error) {
	if err := fpBF.Fire(); err != nil {
		return nil, err
	}
	if err := b.Step(1); err != nil {
		return nil, err
	}
	if p, ok := pattern.PathOf(q); ok && q.Root.Axis == pattern.Child && q.Ret.IsLeaf() {
		pure := true
		var key []byte
		for i, s := range p.Steps {
			if s.Axis != pattern.Child || s.Label == pattern.Wildcard {
				pure = false
				break
			}
			if i > 0 {
				key = append(key, '/')
			}
			key = append(key, s.Label...)
		}
		for n := q.Root; pure && n != nil; {
			if len(n.Attrs) > 0 {
				pure = false
				break
			}
			if len(n.Children) == 0 {
				break
			}
			n = n.Children[0]
		}
		if pure {
			return e.paths[string(key)], nil
		}
	}
	// Quick reject: a required label that does not occur at all.
	reject := false
	q.Walk(func(n *pattern.Node) bool {
		if n.Label != pattern.Wildcard && e.label.Count(n.Label) == 0 {
			reject = true
			return false
		}
		return true
	})
	if reject {
		return nil, nil
	}
	return AnswersFastBudget(e.t, e.label, q, b)
}
