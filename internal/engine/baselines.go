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
// index support" — is the navigational walk of AnswersWithin over the
// whole document: top down, each node visited once, predicates checked
// by navigating below the candidate. It reads no index.
//
// BF — "full index support to accelerate query performance" — combines
// the label index with a root-label-path index (every distinct root-to-
// node label-path, pre-materialized): a branch-free, wildcard-free,
// child-only pattern is one path-index lookup, anything else runs the
// structural-join evaluator AnswersFastBudget over the label index. The
// paper observes BF's index is ~4× the size of BN's (635 MB vs 150 MB
// for a 56 MB document); IndexBytes reports an equivalent accounting
// here.

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

// EvalBudget is Eval under a cancellation/step budget: the walk charges
// one step per visited node and aborts with the budget's error. A nil
// budget never aborts.
func (e *BN) EvalBudget(q *pattern.Pattern, b *budget.B) ([]*xmltree.Node, error) {
	if err := fpBN.Fire(); err != nil {
		return nil, err
	}
	out, _, err := AnswersWithin(q.Spine(), e.t.Root(), b)
	return out, err
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
