package rewrite

import (
	"xpathviews/internal/budget"
	"xpathviews/internal/faults"
	"xpathviews/internal/pattern"
	"xpathviews/internal/views"
)

// fpContained is the chaos-test fault point for contained rewriting.
var fpContained = faults.New("rewrite.contained")

// This file implements the second of §VII's planned extensions: "maximal
// rewriting using multiple views in data integration scenario". When no
// equivalent rewriting exists, a *contained* rewriting returns a sound
// subset of the query's answers — every reported node is a true answer,
// but some answers may be missing. This is the classic fallback when
// views, not base data, are all that is accessible.
//
// A view V contributes its fragments when a homomorphism from Q into V
// maps RET(Q) onto RET(V) (respecting root axes): V's pattern is then at
// least as restrictive as Q around the same answer position, so every
// materialized answer of V satisfies Q. The result is the union over all
// such views — maximal for this single-view certification rule.

// ContainedResult is a contained rewriting of a query over a view set.
// Its answers are always a subset of the query's true answers; Complete
// reports whether some view certified equivalence (V ≡ Q at the answer
// position in both directions), in which case the subset is exact.
type ContainedResult struct {
	Answers []Answer
	// ViewsUsed lists contributing view IDs.
	ViewsUsed []int
	// Complete reports that the union is known to be the full answer set.
	Complete bool
}

// ContainedBudget runs the contained rewriting under a cancellation/step
// budget (nil: unbounded): each candidate view charges one homomorphism
// check, each contributed fragment one step. On error the partial result
// is discarded.
func ContainedBudget(q *pattern.Pattern, all []*views.View, b *budget.B) (*ContainedResult, error) {
	if err := fpContained.Fire(); err != nil {
		return nil, err
	}
	res := &ContainedResult{}
	for _, v := range all {
		if v == nil || v.IsEmpty() {
			continue
		}
		if err := b.Hom(); err != nil {
			return nil, err
		}
		if !answersContained(q, v.Pattern) {
			continue
		}
		res.ViewsUsed = append(res.ViewsUsed, v.ID)
		if !res.Complete && answersContained(v.Pattern, q) {
			// Mutual containment at the answer position: V's answers are
			// exactly Q's.
			res.Complete = true
		}
		for fi := range v.Fragments {
			f := &v.Fragments[fi]
			if err := b.Step(1); err != nil {
				return nil, err
			}
			res.Answers = append(res.Answers, Answer{Code: f.Code, Node: f.Tree.Root()})
		}
	}
	// Views overlap: the stable sort keeps view order, then fragment
	// order, among equal codes, so the dedup keeps the first-seen answer.
	res.Answers = dedupAnswers(sortAnswers(res.Answers))
	return res, nil
}

// answersContained reports that every answer of inner is an answer of
// outer: a homomorphism from outer into inner mapping RET(outer) onto
// RET(inner). (Sound; incomplete in the usual homomorphism corners.)
func answersContained(outer, inner *pattern.Pattern) bool {
	h := pattern.NewHom(outer, inner)
	for _, m := range h.SpineMappings() {
		if m.Ret() == inner.Ret {
			return true
		}
	}
	return false
}
