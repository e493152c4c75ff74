package rewrite

import (
	"xpathviews/internal/dewey"
	"xpathviews/internal/pattern"
	"xpathviews/internal/selection"
	"xpathviews/internal/views"
)

// ExecuteNaive is the ablation baseline for the holistic join: instead of
// one merged scan into a prefix trie, it enumerates the full cross
// product of refined fragment tuples and re-checks the upper pattern per
// tuple. Semantically identical to ExecuteOptions; asymptotically worse
// in the number of views (the paper's motivation for a holistic
// algorithm).
func ExecuteNaive(q *pattern.Pattern, sel *selection.Selection, fst *dewey.FST) (*Result, error) {
	covers := sel.Covers
	jp, err := PlanJoin(q, covers) // checks answerability
	if err != nil {
		return nil, err
	}
	deltaIdx := jp.deltaIdx
	res := &Result{}

	refined := make([]refinedView, len(covers))
	defer releaseRefined(refined)
	for i, c := range covers {
		if err := refineView(&jp.cover[i], c, &refined[i], nil); err != nil {
			return nil, err
		}
		res.FragmentsScanned += refined[i].scanned
		if len(refined[i].frags) == 0 {
			return res, nil
		}
	}

	dfrags := refined[deltaIdx].frags
	joins := make([]bool, len(dfrags)) // by position in the Δ-view's refined list
	tuple := make([]int, len(covers))
	var rec func(i int)
	rec = func(i int) {
		if i == len(covers) {
			if tupleJoins(jp, refined, tuple, fst) {
				joins[tuple[deltaIdx]] = true
			}
			return
		}
		for fi := range refined[i].frags {
			tuple[i] = fi
			rec(i + 1)
		}
	}
	rec(0)
	var joined []*views.Fragment
	for fi, ok := range joins {
		if ok {
			joined = append(joined, dfrags[fi])
		}
	}
	res.FragmentsJoined = len(joined)
	if err := extract(jp, joined, res, nil); err != nil {
		return nil, err
	}
	return res, nil
}

// tupleJoins re-checks one concrete fragment tuple by building a tiny
// virtual tree from just these codes and matching the upper pattern.
func tupleJoins(jp *JoinPlan, refined []refinedView, tuple []int, fst *dewey.FST) bool {
	mini := make([]refinedView, len(tuple))
	for i, fi := range tuple {
		mini[i] = refinedView{frags: []*views.Fragment{refined[i].frags[fi]}}
	}
	vt, anchors, _ := buildVirtual(fst, mini, jp.deltaIdx)
	joined, err := joinUpper(jp, mini, vt, anchors, nil)
	putVtree(vt)
	return err == nil && len(joined) > 0
}
