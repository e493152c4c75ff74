package rewrite

import (
	"slices"
	"sync"
	"sync/atomic"

	"xpathviews/internal/budget"
	"xpathviews/internal/pattern"
	"xpathviews/internal/selection"
	"xpathviews/internal/views"
)

// JoinPlan is the data-independent skeleton of the holistic join for one
// (query, selection) pair: the upper twig (Q restricted to the union of
// the root→X_i paths), the Δ-path marking, the per-node landing views,
// the rigid-anchor pins with their targets resolved to dense query-node
// indexes, which nodes the embed may remember verdicts for, and each
// cover's compensating pattern. Everything here depends only on the
// plan — never on which fragments exist today — so the serving layer
// memoizes it in the plan cache and every query that hits the plan
// skips the skeleton rebuild (and its per-query map) entirely.
type JoinPlan struct {
	// q and covers are what the skeleton was computed against, and what
	// PlanJoin checked answerable; ExecuteOptions recomputes the plan if
	// handed a different pattern or cover object (covers index into q's
	// nodes, and memo — the plan's one data-dependent part — into the
	// Δ-cover's view: identity is the correctness condition).
	q        *pattern.Pattern
	covers   []*selection.Cover
	deltaIdx int
	memo     atomic.Pointer[deltaMemo]

	rootIdx int
	labels  []string       // query node labels by index
	axes    []pattern.Axis // query node axes by index

	keep      []bool    // query node participates in the upper twig
	deltaPath []bool    // query node lies on root→X_Δ
	landAt    [][]int32 // view indexes landing on the query node
	keptKids  [][]int32 // kept children (as node indexes) per query node
	pins      [][]pinRef

	// memoRow numbers the local query nodes and is -1 elsewhere. A node
	// is local when it is kept, off the Δ-path, and every pin of a view
	// landing in its subtree targets a node inside that subtree: whether
	// it embeds at an arena node then depends on that arena node alone,
	// not on the Δ-fragment or on anything assigned above it, and the
	// joiner remembers the verdict for the rest of the join.
	memoRow []int32
	nLocal  int

	// cover[i] is covers[i]'s compensating pattern and root path, which
	// refinement and extraction read on every execution, and deltaSpine
	// the root→answer path of the Δ-cover's, which extraction walks in
	// every joined fragment.
	cover      []coverPlan
	deltaSpine []*pattern.Node
}

// pinRef is a selection.Pin with its target resolved to a query-node
// index, so pin validation in the join's inner loop is an array load
// instead of a map lookup.
type pinRef struct {
	y int32 // query-node index of Pin.Y
	k int32 // Pin.K
}

// deltaMemo is the outcome of stages 1–4 for one JoinPlan, a pure
// function of the plan and the covered views' fragments: while every view
// is at the generation recorded here, an execution returns answers
// without refining, joining or extracting. text holds extraction's
// sorted, duplicate-free answers with cap == len, shared read-only by
// every Result served from the memo, and their code text once a caller
// renders it; the answers' Codes and Nodes alias fragment storage, so a
// memo nobody reads again pins one answer set until its plan is next
// validated or evicted. steps is extraction's budget charge (one per
// joined Δ-fragment), which a hit pays again. empty marks that some view
// refined to nothing (no answers, no stages 3–4).
type deltaMemo struct {
	gens  []uint64 // covers[i].View.Gen when the memo was computed
	text  CodeText
	steps int
	empty bool
}

// plans reports whether p is the skeleton of exactly this pattern and
// these cover objects. A nil plan plans nothing.
func (p *JoinPlan) plans(q *pattern.Pattern, covers []*selection.Cover) bool {
	return p != nil && p.q == q && slices.Equal(p.covers, covers)
}

// memoized returns the remembered outcome if every covered view is still
// at the generation it was computed from. Maintenance bumps View.Gen and
// executions read it under the two sides of the owning System's lock.
func (p *JoinPlan) memoized() *deltaMemo {
	m := p.memo.Load()
	if m == nil {
		return nil
	}
	for i, c := range p.covers {
		if c.View.Gen != m.gens[i] {
			return nil
		}
	}
	return m
}

// remember stamps m with the covered views' generations and leaves it on
// the plan for later executions; concurrent first executions each store
// an equal memo and the last wins.
func (p *JoinPlan) remember(m *deltaMemo) {
	m.gens = make([]uint64, len(p.covers))
	for i, c := range p.covers {
		m.gens[i] = c.View.Gen
	}
	p.memo.Store(m)
}

// PlanJoin computes the join skeleton for q under the selection's
// covers, choosing the Δ-view. It returns selection.ErrNotAnswerable when
// the covers do not answer q (no Δ-cover, or a query leaf no cover
// covers), so a JoinPlan is proof that its (q, covers) pair is
// answerable: the one answerability check of §V's rewriting.
func PlanJoin(q *pattern.Pattern, covers []*selection.Cover) (*JoinPlan, error) {
	if !selection.Answerable(q, covers) {
		return nil, selection.ErrNotAnswerable
	}
	deltaIdx := chooseDelta(covers)
	nodes := q.Nodes()
	n := len(nodes)
	idx := make(map[*pattern.Node]int, n)
	for i, qn := range nodes {
		idx[qn] = i
	}
	p := &JoinPlan{
		q:         q,
		covers:    append([]*selection.Cover(nil), covers...),
		deltaIdx:  deltaIdx,
		rootIdx:   idx[q.Root],
		labels:    make([]string, n),
		axes:      make([]pattern.Axis, n),
		keep:      make([]bool, n),
		deltaPath: make([]bool, n),
		landAt:    make([][]int32, n),
		keptKids:  make([][]int32, n),
		pins:      make([][]pinRef, len(covers)),
	}
	for i, qn := range nodes {
		p.labels[i] = qn.Label
		p.axes[i] = qn.Axis
	}
	for vi, c := range covers {
		for qn := c.X; qn != nil; qn = qn.Parent {
			p.keep[idx[qn]] = true
		}
		xi := idx[c.X]
		p.landAt[xi] = append(p.landAt[xi], int32(vi))
		for _, pin := range c.Pins {
			p.pins[vi] = append(p.pins[vi], pinRef{y: int32(idx[pin.Y]), k: int32(pin.K)})
		}
	}
	for qn := covers[deltaIdx].X; qn != nil; qn = qn.Parent {
		p.deltaPath[idx[qn]] = true
	}
	for i, qn := range nodes {
		for _, c := range qn.Children {
			ci := idx[c]
			if p.keep[ci] {
				p.keptKids[i] = append(p.keptKids[i], int32(ci))
			}
		}
	}
	// A pin of a view landing on X targets an ancestor-or-self Y of X:
	// the nodes from X up to Y's child see an assignment above their own
	// subtree, so they are not local (marked -1 first).
	p.memoRow = make([]int32, n)
	for _, c := range covers {
		for _, pin := range c.Pins {
			for qn := c.X; qn != nil && qn != pin.Y; qn = qn.Parent {
				p.memoRow[idx[qn]] = -1
			}
		}
	}
	for i := range p.memoRow {
		if p.memoRow[i] == 0 && p.keep[i] && !p.deltaPath[i] {
			p.memoRow[i] = int32(p.nLocal)
			p.nLocal++
		} else {
			p.memoRow[i] = -1
		}
	}
	p.cover = make([]coverPlan, len(covers))
	for i, c := range covers {
		p.cover[i] = planCover(q, c.X)
	}
	p.deltaSpine = p.cover[deltaIdx].comp.Spine()
	return p, nil
}

// joiner matches the query's upper pattern on the virtual tree, once per
// Δ-view fragment, reusing all scratch state across fragments. The upper
// pattern is Q restricted to the union of the root→X_i paths: everything
// below an X_i is already verified inside fragments by refinement, and
// predicate branches discharged by rigid guarantees are enforced as pins
// rather than matched structurally.
//
// Once a query node is placed, its kept children embed independently of
// one another: a pin reads only an ancestor-or-self of its view's
// landing node, and that ancestor is assigned before any of its
// descendants are tried. So each child is placed on its own, and no
// placement of one sibling is ever retried for the sake of another. The
// search is a memoized one besides: a local node's verdicts (see
// JoinPlan.memoRow) depend only on the arena node, so they are computed
// once per join rather than once per Δ-fragment, and a branch off the
// Δ-path scans the children or the subtree of each arena node at most
// once.
//
// Instances are pooled (joinerPool) so a steady-state join allocates
// nothing, and the hot placement loops are plain methods. The meter
// that aborts the search is passed down the placement calls rather than
// kept on the pooled joiner, so a caller's meter never escapes to the
// heap through it.
type joiner struct {
	p  *JoinPlan
	vt *vtree

	// assign[qi] is the arena node query node qi is being tried at; a
	// node's ancestors are always those of the placement in progress.
	assign []int32

	chain     []int32 // chain[d] = depth-d ancestor of the anchor
	deltaFrag *views.Fragment

	// verdicts holds two rows per local query node, each with one slot
	// per arena node: row 2r remembers whether local node r embeds at
	// the arena node, row 2r+1 whether it embeds under it along its
	// axis (at a child, or strictly below). They are valid for one
	// joinUpper call.
	verdicts []embedVerdict

	// err, the meter's verdict that aborted the search, sticks once set.
	err error
}

// embedVerdict is one remembered answer of the search.
type embedVerdict uint8

const (
	embedUnknown embedVerdict = iota
	embedNo
	embedYes
)

// joinerPool recycles joiners with their grown scratch arrays, like
// vtPool does for the arena.
var joinerPool = sync.Pool{New: func() any { return &joiner{} }}

// joinUpper returns the Δ-view fragments that participate in at least
// one embedding of the upper pattern in the virtual tree, charging one
// budget step per embedding attempt that runs (a remembered verdict
// charges nothing).
func joinUpper(p *JoinPlan, refined []refinedView, vt *vtree, anchors []int32, b *budget.B) ([]*views.Fragment, error) {
	j := joinerPool.Get().(*joiner)
	defer joinerPool.Put(j)
	return j.join(p, refined, vt, anchors, b)
}

// join is joinUpper on this joiner's scratch. Every verdict starts
// unknown, and the joiner keeps no reference to the plan, the arena or
// a fragment once it returns.
func (j *joiner) join(p *JoinPlan, refined []refinedView, vt *vtree, anchors []int32, b *budget.B) ([]*views.Fragment, error) {
	j.p, j.vt, j.err = p, vt, nil
	defer func() { j.p, j.vt, j.deltaFrag, j.err = nil, nil, nil, nil }()
	n := len(p.labels)
	j.assign = slices.Grow(j.assign[:0], n)[:n]
	n = 2 * p.nLocal * len(vt.nodes)
	j.verdicts = slices.Grow(j.verdicts[:0], n)[:n]
	clear(j.verdicts)
	frags := refined[p.deltaIdx].frags
	out := make([]*views.Fragment, 0, len(frags))
	for fi, frag := range frags {
		if j.embed(b, frag, anchors[fi]) {
			out = append(out, frag)
		}
		if j.err != nil {
			return nil, j.err
		}
	}
	return out, nil
}

// embed reports whether the upper pattern embeds with the Δ landing node
// pinned to this fragment's anchor node.
func (j *joiner) embed(b *budget.B, frag *views.Fragment, anchor int32) bool {
	j.deltaFrag = frag
	// chain[d] = depth-d ancestor of anchor; chain[0] is the document
	// root. Reuse the backing array.
	depth := j.vt.depth(anchor)
	if cap(j.chain) < depth+1 {
		j.chain = make([]int32, depth+1)
	}
	j.chain = j.chain[:depth+1]
	for v := anchor; v >= 0; v = j.vt.nodes[v].parent {
		j.chain[j.vt.depth(v)] = v
	}
	// The query root is on the Δ-path, so it maps onto the anchor chain:
	// a '/'-rooted query at chain[0], a '//'-rooted one anywhere on it.
	rootIdx := j.p.rootIdx
	if j.p.axes[rootIdx] == pattern.Child {
		return j.try(b, rootIdx, j.chain[0])
	}
	for _, v := range j.chain {
		if j.try(b, rootIdx, v) {
			return true
		}
	}
	return false
}

// pinsOK validates every pin of view vi against the candidate fragment.
// A pin targets an ancestor-or-self of the view's landing node, which is
// assigned before the landing node's views are checked.
func (j *joiner) pinsOK(vi int32, frag *views.Fragment) bool {
	for _, p := range j.p.pins[vi] {
		wc := j.vt.nodes[j.assign[p.y]].code
		want := len(frag.Code) - int(p.k)
		if want < 1 || len(wc) != want || !isPrefixCode(wc, frag.Code) {
			return false
		}
	}
	return true
}

func isPrefixCode(w, c []uint32) bool {
	if len(w) > len(c) {
		return false
	}
	for i := range w {
		if w[i] != c[i] {
			return false
		}
	}
	return true
}

// pickFrag returns the first fragment of view vi rooted at arena node at
// whose pins validate (for the Δ-view, only the fragment under test
// itself qualifies — its landing node is pinned to the anchor).
func (j *joiner) pickFrag(at, vi int32) *views.Fragment {
	for e := j.vt.nodes[at].fragHead; e >= 0; e = j.vt.fragEntries[e].next {
		fe := &j.vt.fragEntries[e]
		if fe.view != vi {
			continue
		}
		if int(vi) == j.p.deltaIdx && fe.frag != j.deltaFrag {
			continue
		}
		if j.pinsOK(vi, fe.frag) {
			return fe.frag
		}
	}
	return nil
}

// slot returns local query node qi's remembered verdict at arena node v
// (with under set, whether qi embeds under v along its axis), or nil
// when qi is not local.
func (j *joiner) slot(qi int, v int32, under bool) *embedVerdict {
	r := int(j.p.memoRow[qi])
	if r < 0 {
		return nil
	}
	r *= 2
	if under {
		r++
	}
	return &j.verdicts[r*len(j.vt.nodes)+int(v)]
}

// record leaves a verdict in its slot, unless the search was aborted
// (an aborted search's negatives are not verdicts).
func (j *joiner) record(s *embedVerdict, ok bool) {
	if s == nil || j.err != nil {
		return
	}
	*s = embedNo
	if ok {
		*s = embedYes
	}
}

// try reports whether query node qi embeds at arena node at.
func (j *joiner) try(b *budget.B, qi int, at int32) bool {
	s := j.slot(qi, at, false)
	if s != nil && *s != embedUnknown {
		return *s == embedYes
	}
	ok := j.embedAt(b, qi, at)
	j.record(s, ok)
	return ok
}

// embedAt is one embedding attempt, charged one budget step: qi's label,
// the views landing on it, then each kept child on its own.
func (j *joiner) embedAt(b *budget.B, qi int, at int32) bool {
	if j.err != nil {
		return false
	}
	if j.err = b.Step(1); j.err != nil {
		return false
	}
	if lbl := j.p.labels[qi]; lbl != pattern.Wildcard && lbl != j.vt.nodes[at].label {
		return false
	}
	j.assign[qi] = at
	for _, vi := range j.p.landAt[qi] {
		if j.pickFrag(at, vi) == nil {
			return false
		}
	}
	for _, ci := range j.p.keptKids[qi] {
		if !j.place(b, int(ci), at) {
			return false
		}
	}
	return true
}

// place reports whether kept child ci of a query node placed at arena
// node at embeds where its axis allows: on the anchor chain for a
// Δ-path child, else at a child of at or anywhere below it, scanned in
// document order. For a local ci the verdict is remembered per arena
// node, so one join scans the children or the subtree of an arena node
// for it at most once.
func (j *joiner) place(b *budget.B, ci int, at int32) bool {
	if j.p.deltaPath[ci] {
		// ci maps onto the anchor chain only; its parent must itself sit
		// on the chain.
		d := j.vt.depth(at)
		if d >= len(j.chain) || j.chain[d] != at {
			return false
		}
		if j.p.axes[ci] == pattern.Child {
			return d+1 < len(j.chain) && j.try(b, ci, j.chain[d+1])
		}
		for _, v := range j.chain[d+1:] {
			if j.try(b, ci, v) {
				return true
			}
		}
		return false
	}
	s := j.slot(ci, at, true)
	if s != nil && *s != embedUnknown {
		return *s == embedYes
	}
	child := j.p.axes[ci] == pattern.Child
	ok := false
	for v := j.vt.nodes[at].firstChild; v >= 0 && !ok; v = j.vt.nodes[v].nextSib {
		ok = j.try(b, ci, v) || !child && j.place(b, ci, v)
	}
	j.record(s, ok)
	return ok
}
