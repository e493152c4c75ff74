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
// and the rigid-anchor pins with their targets resolved to dense query-
// node indexes. Everything here depends only on the plan — never on
// which fragments exist today — so the serving layer memoizes it in the
// plan cache and every query that hits the plan skips the skeleton
// rebuild (and its per-query map) entirely.
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

// DeltaIndex exposes the chosen Δ-view's position in the selection's
// cover list (Explain and the bench harness report it).
func (p *JoinPlan) DeltaIndex() int { return p.deltaIdx }

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
	return p, nil
}

// joiner matches the query's upper pattern on the virtual tree, once per
// Δ-view fragment, reusing all scratch state across fragments. The upper
// pattern is Q restricted to the union of the root→X_i paths: everything
// below an X_i is already verified inside fragments by refinement, and
// predicate branches discharged by rigid guarantees are enforced as pins
// rather than matched structurally.
//
// The assignment array has one slot per query node (a minimized query
// has a handful), so embed simply resets it before every fragment.
// Instances are pooled (joinerPool) so a steady-state join allocates
// nothing, and the hot placement loops are plain methods: the
// closure-per-node-visit of the old backtracker was one heap allocation
// per candidate probe. The meter that aborts the search is passed down
// the placement calls rather than kept on the pooled joiner, so a
// caller's meter never escapes to the heap through it.
type joiner struct {
	p  *JoinPlan
	vt *vtree

	assign []int32 // arena node by query-node index; -1 when unassigned

	chain     []int32 // chain[d] = depth-d ancestor of the anchor
	deltaFrag *views.Fragment

	// err, the meter's verdict that aborted the search, sticks once set.
	err error
}

// joinerPool recycles joiners with their grown scratch arrays, like
// vtPool does for the arena.
var joinerPool = sync.Pool{New: func() any { return &joiner{} }}

func acquireJoiner(p *JoinPlan, vt *vtree) *joiner {
	j := joinerPool.Get().(*joiner)
	j.p, j.vt, j.err = p, vt, nil
	n := len(p.labels)
	j.assign = slices.Grow(j.assign[:0], n)[:n]
	return j
}

func releaseJoiner(j *joiner) {
	j.p, j.vt, j.deltaFrag, j.err = nil, nil, nil, nil
	joinerPool.Put(j)
}

// joinUpper returns the Δ-view fragments that participate in at least
// one embedding of the upper pattern in the virtual tree, charging one
// budget step per embedding attempt.
func joinUpper(p *JoinPlan, refined []refinedView, vt *vtree, anchors []int32, b *budget.B) ([]*views.Fragment, error) {
	j := acquireJoiner(p, vt)
	defer releaseJoiner(j)
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
	for i := range j.assign {
		j.assign[i] = -1
	}
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
	if !j.p.keep[rootIdx] {
		return false
	}
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

// pinsOK validates every pin of view vi whose target is already assigned
// against the candidate fragment.
func (j *joiner) pinsOK(vi int32, frag *views.Fragment) bool {
	for _, p := range j.p.pins[vi] {
		w := j.assign[p.y]
		if w < 0 {
			continue // ancestors are always assigned before descendants
		}
		wc := j.vt.nodes[w].code
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

// try assigns query node qi to arena node at and recursively places its
// kept children; on failure all assignments made beneath are rolled back.
func (j *joiner) try(b *budget.B, qi int, at int32) bool {
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
			j.assign[qi] = -1
			return false
		}
	}
	if !j.placeKids(b, qi, at, 0) {
		j.assign[qi] = -1
		return false
	}
	return true
}

// placeKids places the kept children of qi starting from index k.
func (j *joiner) placeKids(b *budget.B, qi int, at int32, k int) bool {
	kids := j.p.keptKids[qi]
	if k == len(kids) {
		return true
	}
	ci := kids[k]
	if j.p.deltaPath[ci] {
		// ci maps onto the anchor chain only; its parent must itself sit
		// on the chain.
		d := j.vt.depth(at)
		if d >= len(j.chain) || j.chain[d] != at {
			return false
		}
		if j.p.axes[ci] == pattern.Child {
			return d+1 < len(j.chain) && j.placeAt(b, ci, j.chain[d+1], qi, at, k)
		}
		for dd := d + 1; dd < len(j.chain); dd++ {
			if j.placeAt(b, ci, j.chain[dd], qi, at, k) {
				return true
			}
		}
		return false
	}
	if j.p.axes[ci] == pattern.Child {
		for v := j.vt.nodes[at].firstChild; v >= 0; v = j.vt.nodes[v].nextSib {
			if j.placeAt(b, ci, v, qi, at, k) {
				return true
			}
		}
		return false
	}
	return j.placeDesc(b, ci, at, qi, at, k)
}

// placeAt tries child query node ci at arena node v, then continues with
// the remaining siblings of the placement in progress.
func (j *joiner) placeAt(b *budget.B, ci, v int32, qi int, at int32, k int) bool {
	if !j.try(b, int(ci), v) {
		return false
	}
	if j.placeKids(b, qi, at, k+1) {
		return true
	}
	j.unassign(int(ci))
	return false
}

// placeDesc scans the arena subtree below root for a placement of ci
// (descendant axis).
func (j *joiner) placeDesc(b *budget.B, ci, root int32, qi int, at int32, k int) bool {
	for ch := j.vt.nodes[root].firstChild; ch >= 0; ch = j.vt.nodes[ch].nextSib {
		if j.placeAt(b, ci, ch, qi, at, k) || j.placeDesc(b, ci, ch, qi, at, k) {
			return true
		}
	}
	return false
}

// unassign rolls back the subtree assignment rooted at query node qi.
func (j *joiner) unassign(qi int) {
	if !j.p.keep[qi] {
		return
	}
	j.assign[qi] = -1
	for _, ci := range j.p.keptKids[qi] {
		j.unassign(int(ci))
	}
}
