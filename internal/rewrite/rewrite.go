// Package rewrite implements §V: equivalent query rewriting over the
// materialized fragments of a selected view set, without touching base
// data. The pipeline is
//
//  1. refinement — each selected view's fragments are filtered by a
//     compensating pattern (the query's subtree at the node the view's
//     answers land on), "pushing selection" before the join;
//  2. root-path filtering — a fragment participates only when its root
//     label-path (interned when the fragment was built, equal to its
//     extended Dewey code's FST decoding) matches the query's root-to-
//     landing-node path pattern; the match runs once per distinct path;
//  3. holistic join — fragment roots of all views are merged (one scan
//     of the sorted code streams) into a prefix trie, the virtual tree;
//     the query's upper pattern is matched on it with the views' answer
//     positions pinned to fragment roots and the selection's rigid
//     anchors (Pin) enforced;
//  4. extraction — for every Δ-view fragment that joins, the
//     compensating answer pattern extracts RET(Q) inside the fragment.
package rewrite

import (
	"sort"
	"sync"

	"xpathviews/internal/budget"
	"xpathviews/internal/dewey"
	"xpathviews/internal/engine"
	"xpathviews/internal/faults"
	"xpathviews/internal/pattern"
	"xpathviews/internal/selection"
	"xpathviews/internal/views"
	"xpathviews/internal/xmltree"
)

// Fault points at the rewriting stage boundaries (chaos tests).
var (
	fpRefine  = faults.New("rewrite.refine")
	fpJoin    = faults.New("rewrite.join")
	fpExtract = faults.New("rewrite.extract")
)

// AttrMaxViews caps the per-cover attribution arrays in Result: fixed
// size so attribution adds no allocation to the hot path.
const AttrMaxViews = 8

// Answer is one query result: rewriting produces it from view fragments
// only, and the serving layer uses the same type for every strategy's
// answers.
type Answer struct {
	// Code is the answer node's extended Dewey code in the base document.
	Code dewey.Code
	// Node is the answer node; for an answer rewriting produced, the node
	// inside the owning fragment's copy.
	Node *xmltree.Node
}

// Result is the outcome of rewriting.
type Result struct {
	// Answers are sorted in document order with cap == len. They are
	// read-only: under a caller-supplied Options.Plan the slice is shared
	// with the plan and with every later Result it serves while the
	// covered views stand still.
	Answers []Answer
	// Memo reports that the answers came from the caller's JoinPlan:
	// stages 1–4 did not run, and their counters below stay zero. The
	// meter's Refine and Join slots are not charged either; its Extract
	// slot covers the extraction checks a hit still makes.
	Memo bool
	// Text is the memo's rendering of Answers' codes when Answers is the
	// memo's slice, shared like it; nil otherwise.
	Text *CodeText
	// Stats for benchmarking/ablation.
	FragmentsScanned int
	FragmentsJoined  int
	// PathsTested counts the distinct (view, root label-path) verdicts
	// refinement computed: its path work is proportional to this, not to
	// FragmentsScanned.
	PathsTested int
	// JoinBuildNanos is the virtual-tree merge build's share of the
	// meter's Join slot (the rest is the per-fragment embeds); zero under
	// a nil meter.
	JoinBuildNanos int64

	// Per-cover refinement accounting for view attribution, indexed by
	// cover position in the selection (the serving layer maps positions
	// to view IDs). Fixed-size arrays keep the hot path allocation-free;
	// selections wider than AttrMaxViews report only the first
	// AttrMaxViews covers' volumes (view selection minimizes join width,
	// so real selections are far narrower).
	ViewScanned [AttrMaxViews]int32
	ViewKept    [AttrMaxViews]int32

	// Join-kernel internals (stage 3): JoinPartitions is 1 when the
	// holistic join ran and 0 when it did not (a memo hit, an empty
	// refinement, or the strong single-cover fast path); GallopHits counts
	// merge pops that continued the previous pop's stream (consecutive
	// codes from one view: the document-region skew).
	JoinPartitions int
	GallopHits     int64

	// codes memoizes Codes(): the pipeline sorts answers once at
	// construction (sortAnswers), so repeated calls should not re-sort or
	// re-allocate. Not synchronized — a Result belongs to one query.
	codes []dewey.Code
}

// Codes returns the answers' codes, sorted in document order. The slice
// is computed once and cached; callers must not modify it.
func (r *Result) Codes() []dewey.Code {
	if r.codes == nil {
		out := make([]dewey.Code, len(r.Answers))
		for i, a := range r.Answers {
			out[i] = a.Code
		}
		// Answers are sorted at construction by sortAnswers; sorting the
		// extracted codes is a no-op pass then, but keeps Codes correct
		// for hand-built Results too.
		if !sort.SliceIsSorted(out, func(i, j int) bool { return dewey.Compare(out[i], out[j]) < 0 }) {
			sort.Slice(out, func(i, j int) bool { return dewey.Compare(out[i], out[j]) < 0 })
		}
		r.codes = out
	}
	return r.codes
}

// Options tunes one ExecuteOptions call.
type Options struct {
	// Plan, when non-nil, supplies a precomputed join skeleton for
	// exactly this call's (pattern, covers) pair — the serving layer
	// caches one per query plan. The first call through a Plan leaves its
	// answers on it; later calls, while no covered view's Gen has moved,
	// return them again without refining, joining or extracting
	// (Result.Memo). A mismatched or nil Plan is recomputed on the fly
	// and remembers nothing, so passing it is purely an optimization.
	Plan *JoinPlan
}

// ExecuteOptions answers q from the selected covers' materialized
// fragments under a meter and with explicit options. fst must be the
// document's FST (shipped with the view store; not base data). Covers
// that do not answer q are ErrNotAnswerable: a matching Options.Plan
// already proves they do, and any other call builds its skeleton with
// PlanJoin, which checks. Refinement charges one step per scanned
// fragment, the holistic join one step per embedding attempt, extraction
// one step per fragment, and each stage's wall time goes to the meter's
// Refine, Join and Extract slots. A nil meter never aborts on its own,
// but the stage fault points may. A caller-supplied Options.Plan that
// remembers its answers skips the stages' work and the refine and join
// budget steps (Result.Memo); extraction's steps, the stage fault points
// and every check between the stages still run.
func ExecuteOptions(q *pattern.Pattern, sel *selection.Selection, fst *dewey.FST, b *budget.B, opt Options) (*Result, error) {
	covers := sel.Covers
	// The join skeleton (Δ-view choice, upper twig, resolved pins) is
	// data-independent; a caller holding a cached plan passes it through
	// Options and skips the rebuild and the answerability check. Identity
	// with this call's pattern and covers is the correctness condition —
	// on mismatch, recompute (and check).
	jp := opt.Plan
	if !jp.plans(q, covers) {
		var err error
		if jp, err = PlanJoin(q, covers); err != nil {
			return nil, err
		}
	}
	// A caller's plan remembers the answers stages 1–4 last produced for
	// it (deltaMemo): while every cover is at the generation they were
	// computed from, the stages' work is skipped.
	b.Mark()
	if text, ok, err := jp.Replay(b); ok {
		b.Lap(budget.Extract)
		if err != nil {
			return nil, err
		}
		return &Result{Memo: true, Answers: text.Answers(), Text: text}, nil
	}
	publish := jp == opt.Plan // a plan built here dies here: nothing to leave on it
	deltaIdx := jp.deltaIdx
	dc := covers[deltaIdx]
	res := &Result{}

	if err := fpRefine.Fire(); err != nil {
		return nil, err
	}
	// Stage 1+2: refine fragments and filter by interned root paths, view
	// by view; a view refining to zero fragments ends the stage early (the
	// query's answer is certainly empty).
	refined := make([]refinedView, len(covers))
	defer releaseRefined(refined)
	b.Mark()
	empty, err := refineAll(jp, refined, b)
	b.Lap(budget.Refine)
	for i := range refined {
		res.FragmentsScanned += refined[i].scanned
		res.PathsTested += refined[i].paths
		if i < AttrMaxViews {
			res.ViewScanned[i] = int32(refined[i].scanned)
			res.ViewKept[i] = int32(len(refined[i].frags))
		}
	}
	if err != nil {
		return nil, err
	}
	if empty {
		if publish {
			jp.remember(&deltaMemo{empty: true})
		}
		return res, nil // some view contributes nothing → empty result
	}
	joined := refined[deltaIdx].frags // the Δ-view fragments that reach stage 4

	// Seam check: refine → join/extract. Refinement polls the context only
	// every few hundred steps; a caller that disconnected during it must
	// not start the join.
	if err := b.CtxErr(); err != nil {
		return nil, err
	}

	// Stage 3: holistic join on the virtual tree — unless a strong Δ-cover
	// answers alone (condition 3, §IV-A): its refined list is the Δ-list.
	if !dc.Strong || len(covers) > 1 {
		if err := fpJoin.Fire(); err != nil {
			return nil, err
		}
		if joined, err = joinStage(jp, fst, refined, b, res); err != nil {
			return nil, err
		}
		// Seam check: join → extract.
		if err := b.CtxErr(); err != nil {
			return nil, err
		}
	}

	// Stage 4: extraction from the Δ-view's joined fragments; the stage
	// clock runs on from the previous stage's lap.
	err = extract(jp, joined, res, b)
	if err == nil && publish {
		jp.remember(&deltaMemo{text: CodeText{answers: res.Answers}, steps: len(joined)})
	}
	b.Lap(budget.Extract)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Replay serves one execution of the plan from its remembered answers
// without building a Result or reading the clock: the stage fault points
// fire, the seam checks run and b is charged extraction's steps, so a
// replay fails where an execution would. It returns the memo's shared
// text (ok), or ok=false when a nil plan or a covered view's moved
// generation leaves nothing to replay.
func (p *JoinPlan) Replay(b *budget.B) (text *CodeText, ok bool, err error) {
	var m *deltaMemo
	if p != nil {
		m = p.memoized()
	}
	if m == nil {
		return nil, false, nil
	}
	if err = fpRefine.Fire(); err != nil || m.empty {
		return &m.text, true, err
	}
	// Seam check: refine → join/extract. Stage 3 runs unless a strong
	// Δ-cover answers alone; then the join → extract seam check.
	err = b.CtxErr()
	if dc := p.covers[p.deltaIdx]; err == nil && (!dc.Strong || len(p.covers) > 1) {
		if err = fpJoin.Fire(); err == nil {
			err = b.CtxErr()
		}
	}
	if err == nil {
		if err = fpExtract.Fire(); err == nil {
			err = b.Step(m.steps)
		}
	}
	return &m.text, true, err
}

// joinStage is stage 3 proper: one merge scan of the code streams builds
// the arena, then the upper pattern is embedded once per Δ-fragment. It
// returns the Δ-view fragments that join, in fragment order. Both parts
// lap into the meter's Join slot, continuing refinement's clock.
func joinStage(jp *JoinPlan, fst *dewey.FST, refined []refinedView, b *budget.B, res *Result) ([]*views.Fragment, error) {
	vt, anchors, gallop := buildVirtual(fst, refined, jp.deltaIdx)
	res.JoinBuildNanos = b.Lap(budget.Join)
	res.GallopHits = gallop
	joined, err := joinUpper(jp, refined, vt, anchors, b)
	res.JoinPartitions = 1
	putVtree(vt)
	b.Lap(budget.Join)
	res.FragmentsJoined = len(joined)
	return joined, err
}

// refinedView holds a view's surviving fragments. The join reads each
// fragment's root labels from its interned Path.
type refinedView struct {
	frags []*views.Fragment
	// scanned counts fragments this view's refinement looked at; paths
	// counts the distinct root label-paths it tested.
	scanned int
	paths   int
	// sc is the pooled scratch backing frags; released by releaseRefined
	// once the query is done with the refined sets.
	sc *refineScratch
}

// refineScratch is the pooled allocation unit of one view's refinement:
// the kept-fragment slice and the root-path verdict memo. Pooling these
// keeps the steady-state per-query allocation count flat, like putVtree
// does for the join arena.
type refineScratch struct {
	frags []*views.Fragment
	// verdicts[id] is the root-path filter's answer for LabelPath id,
	// valid only while its epoch equals the scratch's: bumping epoch
	// forgets every verdict in O(1). The array grows to the largest path
	// id seen, so one scratch serves every document's table.
	verdicts []pathVerdict
	epoch    uint32
}

type pathVerdict struct {
	epoch uint32
	ok    bool
}

// begin starts a new verdict generation. At the epoch's wrap every stamp
// is cleared, so a stale verdict can never read as current.
func (sc *refineScratch) begin() {
	sc.epoch++
	if sc.epoch == 0 {
		clear(sc.verdicts)
		sc.epoch = 1
	}
}

// pathMatches is labelPathMatches(lp.Labels, rootPath) memoized per path
// class for the current epoch; tested counts fresh evaluations.
func (sc *refineScratch) pathMatches(lp *dewey.LabelPath, rootPath pattern.Path, tested *int) bool {
	if n := int(lp.ID) + 1; n > len(sc.verdicts) {
		sc.verdicts = append(sc.verdicts, make([]pathVerdict, n-len(sc.verdicts))...)
	}
	v := &sc.verdicts[lp.ID]
	if v.epoch != sc.epoch {
		v.epoch = sc.epoch
		v.ok = labelPathMatches(lp.Labels, rootPath)
		*tested++
	}
	return v.ok
}

var refineScratchPool = sync.Pool{New: func() any { return new(refineScratch) }}

// releaseRefined returns every view's scratch to the pool, dropping
// fragment references so pooled scratch does not pin view data.
func releaseRefined(refined []refinedView) {
	for i := range refined {
		sc := refined[i].sc
		if sc == nil {
			continue
		}
		refined[i].sc = nil
		refined[i].frags = nil
		clear(sc.frags)
		sc.frags = sc.frags[:0]
		refineScratchPool.Put(sc)
	}
}

// refineAll runs stage 1+2 for every cover of the plan in order. It
// reports empty=true as soon as some view refines to zero fragments (the
// rewriting's answer is empty); the remaining views are not refined.
func refineAll(jp *JoinPlan, refined []refinedView, b *budget.B) (empty bool, err error) {
	for i, c := range jp.covers {
		if err := refineView(&jp.cover[i], c, &refined[i], b); err != nil {
			return false, err
		}
		if len(refined[i].frags) == 0 {
			return true, nil
		}
	}
	return false, nil
}

// refineView applies the root-path filter and the compensating pattern
// of cp, c's cover plan, to every fragment of c, on pooled scratch that
// releaseRefined returns.
func refineView(cp *coverPlan, c *selection.Cover, out *refinedView, b *budget.B) error {
	sc := refineScratchPool.Get().(*refineScratch)
	out.sc = sc
	return sc.refine(cp, c, out, b)
}

// refine is refineView on the given scratch. The root-path filter runs
// once per distinct root label-path (fragment class), not once per
// fragment: a fragment costs one verdict lookup, its budget step and,
// for a non-trivial compensating pattern, one match at its root.
func (sc *refineScratch) refine(cp *coverPlan, c *selection.Cover, out *refinedView, b *budget.B) error {
	sc.begin()
	out.frags = sc.frags[:0]
	defer func() {
		// A grown slice flows back into the scratch so its capacity is
		// kept for the next query.
		sc.frags = out.frags
	}()
	for fi := range c.View.Fragments {
		f := &c.View.Fragments[fi]
		if err := b.Step(1); err != nil {
			return err
		}
		out.scanned++
		if !sc.pathMatches(f.Path, cp.rootPath, &out.paths) {
			continue
		}
		if !cp.trivial && !engine.MatchesAtRoot(f.Tree, cp.comp) {
			continue
		}
		out.frags = append(out.frags, f)
	}
	return nil
}

// chooseDelta picks the Δ-view: prefer strong covers, then the deepest
// landing node (smallest extraction work), then larger covers.
func chooseDelta(covers []*selection.Cover) int {
	best := -1
	for i, c := range covers {
		if !c.Delta {
			continue
		}
		if best < 0 {
			best = i
			continue
		}
		b := covers[best]
		switch {
		case c.Strong != b.Strong:
			if c.Strong {
				best = i
			}
		case depthOf(c.X) != depthOf(b.X):
			if depthOf(c.X) > depthOf(b.X) {
				best = i
			}
		case c.Size() > b.Size():
			best = i
		}
	}
	return best
}

func depthOf(n *pattern.Node) int {
	d := 0
	for p := n.Parent; p != nil; p = p.Parent {
		d++
	}
	return d
}

// coverPlan is the data-independent part of refining and extracting the
// fragments of a view whose answers land on query node x. PlanJoin builds
// one per cover, so executions through a cached plan build none.
type coverPlan struct {
	// comp is the compensating pattern applied to each fragment: the
	// query's subtree at x, its root axis set to Child because the
	// fragment root is pinned to x.
	comp *pattern.Pattern
	// trivial reports that comp has no predicate below x: the root-path
	// filter already certifies x's own label, so refinement is that
	// filter alone.
	trivial bool
	// rootPath is the path pattern from the query root down to x.
	rootPath pattern.Path
}

func planCover(q *pattern.Pattern, x *pattern.Node) coverPlan {
	comp := q.SubtreeAt(x)
	comp.Root.Axis = pattern.Child
	return coverPlan{
		comp:     comp,
		trivial:  len(comp.Root.Children) == 0 && len(comp.Root.Attrs) == 0,
		rootPath: rootToNodePath(q, x),
	}
}

// rootToNodePath is the path pattern from the query root down to x.
func rootToNodePath(q *pattern.Pattern, x *pattern.Node) pattern.Path {
	var rev []pattern.Step
	for n := x; n != nil; n = n.Parent {
		rev = append(rev, pattern.Step{Axis: n.Axis, Label: n.Label})
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return pattern.Path{Steps: rev}
}

// labelPathMatches reports whether a concrete root label-path satisfies a
// path pattern ending exactly at the path's last label — the classic
// O(|labels|·|steps|) DP over (step, position) pairs. Child steps consume
// the next label; descendant steps may skip any number of labels first.
func labelPathMatches(labels []string, p pattern.Path) bool {
	steps := p.Steps
	n, m := len(labels), len(steps)
	if m == 0 || n == 0 {
		return m == 0 && n == 0
	}
	// end[i] (current row j): steps[:j] matched, step j-1 exactly at
	// labels[i-1]. before[i]: ∃ i' < i with end-of-previous-row at i'.
	// Stack buffers keep the per-fragment hot path allocation-free.
	var prevBuf, curBuf [64]bool
	var prev, cur []bool
	if n < 64 {
		prev, cur = prevBuf[:n+1], curBuf[:n+1]
	} else {
		prev, cur = make([]bool, n+1), make([]bool, n+1)
	}
	for j := 1; j <= m; j++ {
		s := steps[j-1]
		anyBefore := false
		for i := 1; i <= n; i++ {
			if j > 1 && prev[i-1] {
				anyBefore = true
			}
			ok := s.Label == pattern.Wildcard || s.Label == labels[i-1]
			if ok {
				if s.Axis == pattern.Child {
					if j == 1 {
						ok = i == 1
					} else {
						ok = prev[i-1]
					}
				} else {
					if j == 1 {
						ok = true
					} else {
						ok = anyBefore
					}
				}
			}
			cur[i] = ok
		}
		prev, cur = cur, prev
		for i := range cur {
			cur[i] = false
		}
	}
	return prev[n]
}
