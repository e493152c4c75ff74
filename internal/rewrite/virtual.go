package rewrite

import (
	"sort"
	"sync"

	"xpathviews/internal/budget"
	"xpathviews/internal/dewey"
	"xpathviews/internal/engine"
	"xpathviews/internal/pattern"
	"xpathviews/internal/selection"
	"xpathviews/internal/views"
)

// The virtual tree is the prefix-closed trie of the participating
// fragment roots' extended Dewey codes. Labels come from the fragments'
// interned root label-paths (the codes' FST decodings) — never from base
// data. It is stored as an index-linked arena: one slab
// of nodes, no per-node allocations, built in a single merge scan of the
// per-view code streams (which materialization keeps sorted). This is
// the paper's "holistic join ... requires only one scan of all roots of
// fragments and runs in linear time" (§V).
type vtree struct {
	nodes []vnode
	// fragEntries is the slab backing each node's fragment list.
	fragEntries []fragEntry

	// Build scratch, recycled with the arena through vtPool so a
	// steady-state buildVirtual allocates nothing: the rightmost-path
	// stack, the per-level last-child index, the merge's stream cursors
	// and loser tree, and the slab backing the returned anchor slices.
	stack       []int32
	lastChild   []int32
	heads       []int32
	loser       []int32
	anchorSlab  []int32
	anchorViews [][]int32
}

type vnode struct {
	code  dewey.Code // shares the owning fragment's backing array
	label string
	// arena links; -1 means none.
	parent, firstChild, nextSib int32
	// fragHead indexes fragEntries, -1 when no fragment roots here.
	fragHead int32
}

type fragEntry struct {
	view int32
	frag *views.Fragment
	next int32
}

func (t *vtree) depth(v int32) int { return len(t.nodes[v].code) - 1 }

// Fragment lists are walked inline by the joiner (joiner.pickFrag): a
// yield-callback iterator here would cost one closure allocation per
// candidate probe on the join's hottest loop.

// vtPool recycles arenas across queries: the backing slabs keep their
// grown capacity, so steady-state joins allocate almost nothing.
var vtPool = sync.Pool{New: func() any { return &vtree{} }}

func putVtree(t *vtree) {
	// Drop references so pooled arenas don't pin fragments or codes.
	for i := range t.nodes {
		t.nodes[i].code = nil
		t.nodes[i].label = ""
	}
	for i := range t.fragEntries {
		t.fragEntries[i].frag = nil
	}
	t.nodes = t.nodes[:0]
	t.fragEntries = t.fragEntries[:0]
	t.anchorViews = t.anchorViews[:0]
	vtPool.Put(t)
}

// codeMerger is the loser-tree k-way merge over the per-view sorted
// fragment-code streams. The classic linear scan picks each pop by
// comparing all k stream heads; the loser tree replays only the ⌈log₂k⌉
// matches along the popped leaf's path, and the galloping fast path in
// buildVirtual skips even that while one stream's run of codes stays
// below every other head — the common shape when one view dominates a
// document region. Comparisons are dewey.Compare on the raw code arrays
// shared with the fragments; label-paths are never consulted.
//
// Layout: streams are leaves k..2k-1 of an implicit tournament tree,
// internal nodes 1..k-1 each hold the losing stream of their match, and
// the overall winner is kept aside. Works for any k ≥ 1 (k = 1 has no
// internal nodes and the single stream just drains).
type codeMerger struct {
	refined []refinedView
	heads   []int32 // per-stream cursor into refined[i].frags
	loser   []int32 // internal nodes 1..k-1; index 0 unused
	k       int32
}

// exhausted reports stream a has no codes left.
func (m *codeMerger) exhausted(a int32) bool {
	return int(m.heads[a]) >= len(m.refined[a].frags)
}

// less orders streams by current head code, exhausted streams last,
// ties by stream index (keeps the emit order of the old linear scan).
func (m *codeMerger) less(a, b int32) bool {
	if m.exhausted(a) {
		return false
	}
	if m.exhausted(b) {
		return true
	}
	c := dewey.Compare(m.refined[a].frags[m.heads[a]].Code, m.refined[b].frags[m.heads[b]].Code)
	return c < 0 || (c == 0 && a < b)
}

// build runs the initial tournament and returns the winning stream.
func (m *codeMerger) build() int32 {
	if m.k == 1 {
		return 0
	}
	var play func(j int32) int32
	play = func(j int32) int32 {
		if j >= m.k {
			return j - m.k // leaf: stream index
		}
		w, l := play(2*j), play(2*j+1)
		if m.less(l, w) {
			w, l = l, w
		}
		m.loser[j] = l
		return w
	}
	return play(1)
}

// replay re-runs the matches along stream w's leaf path after its head
// advanced, returning the new overall winner (-1 when all streams are
// exhausted).
func (m *codeMerger) replay(w int32) int32 {
	cur := w
	for j := (w + m.k) / 2; j >= 1; j /= 2 {
		if m.less(m.loser[j], cur) {
			m.loser[j], cur = cur, m.loser[j]
		}
	}
	if m.exhausted(cur) {
		return -1
	}
	return cur
}

// challenger returns the best stream other than winner w — the min over
// the losers on w's path, which cover every other leaf — or -1 when
// there is none (k = 1). Exhausted challengers are fine: less() against
// them lets the gallop drain w to its end.
func (m *codeMerger) challenger(w int32) int32 {
	ch := int32(-1)
	for j := (w + m.k) / 2; j >= 1; j /= 2 {
		if l := m.loser[j]; ch < 0 || m.less(l, ch) {
			ch = l
		}
	}
	return ch
}

// grow returns s resized to length n, reallocating only past capacity.
func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// buildVirtual merges the sorted fragment-code streams of all views into
// the virtual tree in one scan; shared prefixes collapse. It returns the
// tree, per view the arena index each fragment landed on, and the number
// of gallop hits — emits taken by the inner fast-path loop without a
// loser-tree replay (the kernel's skew exploitation, exported as a
// metric). Callers must release the tree with putVtree once the join is
// done; the anchor slices are backed by the tree's pooled slab and die
// with it.
func buildVirtual(fst *dewey.FST, refined []refinedView) (*vtree, [][]int32, int64) {
	total := 0
	for vi := range refined {
		total += len(refined[vi].frags)
	}
	t := vtPool.Get().(*vtree)
	if cap(t.nodes) == 0 {
		t.nodes = make([]vnode, 0, total*2+8)
		t.fragEntries = make([]fragEntry, 0, total)
	}
	t.nodes = append(t.nodes, vnode{code: dewey.Code{0}, label: fst.RootLabel(), parent: -1, firstChild: -1, nextSib: -1, fragHead: -1})

	// Anchor slices carved out of one pooled slab.
	t.anchorSlab = growI32(t.anchorSlab, total)
	anchors := t.anchorViews[:0]
	off := 0
	for vi := range refined {
		n := len(refined[vi].frags)
		anchors = append(anchors, t.anchorSlab[off:off+n:off+n])
		off += n
	}
	t.anchorViews = anchors

	k := len(refined)
	m := codeMerger{refined: refined, heads: growI32(t.heads, k), loser: growI32(t.loser, k), k: int32(k)}
	for i := range m.heads {
		m.heads[i] = 0
	}
	t.heads, t.loser = m.heads, m.loser

	// stack holds the rightmost path (arena indices); stack[d] is the
	// node whose code is prev[:d+1], so after each insert len(stack) ==
	// len(prev). lastChild per stack position appends siblings in O(1).
	stack := t.stack[:0]
	stack = append(stack, 0)
	lastChild := t.lastChild[:0]
	lastChild = append(lastChild, -1)
	prev := t.nodes[0].code

	var gallop int64
	w := m.build()
	if m.exhausted(w) {
		w = -1
	}
	for w >= 0 {
		// Gallop: while stream w's run stays strictly below the best
		// other head, emit without replaying the tree.
		ch := m.challenger(w)
		for {
			fi := m.heads[w]
			m.heads[w]++
			frag := m.refined[w].frags[fi]
			labels := frag.Path.Labels
			code := frag.Code

			// Pop to the longest stack prefix of code. The stack mirrors
			// prev's path, so that prefix has exactly commonPrefixLen
			// components — one O(min depth) scan instead of repeated
			// IsPrefix checks per popped level.
			if n := dewey.CommonPrefixLen(prev, code); n < len(stack) {
				stack = stack[:n]
				lastChild = lastChild[:n]
			}
			top := stack[len(stack)-1]
			for d := len(stack); d < len(code); d++ {
				idx := int32(len(t.nodes))
				t.nodes = append(t.nodes, vnode{
					code: code[:d+1], label: labels[d],
					parent: top, firstChild: -1, nextSib: -1, fragHead: -1,
				})
				if lastChild[len(lastChild)-1] < 0 {
					t.nodes[top].firstChild = idx
				} else {
					t.nodes[lastChild[len(lastChild)-1]].nextSib = idx
				}
				lastChild[len(lastChild)-1] = idx
				stack = append(stack, idx)
				lastChild = append(lastChild, -1)
				top = idx
			}
			e := int32(len(t.fragEntries))
			t.fragEntries = append(t.fragEntries, fragEntry{view: int32(w), frag: frag, next: t.nodes[top].fragHead})
			t.nodes[top].fragHead = e
			anchors[w][fi] = top
			prev = code

			if m.exhausted(w) || (ch >= 0 && !m.less(w, ch)) {
				break
			}
			gallop++
		}
		w = m.replay(w)
	}
	t.stack, t.lastChild = stack, lastChild
	return t, anchors, gallop
}

// extract runs the answer-extraction compensating query on the Δ-view's
// joined fragments (§V's final step), given in fragment order, and sets
// res.Answers — sorted, duplicate-free and with cap == len, so that a
// caller's append can never write into a slice the plan memo shares —
// charging one budget step per fragment.
func extract(q *pattern.Pattern, dc *selection.Cover, joined []*views.Fragment, res *Result, b *budget.B) error {
	if err := fpExtract.Fire(); err != nil {
		return err
	}
	comp := compensating(q, dc.X)
	if dc.X == q.Ret && len(comp.Root.Children) == 0 && len(comp.Root.Attrs) == 0 {
		// The view's answers are the query's answers: no compensating
		// work inside fragments. Fragment roots are distinct by
		// construction and stored in code order, so walking joined yields
		// the sorted, duplicate-free answer list directly.
		if err := b.Step(len(joined)); err != nil {
			return err
		}
		res.Answers = make([]Answer, len(joined))
		for k, f := range joined {
			res.Answers[k] = Answer{Code: f.Code, Node: f.Tree.Root()}
		}
		return nil
	}
	var out []Answer
	for _, f := range joined {
		if err := b.Step(1); err != nil {
			return err
		}
		out = appendFragAnswers(comp, f, out)
	}
	// Answers are appended in fragment order; the stable sort keeps that
	// order among equal codes, so dropping adjacent duplicates keeps the
	// first-seen Answer.
	res.Answers = dedupAnswers(sortAnswers(out))
	return nil
}

// appendFragAnswers runs the compensating query on one fragment and
// appends its (not yet deduplicated) answers to out.
func appendFragAnswers(comp *pattern.Pattern, f *views.Fragment, out []Answer) []Answer {
	for _, a := range engine.AnswersAtRoot(f.Tree, comp) {
		ord := f.Tree.Ord(a)
		var code dewey.Code
		if ord < len(f.NodeCodes) {
			code = f.NodeCodes[ord]
		}
		out = append(out, Answer{Code: code, Node: a})
	}
	return out
}

// sortAnswers orders answers in document order. The sort is stable so
// that among equal codes the first-appended answer stays first —
// dedupAnswers relies on that to pick the survivor. Disjoint fragments
// walked in order already yield sorted answers, which one linear pass
// confirms for far less than the sort would spend.
func sortAnswers(a []Answer) []Answer {
	less := func(i, j int) bool { return dewey.Compare(a[i].Code, a[j].Code) < 0 }
	if !sort.SliceIsSorted(a, less) {
		sort.SliceStable(a, less)
	}
	return a
}

// dedupAnswers drops adjacent equal-code answers from the sorted list
// and returns it with cap == len. Overlapping fragments can yield the
// same base node more than once; since answers are sorted, duplicates
// are adjacent and the whole dedup is one compaction pass — no
// per-answer key strings, no map.
func dedupAnswers(a []Answer) []Answer {
	if len(a) < 2 {
		return a[:len(a):len(a)]
	}
	out := 1
	for i := 1; i < len(a); i++ {
		if dewey.Compare(a[i].Code, a[out-1].Code) == 0 {
			continue
		}
		a[out] = a[i]
		out++
	}
	// Zero the dropped tail so fragment nodes aren't pinned past reuse.
	clear(a[out:])
	return a[:out:out]
}
