package rewrite

import (
	"slices"
	"sort"
	"sync"

	"xpathviews/internal/budget"
	"xpathviews/internal/dewey"
	"xpathviews/internal/engine"
	"xpathviews/internal/pattern"
	"xpathviews/internal/views"
)

// The virtual tree is the prefix-closed trie of the participating
// fragment roots' extended Dewey codes. Labels come from the fragments'
// interned root label-paths (the codes' FST decodings) — never from base
// data. It is stored as an index-linked arena: one slab
// of nodes, no per-node allocations, built in a single merge scan of the
// per-view code streams (which materialization keeps sorted). This is
// the "one scan of all roots of fragments" of the paper's holistic join,
// which "requires only one scan ... and runs in linear time" (§V). The
// embed that follows (join.go) is linear in the arena for the branches
// off the Δ-path, which it places at most once per arena node and join;
// per Δ-fragment it walks the fragment's ancestor chain. The exception
// is a branch whose view is pinned to an ancestor outside the branch: it
// is placed afresh for every placement of that ancestor.
type vtree struct {
	nodes []vnode
	// fragEntries is the slab backing each node's fragment list.
	fragEntries []fragEntry

	// Build scratch, recycled with the arena through vtPool so a
	// steady-state buildVirtual allocates nothing: the rightmost-path
	// stack, the per-level last-child index, the merge's stream tails
	// and the Δ-view's anchors.
	stack     []int32
	lastChild []int32
	streams   [][]*views.Fragment
	anchors   []int32
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
	vtPool.Put(t)
}

// buildVirtual merges the sorted fragment-code streams of all views into
// the virtual tree in one scan; shared prefixes collapse. Each pop scans
// the k stream heads and takes the smallest code, ties going to the
// lower stream index; comparisons are dewey.Compare on the raw code
// arrays shared with the fragments, label-paths are never consulted.
// Selections are narrow (k is 1–3 on every workload), so the scan is a
// handful of comparisons and needs no tournament structure. Once one
// stream alone has codes left (from the start when k = 1) its tail is
// taken whole, so a lone stream pays no scan per pop. It returns the
// tree, the arena index each fragment of view delta landed on (the only
// anchors the join reads), and the number of gallop hits — pops that
// continue the previous pop's stream, the document-region skew the
// kernel reports. Callers must release the tree with putVtree once the
// join is done; the anchor slice is backed by the tree's pooled scratch
// and dies with it.
func buildVirtual(fst *dewey.FST, refined []refinedView, delta int) (*vtree, []int32, int64) {
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
	anchors := slices.Grow(t.anchors[:0], len(refined[delta].frags))
	// streams[i] is the unconsumed tail of view i's fragment list.
	streams := t.streams[:0]
	for vi := range refined {
		streams = append(streams, refined[vi].frags)
	}

	// stack holds the rightmost path (arena indices); stack[d] is the
	// node whose code is prev[:d+1], so after each insert len(stack) ==
	// len(prev). lastChild per stack position appends siblings in O(1).
	stack := t.stack[:0]
	stack = append(stack, 0)
	lastChild := t.lastChild[:0]
	lastChild = append(lastChild, -1)
	prev := t.nodes[0].code

	var gallop int64
	last := -1
	for {
		w, head, live := -1, (*views.Fragment)(nil), 0
		for i, s := range streams {
			if len(s) > 0 {
				live++
				if head == nil || dewey.Compare(s[0].Code, head.Code) < 0 {
					w, head = i, s[0]
				}
			}
		}
		if head == nil {
			break
		}
		run := streams[w][:1]
		if live == 1 {
			run = streams[w]
		}
		streams[w] = streams[w][len(run):]
		for _, frag := range run {
			if w == last {
				gallop++
			}
			last = w
			code, labels := frag.Code, frag.Path.Labels

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
			if w == delta {
				anchors = append(anchors, top)
			}
			prev = code
		}
	}
	clear(streams) // drained tails still point into the fragment lists
	t.stack, t.lastChild, t.streams, t.anchors = stack, lastChild, streams, anchors
	return t, anchors, gallop
}

// extract runs the answer-extraction compensating query of the plan's
// Δ-view on its joined fragments (§V's final step), given in fragment
// order, and sets res.Answers — sorted, duplicate-free and with cap ==
// len, so that a caller's append can never write into a slice the plan
// memo shares — charging one budget step per fragment.
func extract(jp *JoinPlan, joined []*views.Fragment, res *Result, b *budget.B) error {
	if err := fpExtract.Fire(); err != nil {
		return err
	}
	if jp.covers[jp.deltaIdx].X == jp.q.Ret && jp.cover[jp.deltaIdx].trivial {
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
		out = appendFragAnswers(jp.deltaSpine, f, out)
	}
	// Answers are appended in fragment order; the stable sort keeps that
	// order among equal codes, so dropping adjacent duplicates keeps the
	// first-seen Answer.
	res.Answers = dedupAnswers(sortAnswers(out))
	return nil
}

// appendFragAnswers runs the compensating query, given by its spine, on
// one fragment and appends its (not yet deduplicated) answers to out, in
// the fragment's document order. The spine's root axis is Child
// (planCover), so the walk pins it to the fragment root. Extraction
// charges its step per fragment, so the walk runs unmetered.
func appendFragAnswers(spine []*pattern.Node, f *views.Fragment, out []Answer) []Answer {
	answers, _, _ := engine.AnswersWithin(spine, f.Tree.Root(), nil)
	for _, a := range answers {
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
