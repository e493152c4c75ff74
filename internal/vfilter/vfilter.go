// Package vfilter implements VFILTER (§III): an NFA over the decomposed,
// normalized root-to-leaf path patterns of a view set. Reading the string
// form STR(P) of a query path pattern P leads to the accepting states of
// exactly those view path patterns that contain P; a view survives
// filtering iff each of its path patterns contains some path pattern of
// the query (Proposition 3.1).
//
// The filter admits false positives but — thanks to normalization
// (§III-C) — no false negatives.
//
// Construction uses the four basic fragments of Figure 5, sharing common
// prefixes in a trie so that the automaton stays compact as the view set
// grows (the effect Figure 11 measures):
//
//	/l  : s ──l──▶ t
//	/*  : s ──any node symbol──▶ t
//	//l : s ──l──▶ t   and   s ──any──▶ u ⟲any, u ──l──▶ t
//	//* : s ──node──▶ t  and  s ──any──▶ u ⟲any, u ──node──▶ t
//
// where "any" ranges over the whole alphabet (labels, the wildcard symbol
// and the descendant marker '^') and "node" over everything except '^'.
// The skip state u realizes the paper's self-loop without ε-transitions.
//
// The filtering pass works over dense integers so that its cost follows
// the accepting states a query reaches and the views it touches, never
// the size of the registry: every view has an insertion ordinal, every
// (view, path) pair a dense index, every label an interned id, and the
// per-query bookkeeping lives in a pooled, epoch-stamped scratch
// (scratch.go) instead of maps built per call.
package vfilter

import (
	"cmp"
	"slices"

	"xpathviews/internal/budget"
	"xpathviews/internal/faults"
	"xpathviews/internal/pattern"
)

// fpFiltering is the chaos-test fault point at the filtering stage.
var fpFiltering = faults.New("vfilter.filtering")

// Entry identifies one view path pattern stored at an accepting state.
type Entry struct {
	// View is the caller-assigned view identifier.
	View int
	// PathIdx is the index of this path within the view's normalized
	// decomposition.
	PathIdx int
	// PathLen is the number of labels of the view path — the "l" of the
	// sorted lists in Algorithm 1.
	PathLen int
	// Attrs holds the sorted attribute names this view path requires on
	// an accepted query path (attribute-pruning extension; nil when the
	// extension is off).
	Attrs []string

	// ord is the view's insertion ordinal and idx the dense index of this
	// (view, path) pair. Both are derived — assigned by AddView and again
	// on load — and never stored.
	ord, idx int32
}

type state struct {
	// labels holds, sorted, the interned ids of the exact symbols this
	// state has arcs on; arcs[i] lists the targets taken on labels[i].
	labels []int32
	arcs   [][]int32
	// anyNode holds arcs taken on any symbol except the descendant
	// marker (wildcard steps).
	anyNode []int32
	// anySym holds arcs taken on any symbol including the descendant
	// marker (the skip arcs of '//' fragments).
	anySym []int32
	// accepts lists the view path patterns this state accepts.
	accepts []Entry

	// next is the trie link for prefix sharing during construction:
	// next[stepKey] = end state of the fragment for that step.
	next map[stepKey]int32
}

type stepKey struct {
	axis  pattern.Axis
	label string
}

// arcSlot returns the position of label id l in st.labels, inserting an
// empty arc list for it when the state has none yet.
func (st *state) arcSlot(l int32) int {
	i, ok := slices.BinarySearch(st.labels, l)
	if !ok {
		st.labels = slices.Insert(st.labels, i, l)
		st.arcs = slices.Insert(st.arcs, i, nil)
	}
	return i
}

// arcsOn returns the targets of the arcs taken on label id l.
func (st *state) arcsOn(l int32) []int32 {
	if i, ok := slices.BinarySearch(st.labels, l); ok {
		return st.arcs[i]
	}
	return nil
}

// viewSlot is the per-view bookkeeping, indexed by insertion ordinal.
type viewSlot struct {
	id int
	// paths is |D(V)| after normalization and deduplication, -1 once the
	// view has been removed.
	paths int32
	// base is the dense index of the view's first path pattern; path i
	// has index base+i.
	base int32
}

// Filter is the VFILTER automaton plus its per-view bookkeeping.
type Filter struct {
	states []*state
	start  int32

	// labelID interns element labels (labelOf is its inverse) so that a
	// state's label arcs are keyed by small integers. Labels are interned
	// by AddView only: a query label the views never mention has no id
	// and matches no label arc.
	labelID map[string]int32
	labelOf []string

	// views is indexed by insertion ordinal. Ordinals are never reused —
	// RemoveView leaves a tombstone — so ordinal order is view insertion
	// order, the order candidates are reported in. ordOf maps the IDs of
	// the live views to their ordinals.
	views []viewSlot
	ordOf map[int]int32
	// numEntries counts the dense (view, path) indices handed out.
	numEntries int32

	// gapBinding extends the paper's automaton: while reading a
	// descendant marker '^', view wildcard steps may bind to the
	// anonymous nodes the gap implies (an ε-closure over wildcard arcs).
	// Without it the filter has rare false negatives that normalization
	// alone cannot remove — e.g. //a/d//e//c ⊑ //a//*/e holds (by case
	// analysis over where e's parent sits) yet no single homomorphism,
	// and hence no plain NFA run, witnesses it. Gap binding restores the
	// no-false-negative guarantee at the cost of a few extra false
	// positives, which answerability checking removes anyway.
	gapBinding bool

	// attrPruning enables the §VII attribute-pruning extension (see
	// attrs.go).
	attrPruning bool

	transitions int
}

// New creates an empty filter with gap binding enabled (safe mode).
func New() *Filter {
	f := NewExact()
	f.gapBinding = true
	return f
}

// NewExact creates an empty filter implementing the paper's automaton
// exactly (no gap binding). Used to reproduce Examples 3.2/3.3 and by the
// normalization ablation.
func NewExact() *Filter {
	f := &Filter{labelID: make(map[string]int32), ordOf: make(map[int]int32)}
	f.start = f.newState()
	return f
}

func (f *Filter) newState() int32 {
	f.states = append(f.states, &state{})
	return int32(len(f.states) - 1)
}

// NumStates returns the number of NFA states.
func (f *Filter) NumStates() int { return len(f.states) }

// NumViews returns the number of views added and not removed.
func (f *Filter) NumViews() int { return len(f.ordOf) }

// AddView decomposes, normalizes and inserts a view's path patterns.
// View IDs must be unique; re-adding an ID panics.
func (f *Filter) AddView(id int, v *pattern.Pattern) {
	if f.attrPruning {
		f.addViewAttrs(id, v)
		return
	}
	paths := pattern.DecomposeNormalized(v)
	ord, base := f.newView(id, len(paths))
	for i, p := range paths {
		f.insertPath(Entry{View: id, PathIdx: i, PathLen: p.Len(), ord: ord, idx: base + int32(i)}, p)
	}
}

// newView gives view id the next ordinal and a block of n dense path
// indices starting at base.
func (f *Filter) newView(id, n int) (ord, base int32) {
	if _, dup := f.ordOf[id]; dup {
		panic("vfilter: duplicate view id")
	}
	ord, base = int32(len(f.views)), f.numEntries
	f.ordOf[id] = ord
	f.views = append(f.views, viewSlot{id: id, paths: int32(n), base: base})
	f.numEntries += int32(n)
	return ord, base
}

// insertPath threads one normalized path pattern through the trie,
// creating fragments as needed, and marks the final state accepting.
func (f *Filter) insertPath(e Entry, p pattern.Path) {
	cur := f.start
	for _, s := range p.Steps {
		key := stepKey{axis: s.Axis, label: s.Label}
		st := f.states[cur]
		if nxt, ok := st.next[key]; ok {
			cur = nxt
			continue
		}
		end := f.newState()
		switch {
		case s.Axis == pattern.Child && s.Label != pattern.Wildcard:
			f.addLabelArc(st, s.Label, end)
		case s.Axis == pattern.Child && s.Label == pattern.Wildcard:
			st.anyNode = append(st.anyNode, end)
			f.transitions++
		default: // Descendant
			loop := f.newState()
			lp := f.states[loop]
			// entering and staying in the skip state
			st.anySym = append(st.anySym, loop)
			lp.anySym = append(lp.anySym, loop)
			f.transitions += 2
			if s.Label != pattern.Wildcard {
				f.addLabelArc(st, s.Label, end)
				f.addLabelArc(lp, s.Label, end)
			} else {
				st.anyNode = append(st.anyNode, end)
				lp.anyNode = append(lp.anyNode, end)
				f.transitions += 2
			}
		}
		if st.next == nil {
			st.next = make(map[stepKey]int32, 1)
		}
		st.next[key] = end
		cur = end
	}
	st := f.states[cur]
	st.accepts = append(st.accepts, e)
}

func (f *Filter) addLabelArc(from *state, label string, to int32) {
	i := from.arcSlot(f.intern(label))
	from.arcs[i] = append(from.arcs[i], to)
	f.transitions++
}

// intern returns the id of label, assigning the next one on first use.
func (f *Filter) intern(label string) int32 {
	id, ok := f.labelID[label]
	if !ok {
		id = int32(len(f.labelOf))
		f.labelID[label] = id
		f.labelOf = append(f.labelOf, label)
	}
	return id
}

// run reads the symbols of one query path pattern string through the
// automaton and leaves in sc.acc, each once, the accepting states
// reached after any prefix of the input; it returns how many entries
// those states hold. Prefix ("sticky") acceptance realizes the paper's
// self-loop on accepting states — a view path pattern contains every
// query path that extends one of its matches — without adding the loop
// to trie states shared with longer view paths (which would create
// avoidable false positives). The input must come from pattern.Str on a
// normalized path. run consumes 1+len(symbols) of the scratch's epochs.
func (f *Filter) run(sc *scratch, symbols []string) int {
	pathEp := sc.tick()
	sc.acc = sc.acc[:0]
	entries := 0
	cur := append(sc.cur[:0], f.start)
	next := sc.next
	for _, sym := range symbols {
		ep := sc.tick()
		next = next[:0]
		label, known := f.labelID[sym]
		descend := sym == pattern.SymDescend
		for _, si := range cur {
			st := f.states[si]
			if known {
				next = sc.add(next, st.arcsOn(label), ep)
			}
			if !descend {
				next = sc.add(next, st.anyNode, ep)
			}
			next = sc.add(next, st.anySym, ep)
		}
		if descend && f.gapBinding {
			// Close over wildcard arcs: anonymous gap nodes may stand in
			// for view '*' steps. Seeds are the states already reached
			// via one gap move plus the current states' wildcard arcs.
			for _, si := range cur {
				next = sc.add(next, f.states[si].anyNode, ep)
			}
			for i := 0; i < len(next); i++ { // next grows during the loop
				st := f.states[next[i]]
				next = sc.add(next, st.anyNode, ep)
				next = sc.add(next, st.anySym, ep)
			}
		}
		cur, next = next, cur
		if len(cur) == 0 {
			break
		}
		for _, si := range cur {
			if n := len(f.states[si].accepts); n != 0 && sc.states[si].accepted != pathEp {
				sc.states[si].accepted = pathEp
				sc.acc = append(sc.acc, si)
				entries += n
			}
		}
	}
	sc.cur, sc.next = cur, next // keep whatever the frontiers grew to
	return entries
}

// Read runs the automaton over the symbols of one query path pattern
// string and returns the entries of all accepting states reached after
// any prefix of the input (see run).
func (f *Filter) Read(symbols []string) []Entry {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.begin(f, 1+len(symbols))
	n := f.run(sc, symbols)
	if n == 0 {
		return nil
	}
	out := make([]Entry, 0, n)
	for _, si := range sc.acc {
		out = append(out, f.states[si].accepts...)
	}
	return out
}

// ListEntry is one element of the sorted list LIST(Pi) that Algorithm 1
// maintains for a query path pattern: a view and the largest length of a
// view path pattern of that view containing Pi.
type ListEntry struct {
	View int
	Len  int
}

// CompareListEntries is the order of LIST(Pi): longer Len first, ties
// broken by the smaller view ID.
func CompareListEntries(a, b ListEntry) int {
	if c := cmp.Compare(b.Len, a.Len); c != 0 {
		return c
	}
	return cmp.Compare(a.View, b.View)
}

// Result is the output of Algorithm 1 for one query.
type Result struct {
	// Candidates holds the surviving view IDs, in view insertion order.
	Candidates []int
	// QueryPaths holds the normalized, deduplicated path decomposition of
	// the query, in first-occurrence order.
	QueryPaths []pattern.Path
	// Lists[i] is LIST(QueryPaths[i]): candidate views containing the
	// path, sorted by CompareListEntries.
	Lists [][]ListEntry
	// Touched counts the views with at least one accepted path pattern:
	// the views the pass had to look at, of which Candidates survive.
	Touched int
}

// Filtering runs Algorithm 1 (ViewFiltering) for query q: it decomposes
// and normalizes q, reads each path through the automaton, counts for
// every view the number of distinct view path patterns that accepted at
// least one query path, and outputs views whose every path pattern
// accepted (NUM(V) = |D(V)|).
//
// Deviating from the paper's literal pseudo-code, acceptance is counted
// per distinct view path pattern rather than per acceptance event;
// double-counting events could otherwise filter views that must be kept.
// See DESIGN.md.
func (f *Filter) Filtering(q *pattern.Pattern) *Result {
	res, err := f.FilteringBudget(q, nil)
	if err != nil {
		// Only an armed fault point can fail an unbudgeted run; degrade to
		// "no candidates" so legacy callers keep a non-nil result.
		return &Result{}
	}
	return res
}

// FilteringBudget is Filtering under a cancellation/step budget: each
// query path charges steps proportional to its automaton run. A nil
// budget never aborts on its own, but the stage fault point may.
//
// It only reads the filter, so any number of calls may run concurrently;
// the per-call bookkeeping lives in a pooled scratch and nothing in the
// returned Result refers to it.
func (f *Filter) FilteringBudget(q *pattern.Pattern, b *budget.B) (*Result, error) {
	if err := fpFiltering.Fire(); err != nil {
		return nil, err
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	return f.filtering(sc, q, b)
}

func (f *Filter) filtering(sc *scratch, q *pattern.Pattern, b *budget.B) (*Result, error) {
	var queryAttrs [][]string
	res := &Result{}
	if f.attrPruning {
		pas := pattern.DecomposeNormalizedWithAttrsUnion(q)
		res.QueryPaths = make([]pattern.Path, len(pas))
		queryAttrs = make([][]string, len(pas))
		for i, pa := range pas {
			res.QueryPaths[i] = pa.Path
			queryAttrs[i] = pa.Attrs
		}
	} else {
		res.QueryPaths = pattern.DecomposeNormalized(q)
	}
	epochs := 1
	for _, qp := range res.QueryPaths {
		epochs += 2 + 2*qp.Len() // run: one per path, one per symbol
	}
	sc.begin(f, epochs)
	queryEp := sc.tick()
	sc.touched, sc.hits, sc.pathEnd = sc.touched[:0], sc.hits[:0], sc.pathEnd[:0]
	for i, qp := range res.QueryPaths {
		if err := b.Step(qp.Len() + 1); err != nil {
			return nil, err
		}
		sc.syms = pattern.AppendStr(sc.syms[:0], qp)
		entries := f.run(sc, sc.syms)
		if err := b.Step(entries); err != nil {
			return nil, err
		}
		pathEp := sc.tick()
		for _, si := range sc.acc {
			accepts := f.states[si].accepts
			for k := range accepts {
				e := &accepts[k]
				if f.attrPruning && !pattern.SubsetSorted(e.Attrs, queryAttrs[i]) {
					continue
				}
				o := &sc.ords[e.ord]
				// NUM(V): count each view path pattern once per query.
				if sc.entries[e.idx] != queryEp {
					sc.entries[e.idx] = queryEp
					if o.counted != queryEp {
						o.counted, o.count = queryEp, 0
						sc.touched = append(sc.touched, e.ord)
					}
					o.count++
				}
				// LIST(Pi): the view's longest path containing this query path.
				if o.listed != pathEp {
					o.listed, o.hit = pathEp, int32(len(sc.hits))
					sc.hits = append(sc.hits, hit{ord: e.ord, len: int32(e.PathLen)})
				} else if h := &sc.hits[o.hit]; int32(e.PathLen) > h.len {
					h.len = int32(e.PathLen)
				}
			}
		}
		sc.pathEnd = append(sc.pathEnd, len(sc.hits))
	}

	// Survivors are the touched views whose every path pattern accepted;
	// only they are sorted, and ordinal order is insertion order.
	res.Touched = len(sc.touched)
	surv := sc.touched[:0]
	for _, ord := range sc.touched {
		if o := &sc.ords[ord]; o.count == f.views[ord].paths {
			o.count = survivor
			surv = append(surv, ord)
		}
	}
	slices.Sort(surv)
	if len(surv) > 0 { // Candidates stays nil, not empty, when nothing survives
		res.Candidates = make([]int, len(surv))
		for i, ord := range surv {
			res.Candidates[i] = f.views[ord].id
		}
	}

	// Lines 22-26: drop filtered views from the lists. The lists share
	// one backing array, each capped to its own length.
	listed := 0
	for _, h := range sc.hits {
		if sc.ords[h.ord].count == survivor {
			listed++
		}
	}
	all := make([]ListEntry, 0, listed)
	res.Lists = make([][]ListEntry, len(res.QueryPaths))
	from := 0
	for i, end := range sc.pathEnd {
		start := len(all)
		for _, h := range sc.hits[from:end] {
			if sc.ords[h.ord].count == survivor {
				all = append(all, ListEntry{View: f.views[h.ord].id, Len: int(h.len)})
			}
		}
		from = end
		list := all[start:len(all):len(all)]
		slices.SortFunc(list, CompareListEntries)
		res.Lists[i] = list
	}
	return res, nil
}
