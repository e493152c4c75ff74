package vfilter

// The map-based filtering pass this package used before the pass was
// rewritten over dense ordinals and a pooled scratch, kept verbatim
// (types renamed) as the oracle of the differential tests: construction,
// removal, the automaton run and Algorithm 1 are all independent of the
// code under test, so a disagreement in ordinals, entry indices, label
// interning or the scratch shows up as a different Result.

import (
	"sort"

	"xpathviews/internal/budget"
	"xpathviews/internal/pattern"
)

type refState struct {
	// byLabel holds arcs taken on one exact symbol.
	byLabel map[string][]int32
	// anyNode holds arcs taken on any symbol except the descendant
	// marker (wildcard steps).
	anyNode []int32
	// anySym holds arcs taken on any symbol including the descendant
	// marker (the skip arcs of '//' fragments).
	anySym []int32
	// accepts lists the view path patterns this state accepts.
	accepts []Entry

	// trie links for prefix sharing during construction:
	// next[stepKey] = end state of the fragment for that step.
	next map[stepKey]int32
	// loopOf[stepKey] = skip state of the '//' fragment for that step.
	loopOf map[stepKey]int32
}

type refFilter struct {
	states []*refState
	start  int32

	// numPaths[viewID] = |D(V)| after normalization and deduplication.
	numPaths map[int]int
	// viewIDs in insertion order, for deterministic candidate output.
	viewIDs []int

	gapBinding bool

	attrPruning bool

	transitions int
}

func newRef() *refFilter {
	f := newRefExact()
	f.gapBinding = true
	return f
}

func newRefExact() *refFilter {
	f := &refFilter{numPaths: make(map[int]int)}
	f.start = f.newState()
	return f
}

func (f *refFilter) newState() int32 {
	f.states = append(f.states, &refState{})
	return int32(len(f.states) - 1)
}

// AddView decomposes, normalizes and inserts a view's path patterns.
// View IDs must be unique; re-adding an ID panics.
func (f *refFilter) AddView(id int, v *pattern.Pattern) {
	if _, dup := f.numPaths[id]; dup {
		panic("vfilter: duplicate view id")
	}
	if f.attrPruning {
		f.addViewAttrs(id, v)
		return
	}
	paths := pattern.DecomposeNormalized(v)
	f.numPaths[id] = len(paths)
	f.viewIDs = append(f.viewIDs, id)
	for i, p := range paths {
		f.insertPath(Entry{View: id, PathIdx: i, PathLen: p.Len()}, p)
	}
}

func (f *refFilter) addViewAttrs(id int, v *pattern.Pattern) {
	paths := pattern.DecomposeNormalizedWithAttrs(v)
	f.numPaths[id] = len(paths)
	f.viewIDs = append(f.viewIDs, id)
	for i, pa := range paths {
		f.insertPath(Entry{View: id, PathIdx: i, PathLen: pa.Path.Len(), Attrs: pa.Attrs}, pa.Path)
	}
}

func (f *refFilter) RemoveView(id int) bool {
	if _, ok := f.numPaths[id]; !ok {
		return false
	}
	delete(f.numPaths, id)
	for i, v := range f.viewIDs {
		if v == id {
			f.viewIDs = append(f.viewIDs[:i], f.viewIDs[i+1:]...)
			break
		}
	}
	for _, st := range f.states {
		if len(st.accepts) == 0 {
			continue
		}
		kept := st.accepts[:0]
		for _, e := range st.accepts {
			if e.View != id {
				kept = append(kept, e)
			}
		}
		st.accepts = kept
	}
	return true
}

// insertPath threads one normalized path pattern through the trie,
// creating fragments as needed, and marks the final state accepting.
func (f *refFilter) insertPath(e Entry, p pattern.Path) {
	cur := f.start
	for _, s := range p.Steps {
		key := stepKey{axis: s.Axis, label: s.Label}
		st := f.states[cur]
		if st.next == nil {
			st.next = make(map[stepKey]int32, 1)
		}
		if nxt, ok := st.next[key]; ok {
			cur = nxt
			continue
		}
		end := f.newState()
		st = f.states[cur] // newState may have grown the slice
		switch {
		case s.Axis == pattern.Child && s.Label != pattern.Wildcard:
			f.addLabelArc(cur, s.Label, end)
		case s.Axis == pattern.Child && s.Label == pattern.Wildcard:
			f.states[cur].anyNode = append(f.states[cur].anyNode, end)
			f.transitions++
		default: // Descendant
			loop := f.newState()
			st = f.states[cur]
			if st.loopOf == nil {
				st.loopOf = make(map[stepKey]int32, 1)
			}
			st.loopOf[key] = loop
			// entering and staying in the skip state
			f.states[cur].anySym = append(f.states[cur].anySym, loop)
			f.states[loop].anySym = append(f.states[loop].anySym, loop)
			f.transitions += 2
			if s.Label != pattern.Wildcard {
				f.addLabelArc(cur, s.Label, end)
				f.addLabelArc(loop, s.Label, end)
			} else {
				f.states[cur].anyNode = append(f.states[cur].anyNode, end)
				f.states[loop].anyNode = append(f.states[loop].anyNode, end)
				f.transitions += 2
			}
		}
		f.states[cur].next[key] = end
		cur = end
	}
	f.states[cur].accepts = append(f.states[cur].accepts, e)
}

func (f *refFilter) addLabelArc(from int32, label string, to int32) {
	st := f.states[from]
	if st.byLabel == nil {
		st.byLabel = make(map[string][]int32, 1)
	}
	st.byLabel[label] = append(st.byLabel[label], to)
	f.transitions++
}

// Read runs the automaton over the symbols of one query path pattern
// string and returns the entries of all accepting states reached after
// any prefix of the input. Prefix ("sticky") acceptance realizes the
// paper's self-loop on accepting states — a view path pattern contains
// every query path that extends one of its matches — without adding the
// loop to trie states shared with longer view paths (which would create
// avoidable false positives). The input must come from pattern.Str on a
// normalized path.
func (f *refFilter) Read(symbols []string) []Entry {
	var out []Entry
	seen := make(map[int32]struct{}, 4)
	collect := func(set []int32) {
		for _, si := range set {
			if len(f.states[si].accepts) == 0 {
				continue
			}
			if _, dup := seen[si]; dup {
				continue
			}
			seen[si] = struct{}{}
			out = append(out, f.states[si].accepts...)
		}
	}
	cur := []int32{f.start}
	next := make([]int32, 0, 8)
	mark := make(map[int32]struct{}, 16)
	for _, sym := range symbols {
		next = next[:0]
		for k := range mark {
			delete(mark, k)
		}
		add := func(s int32) {
			if _, dup := mark[s]; !dup {
				mark[s] = struct{}{}
				next = append(next, s)
			}
		}
		for _, si := range cur {
			st := f.states[si]
			for _, t := range st.byLabel[sym] {
				add(t)
			}
			if sym != pattern.SymDescend {
				for _, t := range st.anyNode {
					add(t)
				}
			}
			for _, t := range st.anySym {
				add(t)
			}
		}
		if sym == pattern.SymDescend && f.gapBinding {
			// Close over wildcard arcs: anonymous gap nodes may stand in
			// for view '*' steps. Seeds are the states already reached
			// via one gap move plus the current states' wildcard arcs.
			for _, si := range cur {
				for _, t := range f.states[si].anyNode {
					add(t)
				}
			}
			for i := 0; i < len(next); i++ { // next grows during the loop
				st := f.states[next[i]]
				for _, t := range st.anyNode {
					add(t)
				}
				for _, t := range st.anySym {
					add(t)
				}
			}
		}
		cur, next = next, cur
		if len(cur) == 0 {
			break
		}
		collect(cur)
	}
	return out
}

// FilteringBudget is Filtering under a cancellation/step budget: each
// query path charges steps proportional to its automaton run. A nil
// budget never aborts on its own, but the stage fault point may.
func (f *refFilter) FilteringBudget(q *pattern.Pattern, b *budget.B) (*Result, error) {
	var queryAttrs [][]string
	var res *Result
	if f.attrPruning {
		pas := pattern.DecomposeNormalizedWithAttrsUnion(q)
		paths := make([]pattern.Path, len(pas))
		queryAttrs = make([][]string, len(pas))
		for i, pa := range pas {
			paths[i] = pa.Path
			queryAttrs[i] = pa.Attrs
		}
		res = &Result{QueryPaths: paths}
	} else {
		res = &Result{QueryPaths: pattern.DecomposeNormalized(q)}
	}
	seen := make(map[int]map[int]struct{})           // view → set of path indices
	best := make([]map[int]int, len(res.QueryPaths)) // per query path: view → max len
	for i, qp := range res.QueryPaths {
		if err := b.Step(qp.Len() + 1); err != nil {
			return nil, err
		}
		entries := f.Read(pattern.Str(qp))
		if err := b.Step(len(entries)); err != nil {
			return nil, err
		}
		best[i] = make(map[int]int)
		for _, e := range entries {
			if f.attrPruning && !pattern.SubsetSorted(e.Attrs, queryAttrs[i]) {
				continue
			}
			s, ok := seen[e.View]
			if !ok {
				s = make(map[int]struct{}, 2)
				seen[e.View] = s
			}
			s[e.PathIdx] = struct{}{}
			if e.PathLen > best[i][e.View] {
				best[i][e.View] = e.PathLen
			}
		}
	}
	res.Touched = len(seen)
	surviving := make(map[int]bool, len(seen))
	for _, id := range f.viewIDs {
		if s := seen[id]; s != nil && len(s) == f.numPaths[id] {
			surviving[id] = true
			res.Candidates = append(res.Candidates, id)
		}
	}
	res.Lists = make([][]ListEntry, len(res.QueryPaths))
	for i := range res.QueryPaths {
		list := make([]ListEntry, 0, len(best[i]))
		for v, l := range best[i] {
			if surviving[v] { // lines 22-26: drop filtered views
				list = append(list, ListEntry{View: v, Len: l})
			}
		}
		sort.Slice(list, func(a, b int) bool {
			if list[a].Len != list[b].Len {
				return list[a].Len > list[b].Len
			}
			return list[a].View < list[b].View
		})
		res.Lists[i] = list
	}
	return res, nil
}
