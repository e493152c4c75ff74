// Package views defines materialized XPath views: a view is a tree
// pattern whose answer-node subtrees ("fragments") are pre-computed and
// stored together with the extended Dewey code of each fragment root.
// Per XPath semantics only the answer node's fragments are materialized —
// the fact that drives the whole paper (§I: a[./b/d]/c cannot be answered
// from a[./b]/c's fragments).
package views

import (
	"fmt"
	"sort"

	"xpathviews/internal/dewey"
	"xpathviews/internal/engine"
	"xpathviews/internal/pattern"
	"xpathviews/internal/xmltree"
)

// DefaultFragmentLimit is the paper's per-view cap on materialized
// fragment bytes (§VI: 128 KB, following Mandhani & Suciu).
const DefaultFragmentLimit = 128 << 10

// Fragment is one materialized answer subtree.
type Fragment struct {
	// Tree is the standalone copy of the answer node's subtree.
	Tree *xmltree.Tree
	// Code is the extended Dewey code of the fragment root in the base
	// document; the root's label-path is recoverable from it via the FST
	// without touching base data.
	Code dewey.Code
	// Path is the fragment root's label-path (the FST decoding of Code),
	// interned in the encoding's table when the fragment was built, so
	// §V refinement tests it once per distinct path. Shared; read-only.
	Path *dewey.LabelPath
	// NodeCodes holds the base-document code of every fragment node,
	// aligned with Tree.Nodes() (preorder). Extraction uses it to report
	// answers by their global codes.
	NodeCodes []dewey.Code
	// Bytes is the serialized size of the fragment.
	Bytes int
}

// View is a materialized view.
type View struct {
	// ID is the registry-assigned identifier, aligned with VFilter IDs.
	ID int
	// Pattern is the view definition.
	Pattern *pattern.Pattern
	// Fragments are the materialized answers in document order.
	Fragments []Fragment
	// TotalBytes is the sum of fragment sizes.
	TotalBytes int
	// Gen is the view's content generation: incremental maintenance bumps
	// it whenever a mutation changes this view's fragment store (or fails
	// partway through doing so). A join plan's remembered answers are
	// valid exactly while it stands still: it is the one rule between a
	// mutation and a stale answer, as cached plans outlive mutations. It
	// is written under the owning System's write lock.
	Gen uint64
}

// Materialize evaluates v's pattern over the base document and stores its
// fragments. enc must be an encoding of t. When limit > 0 and the total
// serialized size exceeds it, Materialize returns ErrTooLarge. idx may be
// nil, in which case one is built for this call.
func Materialize(id int, p *pattern.Pattern, t *xmltree.Tree, enc *dewey.Encoding, idx *engine.LabelIndex, limit int) (*View, error) {
	if idx == nil {
		idx = engine.BuildLabelIndex(t)
	}
	answers := engine.AnswersFast(t, idx, p)
	v := &View{ID: id, Pattern: p, Fragments: make([]Fragment, 0, len(answers))}
	for _, a := range answers {
		frag, err := BuildFragment(enc, a)
		if err != nil {
			return nil, fmt.Errorf("views: %w", err)
		}
		v.Fragments = append(v.Fragments, frag)
		v.TotalBytes += frag.Bytes
		if limit > 0 && v.TotalBytes > limit {
			return nil, fmt.Errorf("views: view %d: %w (%d bytes > %d)", id, ErrTooLarge, v.TotalBytes, limit)
		}
	}
	sort.Slice(v.Fragments, func(i, j int) bool {
		return dewey.Compare(v.Fragments[i].Code, v.Fragments[j].Code) < 0
	})
	return v, nil
}

// BuildFragment materializes one answer node of the base document as a
// standalone fragment: a deep copy of its subtree, the preorder-aligned
// base-document codes of every fragment node, and the root's interned
// label-path.
func BuildFragment(enc *dewey.Encoding, a *xmltree.Node) (Fragment, error) {
	code, ok := enc.CodeOf(a)
	if !ok {
		return Fragment{}, fmt.Errorf("answer node %q has no dewey code", a.Label)
	}
	sub := xmltree.FromRoot(a.CopySubtree())
	size := xmltree.SerializedSize(sub.Root())
	// CopySubtree preserves preorder, so the original subtree's node
	// codes align index-for-index with sub.Nodes().
	var codes []dewey.Code
	var collect func(n *xmltree.Node)
	collect = func(n *xmltree.Node) {
		c, _ := enc.CodeOf(n)
		codes = append(codes, c)
		for _, ch := range n.Children {
			collect(ch)
		}
	}
	collect(a)
	return Fragment{Tree: sub, Code: code.Clone(), Path: enc.PathOf(a), NodeCodes: codes, Bytes: size}, nil
}

// PrefixRange returns the half-open index range [lo, hi) of v.Fragments
// whose codes have prefix p — the fragments rooted in the subtree p
// encodes. Fragments are sorted by code (document order with ancestors
// first), so the range is contiguous and found by binary search.
func (v *View) PrefixRange(p dewey.Code) (lo, hi int) {
	lo = sort.Search(len(v.Fragments), func(i int) bool {
		return dewey.Compare(v.Fragments[i].Code, p) >= 0
	})
	hi = lo
	for hi < len(v.Fragments) && dewey.IsPrefix(p, v.Fragments[hi].Code) {
		hi++
	}
	return lo, hi
}

// FindCode returns the index of the fragment rooted exactly at code c,
// or -1.
func (v *View) FindCode(c dewey.Code) int {
	i := sort.Search(len(v.Fragments), func(i int) bool {
		return dewey.Compare(v.Fragments[i].Code, c) >= 0
	})
	if i < len(v.Fragments) && dewey.Compare(v.Fragments[i].Code, c) == 0 {
		return i
	}
	return -1
}

// ReplaceRange splices frags (already in document order) over
// v.Fragments[lo:hi], keeping TotalBytes consistent.
func (v *View) ReplaceRange(lo, hi int, frags []Fragment) {
	for _, f := range v.Fragments[lo:hi] {
		v.TotalBytes -= f.Bytes
	}
	for _, f := range frags {
		v.TotalBytes += f.Bytes
	}
	out := make([]Fragment, 0, len(v.Fragments)-(hi-lo)+len(frags))
	out = append(out, v.Fragments[:lo]...)
	out = append(out, frags...)
	out = append(out, v.Fragments[hi:]...)
	v.Fragments = out
}

// ErrTooLarge reports that a view's fragments exceed the configured cap.
var ErrTooLarge = fmt.Errorf("materialized fragments exceed the size limit")

// IsEmpty reports whether the view materialized no fragments.
func (v *View) IsEmpty() bool { return len(v.Fragments) == 0 }

// Registry holds the materialized view set V = {V1..Vn} over one
// document.
type Registry struct {
	Doc   *xmltree.Tree
	Enc   *dewey.Encoding
	Index *engine.LabelIndex
	// ViewList is indexed by view ID. IDs are never reused: a removed
	// view's slot stays nil.
	ViewList []*View
	live     int
}

// NewRegistry creates an empty registry over an encoded document.
func NewRegistry(doc *xmltree.Tree, enc *dewey.Encoding) *Registry {
	return &Registry{Doc: doc, Enc: enc, Index: engine.BuildLabelIndex(doc)}
}

// Add materializes a view pattern and registers it under the next free ID.
// Patterns are minimized first (§II assumes minimized patterns).
func (r *Registry) Add(p *pattern.Pattern, limit int) (*View, error) {
	id := len(r.ViewList)
	v, err := Materialize(id, pattern.Minimize(p), r.Doc, r.Enc, r.Index, limit)
	if err != nil {
		return nil, err
	}
	r.ViewList = append(r.ViewList, v)
	r.live++
	return v, nil
}

// Get returns the view with the given ID, or nil.
func (r *Registry) Get(id int) *View {
	if id < 0 || id >= len(r.ViewList) {
		return nil
	}
	return r.ViewList[id]
}

// Len returns the number of live (non-removed) views.
func (r *Registry) Len() int { return r.live }

// Remove drops a view from the registry, nilling its ViewList slot.
// Returns false for unknown or already-removed IDs.
func (r *Registry) Remove(id int) bool {
	if r.Get(id) == nil {
		return false
	}
	r.ViewList[id] = nil
	r.live--
	return true
}

// Views returns the live views in ID order.
func (r *Registry) Views() []*View {
	out := make([]*View, 0, r.live)
	for _, v := range r.ViewList {
		if v != nil {
			out = append(out, v)
		}
	}
	return out
}

// TotalBytes sums the live views' materialized sizes.
func (r *Registry) TotalBytes() int {
	total := 0
	for _, v := range r.Views() {
		total += v.TotalBytes
	}
	return total
}
