package vfilter

import "xpathviews/internal/pattern"

// Attribute pruning implements the extension §VII sketches as future work
// ("we plan to incorporate attributes into VFILTER to gain further
// pruning power"): each view path pattern records the attribute names its
// nodes demand, and an acceptance only counts when those names all appear
// on the accepted query path. The condition is necessary for containment
// — a homomorphism maps every view node (with its attribute predicates,
// which must appear verbatim on the image, §V) onto a node of the
// accepted query path — so pruning adds no false negatives.
//
// Enable it with EnableAttributePruning before the first AddView.

// EnableAttributePruning turns the extension on. It must be called while
// the filter is still empty; enabling it later would leave earlier views
// without recorded attribute requirements.
func (f *Filter) EnableAttributePruning() {
	if len(f.ordOf) != 0 {
		panic("vfilter: EnableAttributePruning after AddView")
	}
	f.attrPruning = true
}

// AttrPruningEnabled reports whether the extension is active.
func (f *Filter) AttrPruningEnabled() bool { return f.attrPruning }

// addViewAttrs inserts a view recording per-path attribute requirements.
func (f *Filter) addViewAttrs(id int, v *pattern.Pattern) {
	paths := pattern.DecomposeNormalizedWithAttrs(v)
	ord, base := f.newView(id, len(paths))
	for i, pa := range paths {
		f.insertPath(Entry{View: id, PathIdx: i, PathLen: pa.Path.Len(), Attrs: pa.Attrs, ord: ord, idx: base + int32(i)}, pa.Path)
	}
}
