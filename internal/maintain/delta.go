package maintain

// Delta application: incrementally maintain one view after a subtree
// mutation. The caller (the owning System, under its write lock) has
// already applied the structural change to the document, encoding and
// label index; this file updates the view's fragment store to match.

import (
	"fmt"

	"xpathviews/internal/dewey"
	"xpathviews/internal/engine"
	"xpathviews/internal/views"
	"xpathviews/internal/xmltree"
)

// DeltaStats reports what one view's maintenance pass did.
type DeltaStats struct {
	// Added/Removed count fragments whose roots entered/left the view;
	// Refreshed counts fragments whose membership held but whose copied
	// content contained the mutation point and was re-copied.
	Added, Removed, Refreshed int
	// Changed reports that the fragment store was modified at all — the
	// signal that bumps the view's generation.
	Changed bool
	// Scanned reports that the pattern was re-evaluated over the dirty
	// scope (false when the label prefilter proved membership could not
	// change); NodesScanned counts the document nodes that visited.
	Scanned      bool
	NodesScanned int
}

// ApplyDelta maintains v after a mutation rooted at mutCode. scope is
// v's dirty root (an ancestor-or-self of the mutation root, computed
// via DirtyDepth) in the post-mutation document; it is nil exactly when
// the dirty root was the deleted subtree itself, in which case the
// scope's prefix range simply empties. mutLabels is the label set of the
// mutated subtree, used to skip re-evaluation for views whose patterns
// cannot touch it.
func ApplyDelta(v *views.View, doc *xmltree.Tree, enc *dewey.Encoding, scope *xmltree.Node, scopeCode, mutCode dewey.Code, mutLabels map[string]struct{}) (DeltaStats, error) {
	var st DeltaStats

	if !touches(v.Pattern.Root, mutLabels) {
		// Membership cannot change: every witness a membership flip needs
		// would carry a label from the mutated subtree. Only fragments
		// whose copied content contains the mutation point (roots at
		// proper-ancestor-or-self codes of mutCode) need a re-copy.
		if err := refreshAncestors(v, doc, enc, mutCode, len(mutCode), &st); err != nil {
			return st, err
		}
		st.Changed = st.Refreshed > 0
		return st, nil
	}
	st.Scanned = true

	// Re-evaluate the pattern inside the dirty scope against the full
	// document and merge the answers (document order = code order) with
	// the scope's prefix range of the store. An answer that already has a
	// fragment keeps it unless the fragment's subtree contains or is
	// contained in the mutated one (its copied content changed); only
	// those and the new answers are copied out of the document.
	lo, hi := v.PrefixRange(scopeCode)
	var answers []*xmltree.Node
	if scope != nil {
		answers, st.NodesScanned, _ = engine.AnswersWithin(v.Pattern.Spine(), scope, nil)
	}
	old := v.Fragments[lo:hi]
	fresh := make([]views.Fragment, 0, len(answers))
	i := 0
	for _, a := range answers {
		code, ok := enc.CodeOf(a)
		if !ok {
			return st, fmt.Errorf("maintain: view %d: answer node %q has no dewey code", v.ID, a.Label)
		}
		for i < len(old) && dewey.Compare(old[i].Code, code) < 0 {
			st.Removed++
			i++
		}
		kept := i < len(old) && dewey.Compare(old[i].Code, code) == 0
		if kept && !dewey.IsPrefix(code, mutCode) && !dewey.IsPrefix(mutCode, code) {
			fresh = append(fresh, old[i])
			i++
			continue
		}
		f, err := views.BuildFragment(enc, a)
		if err != nil {
			return st, fmt.Errorf("maintain: view %d: %w", v.ID, err)
		}
		fresh = append(fresh, f)
		if kept {
			st.Refreshed++
			i++
		} else {
			st.Added++
		}
	}
	st.Removed += len(old) - i
	if st.Added+st.Removed+st.Refreshed > 0 {
		v.ReplaceRange(lo, hi, fresh)
		st.Changed = true
	}

	// Fragments rooted above the splice range that contain the mutation
	// point: membership unchanged, content re-copied. The scope root and
	// everything below it were already rebuilt by the splice.
	if err := refreshAncestors(v, doc, enc, mutCode, len(scopeCode)-1, &st); err != nil {
		return st, err
	}
	st.Changed = st.Changed || st.Refreshed > 0
	return st, nil
}

// refreshAncestors re-copies every fragment rooted at a prefix of
// mutCode shorter than limit components — the fragments whose stored
// subtree copies contain the mutation point but whose membership is
// untouched. For deletes the deepest prefix (the deleted root itself,
// when limit permits) can no longer resolve; by the prefilter/splice
// arguments no fragment can be rooted there, so resolution failure for
// an existing fragment is reported as corruption.
func refreshAncestors(v *views.View, doc *xmltree.Tree, enc *dewey.Encoding, mutCode dewey.Code, limit int, st *DeltaStats) error {
	for l := 1; l <= limit && l <= len(mutCode); l++ {
		prefix := mutCode[:l]
		i := v.FindCode(prefix)
		if i < 0 {
			continue
		}
		n, ok := ResolveCode(doc, enc, prefix)
		if !ok {
			return fmt.Errorf("maintain: view %d: fragment root %s no longer resolves", v.ID, prefix)
		}
		f, err := views.BuildFragment(enc, n)
		if err != nil {
			return fmt.Errorf("maintain: view %d: %w", v.ID, err)
		}
		v.TotalBytes += f.Bytes - v.Fragments[i].Bytes
		v.Fragments[i] = f
		st.Refreshed++
	}
	return nil
}

// SubtreeLabels collects the label set of the subtree rooted at n.
func SubtreeLabels(n *xmltree.Node) map[string]struct{} {
	out := make(map[string]struct{})
	var walk func(m *xmltree.Node)
	walk = func(m *xmltree.Node) {
		out[m.Label] = struct{}{}
		for _, c := range m.Children {
			walk(c)
		}
	}
	walk(n)
	return out
}
