package vfilter

// RemoveView retracts a view from the filter: its accept entries are
// dropped (so it can never again appear as a candidate) and its ordinal
// becomes a tombstone, never handed out again — a view re-added under
// the same ID is a new view at the end of the insertion order. Trie
// states stay in place — the paper notes NFA insertion/deletion is cheap
// precisely because shared states need no restructuring; states that no
// longer accept anything are harmless and are reclaimed, together with
// the tombstones, when the owner rebuilds the filter (see the System
// facade's CompactFilter). Removing an unknown ID is a no-op and
// reported as false.
func (f *Filter) RemoveView(id int) bool {
	ord, ok := f.ordOf[id]
	if !ok {
		return false
	}
	delete(f.ordOf, id)
	f.views[ord].paths = -1
	for _, st := range f.states {
		if len(st.accepts) == 0 {
			continue
		}
		kept := st.accepts[:0]
		for _, e := range st.accepts {
			if e.ord != ord {
				kept = append(kept, e)
			}
		}
		st.accepts = kept
	}
	return true
}
