package vfilter

import (
	"math"
	"sync"
)

// scratch is the per-call working memory of the filtering pass. It is
// taken from scratchPool for one call and never stored in a Filter:
// FilteringBudget runs under a read lock from many goroutines at once,
// and the filters of many tenants share the pool.
//
// Every per-state, per-view and per-path slot is stamped with the epoch
// it was last written in, and counts as unset unless the stamp equals
// the epoch of the phase reading it (one per query, per query path and
// per input symbol), so starting a phase is a single increment rather
// than a clear. Epochs belong to the scratch, not to a filter: whatever
// filter used it last, its stamps are older than any epoch handed out
// now. The slot arrays grow lazily to the filter at hand and are never
// shrunk.
type scratch struct {
	epoch uint32

	states  []stateSlot // by state index
	ords    []ordSlot   // by view ordinal
	entries []uint32    // by dense (view, path) index: query epoch it was counted in

	cur, next []int32 // frontiers of the automaton run
	acc       []int32 // accepting states reached by the current path
	touched   []int32 // ordinals with an accepted path, in first-touch order
	hits      []hit   // per query path: (view, longest accepting path), all paths back to back
	pathEnd   []int   // pathEnd[i] = end of query path i's run in hits
	syms      []string
}

type stateSlot struct {
	mark     uint32 // symbol epoch the state entered the next frontier in
	accepted uint32 // path epoch its accept entries were collected in
}

type ordSlot struct {
	counted uint32 // query epoch count is valid in
	listed  uint32 // path epoch hit is valid in
	count   int32  // distinct path patterns accepted so far, or survivor
	hit     int32  // index in scratch.hits of this view's entry for the current path
}

// survivor replaces an ordSlot's count once the view is known to survive.
const survivor int32 = -1

type hit struct {
	ord int32
	len int32
}

var scratchPool = sync.Pool{New: func() any { return &scratch{} }}

// begin readies the scratch for a call on f that will consume at most
// the given number of epochs: the slot arrays are grown to f, and if the
// epoch counter would wrap during the call, where a stale stamp could
// equal a live epoch, every stamp is hard-reset first.
func (sc *scratch) begin(f *Filter, epochs int) {
	sc.states = grown(sc.states, len(f.states))
	sc.ords = grown(sc.ords, len(f.views))
	sc.entries = grown(sc.entries, int(f.numEntries))
	if uint64(sc.epoch)+uint64(epochs) > math.MaxUint32 {
		clear(sc.states)
		clear(sc.ords)
		clear(sc.entries)
		sc.epoch = 0
	}
}

// grown returns s if it has at least n slots and a fresh zeroed slice
// otherwise; old stamps need not be carried over, zero is older than
// every epoch.
func grown[T any](s []T, n int) []T {
	if len(s) >= n {
		return s
	}
	return make([]T, n)
}

// tick opens a new phase and returns its epoch.
func (sc *scratch) tick() uint32 {
	sc.epoch++
	return sc.epoch
}

// add appends to dst the targets not yet stamped with symbol epoch ep,
// stamping them.
func (sc *scratch) add(dst, targets []int32, ep uint32) []int32 {
	for _, t := range targets {
		if sc.states[t].mark != ep {
			sc.states[t].mark = ep
			dst = append(dst, t)
		}
	}
	return dst
}
