// Package viewstats is the view observatory's accounting core: an
// always-on, allocation-free layer the serving pipeline threads its
// per-view attribution through. It answers the three questions the
// paper's offline §IV-B selection cannot — which materialized views
// actually earn their bytes (per-view hit counters and Δ-fragment
// volume), how far the predicted cost drifts from realized latency
// (a running calibration error, per view and global), and whether the
// live workload still looks like the one the view set was advised from
// (the drift detector in drift.go).
//
// Design constraints mirror internal/telemetry:
//
//  1. The hot path is atomics only. Per-view slots are indexed by the
//     registry's dense, never-reused view IDs through a copy-on-write
//     slice behind an atomic pointer, so steady-state recording takes
//     no lock and allocates nothing; the slice grows (under a mutex)
//     only when a brand-new view ID is first seen.
//  2. Floating-point accumulators (cost-model scale, calibration-error
//     EWMAs) are CAS loops over math.Float64bits — no mutex, no box.
//  3. A nil *Store is inert: every method nil-checks, so "observatory
//     off" is a nil pointer, exactly like a nil metrics registry.
package viewstats

import (
	"math"
	"sync"
	"sync/atomic"
)

// EWMA smoothing factors. The scale (realized ns per predicted cost
// unit) adapts faster than the error estimate so a plan-mix change
// re-centers the model before it poisons the error signal.
const (
	scaleAlpha = 0.2
	calAlpha   = 0.1
	// relErrCap bounds one observation's relative error contribution:
	// a single pathological call (cold cache, GC pause) must not wipe
	// out the EWMA's history.
	relErrCap = 10.0
)

// ewma is an atomic float64 exponentially weighted moving average. The
// zero value is "unset": the first update seeds it directly.
type ewma struct{ bits atomic.Uint64 }

func (e *ewma) value() float64 { return math.Float64frombits(e.bits.Load()) }

// update folds x in with smoothing factor alpha and returns the new
// average. Lock-free: concurrent updates serialize through CAS.
func (e *ewma) update(x, alpha float64) float64 {
	for {
		old := e.bits.Load()
		next := x
		if old != 0 {
			cur := math.Float64frombits(old)
			next = cur + alpha*(x-cur)
		}
		if e.bits.CompareAndSwap(old, math.Float64bits(next)) {
			return next
		}
	}
}

// Slot is one view's live accounting. All fields are atomics; a Slot is
// shared by every goroutine serving or maintaining the view.
type Slot struct {
	// Serving-side attribution.
	hits         atomic.Int64 // answered queries this view's cover contributed to
	fragsScanned atomic.Int64 // fragments refinement looked at on behalf of those queries
	fragsKept    atomic.Int64 // Δ-fragment volume: fragments surviving refinement
	calErr       ewma         // per-view calibration relative-error EWMA
	calObs       atomic.Int64

	// Maintenance-side upkeep (fed by the mutation path so benefit can
	// be reported net of what the view costs to keep fresh).
	maintPasses     atomic.Int64
	spliceAdded     atomic.Int64
	spliceRemoved   atomic.Int64
	spliceRefreshed atomic.Int64
	lastSplice      atomic.Int64 // size of the most recent dirty splice
	fullFrags       atomic.Int64 // fragments a full rematerialization would have recopied, cumulative
}

// SlotStat is a point-in-time read of one view's slot.
type SlotStat struct {
	ID              int     `json:"id"`
	Hits            int64   `json:"hits"`
	FragsScanned    int64   `json:"frags_scanned"`
	FragsKept       int64   `json:"frags_kept"`
	CalibrationErr  float64 `json:"calibration_err"`
	CalibrationObs  int64   `json:"calibration_obs"`
	MaintPasses     int64   `json:"maint_passes"`
	SpliceAdded     int64   `json:"splice_added"`
	SpliceRemoved   int64   `json:"splice_removed"`
	SpliceRefreshed int64   `json:"splice_refreshed"`
	LastSpliceSize  int64   `json:"last_splice_size"`
	FullFrags       int64   `json:"full_frags"`
}

// SpliceTotal is the view's cumulative dirty-splice volume — the
// incremental-maintenance work it has cost so far.
func (st SlotStat) SpliceTotal() int64 {
	return st.SpliceAdded + st.SpliceRemoved + st.SpliceRefreshed
}

// IncrementalFrac estimates the incremental-vs-full maintenance ratio:
// splice volume over what full rematerialization would have recopied
// across the same passes (0 when the view was never maintained; lower
// is better).
func (st SlotStat) IncrementalFrac() float64 {
	if st.FullFrags <= 0 {
		return 0
	}
	return float64(st.SpliceTotal()) / float64(st.FullFrags)
}

// Store is the observatory: per-view slots plus the global cost-model
// calibration state and the workload-drift detector.
type Store struct {
	growMu sync.Mutex
	slots  atomic.Pointer[[]*Slot]

	queries atomic.Int64 // attributed (view-answered) queries
	scale   ewma         // realized ns per predicted §IV-B cost unit
	calErr  ewma         // global calibration relative-error EWMA
	calObs  atomic.Int64

	// Drift is the workload-drift detector (see drift.go). Embedded by
	// value so the Store stays one allocation.
	Drift Detector
}

// New builds an empty observatory.
func New() *Store {
	s := &Store{}
	s.Drift.init()
	return s
}

// Slot returns view id's slot, growing the slot table on first sight of
// the id. The grow path takes a mutex and allocates; the steady state —
// every live view already has a slot — is one atomic load and an index.
func (s *Store) Slot(id int) *Slot {
	if s == nil || id < 0 {
		return nil
	}
	if p := s.slots.Load(); p != nil && id < len(*p) {
		return (*p)[id]
	}
	return s.growSlot(id)
}

func (s *Store) growSlot(id int) *Slot {
	s.growMu.Lock()
	defer s.growMu.Unlock()
	old := s.slots.Load()
	n := 0
	if old != nil {
		n = len(*old)
	}
	if id < n {
		return (*old)[id]
	}
	next := make([]*Slot, id+1, id+8)
	if old != nil {
		copy(next, *old)
	}
	for i := n; i < len(next); i++ {
		next[i] = &Slot{}
	}
	s.slots.Store(&next)
	return next[id]
}

// Peek returns view id's slot without growing, or nil.
func (s *Store) Peek(id int) *Slot {
	if s == nil || id < 0 {
		return nil
	}
	if p := s.slots.Load(); p != nil && id < len(*p) {
		return (*p)[id]
	}
	return nil
}

// Len returns the slot table's extent (max seen view ID + 1).
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	if p := s.slots.Load(); p != nil {
		return len(*p)
	}
	return 0
}

// RecordQuery folds one answered query's predicted §IV-B cost and its
// realized rewrite time into the calibration model and returns the
// call's relative calibration error (against the pre-update scale), or
// -1 when no error can be computed yet (first observation seeds the
// scale, non-positive inputs are ignored). Allocation-free.
func (s *Store) RecordQuery(predCost float64, realizedNs int64) float64 {
	if s == nil {
		return -1
	}
	s.queries.Add(1)
	if predCost <= 0 || realizedNs <= 0 {
		return -1
	}
	prev := s.scale.value()
	s.scale.update(float64(realizedNs)/predCost, scaleAlpha)
	if prev == 0 {
		return -1
	}
	predNs := predCost * prev
	rel := math.Abs(float64(realizedNs)-predNs) / predNs
	if rel > relErrCap {
		rel = relErrCap
	}
	s.calErr.update(rel, calAlpha)
	s.calObs.Add(1)
	return rel
}

// RecordViewHit attributes one answered query to a contributing view:
// scanned/kept are the view's refinement volumes for this call, relErr
// the call's calibration error from RecordQuery (negative = none).
// Allocation-free in the steady state.
func (s *Store) RecordViewHit(id int, scanned, kept int64, relErr float64) {
	sl := s.Slot(id)
	if sl == nil {
		return
	}
	sl.hits.Add(1)
	if scanned != 0 || kept != 0 { // a memo hit scans nothing
		sl.fragsScanned.Add(scanned)
		sl.fragsKept.Add(kept)
	}
	if relErr >= 0 {
		sl.calErr.update(relErr, calAlpha)
		sl.calObs.Add(1)
	}
}

// RecordMaintain feeds one maintenance pass's per-view outcome: the
// dirty-splice composition and the fragment count a full
// rematerialization would have recopied instead.
func (s *Store) RecordMaintain(id int, added, removed, refreshed, fullFrags int64) {
	sl := s.Slot(id)
	if sl == nil {
		return
	}
	sl.maintPasses.Add(1)
	sl.spliceAdded.Add(added)
	sl.spliceRemoved.Add(removed)
	sl.spliceRefreshed.Add(refreshed)
	sl.lastSplice.Store(added + removed + refreshed)
	sl.fullFrags.Add(fullFrags)
}

// Queries returns the number of attributed queries.
func (s *Store) Queries() int64 {
	if s == nil {
		return 0
	}
	return s.queries.Load()
}

// CalibrationError returns the global relative-error EWMA and how many
// observations shaped it.
func (s *Store) CalibrationError() (errEWMA float64, obs int64) {
	if s == nil {
		return 0, 0
	}
	return s.calErr.value(), s.calObs.Load()
}

// ScaleNsPerCost returns the model's current conversion factor:
// realized rewrite nanoseconds per predicted §IV-B cost unit (0 until
// the first observation).
func (s *Store) ScaleNsPerCost() float64 {
	if s == nil {
		return 0
	}
	return s.scale.value()
}

// Stat reads view id's slot (zero SlotStat for unseen IDs).
func (s *Store) Stat(id int) SlotStat {
	st := SlotStat{ID: id}
	sl := s.Peek(id)
	if sl == nil {
		return st
	}
	st.Hits = sl.hits.Load()
	st.FragsScanned = sl.fragsScanned.Load()
	st.FragsKept = sl.fragsKept.Load()
	st.CalibrationErr = sl.calErr.value()
	st.CalibrationObs = sl.calObs.Load()
	st.MaintPasses = sl.maintPasses.Load()
	st.SpliceAdded = sl.spliceAdded.Load()
	st.SpliceRemoved = sl.spliceRemoved.Load()
	st.SpliceRefreshed = sl.spliceRefreshed.Load()
	st.LastSpliceSize = sl.lastSplice.Load()
	st.FullFrags = sl.fullFrags.Load()
	return st
}

// Stats reads every slot, in view-ID order.
func (s *Store) Stats() []SlotStat {
	n := s.Len()
	out := make([]SlotStat, 0, n)
	for id := 0; id < n; id++ {
		out = append(out, s.Stat(id))
	}
	return out
}

// HashQuery hashes a query's canonical rendering for the drift sketch:
// FNV-1a over the bytes with whitespace skipped, so "//a / b" and
// "//a/b" land in the same bucket. The serving layer hashes each query
// once, over the canonical spelling its plan-cache entry is keyed by
// (which has no whitespace). Allocation-free.
func HashQuery(q string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(q); i++ {
		c := q[i]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			continue
		}
		h ^= uint64(c)
		h *= prime64
	}
	return h
}
