package xpathviews

// Document mutation + incremental view maintenance: the public face of
// internal/maintain. InsertSubtree and DeleteSubtree mutate the document
// under the write lock — serialized against in-flight queries by the
// same RWMutex the view-set mutations use — and maintain every
// materialized view incrementally:
//
//  1. The structural change is validated (well-formedness before the
//     write lock is taken; schema and addressing under it) before any
//     state mutates, so a failed mutation has no side effects; the chaos
//     point maintain.apply fires last, at the point of no return.
//  2. Inserted nodes get gap-allocated extended Dewey codes: existing
//     codes never shift, and allocation is deterministic from live state
//     so WAL replay reproduces identical codes.
//  3. Per view, the dirty root (maintain.DirtyDepth) bounds where
//     answers can change: the mutation root, unless a predicate of the
//     view on the root's ancestor chain holds with the mutated subtree
//     and fails without it — then that ancestor. Both documents are read
//     from the tree that has the subtree attached, so an insert computes
//     the dirty roots after its graft and a delete before its detach.
//     The pattern is re-evaluated only inside the dirty root's subtree
//     and the result spliced over the matching code-prefix range of the
//     fragment store, preserving document order.
//  4. No cached plan is dropped: a maintenance pass that changes a
//     view's fragments bumps that view's generation, and a plan over it
//     recomputes the answers it remembers on its next call (see plan.go).
//     Every insert and delete also replaces the BN evaluator, which
//     retires every contained and BN outcome a plan-cache entry remembers.
//  5. With a WAL attached (AttachWAL), each applied mutation appends one
//     CRC-framed record to the store; a torn final append is truncated
//     by storage.Open before replay sees it.

import (
	"fmt"
	"sync"
	"time"

	"xpathviews/internal/dewey"
	"xpathviews/internal/engine"
	"xpathviews/internal/maintain"
	"xpathviews/internal/storage"
	"xpathviews/internal/xmltree"
)

// ErrSchema re-exports the maintenance layer's schema violation: an
// inserted label outside its parent's FST child alphabet.
var ErrSchema = maintain.ErrSchema

// ErrNoSuchNode re-exports the maintenance layer's addressing failure:
// a mutation's code resolves to no live node.
var ErrNoSuchNode = maintain.ErrNoSuchNode

// MutateOptions carries the optional observability hooks of a mutation
// call, mirroring the tracing subset of Options.
type MutateOptions struct {
	// Trace records the mutation's span tree (stages: apply, maintain,
	// wal) when non-nil.
	Trace *Trace
	// TraceID propagates a W3C trace ID into metrics exemplars and the
	// slow log.
	TraceID string
}

// MaintainResult reports what one mutation did.
type MaintainResult struct {
	// Op is "insert" or "delete".
	Op string
	// Code is the inserted subtree root's newly allocated code, or the
	// deleted subtree root's code.
	Code dewey.Code
	// NodesAdded/NodesRemoved count document nodes.
	NodesAdded, NodesRemoved int
	// ViewsChecked counts live views inspected; DirtyViews those whose
	// fragment stores actually changed.
	ViewsChecked, DirtyViews int
	// ViewsScanned counts views whose pattern was re-evaluated over its
	// dirty scope; NodesScanned sums the document nodes those
	// re-evaluations visited. A mutation that lifts no dirty root scans
	// the mutated subtree once per scanned view (nothing on a delete);
	// a larger figure names a view that re-read part of the document.
	ViewsScanned, NodesScanned int
	// FragmentsAdded/FragmentsRemoved count membership changes across all
	// views; FragmentsRefreshed counts fragments re-copied because their
	// content contained the mutation point.
	FragmentsAdded, FragmentsRemoved, FragmentsRefreshed int
	// WALSeq is the sequence number of the logged record (0 = no WAL).
	WALSeq uint64
	// TotalNanos is the whole call's wall time.
	TotalNanos int64
}

// InsertSubtree parses xml as a subtree and grafts it under the node
// addressed by parentCode, assigning stable codes to the new nodes and
// incrementally maintaining every materialized view. Every label of the
// inserted subtree must already be in the FST's child alphabets
// (maintain.ErrSchema otherwise): growing an alphabet would change the
// modulus and re-label existing codes.
func (s *System) InsertSubtree(parentCode dewey.Code, xml string) (*MaintainResult, error) {
	return s.InsertSubtreeOpts(parentCode, xml, MutateOptions{})
}

// InsertSubtreeOpts is InsertSubtree with observability options.
func (s *System) InsertSubtreeOpts(parentCode dewey.Code, xml string, opts MutateOptions) (*MaintainResult, error) {
	co, t0 := s.startMutObs(opts)
	// Parsing needs no state: a malformed payload is rejected, and a
	// large one paid for, before readers are locked out.
	sub, err := parseSubtree(xml)
	if err != nil {
		s.finishMaintain(co, t0, "insert", parentCode, nil, err)
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	res, err := s.insertLocked(parentCode, sub, xml, co, true)
	s.finishMaintain(co, t0, "insert", parentCode, res, err)
	return res, err
}

// parseSubtree parses an insert's payload into a detached subtree.
func parseSubtree(xml string) (*xmltree.Node, error) {
	sub, err := xmltree.ParseString(xml)
	if err != nil {
		return nil, fmt.Errorf("xpathviews: insert: %w", err)
	}
	return sub.Root(), nil
}

// DeleteSubtree detaches the subtree rooted at the node addressed by
// code and incrementally maintains every materialized view. The freed
// code components become gaps the next insert under the same parent may
// reuse. Deleting the document root is an error.
func (s *System) DeleteSubtree(code dewey.Code) (*MaintainResult, error) {
	return s.DeleteSubtreeOpts(code, MutateOptions{})
}

// DeleteSubtreeOpts is DeleteSubtree with observability options.
func (s *System) DeleteSubtreeOpts(code dewey.Code, opts MutateOptions) (*MaintainResult, error) {
	co, t0 := s.startMutObs(opts)
	s.mu.Lock()
	defer s.mu.Unlock()
	res, err := s.deleteLocked(code, co, true)
	s.finishMaintain(co, t0, "delete", code, res, err)
	return res, err
}

// ViewGeneration returns the named view's content generation — bumped
// whenever incremental maintenance changes its fragments. ok is false
// for unknown IDs.
func (s *System) ViewGeneration(id int) (gen uint64, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v := s.registry.Get(id)
	if v == nil {
		return 0, false
	}
	return v.Gen, true
}

// AttachWAL attaches an append-only mutation log. Any mutation records
// already in the store — from a previous process over the same original
// document — are replayed first, in sequence order; the store's own
// torn-tail truncation has already dropped a partially appended final
// record by the time Open returned. Subsequent mutations append one
// record each. Returns the number of replayed mutations.
//
// Durability boundary: a mutation is applied in memory first and logged
// on success, so a crash between the two loses at most that mutation;
// the log never gets ahead of applied state, which is what keeps replay
// deterministic.
func (s *System) AttachWAL(st *storage.Store) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal != nil {
		return 0, fmt.Errorf("xpathviews: a WAL is already attached")
	}
	replayed := 0
	var maxSeq uint64
	for _, k := range st.Keys() { // sorted; zero-padded keys sort by seq
		seq, ok := maintain.ParseKey(k)
		if !ok {
			continue
		}
		val, ok := st.Get([]byte(k))
		if !ok {
			continue
		}
		rec, err := maintain.DecodeRecord(val)
		if err != nil {
			return replayed, fmt.Errorf("xpathviews: wal %s: %w", k, err)
		}
		switch rec.Op {
		case maintain.OpInsert:
			var sub *xmltree.Node
			if sub, err = parseSubtree(rec.XML); err == nil {
				_, err = s.insertLocked(rec.Code, sub, rec.XML, callObs{}, false)
			}
		case maintain.OpDelete:
			_, err = s.deleteLocked(rec.Code, callObs{}, false)
		}
		if err != nil {
			return replayed, fmt.Errorf("xpathviews: wal replay %s: %w", k, err)
		}
		replayed++
		maxSeq = seq
	}
	s.wal = st
	if maxSeq > s.walSeq {
		s.walSeq = maxSeq
	}
	return replayed, nil
}

// DetachWAL stops logging mutations and returns the previously attached
// store (nil when none was).
func (s *System) DetachWAL() *storage.Store {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.wal
	s.wal = nil
	return st
}

// insertLocked applies one insert (sub parsed from xml) under the write
// lock, optionally logging it. Panics and injected faults inside the
// apply are contained as *InternalError; the fault point fires before
// any state changes.
func (s *System) insertLocked(parentCode dewey.Code, sub *xmltree.Node, xml string, co callObs, logWAL bool) (*MaintainResult, error) {
	res := &MaintainResult{Op: "insert"}
	sp := co.child("apply")
	_, err := runStage("maintain.apply", func() (struct{}, error) {
		return struct{}{}, s.applyInsertLocked(parentCode, sub, res, co)
	})
	if sp != nil {
		sp.SetAttr("op", "insert")
		sp.SetAttr("nodes", res.NodesAdded)
		sp.Err(err)
		sp.End()
	}
	if err != nil {
		return nil, err
	}
	if logWAL {
		if werr := s.logMutation(maintain.Record{Op: maintain.OpInsert, Code: parentCode, XML: xml}, res, co); werr != nil {
			return res, werr
		}
	}
	return res, nil
}

// deleteLocked applies one delete under the write lock, optionally
// logging it.
func (s *System) deleteLocked(code dewey.Code, co callObs, logWAL bool) (*MaintainResult, error) {
	res := &MaintainResult{Op: "delete"}
	sp := co.child("apply")
	_, err := runStage("maintain.apply", func() (struct{}, error) {
		return struct{}{}, s.applyDeleteLocked(code, res, co)
	})
	if sp != nil {
		sp.SetAttr("op", "delete")
		sp.SetAttr("nodes", res.NodesRemoved)
		sp.Err(err)
		sp.End()
	}
	if err != nil {
		return nil, err
	}
	if logWAL {
		if werr := s.logMutation(maintain.Record{Op: maintain.OpDelete, Code: code}, res, co); werr != nil {
			return res, werr
		}
	}
	return res, nil
}

// logMutation appends one record to the attached WAL (a no-op without
// one). The mutation is already applied; a log failure is returned so
// the caller knows durability lapsed, but the in-memory state stands.
func (s *System) logMutation(rec maintain.Record, res *MaintainResult, co callObs) error {
	if s.wal == nil {
		return nil
	}
	sp := co.child("wal")
	s.walSeq++
	err := s.wal.Put([]byte(maintain.Key(s.walSeq)), rec.Encode())
	if err == nil {
		res.WALSeq = s.walSeq
	}
	if sp != nil {
		sp.SetAttr("seq", res.WALSeq)
		sp.Err(err)
		sp.End()
	}
	if err != nil {
		return fmt.Errorf("xpathviews: wal append: %w", err)
	}
	return nil
}

// applyInsertLocked does the structural insert: validate, graft, encode,
// index, then maintain views. Validation precedes every state change.
func (s *System) applyInsertLocked(parentCode dewey.Code, subRoot *xmltree.Node, res *MaintainResult, co callObs) error {
	parent, ok := maintain.ResolveCode(s.doc, s.enc, parentCode)
	if !ok {
		return fmt.Errorf("%w: parent %s", maintain.ErrNoSuchNode, parentCode)
	}
	if err := maintain.ValidateSubtree(s.fst, parent.Label, subRoot); err != nil {
		return err
	}
	// The root's component decides the document position: the children
	// array stays sorted by component, so document order and code order
	// remain the same relation after any mutation sequence.
	probe, err := maintain.ChildCode(s.enc, parent, subRoot.Label)
	if err != nil {
		return err
	}
	pos := maintain.ChildPos(s.enc, parent, probe[len(probe)-1])
	if err := maintain.FaultApply.Fire(); err != nil {
		return err
	}
	// Point of no return: everything below is infallible by construction
	// (EncodeSubtree cannot fail on a validated subtree).
	s.doc.GraftAt(parent, subRoot, pos)
	added, err := maintain.EncodeSubtree(s.enc, subRoot)
	if err != nil {
		return fmt.Errorf("xpathviews: insert: %w", err)
	}
	rootCode := s.enc.MustCode(subRoot)
	s.registry.Index.AddSubtree(s.doc, subRoot)
	s.resetEvalLocked()
	res.Code = rootCode.Clone()
	res.NodesAdded = added
	// The dirty roots compare the document with and without the new
	// subtree; with it grafted, this tree holds both.
	chain := subRoot.Chain()
	mutLabels := maintain.SubtreeLabels(subRoot)
	return s.maintainViewsLocked(rootCode, chain, s.dirtyDepthsLocked(chain, mutLabels), mutLabels, res, co)
}

// applyDeleteLocked does the structural delete: resolve, find the dirty
// roots, detach, unindex, forget codes, then maintain views.
func (s *System) applyDeleteLocked(code dewey.Code, res *MaintainResult, co callObs) error {
	n, ok := maintain.ResolveCode(s.doc, s.enc, code)
	if !ok {
		return fmt.Errorf("%w: %s", maintain.ErrNoSuchNode, code)
	}
	if n == s.doc.Root() {
		return fmt.Errorf("xpathviews: cannot delete the document root")
	}
	// Everything that reads the doomed subtree happens before it
	// detaches: whether a predicate above it loses its last witness can
	// only be asked while the witness is still there.
	chain := n.Chain()
	mutLabels := maintain.SubtreeLabels(n)
	depths := s.dirtyDepthsLocked(chain, mutLabels)
	removed := n.SubtreeSize()
	if err := maintain.FaultApply.Fire(); err != nil {
		return err
	}
	if err := s.doc.Detach(n); err != nil {
		return fmt.Errorf("xpathviews: delete: %w", err)
	}
	s.registry.Index.RemoveSubtree(n)
	maintain.ForgetSubtree(s.enc, n)
	s.resetEvalLocked()
	res.Code = code.Clone()
	res.NodesRemoved = removed
	// A view whose dirty root is the deleted subtree itself has nothing
	// left to re-evaluate: its scope's prefix range just empties.
	chain[len(chain)-1] = nil
	return s.maintainViewsLocked(code, chain, depths, mutLabels, res, co)
}

// dirtyDepthsLocked computes every live view's dirty depth for a
// mutation rooted at the last node of chain, aligned with
// registry.Views(). It only reads, and must run while the mutated
// subtree is attached.
func (s *System) dirtyDepthsLocked(chain []*xmltree.Node, mutLabels map[string]struct{}) []int {
	vs := s.registry.Views()
	depths := make([]int, len(vs))
	for i, v := range vs {
		depths[i] = maintain.DirtyDepth(v.Pattern, chain, mutLabels)
	}
	return depths
}

// maintainViewsLocked runs the per-view delta pass for a mutation rooted
// at mutCode, bumping the generation of every view it dirtied. chain
// is the post-mutation root-to-mutation-root node chain (its last entry
// nil after a delete) and depths[i] the dirty depth of registry.Views()[i]
// along it.
func (s *System) maintainViewsLocked(mutCode dewey.Code, chain []*xmltree.Node, depths []int, mutLabels map[string]struct{}, res *MaintainResult, co callObs) error {
	sp := co.child("maintain")
	vstats := s.vstats.Load()
	for i, v := range s.registry.Views() {
		res.ViewsChecked++
		depth := depths[i]
		st, err := maintain.ApplyDelta(v, s.doc, s.enc, chain[depth], mutCode[:depth+1], mutCode, mutLabels)
		if st.Scanned {
			res.ViewsScanned++
			res.NodesScanned += st.NodesScanned
		}
		// Gen is the unconditional truth about v's fragments: the answers
		// a cached plan remembers are valid exactly while it stands still.
		// A failed pass may have spliced or refreshed part of the store
		// before it stopped.
		if st.Changed || err != nil {
			v.Gen++
		}
		if err != nil {
			if sp != nil {
				sp.Err(err)
				sp.End()
			}
			return err
		}
		res.FragmentsAdded += st.Added
		res.FragmentsRemoved += st.Removed
		res.FragmentsRefreshed += st.Refreshed
		if st.Changed {
			res.DirtyViews++
			// Feed the observatory's upkeep side: the dirty-splice
			// composition, against the fragment count a full
			// rematerialization would have recopied — so the per-view
			// benefit report can net out maintenance cost.
			vstats.RecordMaintain(v.ID,
				int64(st.Added), int64(st.Removed), int64(st.Refreshed),
				int64(len(v.Fragments)))
		}
	}
	if sp != nil {
		sp.SetAttr("views", res.ViewsChecked)
		sp.SetAttr("dirty_views", res.DirtyViews)
		sp.SetAttr("fragments_added", res.FragmentsAdded)
		sp.SetAttr("fragments_removed", res.FragmentsRemoved)
		sp.SetAttr("fragments_refreshed", res.FragmentsRefreshed)
		sp.SetAttr("views_scanned", res.ViewsScanned)
		sp.SetAttr("nodes_scanned", res.NodesScanned)
		sp.End()
	}
	return nil
}

// resetEvalLocked refreshes evaluator state that depends on document
// structure: BN just wraps the live tree, BF holds a path index and is
// rebuilt lazily on its next use. The new BN is also the stamp a
// plan-cache entry's degraded outcome is checked against (degradedMemo
// in plan.go), which is why it is replaced before maintenance moves any
// view's generation. Swapping the Once is safe because no
// reader can be inside lazyBF while the write lock is held.
func (s *System) resetEvalLocked() {
	s.bn = engine.NewBN(s.doc)
	s.bf = nil
	s.bfOnce = &sync.Once{}
}

// startMutObs resolves a mutation call's observation state.
func (s *System) startMutObs(opts MutateOptions) (callObs, time.Time) {
	co := callObs{m: s.metrics(), sp: opts.Trace.Root(), traceID: opts.TraceID}
	if co.traceID == "" {
		co.traceID = opts.Trace.ID()
	}
	return co, time.Now()
}

// finishMaintain closes out one mutation call: counters, latency
// histogram (exemplared when a trace ID is present), root span, and the
// slow log (strategy "maintain:<op>", query = the addressed code).
func (s *System) finishMaintain(co callObs, t0 time.Time, op string, code dewey.Code, res *MaintainResult, err error) {
	total := time.Since(t0)
	if res != nil {
		res.TotalNanos = int64(total)
	}
	if co.sp != nil {
		co.sp.SetAttr("op", op)
		if res != nil {
			co.sp.SetAttr("dirty_views", res.DirtyViews)
		}
		co.sp.Err(err)
		co.sp.End()
	}
	if m := co.m; m != nil {
		m.maintains.Inc()
		m.latMaintain.ObserveExemplar(int64(total), co.traceID)
		if err != nil {
			m.maintainErrs.Inc()
		}
		if res != nil {
			m.maintainDirty.Add(int64(res.DirtyViews))
			m.maintainFragsAdd.Add(int64(res.FragmentsAdded))
			m.maintainFragsDel.Add(int64(res.FragmentsRemoved))
			m.maintainNodes.Add(int64(res.NodesScanned))
		}
	}
	if th := s.slow.Threshold(); th > 0 && total >= th {
		if co.m != nil {
			co.m.slowQueries.Inc()
		}
		e := SlowQuery{
			Time:     time.Now(),
			Strategy: "maintain:" + op,
			Total:    total,
			TraceID:  co.traceID,
			Query:    code.String(),
		}
		if err != nil {
			e.Err = err.Error()
		}
		s.slow.Record(e)
	}
}
