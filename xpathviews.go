// Package xpathviews answers XPath queries using multiple materialized
// views, implementing Tang, Yu, Özsu, Choi and Wong, "Multiple
// Materialized View Selection for XPath Query Rewriting" (ICDE 2008).
//
// The library covers the paper's full pipeline:
//
//   - materialized views over an XML document, with extended-Dewey-coded
//     fragments (§II);
//   - VFILTER, an NFA over decomposed + normalized view path patterns
//     that prunes views which cannot answer a query (§III);
//   - leaf-cover based multiple view/query answerability, exact minimum
//     selection and the greedy heuristic of Algorithm 2 (§IV);
//   - equivalent rewriting: per-view compensating refinement, a holistic
//     join of fragment roots on Dewey codes (no base-data access), and
//     answer extraction (§V);
//   - the evaluation baselines BN and BF of §VI.
//
// Basic use:
//
//	sys, _ := xpathviews.OpenXMLString(doc)
//	sys.AddView("//open_auction[bidder]/seller", xpathviews.DefaultFragmentLimit)
//	res, _ := sys.Answer("//open_auction[bidder[increase]]/seller", xpathviews.HV)
//	for _, a := range res.Answers { fmt.Println(a.Code) }
package xpathviews

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"

	"xpathviews/internal/advisor"
	"xpathviews/internal/budget"
	"xpathviews/internal/dewey"
	"xpathviews/internal/engine"
	"xpathviews/internal/pattern"
	"xpathviews/internal/plancache"
	"xpathviews/internal/rewrite"
	"xpathviews/internal/selection"
	"xpathviews/internal/storage"
	"xpathviews/internal/telemetry"
	"xpathviews/internal/vfilter"
	"xpathviews/internal/views"
	"xpathviews/internal/viewstats"
	"xpathviews/internal/xmltree"
	"xpathviews/internal/xpath"
)

// DefaultFragmentLimit re-exports the paper's 128 KB per-view cap.
const DefaultFragmentLimit = views.DefaultFragmentLimit

// Strategy selects how a query is answered; the names follow §VI.
type Strategy int

const (
	// BN evaluates directly on the document, navigationally ("basic
	// node index").
	BN Strategy = iota
	// BF evaluates directly with full index support.
	BF
	// MN selects the minimum view set without VFILTER (homomorphisms
	// against every view) and rewrites.
	MN
	// MV selects the minimum view set among VFILTER's candidates and
	// rewrites.
	MV
	// HV runs the heuristic selection (Algorithm 2) on VFILTER's
	// candidates and rewrites.
	HV
	// CV runs the cost-based selection (§IV-B's omitted cost model,
	// implemented here) on VFILTER's candidates and rewrites.
	CV
	// Contained computes a contained rewriting (§VII's data-integration
	// extension): every answer is a true answer, Result.Partial reports
	// that some may be missing. A query no view certifies any answer of
	// fails with ErrNotAnswerable.
	Contained
)

var strategyNames = [...]string{"BN", "BF", "MN", "MV", "HV", "CV", "contained"}

func (s Strategy) String() string {
	if int(s) < len(strategyNames) {
		return strategyNames[s]
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// ErrNotAnswerable re-exports the selection failure.
var ErrNotAnswerable = selection.ErrNotAnswerable

// System owns a document, its encoding, its materialized views and the
// view filter.
//
// Concurrency: a System is safe for concurrent use. Answer*, Select*
// and Filtering run under a read lock; AddView*,
// RemoveView, CompactFilter and EnableAttributePruning take the write
// lock, so view mutation serializes against in-flight queries. The
// accessors Registry and Filter return live internals — callers must not
// mutate them while queries run.
type System struct {
	mu       sync.RWMutex
	doc      *xmltree.Tree
	enc      *dewey.Encoding
	fst      *dewey.FST
	registry *views.Registry
	filter   *vfilter.Filter

	bn *engine.BN
	// bf is built lazily on the first BF query; bfOnce makes the
	// initialization race-free under the read lock. It is a pointer so
	// mutations (under the write lock) can swap in a fresh Once when they
	// invalidate the index (see resetEvalLocked in mutate.go).
	bfOnce *sync.Once
	bf     *engine.BF

	// rec is the optional workload recorder (see advise.go). An atomic
	// pointer keeps the recorder-absent answering path at one atomic
	// load — no lock, no allocation.
	rec atomic.Pointer[advisor.Recorder]

	// plans memoizes query plans (see plan.go), and planHits/planMisses
	// count calls by their outcome; planGen is the view-set generation —
	// bumped under the write lock by every view-set change (not by
	// document mutations), read under the read lock by queries, so a
	// cached selection can never outlive the views it references.
	plans                         *plancache.Cache
	planGen, planHits, planMisses atomic.Uint64

	// obsPtr holds the system's pre-resolved serving metrics (see
	// observe.go); nil disables metrics, and pendingDefault stands for
	// the process default's bundle until a call first records. An atomic
	// pointer keeps the per-call resolution at one load.
	obsPtr atomic.Pointer[servingMetrics]
	// slow is the slow-query ring; disarmed (threshold 0) by default.
	slow *telemetry.SlowLog

	// wal, when attached, receives one record per applied mutation;
	// walSeq is the last sequence number written. Guarded by mu (see
	// mutate.go).
	wal    *storage.Store
	walSeq uint64

	// vstats is the always-on view observatory (per-view utility
	// attribution, cost-model calibration, workload-drift detection; see
	// viewstats_report.go). An atomic pointer keeps the hot path at one
	// load; nil disables accounting (used by the overhead guard to
	// measure the attribution path's cost).
	vstats atomic.Pointer[viewstats.Store]
}

// Open prepares a system over an in-memory document, deriving the FST
// from the document itself (alphabetical child alphabets).
func Open(doc *xmltree.Tree) (*System, error) {
	fst := dewey.BuildFST(doc)
	return OpenWithFST(doc, fst)
}

// OpenWithFST prepares a system using a caller-supplied FST, e.g. one
// built from a schema with a specific child-alphabet order (the paper's
// Figure 3 codes depend on the order).
func OpenWithFST(doc *xmltree.Tree, fst *dewey.FST) (*System, error) {
	enc, err := dewey.Encode(doc, fst)
	if err != nil {
		return nil, fmt.Errorf("xpathviews: %w", err)
	}
	sys := &System{
		doc:      doc,
		enc:      enc,
		fst:      fst,
		registry: views.NewRegistry(doc, enc),
		filter:   vfilter.New(),
		bn:       engine.NewBN(doc),
		bfOnce:   &sync.Once{},
		plans:    plancache.New(0, 0),
		slow:     telemetry.NewSlowLog(0),
	}
	sys.obsPtr.Store(pendingDefault)
	sys.vstats.Store(viewstats.New())
	return sys, nil
}

// OpenXML parses an XML document and prepares a system over it.
func OpenXML(r io.Reader) (*System, error) {
	doc, err := xmltree.Parse(r)
	if err != nil {
		return nil, err
	}
	return Open(doc)
}

// OpenXMLString is OpenXML over a string.
func OpenXMLString(s string) (*System, error) { return OpenXML(strings.NewReader(s)) }

// Document returns the underlying tree.
func (s *System) Document() *xmltree.Tree { return s.doc }

// Encoding returns the document's extended Dewey encoding.
func (s *System) Encoding() *dewey.Encoding { return s.enc }

// FST returns the decoding transducer.
func (s *System) FST() *dewey.FST { return s.fst }

// Filter exposes the underlying VFILTER (read-mostly).
func (s *System) Filter() *vfilter.Filter { return s.filter }

// Registry exposes the materialized view registry.
func (s *System) Registry() *views.Registry { return s.registry }

// AddView parses, minimizes, materializes and indexes a view. limit caps
// the materialized bytes (0 = unlimited; DefaultFragmentLimit = paper's
// 128 KB). It returns the view's ID.
func (s *System) AddView(src string, limit int) (int, error) {
	p, err := xpath.Parse(src)
	if err != nil {
		return 0, err
	}
	return s.AddViewPattern(p, limit)
}

// AddViewPattern is AddView for already-parsed patterns.
func (s *System) AddViewPattern(p *pattern.Pattern, limit int) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, err := s.registry.Add(p, limit)
	if err != nil {
		return 0, err
	}
	s.filter.AddView(v.ID, v.Pattern)
	s.bumpPlanGen()
	return v.ID, nil
}

// NumViews returns the number of live materialized views.
func (s *System) NumViews() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.registry.Len()
}

// RemoveView drops a materialized view from both the registry and the
// filter, freeing its fragment storage for other views (IDs are not
// reused). Returns false for unknown IDs.
func (s *System) RemoveView(id int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	a := s.registry.Remove(id)
	b := s.filter.RemoveView(id)
	s.bumpPlanGen()
	return a && b
}

// CompactFilter rebuilds the VFILTER from the live views, reclaiming
// trie states left behind by RemoveView. Attribute pruning state is
// preserved.
func (s *System) CompactFilter() {
	s.mu.Lock()
	defer s.mu.Unlock()
	nf := vfilter.New()
	if s.filter.AttrPruningEnabled() {
		nf.EnableAttributePruning()
	}
	for _, v := range s.registry.Views() {
		nf.AddView(v.ID, v.Pattern)
	}
	s.filter = nf
	s.bumpPlanGen()
}

// Answer is one query result: the answer node's extended Dewey code and
// the node itself — a document node for BN/BF, a fragment node for the
// view strategies.
type Answer = rewrite.Answer

// Result reports a query's answers plus strategy metadata.
type Result struct {
	Strategy Strategy
	// Answers are read-only. A view strategy's answers are shared with
	// the cached plan that produced them and with every later call it
	// serves while the covered views' generations hold; so are the
	// contained and BN answers its plan-cache entry remembers, until
	// the next insert or delete. Copy the slice before modifying it.
	Answers []Answer
	// ViewsUsed lists the IDs of the selected views (view strategies)
	// or of the contributing views (contained); read-only and shared.
	ViewsUsed []int
	// CandidatesAfterFilter is |V'| (MV/HV only).
	CandidatesAfterFilter int
	// HomsComputed counts homomorphism computations during selection.
	HomsComputed int

	// Degraded reports that at least one earlier rung failed before this
	// result was produced (AnswerResilient only).
	Degraded bool
	// DegradedReasons records, per failed rung, "rung: cause" in the
	// order the rungs were tried (AnswerResilient only).
	DegradedReasons []string
	// Partial reports that the answers come from a contained rewriting
	// that could not certify completeness: every answer is a true answer,
	// but some answers may be missing.
	Partial bool
	// Truncated reports that MaxAnswers cut the answer list short.
	Truncated bool

	// PlanCacheHit reports the call was served from a memoized query
	// plan: filtering and selection were skipped entirely (view
	// strategies only).
	PlanCacheHit bool
	// Memo reports the cached plan remembered its answers and no covered
	// view has changed since: refinement, the join and extraction did not
	// run, and the refine/join times and join counters below (work done
	// by this call) are zero. On the contained and BN rungs of a chain
	// that read the query's plan-cache entry at a view rung, it reports
	// that the entry remembered this rung's answer and no insert or
	// delete has run since: no fragment was read, no node visited, and
	// the budget was charged what that work had cost.
	Memo bool
	// Stage wall times, in nanoseconds, read off the call's meter on
	// every call without tracing. ParseNanos covers parsing +
	// minimization and is zero when the query text hit its plan-cache
	// entry; FilterNanos and SelectNanos cover §III filtering and §IV
	// selection and are zero on a plan-cache hit (the cached plan skips
	// both — Explain still shows what the plan originally cost);
	// RefineNanos/JoinNanos/ExtractNanos cover §V's rewriting stages;
	// ExtractNanos is populated on every view-strategy call (on an
	// untraced memo hit, the whole call but its parse), the other two
	// whenever Memo is false. TotalNanos is the whole call.
	ParseNanos   int64
	FilterNanos  int64
	SelectNanos  int64
	RefineNanos  int64
	JoinNanos    int64
	ExtractNanos int64
	TotalNanos   int64

	// JoinPartitions is 1 when the holistic join ran and 0 when it did
	// not (a memo hit, an empty refinement, or the strong single-cover
	// fast path).
	JoinPartitions int
	// GallopHits counts the join merge's pops that continued the previous
	// pop's view stream — a measure of how run-structured the fragment
	// lists were.
	GallopHits int64

	// text is the plan memo's rendering of Answers' codes when Answers is
	// the memo's whole shared slice (a memo hit MaxAnswers did not cut).
	text *rewrite.CodeText
}

// Codes returns the answer codes as dotted strings, sorted as strings.
// A call served from a plan's memo reads the memo's rendering (built by
// the first caller that asks for it) and allocates only the slice.
func (r *Result) Codes() []string {
	if r.text != nil {
		return rewrite.SplitQuoted(r.text.Quoted())
	}
	return rewrite.SplitQuoted(string(rewrite.AppendQuoted(nil, r.Answers)))
}

// AppendQuotedCodes appends Codes() to dst as JSON strings joined by
// commas ("0.1","0.10","0.2") — the body of a JSON array — without
// building the strings.
func (r *Result) AppendQuotedCodes(dst []byte) []byte {
	if r.text != nil {
		return append(dst, r.text.Quoted()...)
	}
	return rewrite.AppendQuoted(dst, r.Answers)
}

// InCodeOrder returns a copy of Answers in the order of Codes().
func (r *Result) InCodeOrder() []Answer {
	out := make([]Answer, len(r.Answers))
	for k, i := range rewrite.TextOrder(r.Answers) {
		out[k] = r.Answers[i]
	}
	return out
}

// Answer evaluates the query under the chosen strategy. It is
// AnswerContext with a background context and no budgets.
func (s *System) Answer(src string, strat Strategy) (*Result, error) {
	return s.AnswerContext(context.Background(), src, Options{Strategy: strat})
}

// Select runs view selection only (the "lookup" of Figure 9), returning
// the selection and the number of candidate views after filtering (the
// registry size for MN).
func (s *System) Select(q *pattern.Pattern, strat Strategy) (*selection.Selection, int, error) {
	return s.SelectContext(context.Background(), q, Options{Strategy: strat})
}

// selectLocked runs selection under s.mu (read) with a budget,
// returning the selection plus the planInfo accounting (candidate set,
// stage timings). Stage failures (injected faults, panics) are
// converted to *InternalError. When tracing is on, it emits the
// "vfilter" and "select" stage spans.
func (s *System) selectLocked(q *pattern.Pattern, strat Strategy, b *budget.B, co callObs) (*selection.Selection, planInfo, error) {
	var info planInfo
	filtering := func() (*vfilter.Result, error) {
		sp := co.child("vfilter")
		b.Mark()
		fres, err := runStage("vfilter.filtering", func() (*vfilter.Result, error) {
			return s.filter.FilteringBudget(q, b)
		})
		info.filterNanos = b.Lap(budget.Filter)
		if sp != nil {
			sp.SetAttr("views", s.registry.Len())
			if fres != nil {
				sp.SetAttr("candidates", len(fres.Candidates))
				sp.SetAttr("touched", fres.Touched)
				sp.SetAttr("query_paths", len(fres.QueryPaths))
			}
			sp.Err(err)
			sp.End()
		}
		if fres != nil {
			info.cand = len(fres.Candidates)
			info.candIDs = fres.Candidates
			info.touched = fres.Touched
		}
		return fres, err
	}
	sel := func(algo string, f func() (*selection.Selection, error)) (*selection.Selection, planInfo, error) {
		// Seam check: filter → select. Selection can be exponential; never
		// start it for a caller that vanished during filtering.
		if err := b.CtxErr(); err != nil {
			return nil, info, err
		}
		sp := co.child("select")
		b.Mark()
		out, err := runStage(algo, f)
		info.selectNanos = b.Lap(budget.Select)
		if sp != nil {
			sp.SetAttr("algo", algo)
			sp.SetAttr("candidates", info.cand)
			if out != nil {
				leaves := 0
				for _, c := range out.Covers {
					leaves += len(c.Leaves)
				}
				sp.SetAttr("covers", len(out.Covers))
				sp.SetAttr("leaves_covered", leaves)
				sp.SetAttr("homs", out.HomsComputed)
			}
			sp.Err(err)
			sp.End()
		}
		return out, info, err
	}
	switch strat {
	case MN:
		info.cand = s.registry.Len()
		info.allViews = true
		return sel("selection.minimum", func() (*selection.Selection, error) {
			return selection.MinimumBudget(q, s.registry.Views(), b)
		})
	case MV:
		fres, err := filtering()
		if err != nil {
			return nil, info, err
		}
		cands := make([]*views.View, 0, len(fres.Candidates))
		for _, id := range fres.Candidates {
			cands = append(cands, s.registry.Get(id))
		}
		return sel("selection.minimum", func() (*selection.Selection, error) {
			return selection.MinimumBudget(q, cands, b)
		})
	case HV:
		fres, err := filtering()
		if err != nil {
			return nil, info, err
		}
		return sel("selection.heuristic", func() (*selection.Selection, error) {
			return selection.HeuristicBudget(q, fres, s.registry, b)
		})
	case CV:
		fres, err := filtering()
		if err != nil {
			return nil, info, err
		}
		return sel("selection.costbased", func() (*selection.Selection, error) {
			return selection.CostBasedBudget(q, fres, s.registry, selection.DefaultCostParams(), b)
		})
	default:
		return nil, info, fmt.Errorf("xpathviews: %v is not a view strategy", strat)
	}
}

// Filtering exposes raw VFILTER output for a query.
func (s *System) Filtering(q *pattern.Pattern) *vfilter.Result {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.filter.Filtering(q)
}

// EnableAttributePruning activates the attribute-aware VFILTER extension
// (§VII future work): view path patterns record the attribute names they
// demand, and filtering rejects views whose demands the query cannot
// satisfy. Must be called before the first AddView.
func (s *System) EnableAttributePruning() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.filter.EnableAttributePruning()
	s.bumpPlanGen()
}

// lazyBF returns the BF evaluator, building it race-free on first use.
func (s *System) lazyBF() *engine.BF {
	s.bfOnce.Do(func() { s.bf = engine.NewBF(s.doc) })
	return s.bf
}

// collectDoc converts document nodes to answers, failing loudly when a
// node has no extended Dewey code (an encoding inconsistency) instead of
// emitting a zero code. The answers are allocated once, at their final
// length.
func (s *System) collectDoc(res *Result, nodes []*xmltree.Node) error {
	res.Answers = make([]Answer, 0, len(nodes))
	for _, n := range nodes {
		code, ok := s.enc.CodeOf(n)
		if !ok {
			return fmt.Errorf("xpathviews: answer node %q has no extended Dewey code", n.Label)
		}
		res.Answers = append(res.Answers, Answer{Code: code, Node: n})
	}
	return nil
}

// MarshalAnswer serializes one answer's subtree as XML.
func MarshalAnswer(a Answer) (string, error) {
	if a.Node == nil {
		return "", fmt.Errorf("xpathviews: answer has no node")
	}
	return xmltree.MarshalString(a.Node)
}
