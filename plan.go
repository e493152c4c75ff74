package xpathviews

// This file is the serving layer's query-plan cache: the expensive
// query-dependent but data-independent work — parsing, VFILTER filtering
// (§III) and view selection (§IV) — is memoized per normalized query
// string and strategy, so a repetitive workload (the premise of Mandhani
// & Suciu's cached-view scenario, the paper's [19]) pays for each plan
// once. Of §V's rewriting only extraction executes on every call: which
// Δ-view fragments survive refinement and the join depends on the plan
// and the covered views' content alone, so the plan's rewrite.JoinPlan
// remembers that list until a covered view's generation moves.
//
// A plan is a pattern-level object, checked once: §IV decides
// answerability from the view and query patterns alone, and
// rewrite.PlanJoin checks it when it builds the plan's join skeleton. A
// plan is dropped only by LRU eviction or when the view SET changes:
// AddView, RemoveView, CompactFilter and EnableAttributePruning (and
// ApplyAdvice through AddView) bump a generation counter on System, and
// a plan written under an older one is recomputed on its next touch, so
// a cached selection never serves a dropped view. Document MUTATIONS
// (mutate.go) keep every plan: maintenance bumps the content generation
// of each view it dirtied, and the join plan reuses its remembered
// answers only while those generations stand still. A thundering herd on
// a cold key coalesces onto one computation (singleflight).
//
// A negative plan carries the degraded outcome too. When no view
// answers a query, the chain's contained and BN rungs leave their
// outcome (answer or refusal, and the budget it cost) on the first
// negative plan the chain met, stamped with the BN evaluator. Every
// insert and delete replaces that evaluator before maintenance moves
// any view's generation, and a view-set change drops the plan itself,
// so the stamp retires both outcomes whenever their inputs may have
// changed. A refused query that repeats with no mutation in between is
// then refused, and answered, at the cost of a few pointer loads. The
// memo keeps the whole answer set (32 B per answer, plus its rendering
// once the daemon encodes it) while the entry lives, after a mutation
// too, until the query comes back or the entry is evicted; an answer
// truncated by MaxAnswers is not remembered.

import (
	"errors"
	"slices"
	"strings"
	"sync/atomic"

	"xpathviews/internal/budget"
	"xpathviews/internal/engine"
	"xpathviews/internal/pattern"
	"xpathviews/internal/plancache"
	"xpathviews/internal/rewrite"
	"xpathviews/internal/selection"
	"xpathviews/internal/viewstats"
)

// PlanCacheStats re-exports the plan cache's effectiveness counters:
// Hits, Misses, Evictions, and Invalidations (entries dropped because
// the view set changed under them).
type PlanCacheStats = plancache.Stats

// PlanCacheStats returns a snapshot of the plan cache counters.
func (s *System) PlanCacheStats() PlanCacheStats { return s.plans.Stats() }

// PlanCacheLen returns the number of live cached plans (stale entries
// included until their next touch).
func (s *System) PlanCacheLen() int { return s.plans.Len() }

// queryPlan is one memoized plan: everything AnswerContext computes
// before touching fragment data. It is immutable once cached, but for
// the atomically published memos (the Δ-list inside join, the degraded
// outcome of a negative plan) — the minimized pattern and the selection
// are shared read-only by every query that hits it.
type queryPlan struct {
	// q is the minimized pattern the selection was computed against;
	// rewriting must run with exactly this pattern (the selection's
	// covers point into its nodes).
	q *pattern.Pattern
	// sel is the chosen selection; nil when err is set.
	sel *selection.Selection
	// join is the data-independent holistic-join skeleton (Δ-view
	// choice, upper twig, resolved pins) for (q, sel), computed once at
	// plan time so cache hits skip the rebuild inside the rewrite, and
	// remembering the Δ-list the first rewrite through it produced. Nil
	// when err is set; rewrite recomputes on the fly if absent.
	join *rewrite.JoinPlan
	// info records how the plan was computed (candidate set, stage
	// timings) for Result accounting and Explain.
	info planInfo
	// err caches a negative outcome (ErrNotAnswerable): repeated
	// unanswerable queries — the common case in a fallback chain — skip
	// filtering and selection too.
	err error
	// contained and direct are the degraded outcome of a negative plan
	// (see the header), published atomically by the call that computed
	// it. Both stay nil on positive plans and on plans computed for a
	// NoPlanCache call.
	contained, direct atomic.Pointer[degradedMemo]
	// patHash is the pattern-sketch hash of the minimized query
	// (viewstats.HashQuery over q.String()), feeding the workload-drift
	// detector on every touch of this plan — including negative plans:
	// unanswerable traffic is drift too.
	patHash uint64
}

// degradedMemo is a contained or BN rung's outcome for a query a
// negative plan refused, valid while bn is the System's evaluator (the
// memo holding the old pointer keeps its address from being reused).
// text holds the answers with cap == len, shared read-only by every
// Result served from the memo, and is nil when the rung refused; homs
// and steps are what the rung charged its meter, which a hit pays again.
type degradedMemo struct {
	bn          *engine.BN
	text        *rewrite.CodeText
	viewsUsed   []int
	partial     bool
	homs, steps int64
}

// newDegradedMemo remembers a rung's outcome under bn: its result, nil
// for a refusal, and what b, the rung's own meter, spent. It clips the
// result's Answers to cap == len and gives it the memo's CodeText, so
// the caller that computed them shares them like every later one.
func newDegradedMemo(bn *engine.BN, res *Result, b *budget.B) *degradedMemo {
	m := &degradedMemo{bn: bn}
	m.steps, m.homs = b.Spent()
	if res != nil {
		res.Answers = slices.Clip(res.Answers)
		m.text = rewrite.NewCodeText(res.Answers)
		m.viewsUsed, m.partial = res.ViewsUsed, res.Partial
		res.text = m.text
	}
	return m
}

// degraded returns where a negative plan keeps strat's outcome (nil
// for no plan and for a strategy other than contained or BN) and that
// outcome if it was computed under bn, the System's evaluator.
func (pl *queryPlan) degraded(strat Strategy, bn *engine.BN) (*atomic.Pointer[degradedMemo], *degradedMemo) {
	var slot *atomic.Pointer[degradedMemo]
	switch {
	case pl == nil:
		return nil, nil
	case strat == Contained:
		slot = &pl.contained
	case strat == BN:
		slot = &pl.direct
	default:
		return nil, nil
	}
	if m := slot.Load(); m != nil && m.bn == bn {
		return slot, m
	}
	return slot, nil
}

// planInfo is the observable by-product of computing a plan: the
// filtering outcome and the per-stage wall time. Stored with the plan
// so a later Explain of a cache hit can still show the surviving view
// set and what the plan cost to build.
type planInfo struct {
	// cand is |V'| after filtering (the registry size for MN).
	cand int
	// candIDs are the surviving view IDs after VFILTER (nil for MN).
	candIDs []int
	// touched counts the views VFILTER accepted at least one path of —
	// what the filtering pass costs in proportion to (0 for MN).
	touched int
	// allViews marks MN: no filtering ran, every view was considered.
	allViews bool
	// filterNanos/selectNanos are the plan-computation stage times.
	filterNanos int64
	selectNanos int64
}

// cacheLabel names the plan-cache outcome for spans and Explain.
func cacheLabel(hit, useCache bool) string {
	switch {
	case !useCache:
		return "bypass"
	case hit:
		return "hit"
	default:
		return "miss"
	}
}

// planKey builds the cache key for a normalized query under a strategy.
func planKey(strat Strategy, normalized string) string {
	return strat.String() + "\x00" + normalized
}

// NormalizeQuery canonicalizes the textual spelling of a query exactly
// the way the plan cache keys plans. Exported so serving layers (the
// xpvserved daemon) can key answer-level singleflight coalescing on the
// same spelling classes the plan cache uses: two requests whose queries
// normalize identically share one pipeline execution.
func NormalizeQuery(src string) string { return normalizeQuery(src) }

// normalizeQuery canonicalizes the textual spelling of a query for use
// as a cache key: whitespace outside quoted attribute literals is
// dropped, so "//a / b" and "//a/b" share a plan. Distinct-but-
// equivalent spellings that survive normalization simply occupy their
// own alias entries pointing at independently computed (identical)
// plans.
func normalizeQuery(src string) string {
	if !strings.ContainsAny(src, " \t\n\r") {
		return src
	}
	var b strings.Builder
	b.Grow(len(src))
	var quote byte
	for i := 0; i < len(src); i++ {
		c := src[i]
		if quote != 0 {
			b.WriteByte(c)
			if c == quote {
				quote = 0
			}
			continue
		}
		switch c {
		case '\'', '"':
			quote = c
			b.WriteByte(c)
		case ' ', '\t', '\n', '\r':
			// skip
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// bumpPlanGen invalidates every cached plan lazily. Callers hold the
// write lock (mu), so no reader observes the new view set under an old
// generation.
func (s *System) bumpPlanGen() { s.planGen.Add(1) }

// planLocked returns the plan for the minimized pattern q under strat,
// consulting the cache when useCache is set, and reports whether it was
// served from the cache. Called under s.mu (read): the generation cannot
// change while we hold it, so a plan computed here is valid for this
// call even if it is evicted concurrently.
//
// Exactly one of the hit/miss counters on co's registry is incremented
// per call that obtains a plan through the cache; bypasses count
// separately. The returned plan may carry a cached negative outcome in
// pl.err; transient failures (budget exhaustion, cancellation, contained
// internal errors) are returned as err and never cached.
func (s *System) planLocked(q *pattern.Pattern, strat Strategy, b *budget.B, useCache bool, co callObs) (*queryPlan, bool, error) {
	if !useCache {
		if co.m != nil {
			co.m.planBypass.Inc()
		}
		pl, err := s.computePlanLocked(q, strat, b, co)
		return pl, false, err
	}
	gen := s.planGen.Load()
	key := planKey(strat, q.String())
	computed := false
	v, err, shared := s.plans.GetOrCompute(key, gen, func() (any, error) {
		computed = true
		return s.computePlanLocked(q, strat, b, co)
	})
	if err != nil {
		if shared {
			// The in-flight leader failed on *its* budget or context;
			// that verdict is not ours. Compute under our own budget,
			// uncached.
			pl, cerr := s.computePlanLocked(q, strat, b, co)
			if cerr == nil {
				co.countPlan(false)
			}
			return pl, false, cerr
		}
		return nil, false, err
	}
	co.countPlan(!computed)
	return v.(*queryPlan), !computed, nil
}

// computePlanLocked runs filtering + selection and wraps the outcome as
// a plan. Only the two cacheable outcomes return a non-nil plan: a
// successful selection, or a definite ErrNotAnswerable.
func (s *System) computePlanLocked(q *pattern.Pattern, strat Strategy, b *budget.B, co callObs) (*queryPlan, error) {
	sel, info, err := s.selectLocked(q, strat, b, co)
	patHash := viewstats.HashQuery(q.String())
	if err != nil {
		if errors.Is(err, ErrNotAnswerable) {
			return &queryPlan{q: q, info: info, err: err, patHash: patHash}, nil
		}
		return nil, err
	}
	pl := &queryPlan{q: q, sel: sel, info: info, patHash: patHash}
	// A selection the strategies return always answers q, so this only
	// fails on malformed hand-built selections; the rewrite stage
	// re-derives (and re-rejects) in that case.
	if jp, jerr := rewrite.PlanJoin(q, sel.Covers); jerr == nil {
		pl.join = jp
	}
	return pl, nil
}

// putPlanAlias stores pl under an additional key (the raw source
// spelling), so the next AnswerContext with the same text skips parsing
// too. Called under s.mu (read).
func (s *System) putPlanAlias(key string, pl *queryPlan) {
	s.plans.Put(key, s.planGen.Load(), pl)
}

// lookupPlan fetches a plan by key under the current generation. Called
// under s.mu (read).
func (s *System) lookupPlan(key string) (*queryPlan, bool) {
	v, ok := s.plans.Get(key, s.planGen.Load())
	if !ok {
		return nil, false
	}
	return v.(*queryPlan), true
}
