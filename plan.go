package xpathviews

// This file is the serving layer's query-plan cache: the expensive
// query-dependent but data-independent work — parsing, VFILTER filtering
// (§III) and view selection (§IV) — is memoized per query, so a
// repetitive workload (the premise of Mandhani & Suciu's cached-view
// scenario, the paper's [19]) pays for each plan once. Of §V's
// rewriting the plan's rewrite.JoinPlan remembers the answers until a
// covered view's generation moves.
//
// A query has one entry (queryEntry): its minimized pattern and one plan
// slot per view strategy. It is keyed by the query text exactly as sent
// — not normalized, so a text the parser rejects is rejected on every
// call — and, once that text parses, by its canonical spelling
// q.String() too, so the spellings of one pattern share one entry. A
// call looks its text up once; a hit needs no parse.
//
// A plan is a pattern-level object, checked once: §IV decides
// answerability from the view and query patterns alone, and
// rewrite.PlanJoin checks it when it builds the plan's join skeleton. An
// entry leaves the cache only when its keys are evicted (the cache keeps
// at most plancache.DefaultCapacity keys, and at a full shard a new key
// displaces the least recently used one only if it was looked up more
// often, so a scan of one-off queries cannot empty it; a refused entry
// still serves the call that built it) or when the view SET changes:
// AddView, RemoveView, CompactFilter and EnableAttributePruning (and
// ApplyAdvice through AddView) bump a generation counter on System, and
// an entry written under an older one is a miss on its next touch, so a
// cached selection never serves a dropped view. Document MUTATIONS
// (mutate.go) keep every entry: maintenance bumps the content generation
// of each view it dirtied, and a join plan's remembered answers count
// only while those stand still. A cold query's herd plans once.
//
// The entry carries the degraded outcome too: when no view rung answers,
// the chain's contained and BN rungs leave their outcome (answer or
// refusal, and the budget it cost) on it, stamped with the BN evaluator.
// Every insert and delete replaces that evaluator before maintenance
// moves any view's generation, and a view-set change drops the entry, so
// the stamp retires both outcomes whenever their inputs may have
// changed. A refused query that repeats with no mutation in between is
// then refused, and answered, at the cost of a few pointer loads. The
// memo keeps the whole answer set (32 B per answer, plus its rendering
// once the daemon encodes it) while the entry lives, after a mutation
// too; an answer truncated by MaxAnswers is not remembered.

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

// PlanCacheStats reports the plan cache's effectiveness. Hits and Misses
// count calls that consult the cache, once each: a hit is a call whose
// first view rung found its plan computed. The others count keys:
// Evictions (an admitted key took the place of its shard's least
// recently used one), Invalidations (keys dropped because the view set
// changed under them) and Rejected (new keys the admission filter kept
// out of a full shard; their call was answered all the same).
type PlanCacheStats struct {
	Hits, Misses                       uint64
	Evictions, Invalidations, Rejected uint64
}

// PlanCacheStats returns a snapshot of the plan cache counters.
func (s *System) PlanCacheStats() PlanCacheStats {
	st := s.plans.Stats()
	return PlanCacheStats{
		Hits: s.planHits.Load(), Misses: s.planMisses.Load(),
		Evictions: st.Evictions, Invalidations: st.Invalidations, Rejected: st.Rejected,
	}
}

// PlanCacheLen returns the number of live cache keys (stale ones
// included until their next touch): one or two per query entry, at most
// plancache.DefaultCapacity.
func (s *System) PlanCacheLen() int { return s.plans.Len() }

// queryEntry is one query's plan-cache entry, shared by every key that
// names it; its slots and memos are published atomically.
type queryEntry struct {
	// q is the minimized pattern every plan of the entry was computed
	// against; rewriting must run with exactly this pattern (the
	// selections' covers point into its nodes).
	q *pattern.Pattern
	// patHash is viewstats.HashQuery(q.String()), fed to the drift
	// detector on every touch of a plan, negative plans included.
	patHash uint64
	// plans holds one slot per view strategy (MN, MV, HV, CV), each
	// computed once under flights.
	plans   [CV - MN + 1]atomic.Pointer[queryPlan]
	flights plancache.Group
	// contained and direct are the contained and BN rungs' degraded
	// outcome (see the header).
	contained, direct atomic.Pointer[degradedMemo]
}

func newQueryEntry(q *pattern.Pattern) *queryEntry {
	return &queryEntry{q: q, patHash: viewstats.HashQuery(q.String())}
}

// queryPlan is one strategy's plan for a query: everything AnswerContext
// computes before touching fragment data, immutable but for the Δ-list
// memo inside join and shared read-only by every query that hits it.
type queryPlan struct {
	// sel is the chosen selection; nil when err is set.
	sel *selection.Selection
	// viewsUsed lists the selected views' IDs with cap == len, shared by
	// every Result the plan serves.
	viewsUsed []int
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

// degraded returns where the entry keeps strat's outcome (nil for no
// entry and for a strategy other than contained or BN) and that outcome
// if it was computed under bn, the System's evaluator.
func (e *queryEntry) degraded(strat Strategy, bn *engine.BN) (slot *atomic.Pointer[degradedMemo], m *degradedMemo) {
	switch {
	case e == nil:
	case strat == Contained:
		slot = &e.contained
	case strat == BN:
		slot = &e.direct
	}
	if slot != nil {
		if m = slot.Load(); m != nil && m.bn != bn {
			m = nil
		}
	}
	return slot, m
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

// NormalizeQuery drops whitespace outside quoted attribute literals, so
// "//a / b" and "//a/b" read alike. Neither the plan cache nor the
// daemon's answer coalescing keys on it: two texts it maps together may
// still parse differently, or one not at all.
func NormalizeQuery(src string) string {
	if !strings.ContainsAny(src, " \t\n\r") {
		return src
	}
	b := make([]byte, 0, len(src))
	var quote byte
	for i := 0; i < len(src); i++ {
		switch c := src[i]; {
		case quote != 0 && c == quote:
			quote = 0
		case quote != 0:
		case c == '\'' || c == '"':
			quote = c
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			continue
		}
		b = append(b, src[i])
	}
	return string(b)
}

// bumpPlanGen invalidates every cached entry lazily. Callers hold the
// write lock (mu), so no reader observes the new view set under an old
// generation.
func (s *System) bumpPlanGen() { s.planGen.Add(1) }

// addEntry returns the entry of q, the minimized pattern src parsed to:
// the one cached under q's canonical spelling (concurrent callers get
// one), or a new one offered to the cache there, which src then names
// too. A new entry's two keys share its admission verdict, so a query
// spelled off its canonical form wins admission once, as one spelled on
// it does. Called under s.mu (read): the generation cannot change
// while we hold it.
func (s *System) addEntry(src string, q *pattern.Pattern) *queryEntry {
	gen := s.planGen.Load()
	canon := q.String()
	computed := false
	v, _, _ := s.plans.GetOrCompute(canon, gen, func() (any, error) {
		computed = true
		return newQueryEntry(q), nil
	})
	e := v.(*queryEntry)
	switch {
	case src == canon:
	case computed:
		s.plans.PutAlias(src, canon, gen, e)
	default:
		s.plans.Put(src, gen, e)
	}
	return e
}

// plan returns the entry's plan for strat, computing it under
// singleflight on first use, and reports whether it was already there
// (a follower of another call's computation counts as a hit). Called
// under s.mu (read), so a plan computed here is valid for this call even
// if the entry is evicted concurrently. The plan may carry a cached
// negative outcome in pl.err; transient failures (budget exhaustion,
// cancellation, contained internal errors) are returned as err and
// never cached, and a leader's is not ours: the call then computes
// under its own budget, uncached.
func (s *System) plan(e *queryEntry, strat Strategy, b *budget.B, co callObs) (*queryPlan, bool, error) {
	slot := &e.plans[strat-MN]
	if pl := slot.Load(); pl != nil {
		return pl, true, nil
	}
	computed := false
	v, err, shared := e.flights.Do(strat.String(), func() (any, error) {
		if pl := slot.Load(); pl != nil {
			return pl, nil // a leader published it since our load
		}
		computed = true
		pl, err := s.computePlanLocked(e.q, strat, b, co)
		if err == nil {
			slot.Store(pl)
		}
		return pl, err
	})
	if err != nil {
		if shared {
			pl, cerr := s.computePlanLocked(e.q, strat, b, co)
			return pl, false, cerr
		}
		return nil, false, err
	}
	return v.(*queryPlan), !computed, nil
}

// computePlanLocked runs filtering + selection and wraps the outcome as
// a plan. Only the two cacheable outcomes return a non-nil plan: a
// successful selection, or a definite ErrNotAnswerable.
func (s *System) computePlanLocked(q *pattern.Pattern, strat Strategy, b *budget.B, co callObs) (*queryPlan, error) {
	sel, info, err := s.selectLocked(q, strat, b, co)
	if err != nil {
		if errors.Is(err, ErrNotAnswerable) {
			return &queryPlan{info: info, err: err}, nil
		}
		return nil, err
	}
	pl := &queryPlan{sel: sel, info: info, viewsUsed: make([]int, len(sel.Covers))}
	for i, c := range sel.Covers {
		pl.viewsUsed[i] = c.View.ID
	}
	// A selection the strategies return always answers q, so this only
	// fails on malformed hand-built selections; the rewrite stage
	// re-derives (and re-rejects) in that case.
	if jp, jerr := rewrite.PlanJoin(q, sel.Covers); jerr == nil {
		pl.join = jp
	}
	return pl, nil
}
