package xpathviews

// This file is the hardened serving layer: context-aware answering with
// per-call deadlines and resource budgets, panic containment, and
// graceful degradation through a configurable fallback chain. Every
// answering entry point is one path, answerChain, over a chain of
// strategies: AnswerContext runs a chain of one, AnswerResilient the
// Fallback chain. The batch entry points (Answer, Select) are thin
// wrappers with a background context and no budgets.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"xpathviews/internal/budget"
	"xpathviews/internal/faults"
	"xpathviews/internal/pattern"
	"xpathviews/internal/rewrite"
	"xpathviews/internal/selection"
	"xpathviews/internal/xmltree"
	"xpathviews/internal/xpath"
)

// ErrBudgetExceeded re-exports the pipeline's budget exhaustion error:
// AnswerContext returns an error matching it (errors.Is) when MaxSteps
// or MaxHoms ran out before the query completed.
var ErrBudgetExceeded = budget.ErrBudget

// ErrInternal marks a contained pipeline failure: an injected fault or a
// recovered panic inside one of the answering stages. The concrete error
// is an *InternalError carrying the stage name.
var ErrInternal = errors.New("xpathviews: internal error")

// InternalError is a contained failure of one pipeline stage.
type InternalError struct {
	// Stage is the pipeline stage that failed, e.g. "rewrite.join".
	Stage string
	// Cause is the underlying error; recovered panics are wrapped in an
	// error describing the panic value.
	Cause error
}

func (e *InternalError) Error() string {
	return fmt.Sprintf("xpathviews: internal error at %s: %v", e.Stage, e.Cause)
}

// Unwrap makes the error match both ErrInternal and its cause chain.
func (e *InternalError) Unwrap() []error { return []error{ErrInternal, e.Cause} }

// Options tunes one serving-layer call. The zero value means strategy BN
// with no limits.
type Options struct {
	// Strategy selects how AnswerContext answers (ignored by
	// AnswerResilient, which tries the Fallback chain instead).
	Strategy Strategy
	// Timeout, when positive, bounds the call with a derived deadline on
	// top of the caller's context.
	Timeout time.Duration
	// MaxAnswers truncates the answer list (0 = unlimited); Result.
	// Truncated reports when it bit.
	MaxAnswers int
	// MaxHoms caps homomorphism computations during selection — the cost
	// driver of §IV (0 = unlimited).
	MaxHoms int
	// MaxSteps caps cheap pipeline work units: traversal node visits,
	// subset-enumeration search nodes, fragments scanned/joined
	// (0 = unlimited). Exhaustion yields ErrBudgetExceeded.
	MaxSteps int64
	// Fallback overrides AnswerResilient's strategy chain; nil means
	// DefaultFallback().
	Fallback []Strategy
	// NoPlanCache bypasses the query-plan cache (see plan.go): the call
	// neither reads cached plans nor writes new ones. Use it for
	// one-shot queries that should not displace the hot set, or to
	// measure the uncached pipeline.
	NoPlanCache bool
	// Trace, when non-nil, collects this call's span tree: one span per
	// pipeline stage (parse, plan/vfilter/select, rewrite with
	// refine/join/extract children, collect) with stage attributes.
	// Tracing allocates — leave nil on the hot path. Build with
	// NewTrace().
	Trace *Trace
	// TraceID carries the call's W3C trace ID (32 lowercase hex) without
	// requiring a full span tree: it joins the call to latency-histogram
	// exemplars and slow-query log entries. When empty, Trace.ID() is
	// consulted. Costs nothing beyond the copy — no allocation.
	TraceID string
	// explain, when non-nil, collects plan detail (surviving views,
	// selected covers, cache status) for System.Explain.
	explain *explainSink
}

// DefaultFallback is AnswerResilient's chain when Options.Fallback is
// nil: cheapest equivalent rewriting first, then exact selection, then a
// sound-but-partial rewriting, then direct evaluation as the rung of
// last resort.
func DefaultFallback() []Strategy { return []Strategy{HV, MV, Contained, BN} }

// runStage executes one pipeline stage with panic containment: a panic
// or an injected fault surfaces as an *InternalError naming the stage;
// budget and answerability errors pass through untouched.
func runStage[T any](stage string, f func() (T, error)) (out T, err error) {
	defer func() {
		if r := recover(); r != nil {
			var zero T
			out = zero
			err = &InternalError{Stage: stage, Cause: fmt.Errorf("panic: %v", r)}
		}
	}()
	out, err = f()
	if err != nil && errors.Is(err, faults.ErrInjected) {
		err = &InternalError{Stage: stage, Cause: err}
	}
	return out, err
}

// AnswerContext evaluates the query under the chosen strategy with
// cancellation and resource budgets. It returns promptly once ctx is
// done (context.Canceled / context.DeadlineExceeded) or a budget runs
// out (ErrBudgetExceeded), even mid-way through the exponential exact
// selection. Pipeline panics and injected faults come back as
// ErrInternal, never as a crash.
func (s *System) AnswerContext(ctx context.Context, src string, opts Options) (*Result, error) {
	chain := [1]Strategy{opts.Strategy}
	return s.answerChain(ctx, src, opts, chain[:], false)
}

// AnswerResilient serves the query through a fallback chain (default
// HV → MV → contained → BN), degrading on ErrNotAnswerable, budget
// exhaustion and contained internal failures. The returned Result
// records which rung answered (Strategy) and why earlier rungs were skipped
// (DegradedReasons). Context cancellation aborts the whole chain — a
// caller that went away is not served a degraded answer.
func (s *System) AnswerResilient(ctx context.Context, src string, opts Options) (*Result, error) {
	chain := opts.Fallback
	if len(chain) == 0 {
		chain = DefaultFallback()
	}
	return s.answerChain(ctx, src, opts, chain, true)
}

// answerChain is the one answering path. It tries the strategies of
// chain in order under the read lock, each with a fresh budget over the
// shared deadline. The first view rung that consults the plan cache
// looks the query text up, once per call (see plan.go): its entry
// supplies the pattern, every rung's plan and the contained and BN
// rungs' remembered outcomes, so a repeat skips parsing, filtering and
// selection, and a refused repeat with no insert or delete in between is
// not rewritten or evaluated again. The query is parsed at most once,
// and only when a strategy needs the pattern and no entry supplied it. A
// chain without a view rung, or one that bypasses the plan cache, has no
// entry and memoizes nothing.
//
// resilient adds AnswerResilient's bookkeeping: a "rung:X" span per
// strategy (the contained and BN rung spans carry memo=hit|miss, or
// bypass without an entry), the rung counters and the degradation
// record, the "resilient" call label, and falling through to the next
// strategy on a degradable error. Without it the chain has one strategy whose
// error is the call's.
func (s *System) answerChain(ctx context.Context, src string, opts Options, chain []Strategy, resilient bool) (*Result, error) {
	co, t0 := s.startObs(opts)
	ctx, cancel, err := servingContext(ctx, opts)
	if err != nil {
		co.abandon(err)
		return nil, err
	}
	defer cancel()
	label := "resilient"
	if !resilient {
		label = chain[0].String()
	}
	var (
		q          *pattern.Pattern // minimized query; nil until parsed or read off the entry
		e          *queryEntry      // the query's plan-cache entry; nil until a view rung consults the cache
		parseNanos int64            // from the meter of the rung that parsed
		counted    bool             // the call's plan-cache outcome is recorded
		reasons    []string
		lastErr    error
		meter      budget.B // the rung's meter: one per call, started afresh per rung
	)
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, strat := range chain {
		if err := ctx.Err(); err != nil {
			co.abandon(err)
			return nil, err
		}
		b := &meter
		b.Reset(ctx, opts.MaxSteps, int64(opts.MaxHoms))
		view := isViewStrategy(strat)
		cached := view && !opts.NoPlanCache
		if cached && e == nil {
			if v, ok := s.plans.Get(src, s.planGen.Load()); ok {
				e = v.(*queryEntry)
				q = e.q
			}
		}
		if q == nil {
			if q, err = co.parse(src, !cached, b); err != nil {
				return nil, err
			}
			parseNanos = b.Nanos(budget.Parse)
			// Seam check: parse → plan.
			if err := b.CtxErr(); err != nil {
				co.abandon(err)
				return nil, err
			}
		}
		if cached && e == nil {
			e = s.addEntry(src, q)
			q = e.q
		}
		rco, rsp := co, (*Span)(nil)
		if resilient && co.sp != nil {
			rsp = co.sp.Child("rung:" + strat.String())
			rco = co.withSpan(rsp)
		}
		var res *Result
		var hit bool
		slot, m := e.degraded(strat, s.bn)
		switch {
		case m != nil:
			res, err = m.replay(strat, b)
		case view:
			res, hit, err = s.answerViewLocked(e, q, strat, b, rco)
			if !counted {
				counted = true
				s.countPlan(co, hit, cached)
			}
		default:
			res, err = s.answerLocked(q, strat, b, rco)
			// A truncated answer is not remembered: the entry would hold
			// answers no caller asked for.
			if slot != nil && (err == nil && (opts.MaxAnswers <= 0 || len(res.Answers) <= opts.MaxAnswers) ||
				strat == Contained && errors.Is(err, ErrNotAnswerable)) {
				slot.Store(newDegradedMemo(s.bn, res, b))
			}
		}
		if rsp != nil && (strat == Contained || strat == BN) {
			rsp.SetAttr("memo", cacheLabel(m != nil, slot != nil))
		}
		rsp.Err(err)
		rsp.End()
		if err == nil {
			if resilient {
				res.Degraded = len(reasons) > 0
				res.DegradedReasons = reasons
				if co.m != nil {
					co.m.rungServed[strat].Inc()
				}
			}
			res.ParseNanos = parseNanos
			truncate(res, opts.MaxAnswers)
			s.finishCall(co, b, t0, src, label, res, nil)
			return res, nil
		}
		if !resilient || !degradable(err) {
			s.finishCall(co, b, t0, src, label, nil, err)
			return nil, err
		}
		if co.m != nil {
			co.m.rungFallbacks.Inc()
		}
		lastErr = err
		if reasons == nil {
			reasons = make([]string, 0, len(chain)-1)
		}
		reasons = append(reasons, fmt.Sprintf("%s: %v", strat, err))
	}
	err = fmt.Errorf("xpathviews: all fallback rungs failed (%s): %w",
		strings.Join(reasons, "; "), lastErr)
	s.finishCall(co, nil, t0, src, label, nil, err)
	return nil, err
}

// parse parses and minimizes src, abandoning the call on a parse error,
// and charges both to b's Parse slot. A call that consults the plan
// cache traces both under one "parse" span; one that bypasses it
// (uncached) traces minimization under its own "normalize" span after
// the "parse" span.
func (co callObs) parse(src string, uncached bool, b *budget.B) (*pattern.Pattern, error) {
	sp := co.child("parse")
	b.Mark()
	q, err := xpath.Parse(src)
	if err != nil {
		sp.Err(err)
		sp.End()
		co.abandon(err)
		return nil, err
	}
	if uncached {
		sp.End()
		sp = co.child("normalize")
	}
	q = pattern.Minimize(q)
	b.Lap(budget.Parse)
	sp.End()
	return q, nil
}

// isViewStrategy reports whether the strategy answers from materialized
// views (MN, MV, HV, CV) as opposed to direct evaluation on the document
// or a contained rewriting.
func isViewStrategy(s Strategy) bool { return s >= MN && s <= CV }

// SelectContext runs view selection only under opts.Strategy, with
// cancellation and budgets.
func (s *System) SelectContext(ctx context.Context, q *pattern.Pattern, opts Options) (*selection.Selection, int, error) {
	co, _ := s.startObs(opts)
	ctx, cancel, err := servingContext(ctx, opts)
	if err != nil {
		co.abandon(err)
		return nil, 0, err
	}
	defer cancel()
	b := budget.New(ctx, opts.MaxSteps, int64(opts.MaxHoms))
	s.mu.RLock()
	defer s.mu.RUnlock()
	sel, info, err := s.selectLocked(pattern.Minimize(q), opts.Strategy, b, co)
	if co.sp != nil {
		co.sp.Err(err)
		co.sp.End()
	}
	return sel, info.cand, err
}

// answerLocked answers the minimized query q by direct evaluation (BN,
// BF) or the contained rewriting, under s.mu (read), with panic
// containment per stage.
func (s *System) answerLocked(q *pattern.Pattern, strat Strategy, b *budget.B, co callObs) (*Result, error) {
	switch strat {
	case BN, BF:
		stage, eng := "engine.bn", "bn"
		if strat == BF {
			stage, eng = "engine.bf", "bf"
		}
		sp := co.child("eval")
		nodes, err := runStage(stage, func() ([]*xmltree.Node, error) {
			if strat == BF {
				return s.lazyBF().EvalBudget(q, b)
			}
			return s.bn.EvalBudget(q, b)
		})
		if err != nil {
			sp.Err(err)
			sp.End()
			return nil, err
		}
		if sp != nil {
			sp.SetAttr("engine", eng)
			sp.SetAttr("nodes", len(nodes))
			sp.End()
		}
		// Seam check: eval → collect.
		if err := b.CtxErr(); err != nil {
			return nil, err
		}
		res := &Result{Strategy: strat}
		if err := s.collectDoc(res, nodes); err != nil {
			return nil, err
		}
		return res, nil
	case Contained:
		sp := co.child("contained")
		out, err := runStage("rewrite.contained", func() (*rewrite.ContainedResult, error) {
			return rewrite.ContainedBudget(q, s.registry.ViewList, b)
		})
		if err != nil {
			sp.Err(err)
			sp.End()
			return nil, err
		}
		res := &Result{Strategy: Contained, Answers: out.Answers, ViewsUsed: out.ViewsUsed, Partial: !out.Complete}
		if sp != nil {
			sp.SetAttr("views_used", len(out.ViewsUsed))
			sp.SetAttr("complete", out.Complete)
			sp.SetAttr("answers", len(res.Answers))
			sp.End()
		}
		if len(res.Answers) == 0 && res.Partial {
			// An empty uncertified result carries no information — let the
			// next rung (typically direct evaluation) produce real answers.
			return nil, ErrNotAnswerable
		}
		return res, nil
	default:
		return nil, fmt.Errorf("xpathviews: unknown strategy %v", strat)
	}
}

// answerViewLocked answers a view strategy from the plan in the query's
// entry e, computed on a miss, or, with no entry (NoPlanCache), from a
// plan computed for this call alone; it reports whether the plan was
// cached. Called under s.mu (read).
func (s *System) answerViewLocked(e *queryEntry, q *pattern.Pattern, strat Strategy, b *budget.B, co callObs) (res *Result, hit bool, err error) {
	psp := co.child("plan")
	cached := e != nil
	var pl *queryPlan
	if cached {
		pl, hit, err = s.plan(e, strat, b, co.withSpan(psp))
	} else {
		e = newQueryEntry(q)
		pl, err = s.computePlanLocked(q, strat, b, co.withSpan(psp))
	}
	if err != nil {
		psp.Err(err)
		psp.End()
		return nil, hit, err
	}
	annotatePlanSpan(psp, pl, cacheLabel(hit, cached))
	co.fillExplainPlan(s, pl, hit, cached)
	if res, err = s.answerPlanLocked(e, pl, strat, b, co); err != nil {
		return nil, hit, err
	}
	res.PlanCacheHit = hit
	return res, hit, nil
}

// fpBN and fpContained are the fault points of the BN evaluation and the
// contained rewriting (faults.New returns the registered point), fired by
// a degraded memo hit in their place.
var (
	fpBN        = faults.New("engine.bn")
	fpContained = faults.New("rewrite.contained")
)

// replay serves strat's rung from the memo its query's entry holds
// (Result.Memo): the rung's fault point fires and b is charged the
// homomorphisms and steps the rung spent, under the same panic
// containment and seam check, so a hit fails exactly when the work it
// stands in for would. A remembered refusal is ErrNotAnswerable again.
func (m *degradedMemo) replay(strat Strategy, b *budget.B) (*Result, error) {
	stage, fp := "engine.bn", fpBN
	if strat == Contained {
		stage, fp = "rewrite.contained", fpContained
	}
	_, err := runStage(stage, func() (struct{}, error) {
		if err := fp.Fire(); err != nil {
			return struct{}{}, err
		}
		for i := int64(0); i < m.homs; i++ {
			if err := b.Hom(); err != nil {
				return struct{}{}, err
			}
		}
		return struct{}{}, b.Step(int(m.steps))
	})
	if err != nil {
		return nil, err
	}
	if strat == BN {
		// Seam check: eval → collect.
		if err := b.CtxErr(); err != nil {
			return nil, err
		}
	}
	if m.text == nil {
		return nil, ErrNotAnswerable
	}
	return &Result{Strategy: strat, Answers: m.text.Answers(), ViewsUsed: m.viewsUsed,
		Partial: m.partial, Memo: true, text: m.text}, nil
}

// answerPlanLocked runs §V's rewriting for a plan of e's query under
// s.mu (read). Refinement, the join and extraction re-run only when a
// covered view's generation moved since the plan last remembered their
// answers (Result.Memo); Result.Answers is then the plan's shared slice.
// Untraced, such a hit is a rewrite.JoinPlan.Replay: no rewrite.Result,
// no stage clock. A cached negative outcome returns at once.
func (s *System) answerPlanLocked(e *queryEntry, pl *queryPlan, strat Strategy, b *budget.B, co callObs) (*Result, error) {
	// Feed the drift detector before the negative-plan check:
	// unanswerable traffic is exactly the drift the design workload did
	// not predict, so it must shape the recent sketch too. The hash was
	// computed at plan time; disarmed detectors return after one load.
	vs := s.vstats.Load()
	if vs != nil {
		if checked, ppm, crossed := vs.Drift.Observe(e.patHash); checked && co.m != nil {
			co.m.driftGauge.Set(ppm)
			if crossed {
				co.m.driftEvents.Inc()
			}
		}
	}
	if pl.err != nil {
		if co.m != nil {
			co.m.planNegative.Inc()
		}
		return nil, pl.err
	}
	// Seam check: the plan stage (or a cache hit) just completed; a caller
	// that disconnected during it should not pay for the rewriting.
	if err := b.CtxErr(); err != nil {
		return nil, err
	}
	res := &Result{Strategy: strat, ViewsUsed: pl.viewsUsed, CandidatesAfterFilter: pl.info.cand, HomsComputed: pl.sel.HomsComputed}
	var replayed rewrite.Result // a replayed hit's outcome, on the stack
	out := &replayed
	rsp := co.child("rewrite")
	_, err := runStage("rewrite", func() (struct{}, error) {
		if rsp == nil {
			text, ok, err := pl.join.Replay(b)
			if ok {
				out.Memo, out.Text, out.Answers = true, text, text.Answers()
				return struct{}{}, err
			}
		}
		var err error
		out, err = rewrite.ExecuteOptions(e.q, pl.sel, s.fst, b, rewrite.Options{Plan: pl.join})
		return struct{}{}, err
	})
	if err != nil {
		rsp.Err(err)
		rsp.End()
		return nil, err
	}
	res.Memo = out.Memo
	if co.ex != nil {
		co.ex.pathsTested = out.PathsTested
	}
	res.JoinPartitions = out.JoinPartitions
	res.GallopHits = out.GallopHits
	refine, join, extract := b.Nanos(budget.Refine), b.Nanos(budget.Join), b.Nanos(budget.Extract)
	// Attribute the answered call to its contributing views and fold the
	// predicted §IV-B cost (over the covers' fragment bytes as they stand)
	// against the realized rewrite time into the calibration model. The
	// cost predicts refine + join + extract, so a memo-served call counts
	// as a query but realizes nothing to calibrate against. All counters
	// are atomics over pre-grown slots — no allocation on the steady-state
	// path.
	if vs != nil {
		var predCost float64
		var realized int64
		if !out.Memo {
			realized = refine + join + extract
			costParams := selection.DefaultCostParams()
			for _, c := range pl.sel.Covers {
				predCost += costParams.Cost(c.View)
			}
		}
		rel := vs.RecordQuery(predCost, realized)
		if rel >= 0 && co.m != nil {
			co.m.calErr.Observe(int64(rel * 1e6))
		}
		for i, c := range pl.sel.Covers {
			var scanned, kept int64
			if i < rewrite.AttrMaxViews {
				scanned = int64(out.ViewScanned[i])
				kept = int64(out.ViewKept[i])
			}
			vs.RecordViewHit(c.View.ID, scanned, kept, rel)
		}
	}
	if co.m != nil && out.Memo {
		co.m.memoHits.Inc()
	}
	if co.m != nil && out.JoinPartitions > 0 {
		co.m.joinsTotal.Inc()
	}
	if rsp != nil {
		// The meter's stages ran back to back and ended just now.
		t := time.Now().Add(-time.Duration(refine + join + extract))
		if !out.Memo {
			ref := rsp.ChildTimed("refine", t, time.Duration(refine))
			ref.SetAttr("paths", out.PathsTested)
			t = t.Add(time.Duration(refine))
		}
		if join > 0 {
			jn := rsp.ChildTimed("join", t, time.Duration(join))
			jn.SetAttr("fragments_joined", out.FragmentsJoined)
			t = t.Add(time.Duration(join))
		}
		rsp.ChildTimed("extract", t, time.Duration(extract))
		rsp.SetAttr("views", len(pl.sel.Covers))
		rsp.SetAttr("memo", cacheLabel(out.Memo, true))
		rsp.SetAttr("fragments_scanned", out.FragmentsScanned)
		rsp.End()
	}
	// Seam check: rewrite → collect.
	if err := b.CtxErr(); err != nil {
		return nil, err
	}
	csp := co.child("collect")
	res.Answers = out.Answers
	res.text = out.Text
	if csp != nil {
		csp.SetAttr("answers", len(res.Answers))
		csp.End()
	}
	return res, nil
}

// servingContext applies Options.Timeout and rejects already-done
// contexts up front, so even a query whose selection would be
// exponential returns immediately.
func servingContext(ctx context.Context, opts Options) (context.Context, context.CancelFunc, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if opts.Timeout > 0 {
		ctx, cancel := context.WithTimeout(ctx, opts.Timeout)
		return ctx, cancel, nil
	}
	return ctx, func() {}, nil
}

// degradable reports whether a rung failure should fall through to the
// next rung rather than abort the chain. Cancellation and deadline
// expiry are not degradable: the caller is gone.
func degradable(err error) bool {
	return errors.Is(err, ErrNotAnswerable) ||
		errors.Is(err, ErrBudgetExceeded) ||
		errors.Is(err, ErrInternal)
}

// truncate enforces Options.MaxAnswers on a successful result. The full
// slice expression keeps an append to the truncated answers from writing
// into the shared slice behind them.
func truncate(res *Result, max int) {
	if max > 0 && len(res.Answers) > max {
		res.Answers = res.Answers[:max:max]
		res.text = nil // the memo's text renders every answer
		res.Truncated = true
	}
}
