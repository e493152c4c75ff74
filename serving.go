package xpathviews

// This file is the hardened serving layer: context-aware answering with
// per-call deadlines and resource budgets, panic containment, and
// graceful degradation through a configurable fallback chain. The batch
// entry points (Answer, AnswerPattern, Select) are thin wrappers over
// these with a background context and no budgets.

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
	// Fallback overrides AnswerResilient's rung chain; nil means
	// DefaultFallback().
	Fallback []Rung
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
	// Metrics overrides the metrics registry for this call only; nil
	// uses the system's registry (see SetMetricsRegistry).
	Metrics *MetricsRegistry
	// TraceID carries the call's W3C trace ID (32 lowercase hex) without
	// requiring a full span tree: it joins the call to latency-histogram
	// exemplars and slow-query log entries. When empty, Trace.ID() is
	// consulted. Costs nothing beyond the copy — no allocation.
	TraceID string
	// explain, when non-nil, collects plan detail (surviving views,
	// selected covers, cache status) for System.Explain.
	explain *explainSink
}

// budget builds the call's budget over ctx.
func (o Options) budget(ctx context.Context) *budget.B {
	return budget.New(ctx, o.MaxSteps, int64(o.MaxHoms))
}

// Rung is one step of AnswerResilient's fallback chain.
type Rung int

const (
	// RungHV answers with heuristic selection over filtered candidates.
	RungHV Rung = iota
	// RungMV answers with exact minimum selection over filtered
	// candidates.
	RungMV
	// RungCV answers with cost-based selection over filtered candidates.
	RungCV
	// RungMN answers with exact minimum selection without filtering.
	RungMN
	// RungContained answers with a contained (sound, possibly partial)
	// rewriting; it degrades completeness, never soundness.
	RungContained
	// RungBN evaluates directly on the document, navigationally.
	RungBN
	// RungBF evaluates directly with full index support.
	RungBF
)

var rungNames = [...]string{"HV", "MV", "CV", "MN", "contained", "BN", "BF"}

func (r Rung) String() string {
	if int(r) < len(rungNames) {
		return rungNames[r]
	}
	return fmt.Sprintf("Rung(%d)", int(r))
}

// DefaultFallback is AnswerResilient's chain when Options.Fallback is
// nil: cheapest equivalent rewriting first, then exact selection, then a
// sound-but-partial rewriting, then direct evaluation as the rung of
// last resort.
func DefaultFallback() []Rung { return []Rung{RungHV, RungMV, RungContained, RungBN} }

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
	co, t0 := s.startObs(opts)
	if cachePlans(opts) {
		return s.answerSrcCached(ctx, src, opts, co, t0)
	}
	q, parseNanos, err := co.parse(src)
	if err != nil {
		return nil, err
	}
	return s.answerPatternObs(ctx, q, opts, co, t0, parseNanos, src)
}

// parse parses src under the call's "parse" span, abandoning the call
// on a parse error.
func (co callObs) parse(src string) (*pattern.Pattern, int64, error) {
	sp := co.child("parse")
	pt := time.Now()
	q, err := xpath.Parse(src)
	parseNanos := int64(time.Since(pt))
	if err != nil {
		sp.Err(err)
		sp.End()
		co.abandon(err)
		return nil, 0, err
	}
	sp.End()
	return q, parseNanos, nil
}

// answerSrcCached is AnswerContext's plan-cached path: the raw source
// spelling is itself a cache key (aliasing the canonical pattern key),
// so a textual repeat skips parsing, minimization, filtering and
// selection — only §V's rewriting runs.
func (s *System) answerSrcCached(ctx context.Context, src string, opts Options, co callObs, t0 time.Time) (*Result, error) {
	ctx, cancel, err := servingContext(ctx, opts)
	if err != nil {
		co.abandon(err)
		return nil, err
	}
	defer cancel()
	b := opts.budget(ctx)
	co.track(b)
	var parseNanos int64
	s.mu.RLock()
	defer s.mu.RUnlock()
	srcKey := planKey(opts.Strategy, normalizeQuery(src))
	pl, hit := s.lookupPlan(srcKey)
	if hit {
		co.countPlan(true)
		if co.sp != nil || co.ex != nil {
			psp := co.child("plan")
			annotatePlanSpan(psp, pl, "hit")
			co.fillExplainPlan(s, pl, true, true)
		}
	} else {
		sp := co.child("parse")
		pt := time.Now()
		q, err := xpath.Parse(src)
		if err != nil {
			sp.Err(err)
			sp.End()
			co.abandon(err)
			return nil, err
		}
		qm := pattern.Minimize(q)
		parseNanos = int64(time.Since(pt))
		sp.End()
		// Seam check: parse → plan.
		if err := b.CtxErr(); err != nil {
			co.abandon(err)
			return nil, err
		}
		psp := co.child("plan")
		pl, hit, err = s.planLocked(qm, opts.Strategy, b, true, co.withSpan(psp))
		if err != nil {
			if psp != nil {
				psp.Err(err)
				psp.End()
			}
			s.observe(qm, false, err)
			s.finishCall(co, b, t0, src, nil, opts.Strategy.String(), nil, err)
			return nil, err
		}
		annotatePlanSpan(psp, pl, cacheLabel(hit, true))
		co.fillExplainPlan(s, pl, hit, true)
		s.putPlanAlias(srcKey, pl)
	}
	res, err := s.answerPlanLocked(pl, opts.Strategy, b, co)
	s.observe(pl.q, err == nil, err)
	if err != nil {
		s.finishCall(co, b, t0, src, pl.q, opts.Strategy.String(), nil, err)
		return nil, err
	}
	res.PlanCacheHit = hit
	res.ParseNanos = parseNanos
	if !hit {
		res.FilterNanos = pl.info.filterNanos
		res.SelectNanos = pl.info.selectNanos
	}
	truncate(res, opts.MaxAnswers)
	s.finishCall(co, b, t0, src, pl.q, opts.Strategy.String(), res, nil)
	return res, nil
}

// AnswerPatternContext is AnswerContext for already-parsed queries.
func (s *System) AnswerPatternContext(ctx context.Context, q *pattern.Pattern, opts Options) (*Result, error) {
	co, t0 := s.startObs(opts)
	return s.answerPatternObs(ctx, q, opts, co, t0, 0, "")
}

// answerPatternObs is the shared pattern-entry tail: minimize, answer
// under the read lock, close out observation. parseNanos carries the
// caller's parse cost when the query arrived as text.
func (s *System) answerPatternObs(ctx context.Context, q *pattern.Pattern, opts Options, co callObs, t0 time.Time, parseNanos int64, src string) (*Result, error) {
	ctx, cancel, err := servingContext(ctx, opts)
	if err != nil {
		co.abandon(err)
		return nil, err
	}
	defer cancel()
	b := opts.budget(ctx)
	co.track(b)
	nsp := co.child("normalize")
	nt := time.Now()
	qm := pattern.Minimize(q)
	parseNanos += int64(time.Since(nt))
	nsp.End()
	// Seam check: parse/normalize → filter.
	if err := b.CtxErr(); err != nil {
		co.abandon(err)
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	res, err := s.answerLocked(qm, opts.Strategy, b, !opts.NoPlanCache, co)
	s.observe(qm, err == nil && isViewStrategy(opts.Strategy), err)
	if err != nil {
		s.finishCall(co, b, t0, src, qm, opts.Strategy.String(), nil, err)
		return nil, err
	}
	res.ParseNanos = parseNanos
	truncate(res, opts.MaxAnswers)
	s.finishCall(co, b, t0, src, qm, opts.Strategy.String(), res, nil)
	return res, nil
}

// isViewStrategy reports whether the strategy answers from materialized
// views (as opposed to direct evaluation on the document).
func isViewStrategy(s Strategy) bool {
	switch s {
	case MN, MV, HV, CV:
		return true
	}
	return false
}

// SelectContext runs view selection only, with cancellation and budgets.
// Strategy comes from the strat argument; opts contributes Timeout,
// MaxSteps and MaxHoms.
func (s *System) SelectContext(ctx context.Context, q *pattern.Pattern, strat Strategy, opts Options) (*selection.Selection, int, error) {
	co, _ := s.startObs(opts)
	ctx, cancel, err := servingContext(ctx, opts)
	if err != nil {
		co.abandon(err)
		return nil, 0, err
	}
	defer cancel()
	b := opts.budget(ctx)
	co.track(b)
	s.mu.RLock()
	defer s.mu.RUnlock()
	sel, info, err := s.selectLocked(pattern.Minimize(q), strat, b, co)
	if co.sp != nil {
		co.sp.Err(err)
		co.sp.End()
	}
	return sel, info.cand, err
}

// AnswerResilient serves the query through a fallback chain (default
// HV → MV → contained → BN), degrading on ErrNotAnswerable, budget
// exhaustion and contained internal failures. The returned Result
// records which rung answered (Rung) and why earlier rungs were skipped
// (DegradedReasons). Context cancellation aborts the whole chain — a
// caller that went away is not served a degraded answer.
func (s *System) AnswerResilient(ctx context.Context, src string, opts Options) (*Result, error) {
	co, t0 := s.startObs(opts)
	q, parseNanos, err := co.parse(src)
	if err != nil {
		return nil, err
	}
	return s.answerResilientObs(ctx, q, opts, co, t0, parseNanos, src)
}

// AnswerPatternResilient is AnswerResilient for already-parsed queries.
func (s *System) AnswerPatternResilient(ctx context.Context, q *pattern.Pattern, opts Options) (*Result, error) {
	co, t0 := s.startObs(opts)
	return s.answerResilientObs(ctx, q, opts, co, t0, 0, "")
}

// answerResilientObs is the shared resilient tail, the fallback-chain
// counterpart of answerPatternObs.
func (s *System) answerResilientObs(ctx context.Context, q *pattern.Pattern, opts Options, co callObs, t0 time.Time, parseNanos int64, src string) (*Result, error) {
	ctx, cancel, err := servingContext(ctx, opts)
	if err != nil {
		co.abandon(err)
		return nil, err
	}
	defer cancel()
	chain := opts.Fallback
	if len(chain) == 0 {
		chain = DefaultFallback()
	}
	nsp := co.child("normalize")
	nt := time.Now()
	q = pattern.Minimize(q)
	parseNanos += int64(time.Since(nt))
	nsp.End()
	var reasons []string
	var lastErr error
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, rung := range chain {
		if err := ctx.Err(); err != nil {
			co.abandon(err)
			return nil, err
		}
		// Each rung gets a fresh step/hom budget; the deadline is shared.
		b := opts.budget(ctx)
		co.track(b)
		var rsp *Span
		if co.sp != nil {
			rsp = co.sp.Child("rung:" + rung.String())
		}
		res, err := s.answerRungLocked(q, rung, b, !opts.NoPlanCache, co.withSpan(rsp))
		if err == nil {
			rsp.End()
			res.Rung = rung.String()
			res.Degraded = len(reasons) > 0
			res.DegradedReasons = reasons
			res.ParseNanos = parseNanos
			truncate(res, opts.MaxAnswers)
			s.observe(q, viewRung(rung), nil)
			if co.m != nil && int(rung) < len(co.m.rungServed) {
				co.m.rungServed[rung].Inc()
			}
			s.finishCall(co, b, t0, src, q, "resilient", res, nil)
			return res, nil
		}
		if rsp != nil {
			rsp.Err(err)
			rsp.End()
		}
		if !degradable(err) {
			s.finishCall(co, b, t0, src, q, "resilient", nil, err)
			return nil, err
		}
		if co.m != nil {
			co.m.rungFallbacks.Inc()
		}
		lastErr = err
		reasons = append(reasons, fmt.Sprintf("%s: %v", rung, err))
	}
	if lastErr == nil {
		lastErr = ErrNotAnswerable // empty chain cannot happen, but be safe
	}
	s.observe(q, false, lastErr)
	err = fmt.Errorf("xpathviews: all fallback rungs failed (%s): %w",
		strings.Join(reasons, "; "), lastErr)
	s.finishCall(co, nil, t0, src, q, "resilient", nil, err)
	return nil, err
}

// viewRung reports whether a fallback rung answers from materialized
// views (equivalent rewriting), as opposed to direct or contained
// evaluation.
func viewRung(r Rung) bool {
	switch r {
	case RungHV, RungMV, RungCV, RungMN:
		return true
	}
	return false
}

// answerRungLocked answers one fallback rung under s.mu (read).
func (s *System) answerRungLocked(q *pattern.Pattern, rung Rung, b *budget.B, useCache bool, co callObs) (*Result, error) {
	switch rung {
	case RungHV:
		return s.answerLocked(q, HV, b, useCache, co)
	case RungMV:
		return s.answerLocked(q, MV, b, useCache, co)
	case RungCV:
		return s.answerLocked(q, CV, b, useCache, co)
	case RungMN:
		return s.answerLocked(q, MN, b, useCache, co)
	case RungBN:
		return s.answerLocked(q, BN, b, useCache, co)
	case RungBF:
		return s.answerLocked(q, BF, b, useCache, co)
	case RungContained:
		res, err := s.containedLocked(q, b, co)
		if err != nil {
			return nil, err
		}
		if len(res.Answers) == 0 && res.Partial {
			// An empty uncertified result carries no information — let the
			// next rung (typically direct evaluation) produce real answers.
			return nil, ErrNotAnswerable
		}
		return res, nil
	default:
		return nil, fmt.Errorf("xpathviews: unknown fallback rung %v", rung)
	}
}

// answerLocked evaluates q under s.mu (read) with panic containment per
// stage. q must already be minimized. useCache routes view strategies
// through the plan cache (see plan.go).
func (s *System) answerLocked(q *pattern.Pattern, strat Strategy, b *budget.B, useCache bool, co callObs) (*Result, error) {
	res := &Result{Strategy: strat}
	switch strat {
	case BN:
		sp := co.child("eval")
		nodes, err := runStage("engine.bn", func() ([]*xmltree.Node, error) {
			return s.bn.EvalBudget(q, b)
		})
		if err != nil {
			sp.Err(err)
			sp.End()
			return nil, err
		}
		if sp != nil {
			sp.SetAttr("engine", "bn")
			sp.SetAttr("nodes", len(nodes))
			sp.End()
		}
		// Seam check: eval → collect.
		if err := b.CtxErr(); err != nil {
			return nil, err
		}
		if err := s.collectDoc(res, nodes); err != nil {
			return nil, err
		}
		return res, nil
	case BF:
		bf := s.lazyBF()
		sp := co.child("eval")
		nodes, err := runStage("engine.bf", func() ([]*xmltree.Node, error) {
			return bf.EvalBudget(q, b)
		})
		if err != nil {
			sp.Err(err)
			sp.End()
			return nil, err
		}
		if sp != nil {
			sp.SetAttr("engine", "bf")
			sp.SetAttr("nodes", len(nodes))
			sp.End()
		}
		// Seam check: eval → collect.
		if err := b.CtxErr(); err != nil {
			return nil, err
		}
		if err := s.collectDoc(res, nodes); err != nil {
			return nil, err
		}
		return res, nil
	case MN, MV, HV, CV:
		psp := co.child("plan")
		pl, hit, err := s.planLocked(q, strat, b, useCache, co.withSpan(psp))
		if err != nil {
			if psp != nil {
				psp.Err(err)
				psp.End()
			}
			return nil, err
		}
		annotatePlanSpan(psp, pl, cacheLabel(hit, useCache))
		co.fillExplainPlan(s, pl, hit, useCache)
		res, err := s.answerPlanLocked(pl, strat, b, co)
		if err != nil {
			return nil, err
		}
		res.PlanCacheHit = hit
		if !hit {
			res.FilterNanos = pl.info.filterNanos
			res.SelectNanos = pl.info.selectNanos
		}
		return res, nil
	default:
		return nil, fmt.Errorf("xpathviews: unknown strategy %v", strat)
	}
}

// answerPlanLocked runs §V's rewriting for a (possibly cached) plan
// under s.mu (read). Only extraction is paid on every call: refinement
// and the join re-run when a covered view's generation moved since the
// plan last remembered their outcome (Result.Memo). A plan carrying a
// cached negative outcome returns it immediately.
func (s *System) answerPlanLocked(pl *queryPlan, strat Strategy, b *budget.B, co callObs) (*Result, error) {
	// Feed the drift detector before the negative-plan check:
	// unanswerable traffic is exactly the drift the design workload did
	// not predict, so it must shape the recent sketch too. The hash was
	// computed at plan time; disarmed detectors return after one load.
	vs := s.vstats.Load()
	if vs != nil {
		if checked, ppm, crossed := vs.Drift.Observe(pl.patHash); checked && co.m != nil {
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
	res := &Result{Strategy: strat, CandidatesAfterFilter: pl.info.cand, HomsComputed: pl.sel.HomsComputed}
	for _, c := range pl.sel.Covers {
		res.ViewsUsed = append(res.ViewsUsed, c.View.ID)
	}
	rsp := co.child("rewrite")
	rstart := time.Now()
	out, err := runStage("rewrite", func() (*rewrite.Result, error) {
		return rewrite.ExecuteOptions(pl.q, pl.sel, s.fst, b, rewrite.Options{Plan: pl.join})
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
	res.RefineNanos = out.RefineNanos
	res.JoinNanos = out.JoinNanos
	res.ExtractNanos = out.ExtractNanos
	res.JoinPartitions = out.JoinPartitions
	res.GallopHits = out.GallopHits
	// Attribute the answered call to its contributing views and fold the
	// predicted §IV-B cost against the realized rewrite time into the
	// calibration model. The cost predicts refine + join + extract, so a
	// memo-served call counts as a query but realizes nothing to calibrate
	// against. All counters are atomics over pre-grown slots — no
	// allocation on the steady-state path.
	if vs != nil {
		realized := out.RefineNanos + out.JoinNanos + out.ExtractNanos
		if out.Memo {
			realized = 0
		}
		rel := vs.RecordQuery(pl.predCost, realized)
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
		co.m.joinGallopTotal.Add(out.GallopHits)
		co.m.joinGallopHist.Observe(out.GallopHits)
	}
	if rsp != nil {
		t := rstart
		if !out.Memo {
			ref := rsp.ChildTimed("refine", t, time.Duration(out.RefineNanos))
			ref.SetAttr("paths", out.PathsTested)
			t = t.Add(time.Duration(out.RefineNanos))
		}
		if out.JoinNanos > 0 {
			jn := rsp.ChildTimed("join", t, time.Duration(out.JoinNanos))
			jn.SetAttr("fragments_joined", out.FragmentsJoined)
			t = t.Add(time.Duration(out.JoinNanos))
		}
		rsp.ChildTimed("extract", t, time.Duration(out.ExtractNanos))
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
	res.Answers = make([]Answer, len(out.Answers))
	for i, a := range out.Answers {
		res.Answers[i] = Answer{Code: a.Code, Node: a.Node}
	}
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

// truncate enforces Options.MaxAnswers on a successful result.
func truncate(res *Result, max int) {
	if max > 0 && len(res.Answers) > max {
		res.Answers = res.Answers[:max]
		res.Truncated = true
	}
}
