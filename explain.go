package xpathviews

// This file is the plan explainer: Explain answers a query with tracing
// and plan capture on, then renders where the call went — which views
// survived VFILTER, which were selected and what they cover, whether
// the plan cache served it, and how long each stage took — as text or
// JSON. It is the human-facing face of the telemetry in observe.go: the
// same callObs hooks that feed spans also feed the explainSink.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"
)

// explainSink accumulates plan detail during one explained call. It is
// filled under s.mu (read) by fillExplainPlan and finishCall; the call
// is synchronous, so no locking is needed.
type explainSink struct {
	havePlan    bool
	planCache   string // hit | miss | bypass
	negative    bool
	candidates  int
	touched     int
	views       int
	allViews    bool
	surviving   []ExplainView
	selected    []ExplainCover
	filterNanos int64
	selectNanos int64
	selHoms     int
	steps, homs int64
	pathsTested int
}

// fillExplainPlan snapshots a plan into the call's explain sink, if
// any. Called under s.mu (read) so the registry lookups are safe.
func (co callObs) fillExplainPlan(s *System, pl *queryPlan, hit, useCache bool) {
	ex := co.ex
	if ex == nil {
		return
	}
	ex.havePlan = true
	ex.planCache = cacheLabel(hit, useCache)
	ex.negative = pl.err != nil
	ex.candidates = pl.info.cand
	ex.touched = pl.info.touched
	ex.views = s.registry.Len()
	ex.allViews = pl.info.allViews
	ex.filterNanos = pl.info.filterNanos
	ex.selectNanos = pl.info.selectNanos
	ex.surviving = ex.surviving[:0]
	if pl.info.allViews {
		for _, v := range s.registry.Views() {
			ex.surviving = append(ex.surviving, ExplainView{
				ID: v.ID, XPath: v.Pattern.String(), Fragments: len(v.Fragments)})
		}
	} else {
		for _, id := range pl.info.candIDs {
			if v := s.registry.Get(id); v != nil {
				ex.surviving = append(ex.surviving, ExplainView{
					ID: v.ID, XPath: v.Pattern.String(), Fragments: len(v.Fragments)})
			}
		}
	}
	ex.selected = ex.selected[:0]
	if pl.sel != nil {
		ex.selHoms = pl.sel.HomsComputed
		for _, c := range pl.sel.Covers {
			ec := ExplainCover{
				ID:     c.View.ID,
				XPath:  c.View.Pattern.String(),
				Cover:  c.String(),
				Strong: c.Strong,
			}
			if c.X != nil {
				ec.LandsOn = c.X.Label
			}
			ex.selected = append(ex.selected, ec)
		}
	}
}

// ExplainView is one view that survived filtering.
type ExplainView struct {
	ID        int    `json:"id"`
	XPath     string `json:"xpath"`
	Fragments int    `json:"fragments"`
}

// ExplainCover is one selected view with its leaf cover (§IV).
type ExplainCover struct {
	ID    int    `json:"id"`
	XPath string `json:"xpath"`
	// LandsOn is the query node the view's answers land on (h(RET(V))).
	LandsOn string `json:"lands_on,omitempty"`
	// Cover renders the leaf cover like the paper's Equation (1),
	// e.g. "{Δ, t}".
	Cover string `json:"cover,omitempty"`
	// Strong marks a single-view strong cover (no join needed).
	Strong bool `json:"strong,omitempty"`
}

// ExplainStage is one pipeline stage's wall time.
type ExplainStage struct {
	Name  string `json:"name"`
	Nanos int64  `json:"ns"`
}

// Explanation is the rendered plan of one answered query.
type Explanation struct {
	Query    string `json:"query"`
	Strategy string `json:"strategy"`
	// Error is set when the call failed in an explainable way (not
	// answerable, budget exhausted, contained internal error).
	Error   string `json:"error,omitempty"`
	Answers int    `json:"answers"`
	// PlanCache is "hit", "miss" or "bypass"; empty for the direct
	// strategies (BN/BF), which have no plan.
	PlanCache string `json:"plan_cache,omitempty"`
	// Negative reports the plan is a cached not-answerable verdict.
	Negative bool `json:"negative_plan,omitempty"`
	// AllViews reports selection considered every view (MN: no
	// filtering ran).
	AllViews bool `json:"all_views,omitempty"`
	// Candidates is |V'|, the post-filter candidate count.
	Candidates int `json:"candidates_after_filter,omitempty"`
	// Touched counts the views the filter accepted at least one path
	// pattern of, and Views the registered views: filtering costs in
	// proportion to the first, not the second.
	Touched   int            `json:"touched_by_filter,omitempty"`
	Views     int            `json:"views,omitempty"`
	Surviving []ExplainView  `json:"surviving_views,omitempty"`
	Selected  []ExplainCover `json:"selected_views,omitempty"`
	// Homs counts homomorphism computations during selection.
	Homs int `json:"homs_computed,omitempty"`
	// Memo is "hit" when the rewrite returned the plan's remembered
	// answers, "miss" when it ran refine, join and extraction; empty when
	// no rewrite ran.
	Memo string `json:"memo,omitempty"`
	// PathsTested counts the distinct (view, root label-path) verdicts
	// refinement computed on a memo miss: its path work is proportional
	// to this, not to the fragments it scanned.
	PathsTested int `json:"paths_tested,omitempty"`
	// Stages lists per-stage wall time. On a plan-cache hit, filter and
	// select show what the cached plan originally cost to compute.
	Stages []ExplainStage `json:"stages"`
	// BudgetSteps/BudgetHoms are the work units actually spent.
	BudgetSteps int64 `json:"budget_steps_spent"`
	BudgetHoms  int64 `json:"budget_homs_spent"`
	TotalNanos  int64 `json:"total_ns"`
	// Trace is the rendered span tree (text exposition only).
	Trace string `json:"-"`
}

// Explain answers src under strat with tracing on and reports the plan:
// surviving views, selected covers, cache status, per-stage timings and
// budget spend. It is AnswerContext plus capture — the query is really
// answered (and the plan cache really consulted), so explaining a hot
// query shows the hit path.
func (s *System) Explain(src string, strat Strategy) (*Explanation, error) {
	return s.ExplainContext(context.Background(), src, Options{Strategy: strat})
}

// ExplainContext is Explain with a caller context and full Options.
// Explainable failures (ErrNotAnswerable, ErrBudgetExceeded,
// ErrInternal) still return an Explanation with Error set; parse errors
// and cancellation return the error alone.
func (s *System) ExplainContext(ctx context.Context, src string, opts Options) (*Explanation, error) {
	opts.Trace = NewTrace()
	sink := &explainSink{}
	opts.explain = sink
	res, err := s.AnswerContext(ctx, src, opts)
	if err != nil && !errors.Is(err, ErrNotAnswerable) &&
		!errors.Is(err, ErrBudgetExceeded) && !errors.Is(err, ErrInternal) {
		return nil, err
	}
	ex := &Explanation{
		Query:       src,
		Strategy:    opts.Strategy.String(),
		Negative:    sink.negative,
		AllViews:    sink.allViews,
		Surviving:   sink.surviving,
		Selected:    sink.selected,
		Homs:        sink.selHoms,
		BudgetSteps: sink.steps,
		BudgetHoms:  sink.homs,
		Trace:       opts.Trace.Text(),
	}
	if sink.havePlan {
		ex.PlanCache = sink.planCache
		ex.Candidates = sink.candidates
		ex.Touched = sink.touched
		ex.Views = sink.views
	}
	if err != nil {
		ex.Error = err.Error()
	}
	if res != nil {
		ex.Answers = len(res.Answers)
		ex.TotalNanos = res.TotalNanos
		ex.Stages = append(ex.Stages, ExplainStage{"parse", res.ParseNanos})
		if sink.havePlan {
			ex.Memo = cacheLabel(res.Memo, true)
			ex.PathsTested = sink.pathsTested
			ex.Stages = append(ex.Stages,
				ExplainStage{"filter", sink.filterNanos},
				ExplainStage{"select", sink.selectNanos},
				ExplainStage{"refine", res.RefineNanos},
				ExplainStage{"join", res.JoinNanos},
				ExplainStage{"extract", res.ExtractNanos})
		}
	}
	return ex, nil
}

// JSON renders the explanation as indented JSON.
func (e *Explanation) JSON() ([]byte, error) { return json.MarshalIndent(e, "", "  ") }

// Text renders the explanation as an aligned, human-readable report.
func (e *Explanation) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "query:    %s\n", e.Query)
	fmt.Fprintf(&b, "strategy: %s\n", e.Strategy)
	if e.Error != "" {
		fmt.Fprintf(&b, "error:    %s\n", e.Error)
	}
	if e.PlanCache != "" {
		fmt.Fprintf(&b, "plan:     cache %s", e.PlanCache)
		if e.Negative {
			b.WriteString(" (cached not-answerable)")
		}
		b.WriteByte('\n')
		if e.AllViews {
			fmt.Fprintf(&b, "views:    all %d considered (MN: no filtering)\n", len(e.Surviving))
		} else {
			fmt.Fprintf(&b, "views:    candidates %d of %d touched, %d views\n", e.Candidates, e.Touched, e.Views)
		}
		for _, v := range e.Surviving {
			fmt.Fprintf(&b, "  v%d: %s (%d fragments)\n", v.ID, v.XPath, v.Fragments)
		}
		fmt.Fprintf(&b, "selected: %d views, %d homomorphisms\n", len(e.Selected), e.Homs)
		for _, c := range e.Selected {
			fmt.Fprintf(&b, "  v%d: %s — lands on %s, covers %s", c.ID, c.XPath, c.LandsOn, c.Cover)
			if c.Strong {
				b.WriteString(" (strong)")
			}
			b.WriteByte('\n')
		}
	}
	if e.Memo != "" {
		fmt.Fprintf(&b, "memo:     %s", e.Memo)
		if e.Memo == "miss" {
			fmt.Fprintf(&b, " (%d root paths tested)", e.PathsTested)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "answers:  %d\n", e.Answers)
	if len(e.Stages) > 0 {
		b.WriteString("stages:\n")
		for _, st := range e.Stages {
			fmt.Fprintf(&b, "  %-8s %v\n", st.Name, time.Duration(st.Nanos))
		}
		fmt.Fprintf(&b, "  %-8s %v\n", "total", time.Duration(e.TotalNanos))
	}
	fmt.Fprintf(&b, "budget:   %d steps, %d homs\n", e.BudgetSteps, e.BudgetHoms)
	if e.Trace != "" {
		b.WriteString("trace:\n")
		for _, line := range strings.Split(strings.TrimRight(e.Trace, "\n"), "\n") {
			b.WriteString("  ")
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}
