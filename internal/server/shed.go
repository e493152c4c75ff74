package server

// Load shedding: the pressure level graded at admission maps onto how a
// query is answered. The mapping degrades cost, never soundness —
// pressured answers are still correct answers, they just skip the
// expensive exact machinery:
//
//	healthy   → the full AnswerResilient chain (HV → MV → contained → BN)
//	            under the tenant's full budgets;
//	pressured → the cheap chain (HV → contained → BN): the exact minimum
//	            selection rung (MV, worst-case exponential) is dropped,
//	            and step/hom budgets are halved so a pathological query
//	            cannot occupy a scarce slot for long;
//	saturated → never reaches here: admission fast-fails with 503.

import (
	"time"

	"xpathviews"
)

// pressuredBudgetDiv is how much of the tenant's step/hom budget a
// pressured call keeps (1/2).
const pressuredBudgetDiv = 2

// PressuredFallback is the strategy chain served under pressure: the
// heuristic selection still gets first shot (it is cheap and equivalent
// when it works), then the sound-but-partial contained rewriting, then
// direct navigational evaluation. The exact minimum strategy (MV) is
// skipped.
func PressuredFallback() []xpathviews.Strategy {
	return []xpathviews.Strategy{xpathviews.HV, xpathviews.Contained, xpathviews.BN}
}

// optionsFor assembles one call's serving options from the tenant's
// quotas, the request's own knobs, and the admission pressure grade.
func optionsFor(t *Tenant, pr Pressure, maxAnswers int, reqTimeout time.Duration) xpathviews.Options {
	opts := xpathviews.Options{
		MaxSteps:   t.cfg.MaxSteps,
		MaxHoms:    t.cfg.MaxHoms,
		Timeout:    t.cfg.timeout(),
		MaxAnswers: maxAnswers,
	}
	if reqTimeout > 0 && (opts.Timeout == 0 || reqTimeout < opts.Timeout) {
		opts.Timeout = reqTimeout
	}
	if pr >= Pressured {
		opts.Fallback = PressuredFallback()
		if opts.MaxSteps > 0 {
			opts.MaxSteps /= pressuredBudgetDiv
		}
		if opts.MaxHoms > 0 {
			opts.MaxHoms /= pressuredBudgetDiv
		}
	}
	return opts
}
