package xpathviews

// This file is the view-advisor facade: Advise/ApplyAdvice close the
// materialization loop the paper leaves open — take a workload, advise
// a view set under a space budget, re-materialize, serve faster. The
// machinery lives in internal/advisor.

import (
	"fmt"

	"xpathviews/internal/advisor"
	"xpathviews/internal/workload"
	"xpathviews/internal/xpath"
)

// WorkloadEntry is one workload line: a query with its observed
// frequency (see internal/workload). Advise and SetDesignWorkload take
// a slice of them.
type WorkloadEntry = workload.Entry

// AdviceOptions re-exports the advisor's tuning knobs.
type AdviceOptions = advisor.Options

// Advice re-exports the advisor's result.
type Advice = advisor.Advice

// Advise proposes a view set for the workload under opts.ByteBudget,
// using the system's document. The workload typically comes from a
// workload file (internal/workload). Advise only reads the document; it
// does not change the materialized set — pass the result to ApplyAdvice.
func (s *System) Advise(entries []WorkloadEntry, opts AdviceOptions) (*Advice, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	adv, err := advisor.Advise(s.doc, s.enc, s.registry.Index, entries, opts)
	if err == nil {
		// The advised workload is, by definition, the distribution the
		// next view set is designed for: arm the drift detector so
		// serving can tell when live traffic stops looking like it.
		s.SetDesignWorkload(entries)
	}
	return adv, err
}

// ApplyAdvice materializes the advised views, returning their IDs. Views
// that fail to materialize (e.g. the document changed since Advise)
// abort with an error after rolling back the views added so far.
func (s *System) ApplyAdvice(adv *Advice) ([]int, error) {
	ids := make([]int, 0, len(adv.Views))
	for _, av := range adv.Views {
		p, err := xpath.Parse(av.XPath)
		if err != nil {
			s.rollbackViews(ids)
			return nil, fmt.Errorf("xpathviews: advice view %q: %w", av.XPath, err)
		}
		id, err := s.AddViewPattern(p, adv.PerViewLimit)
		if err != nil {
			s.rollbackViews(ids)
			return nil, fmt.Errorf("xpathviews: advice view %q: %w", av.XPath, err)
		}
		ids = append(ids, id)
	}
	return ids, nil
}

func (s *System) rollbackViews(ids []int) {
	for _, id := range ids {
		s.RemoveView(id)
	}
}
