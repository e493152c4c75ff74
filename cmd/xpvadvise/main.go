// Command xpvadvise reads a workload file and advises which views
// to materialize under a space budget.
//
// Usage:
//
//	xpvgen -queries 500 -positive -scale 0.2 > workload.txt
//	xpvadvise -workload workload.txt -scale 0.2 -budget 262144
//	xpvadvise -workload workload.txt -doc site.xml -budget 262144 -compare -apply
//
// The workload file holds one query per line, optionally prefixed with
// "freq<TAB>" (see internal/workload). -compare also evaluates the
// naive baseline (materialize the most frequent queries verbatim at the
// same budget); -apply materializes the advice and reports the fraction
// of workload traffic actually answered from views (HV, then MV).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"

	"xpathviews"
	"xpathviews/internal/advisor"
	"xpathviews/internal/workload"
	"xpathviews/internal/xmark"
	"xpathviews/internal/xpath"
)

func main() {
	wlPath := flag.String("workload", "", "workload file (required): one query per line, optional 'freq<TAB>' prefix")
	docPath := flag.String("doc", "", "XML document to advise over (default: generate an XMark document)")
	scale := flag.Float64("scale", 0.2, "generated document scale (ignored with -doc)")
	seed := flag.Int64("seed", 2008, "generated document seed (ignored with -doc)")
	budget := flag.Int("budget", 256<<10, "byte budget for the materialized set")
	perView := flag.Int("per-view", 0, "per-view byte cap (0 = the budget)")
	maxCand := flag.Int("max-candidates", 0, "candidate pool cap (0 = default)")
	exact := flag.Int("exact", 0, "use the exact selector when the pool is at most this large (0 = greedy only)")
	compare := flag.Bool("compare", false, "also evaluate the naive top-k baseline at the same budget")
	apply := flag.Bool("apply", false, "apply the advice and report the realized view-answered fraction")
	asJSON := flag.Bool("json", false, "emit the advice as JSON")
	viewstats := flag.Bool("viewstats", false, "with -apply, dump the view-observatory report (per-view attribution, calibration, drift) as JSON after the replay")
	flag.Parse()

	if *wlPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*wlPath, *docPath, *scale, *seed, *budget, *perView, *maxCand, *exact, *compare, *apply, *asJSON, *viewstats); err != nil {
		fmt.Fprintln(os.Stderr, "xpvadvise:", err)
		os.Exit(1)
	}
}

func run(wlPath, docPath string, scale float64, seed int64, budget, perView, maxCand, exact int, compare, apply, asJSON, viewstats bool) error {
	f, err := os.Open(wlPath)
	if err != nil {
		return err
	}
	entries, err := workload.Read(f)
	f.Close()
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		return fmt.Errorf("workload %s is empty", wlPath)
	}

	var sys *xpathviews.System
	if docPath != "" {
		df, err := os.Open(docPath)
		if err != nil {
			return err
		}
		sys, err = xpathviews.OpenXML(df)
		df.Close()
		if err != nil {
			return err
		}
	} else {
		sys, err = xpathviews.Open(xmark.Generate(xmark.Config{Scale: scale, Seed: seed}))
		if err != nil {
			return err
		}
	}

	adv, err := sys.Advise(entries, xpathviews.AdviceOptions{
		ByteBudget:     budget,
		PerViewLimit:   perView,
		MaxCandidates:  maxCand,
		ExactThreshold: exact,
	})
	if err != nil {
		return err
	}

	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(adv); err != nil {
			return err
		}
	} else {
		fmt.Printf("workload: %d distinct queries, %d total calls\n", len(entries), totalFreq(entries))
		fmt.Printf("candidates: %d generated, %d tried, %d kept\n",
			adv.CandidatesGenerated, adv.CandidatesTried, adv.CandidatesKept)
		selector := "greedy"
		if adv.Exact {
			selector = "exact"
		}
		fmt.Printf("advised set (%s): %d views, %d / %d bytes\n", selector, len(adv.Views), adv.TotalBytes, adv.ByteBudget)
		for _, v := range adv.Views {
			fmt.Printf("  %8d B  %3d frag  %-14s %s\n", v.Bytes, v.Fragments, v.Source, v.XPath)
		}
		fmt.Printf("predicted coverage: %.1f%% of traffic (%d/%d queries, %d/%d calls)\n",
			100*adv.Predicted.WeightedFraction,
			adv.Predicted.QueriesAnswerable, adv.Predicted.Queries,
			adv.Predicted.FreqAnswerable, adv.Predicted.TotalFreq)
	}

	if compare {
		naive, naiveBytes := advisor.NaiveTopK(sys.Document(), sys.Encoding(), nil, entries, budget)
		cov := advisor.Evaluate(naive, entries)
		fmt.Printf("naive top-k baseline: %d views, %d bytes, %.1f%% of traffic (%d/%d calls)\n",
			len(naive), naiveBytes, 100*cov.WeightedFraction, cov.FreqAnswerable, cov.TotalFreq)
	}

	if apply {
		ids, err := sys.ApplyAdvice(adv)
		if err != nil {
			return err
		}
		fmt.Printf("applied: %d views materialized (ids %v)\n", len(ids), ids)
		answered, total := 0, 0
		for _, e := range entries {
			if _, err := xpath.Parse(e.Query); err != nil {
				continue
			}
			total += e.Freq
			if _, err := sys.Answer(e.Query, xpathviews.HV); err == nil {
				answered += e.Freq
			} else if errors.Is(err, xpathviews.ErrNotAnswerable) {
				if _, err := sys.Answer(e.Query, xpathviews.MV); err == nil {
					answered += e.Freq
				}
			}
		}
		if total > 0 {
			fmt.Printf("realized: %.1f%% of traffic answered from views (%d/%d calls)\n",
				100*float64(answered)/float64(total), answered, total)
		}
		if viewstats {
			// The replay above exercised exactly the design workload
			// Advise armed the drift detector with, so the report shows
			// the attribution the advised set earns on its own traffic.
			fmt.Println("view stats:")
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(sys.ViewStatsReport()); err != nil {
				return err
			}
		}
	}
	return nil
}

func totalFreq(entries []workload.Entry) int {
	n := 0
	for _, e := range entries {
		n += e.Freq
	}
	return n
}
