// Command xpvquery evaluates one XPath query against an XML document,
// directly or through materialized views.
//
// Usage:
//
//	xpvquery -doc site.xml '//person[address]/name'
//	xpvquery -doc site.xml -view '//person/address/city' -view '//person[address]/name' \
//	         -strategy HV '//person[address/city]/name'
//
// Output: one line per answer with its extended Dewey code and the
// serialized answer subtree (truncated).
//
// Observability: -explain prints the query plan (surviving and selected
// views, plan-cache status, per-stage timings and the span tree)
// instead of answers; -explain-json emits the same as JSON. -slowlog
// arms the slow-query log at a threshold and prints retained entries
// after the run; -metrics dumps the metrics exposition; -viewstats
// dumps the view-observatory report (per-view hit attribution and
// benefit-per-KB, cost-model calibration, workload-drift state).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"xpathviews"
)

type viewList []string

func (v *viewList) String() string     { return strings.Join(*v, "; ") }
func (v *viewList) Set(s string) error { *v = append(*v, s); return nil }

func main() {
	docPath := flag.String("doc", "", "XML document to query (required)")
	strategy := flag.String("strategy", "BF", "BN | BF | MN | MV | HV | CV")
	limit := flag.Int("limit", xpathviews.DefaultFragmentLimit, "per-view fragment byte cap (0 = unlimited)")
	maxShow := flag.Int("n", 20, "maximum answers to print (0 = all)")
	timeout := flag.Duration("timeout", 0, "per-query deadline, e.g. 500ms (0 = none)")
	maxAnswers := flag.Int("max-answers", 0, "truncate the result to this many answers (0 = all)")
	resilient := flag.Bool("resilient", false, "answer via the fallback chain (HV -> MV -> contained -> BN), degrading instead of failing")
	explain := flag.Bool("explain", false, "print the query plan (views, covers, cache status, stage timings) instead of answers")
	explainJSON := flag.Bool("explain-json", false, "like -explain, but emit JSON")
	slowlog := flag.Duration("slowlog", 0, "arm the slow-query log at this threshold, e.g. 1ms, and print entries after the run (0 = off)")
	metrics := flag.Bool("metrics", false, "dump the metrics text exposition after the run")
	viewstats := flag.Bool("viewstats", false, "dump the view-observatory report (per-view attribution, cost calibration, workload drift) as JSON after the run")
	traceparent := flag.String("traceparent", "", `join this W3C traceparent header ("new" = start a fresh trace); the trace ID lands in latency exemplars and slow-log entries, and the propagated header is printed`)
	var viewSrcs viewList
	flag.Var(&viewSrcs, "view", "materialize this view (repeatable)")
	flag.Parse()

	if *docPath == "" || flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	f, err := os.Open(*docPath)
	if err != nil {
		fatal(err)
	}
	sys, err := xpathviews.OpenXML(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	for _, v := range viewSrcs {
		if _, err := sys.AddView(v, *limit); err != nil {
			fatal(fmt.Errorf("view %s: %w", v, err))
		}
	}

	var strat xpathviews.Strategy
	switch strings.ToUpper(*strategy) {
	case "BN":
		strat = xpathviews.BN
	case "BF":
		strat = xpathviews.BF
	case "MN":
		strat = xpathviews.MN
	case "MV":
		strat = xpathviews.MV
	case "HV":
		strat = xpathviews.HV
	case "CV":
		strat = xpathviews.CV
	default:
		fatal(fmt.Errorf("unknown strategy %q", *strategy))
	}

	opts := xpathviews.Options{
		Strategy:   strat,
		Timeout:    *timeout,
		MaxAnswers: *maxAnswers,
	}
	if *traceparent != "" {
		var traceID string
		if tc, ok := xpathviews.ParseTraceparent(*traceparent); ok {
			traceID = tc.TraceID
		} else if *traceparent == "new" {
			traceID = xpathviews.NewTraceID()
		} else {
			fatal(fmt.Errorf(`invalid traceparent %q (want a W3C header value or "new")`, *traceparent))
		}
		opts.TraceID = traceID
		fmt.Printf("traceparent: %s\n", xpathviews.FormatTraceparent(traceID, xpathviews.NewSpanID()))
	}
	if *slowlog > 0 {
		sys.SetSlowQueryThreshold(*slowlog)
	}
	if *explain || *explainJSON {
		ex, err := sys.ExplainContext(context.Background(), flag.Arg(0), opts)
		if err != nil {
			fatal(err)
		}
		if *explainJSON {
			buf, err := ex.JSON()
			if err != nil {
				fatal(err)
			}
			fmt.Println(string(buf))
		} else {
			fmt.Print(ex.Text())
		}
		dumpObs(sys, *slowlog, *metrics, *viewstats)
		return
	}
	var res *xpathviews.Result
	if *resilient {
		res, err = sys.AnswerResilient(context.Background(), flag.Arg(0), opts)
	} else {
		res, err = sys.AnswerContext(context.Background(), flag.Arg(0), opts)
	}
	if err != nil {
		dumpObs(sys, *slowlog, *metrics, *viewstats)
		fatal(err)
	}
	fmt.Printf("%d answer(s) via %v", len(res.Answers), res.Strategy)
	if *resilient {
		fmt.Printf(" (rung %s)", res.Strategy)
	}
	if len(res.ViewsUsed) > 0 {
		fmt.Printf(" using views %v (candidates after filter: %d)", res.ViewsUsed, res.CandidatesAfterFilter)
	}
	if res.Partial {
		fmt.Print(" [partial: contained rewriting]")
	}
	if res.Truncated {
		fmt.Print(" [truncated]")
	}
	fmt.Println()
	if res.Degraded {
		fmt.Printf("degraded: %s\n", strings.Join(res.DegradedReasons, "; "))
	}
	for i, a := range res.Answers {
		if *maxShow > 0 && i >= *maxShow {
			fmt.Printf("... and %d more\n", len(res.Answers)-i)
			break
		}
		xml, err := xpathviews.MarshalAnswer(a)
		if err != nil {
			xml = "<?>"
		}
		if len(xml) > 120 {
			xml = xml[:117] + "..."
		}
		fmt.Printf("%-16s %s\n", a.Code, xml)
	}
	dumpObs(sys, *slowlog, *metrics, *viewstats)
}

// dumpObs prints the armed observability artifacts after the run: the
// slow-query log (when -slowlog armed it) and the metrics exposition
// (when -metrics asked for it).
func dumpObs(sys *xpathviews.System, slowlog time.Duration, metrics, viewstats bool) {
	if slowlog > 0 {
		entries := sys.SlowQueries()
		fmt.Printf("\nslow queries (>= %v): %d\n", slowlog, len(entries))
		for _, e := range entries {
			fmt.Printf("  %v  %s  strategy=%s total=%v parse=%v filter=%v select=%v rewrite=%v cache_hit=%t memo=%t",
				e.Time.Format("15:04:05.000"), e.Query, e.Strategy,
				e.Total, e.Parse, e.Filter, e.Select, e.Rewrite, e.CacheHit, e.Memo)
			if len(e.Views) > 0 {
				fmt.Printf(" views=%v", e.Views)
			}
			if e.TraceID != "" {
				fmt.Printf(" trace_id=%s", e.TraceID)
			}
			fmt.Println()
		}
	}
	if metrics {
		fmt.Println("\nmetrics:")
		if err := sys.DumpMetrics(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "xpvquery: dump metrics:", err)
		}
	}
	if viewstats {
		fmt.Println("\nview stats:")
		buf, err := json.MarshalIndent(sys.ViewStatsReport(), "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "xpvquery: view stats:", err)
			return
		}
		fmt.Println(string(buf))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xpvquery:", err)
	os.Exit(1)
}
