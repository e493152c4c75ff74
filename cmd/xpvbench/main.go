// Command xpvbench regenerates the tables and figures of the paper's
// evaluation section (§VI) and prints them as text rows.
//
// Usage:
//
//	xpvbench [-quick] [-table3] [-fig8] [-fig9] [-fig10] [-fig11] [-fig12]
//
// With no figure flags, everything runs. -quick shrinks the workload for
// a fast smoke run. This system's own performance (serving, view
// maintenance, telemetry) is measured by the repository benchmark
// (`bash bench/run.sh`), which also takes -cpuprofile.
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"xpathviews/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "use the small configuration")
	t3 := flag.Bool("table3", false, "print Table III (test queries)")
	f8 := flag.Bool("fig8", false, "run Figure 8 (query processing time)")
	f9 := flag.Bool("fig9", false, "run Figure 9 (lookup time)")
	f10 := flag.Bool("fig10", false, "run Figure 10 (utility)")
	f11 := flag.Bool("fig11", false, "run Figure 11 (VFilter size scaling)")
	f12 := flag.Bool("fig12", false, "run Figure 12 (filtering time)")
	flag.Parse()

	all := !(*t3 || *f8 || *f9 || *f10 || *f11 || *f12)
	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	defer w.Flush()

	if all || *t3 {
		fmt.Fprintln(w, "== Table III: test queries (reconstructed; see DESIGN.md) ==")
		for _, q := range experiments.TableIII() {
			fmt.Fprintf(w, "%s\t%s\tanswerable by %d view(s)\n", q.Name, q.XPath, q.ViewsNeeded)
		}
		fmt.Fprintln(w)
	}

	var env *experiments.Env
	needEnv := all || *f8 || *f9
	if needEnv {
		fmt.Fprintf(w, "building environment: scale=%.2f views=%d cap=%dKB ...\n",
			cfg.Scale, cfg.NumViews, cfg.FragmentLimit>>10)
		w.Flush()
		var err error
		env, err = experiments.NewEnv(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(w, "document: %d nodes; views: %d (+%d skipped over cap)\n\n",
			env.DocNodes, env.Sys.NumViews(), env.SkippedViews)
	}

	if all || *f8 {
		fmt.Fprintln(w, "== Figure 8: query processing time (log-y in the paper) ==")
		fmt.Fprintln(w, "query\tstrategy\ttime\tanswers\tviews\tnote")
		for _, r := range env.Fig8() {
			fmt.Fprintf(w, "%s\t%v\t%v\t%d\t%d\t%s\n",
				r.Query, r.Strategy, r.Elapsed, r.Answers, r.Views, r.Err)
		}
		fmt.Fprintln(w)
	}
	if all || *f9 {
		fmt.Fprintln(w, "== Figure 9: lookup (selection) time ==")
		fmt.Fprintln(w, "query\tstrategy\ttime\tviews\thoms\tnote")
		for _, r := range env.Fig9() {
			fmt.Fprintf(w, "%s\t%v\t%v\t%d\t%d\t%s\n",
				r.Query, r.Strategy, r.Elapsed, r.Views, r.Homs, r.Err)
		}
		fmt.Fprintln(w)
	}

	if all || *f10 || *f11 || *f12 {
		fmt.Fprintln(w, "building filter environment (view sets V1..Vk) ...")
		w.Flush()
		fe := experiments.NewFilterEnv(cfg)
		if all || *f10 {
			fmt.Fprintln(w, "== Figure 10: utility U(Q) = |V''|/|V_Q| ==")
			fmt.Fprintln(w, "views\tavg utility\tmax utility\tmax |V''|")
			for _, r := range fe.Fig10() {
				fmt.Fprintf(w, "%d\t%.3f\t%.2f\t%d\n", r.NumViews, r.AvgUtility, r.MaxUtility, r.MaxCandSet)
			}
			fmt.Fprintln(w)
		}
		if all || *f11 {
			fmt.Fprintln(w, "== Figure 11: VFilter size scaling ==")
			fmt.Fprintln(w, "views\tstates\tbytes\tS_i/S_1")
			for _, r := range fe.Fig11() {
				fmt.Fprintf(w, "%d\t%d\t%d\t%.2f\n", r.NumViews, r.States, r.Bytes, r.ScaleVsFirst)
			}
			fmt.Fprintln(w)
		}
		if all || *f12 {
			fmt.Fprintln(w, "== Figure 12: filtering time vs number of views ==")
			fmt.Fprintln(w, "query\tviews\ttime")
			for _, r := range fe.Fig12() {
				fmt.Fprintf(w, "%s\t%d\t%v\n", r.Query, r.NumViews, r.Elapsed)
			}
			fmt.Fprintln(w)
		}
	}
}
