// Command bench is the repository's one benchmark: four workloads that
// stress different layers of the XPath view-answering stack, six
// end-to-end metrics measured with tracing off, and a traced pass that
// attributes each workload's time to layers. BENCHMARK.json at the
// repository root declares it; README.md explains how to read it.
//
// One run of one workload, as the benchmark driver calls it:
//
//	bash bench/run.sh --workload lib-hot --seed 7 --seconds 15 --trace 0
//
// The whole suite, three rounds of 30 s windows and a traced pass per
// workload:
//
//	bash bench/run.sh -seed 2008 -out bench/out/results.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workloadFlag := fs.String("workload", "", "comma-separated workloads to run (default: all)")
	seed := fs.Int64("seed", 2008, "seed of the document, the request order, the Zipf draws and the mutation sites")
	secs := fs.Float64("seconds", 30, "length of one measured window (the benchmark driver passes BENCHMARK.json's run_seconds)")
	trace := fs.Int("trace", -1, "0: one untraced run printing the end-to-end metrics; 1: one traced run printing the per-layer metrics; unset: the suite")
	out := fs.String("out", "", "suite: write the results JSON here (-selfcheck: the second run's)")
	outDir := fs.String("outdir", defaultOutDir(), "directory for traces and temporary files")
	compare := fs.Bool("compare", false, "compare two results files: -compare old.json new.json")
	selfcheck := fs.Bool("selfcheck", false, "run two suites, rounds taking turns, and fail if two medians differ by more than the metric's bound")
	smoke := fs.Bool("smoke", false, "shrink every workload to a tiny document (tests only; the numbers mean nothing)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the measured window (one workload only)")
	memProfile := fs.String("memprofile", "", "write a heap profile after the measured window (one workload only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare old.json new.json")
			return 2
		}
		return compareFiles(stdout, fs.Arg(0), fs.Arg(1))
	}

	var specs []spec
	if *workloadFlag == "" {
		specs = append(specs, workloads...)
	} else {
		for _, name := range strings.Split(*workloadFlag, ",") {
			sp := findWorkload(name)
			if sp == nil {
				fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
				return 2
			}
			specs = append(specs, *sp)
		}
	}
	if *smoke {
		for i := range specs {
			specs[i] = specs[i].smoke()
		}
	}
	if (*cpuProfile != "" || *memProfile != "") && len(specs) != 1 {
		fmt.Fprintln(os.Stderr, "bench: a profile covers one workload's window; pick one with -workload")
		return 2
	}

	cfg := runConfig{seed: *seed, seconds: *secs, outDir: *outDir, rounds: 3, setups: 3, traceOps: 2000, traceMut: 200,
		cpuProfile: *cpuProfile, memProfile: *memProfile}
	if *smoke {
		cfg.seconds, cfg.rounds, cfg.setups, cfg.traceOps, cfg.traceMut = 0.3, 1, 1, 200, 20
	}

	switch {
	case *trace >= 0:
		if len(specs) != 1 {
			fmt.Fprintln(os.Stderr, "bench: -trace runs one workload; pick it with -workload")
			return 2
		}
		cfg.spec, cfg.trace = specs[0], *trace == 1
		if cfg.trace {
			cfg.setups = 1
		}
		return runSingle(cfg, stdout)
	case *selfcheck:
		return runSelfcheck(cfg, specs, *out, stdout)
	default:
		suites, err := runSuite(cfg, specs, 1, stdout)
		if err != nil {
			return fail(err)
		}
		s := suites[0]
		if *out != "" {
			if err := s.write(*out); err != nil {
				return fail(err)
			}
		}
		if !s.correct() {
			return 1
		}
		return 0
	}
}

// fail reports err and returns the exit code of a failed run.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}

// defaultOutDir is bench/out from the repository root and out from the
// benchmark's own directory.
func defaultOutDir() string {
	if st, err := os.Stat("bench"); err == nil && st.IsDir() {
		return "bench/out"
	}
	return "out"
}

// runSingle is one run as the benchmark driver calls it: every metric by
// name with its unit, then the result object as the last line.
func runSingle(cfg runConfig, stdout io.Writer) int {
	res, err := runOnce(cfg)
	if err != nil {
		return fail(err)
	}
	printMetrics(stdout, res.Metrics)
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func printMetrics(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-42s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
