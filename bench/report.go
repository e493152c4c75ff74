package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
)

// commit is stamped by run.sh (-ldflags -X main.commit=...); a bare
// `go run` leaves it unknown.
var commit = "unknown"

// hostInfo is what two results files must share to be comparable.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func readHost() hostInfo {
	h := hostInfo{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", Commit: commit}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
				h.CPUModel = strings.TrimSpace(val)
				break
			}
		}
	}
	return h
}

// aggregate is one end-to-end metric over a workload's rounds.
type aggregate struct {
	Median float64   `json:"median"`
	Spread float64   `json:"spread"` // (max−min)/median over the rounds
	Unit   string    `json:"unit"`
	Rounds []float64 `json:"rounds"`
}

// workloadResult is one workload's block of the results file.
type workloadResult struct {
	Name      string               `json:"name"`
	Why       string               `json:"why"`
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"ops_attempted"`
	Failed    int64                `json:"ops_failed"`
	EndToEnd  map[string]aggregate `json:"end_to_end"`
	PerLayer  map[string]metric    `json:"per_layer"`
}

// suiteResult is the results file: enough about the host and the
// settings to tell whether two files are comparable, then the numbers.
type suiteResult struct {
	Host        hostInfo         `json:"host"`
	Seed        int64            `json:"seed"`
	Seconds     float64          `json:"seconds"`
	ReadClients int              `json:"read_clients"`
	Connections int              `json:"connections"`
	FrozenRates [3]float64       `json:"frozen_rates_rps"`
	Bounds      []metricDef      `json:"end_to_end_metrics"`
	Workloads   []workloadResult `json:"workloads"`
	Claim       *string          `json:"claim"` // this benchmark claims no gain
}

func (s *suiteResult) correct() bool {
	for _, w := range s.Workloads {
		if !w.Correct {
			return false
		}
	}
	return true
}

func (s *suiteResult) write(path string) error {
	raw, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readSuite(path string) (*suiteResult, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s suiteResult
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runSuite runs every workload: rounds untraced runs, each a fresh
// set-up, warm-up and window, then one traced run; and prints every
// metric by name with its unit. With copies > 1 it measures that many
// independent suites at once, their rounds taking turns, so that a host
// that drifts between fast and slow drifts under all of them alike.
func runSuite(cfg runConfig, specs []spec, copies int, out io.Writer) ([]*suiteResult, error) {
	suites := make([]*suiteResult, copies)
	for c := range suites {
		suites[c] = &suiteResult{Host: readHost(), Seed: cfg.seed, Seconds: cfg.seconds,
			ReadClients: readClients(), Connections: connections(), FrozenRates: frozenRates, Bounds: endToEnd}
	}
	h := suites[0].Host
	fmt.Fprintf(out, "host: %d cpus, GOMAXPROCS %d, %s, %s, commit %s, seed %d\n",
		h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.CPUModel, h.Commit, cfg.seed)
	for _, sp := range specs {
		cfg.spec = sp
		results := make([]workloadResult, copies)
		values := make([]map[string][]float64, copies)
		for c := range results {
			results[c] = workloadResult{Name: sp.name, Why: sp.why, Correct: true, EndToEnd: map[string]aggregate{}}
			values[c] = map[string][]float64{}
		}
		add := func(c int, res *runResult) {
			results[c].Correct = results[c].Correct && res.Correct
			results[c].Attempted += res.Attempted
			results[c].Failed += res.Failed
		}
		for r := 0; r < cfg.rounds; r++ {
			for c := 0; c < copies; c++ {
				one := cfg
				one.trace = false
				if r > 0 || c > 0 {
					one.cpuProfile, one.memProfile = "", "" // the profile covers the first window
				}
				res, err := runOnce(one)
				if err != nil {
					return nil, err
				}
				add(c, res)
				for name, m := range res.Metrics {
					values[c][name] = append(values[c][name], m.Value)
				}
			}
		}
		for c := 0; c < copies; c++ {
			one := cfg
			one.trace, one.setups, one.cpuProfile, one.memProfile = true, 1, "", ""
			res, err := runOnce(one)
			if err != nil {
				return nil, err
			}
			add(c, res)
			wr := results[c]
			wr.PerLayer = res.Metrics
			for _, d := range endToEnd {
				wr.EndToEnd[d.Name] = aggregate{Median: median(values[c][d.Name]), Spread: spread(values[c][d.Name]),
					Unit: d.Unit, Rounds: values[c][d.Name]}
			}
			suites[c].Workloads = append(suites[c].Workloads, wr)

			fmt.Fprintf(out, "\n== %s — %s\n", sp.name, sp.why)
			if copies > 1 {
				fmt.Fprintf(out, "suite %d of %d\n", c+1, copies)
			}
			fmt.Fprintf(out, "ops_attempted %d  ops_failed %d  correct %v\n", wr.Attempted, wr.Failed, wr.Correct)
			fmt.Fprintf(out, "%-42s %14s %-6s %8s\n", "end-to-end (median of rounds)", "value", "unit", "spread")
			for _, d := range endToEnd {
				a := wr.EndToEnd[d.Name]
				fmt.Fprintf(out, "%-42s %14.4f %-6s %7.1f%%\n", d.Name, a.Median, a.Unit, 100*a.Spread)
			}
			fmt.Fprintf(out, "%-42s %14s %-6s\n", "per-layer (one traced pass)", "value", "unit")
			for _, d := range perLayer {
				fmt.Fprintf(out, "%-42s %14.4f %-6s\n", d.Name, wr.PerLayer[d.Name].Value, d.Unit)
			}
		}
	}
	return suites, nil
}

// verdict classifies one (metric, workload) pair of medians. worse is
// how much worse the new median is as a share of the old one (negative
// when better). A pair whose spread is wider than the bound cannot be
// told apart and is unresolved, not unchanged.
func verdict(d metricDef, old, cur aggregate) (worse float64, v string) {
	worse = ratio(cur.Median-old.Median, math.Abs(old.Median))
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case old.Spread > d.Bound || cur.Spread > d.Bound:
		v = "unresolved"
	case worse > d.Bound:
		v = "regressed"
	case worse < -d.Bound:
		v = "improved"
	default:
		v = "unchanged"
	}
	return worse, v
}

// settingsDiffer lists what differs between two files that should not.
func settingsDiffer(a, b *suiteResult) (diffs []string) {
	check := func(what string, x, y any) {
		if fmt.Sprint(x) != fmt.Sprint(y) {
			diffs = append(diffs, fmt.Sprintf("%s: %v vs %v", what, x, y))
		}
	}
	check("cpu model", a.Host.CPUModel, b.Host.CPUModel)
	check("nproc", a.Host.NumCPU, b.Host.NumCPU)
	check("GOMAXPROCS", a.Host.GOMAXPROCS, b.Host.GOMAXPROCS)
	check("go version", a.Host.GoVersion, b.Host.GoVersion)
	check("seed", a.Seed, b.Seed)
	check("seconds", a.Seconds, b.Seconds)
	check("read clients", a.ReadClients, b.ReadClients)
	check("connections", a.Connections, b.Connections)
	check("frozen rates", a.FrozenRates, b.FrozenRates)
	return diffs
}

// compareSuites prints one block per workload and one row per metric and
// returns how many rows regressed and how many could not be resolved.
// The bounds are this binary's, not the files'.
func compareSuites(out io.Writer, old, cur *suiteResult) (regressed, unresolved int) {
	for _, d := range settingsDiffer(old, cur) {
		fmt.Fprintf(out, "not comparable — %s\n", d)
	}
	oldBy := map[string]workloadResult{}
	for _, w := range old.Workloads {
		oldBy[w.Name] = w
	}
	for _, w := range cur.Workloads {
		ow, ok := oldBy[w.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(out, "\n== %s\n", w.Name)
		fmt.Fprintf(out, "%-16s %-5s %12s %7s %12s %7s %6s %8s  %s\n",
			"metric", "unit", "old", "spread", "new", "spread", "bound", "worse", "verdict")
		for _, d := range endToEnd {
			o, n := ow.EndToEnd[d.Name], w.EndToEnd[d.Name]
			worse, v := verdict(d, o, n)
			switch v {
			case "regressed":
				regressed++
			case "unresolved":
				unresolved++
			}
			fmt.Fprintf(out, "%-16s %-5s %12.4f %6.1f%% %12.4f %6.1f%% %5.0f%% %+7.1f%%  %s\n",
				d.Name, d.Unit, o.Median, 100*o.Spread, n.Median, 100*n.Spread, 100*d.Bound, 100*worse, v)
		}
		if ow.Failed != w.Failed {
			fmt.Fprintf(out, "ops_failed: %d of %d vs %d of %d\n", ow.Failed, ow.Attempted, w.Failed, w.Attempted)
		}
	}
	return regressed, unresolved
}

func compareFiles(out io.Writer, oldPath, newPath string) int {
	old, err := readSuite(oldPath)
	if err == nil {
		var cur *suiteResult
		if cur, err = readSuite(newPath); err == nil {
			if regressed, _ := compareSuites(out, old, cur); regressed > 0 {
				return 1
			}
			return 0
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

// runSelfcheck is the repeatability evidence: two suites on the same
// binary, their rounds taking turns; no end-to-end median may differ by
// more than its bound in either direction, and no row's rounds may be
// spread wider than its bound.
func runSelfcheck(cfg runConfig, specs []spec, resultsPath string, out io.Writer) int {
	runs, err := runSuite(cfg, specs, 2, out)
	if err != nil {
		return fail(err)
	}
	if resultsPath != "" {
		if err := runs[1].write(resultsPath); err != nil {
			return fail(err)
		}
	}
	fmt.Fprintln(out, "\n### selfcheck: suite 1 against suite 2")
	_, bad := compareSuites(out, runs[0], runs[1])
	if bad > 0 {
		fmt.Fprintf(out, "selfcheck: %d rows unresolved: their rounds are spread wider than the bound\n", bad)
	}
	for i, w := range runs[1].Workloads {
		for _, d := range endToEnd {
			a, b := runs[0].Workloads[i].EndToEnd[d.Name], w.EndToEnd[d.Name]
			if diff := math.Abs(ratio(b.Median-a.Median, a.Median)); diff > d.Bound {
				fmt.Fprintf(out, "selfcheck: %s %s differs by %.1f%%, bound %.0f%%\n", w.Name, d.Name, 100*diff, 100*d.Bound)
				bad++
			}
		}
	}
	if bad > 0 || !runs[0].correct() || !runs[1].correct() {
		fmt.Fprintln(out, "selfcheck: FAIL")
		return 1
	}
	fmt.Fprintln(out, "selfcheck: PASS — every end-to-end median repeats within its bound and every row is resolved")
	return 0
}
