package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"xpathviews"
)

func TestPercentileMedianSpread(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 5}, {0.95, 10}, {0.9, 9}, {1, 10}} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("odd median = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := spread([]float64{90, 100, 110}); got != 0.2 {
		t.Errorf("spread = %v, want 0.2", got)
	}
	if got := spread([]float64{0, 0}); got != 0 {
		t.Errorf("spread around a zero median = %v, want 0", got)
	}
}

func TestSliceStatsTakeTheBestFifth(t *testing.T) {
	// slice i+1 of ten answers 100 reads in i+1 ms each within a second.
	var slices []slice
	for i := 10; i >= 1; i-- {
		sl := slice{wall: time.Second}
		for j := 0; j < 100; j++ {
			sl.reads = append(sl.reads, sample{lat: time.Duration(i) * time.Millisecond, good: i <= 2})
		}
		slices = append(slices, sl)
	}
	slices = append(slices, slice{wall: time.Second}) // no reads: not counted
	// The best fifth of ten: 1 and 2 ms; 100 good reads/s twice, 0 elsewhere.
	p50, p95, goodput := sliceStats(slices)
	if p50 != 1500 || p95 != 1500 || goodput != 100 {
		t.Errorf("sliceStats = %v µs, %v µs, %v/s; want 1500, 1500, 100", p50, p95, goodput)
	}
	if p50, _, _ := sliceStats(slices[:3]); p50 != 8000 {
		t.Errorf("best of three slices = %v µs, want the one best slice's 8000", p50)
	}
	if p50, p95, goodput := sliceStats(nil); p50 != 0 || p95 != 0 || goodput != 0 {
		t.Errorf("sliceStats of nothing = %v, %v, %v; want zeros", p50, p95, goodput)
	}
}

func TestZipfIsSeededAndSkewed(t *testing.T) {
	draw := func(seed int64) []int {
		z := newZipf(seed, 256, 1.1)
		out := make([]int, 5000)
		for i := range out {
			out[i] = z.next()
		}
		return out
	}
	a, b := draw(7), draw(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew different ranks")
	}
	if reflect.DeepEqual(a, draw(8)) {
		t.Fatal("different seeds drew the same ranks")
	}
	counts := make([]int, 256)
	for _, r := range a {
		if r < 0 || r >= 256 {
			t.Fatalf("rank %d out of range", r)
		}
		counts[r]++
	}
	if counts[0] < 3*counts[9] {
		t.Errorf("rank 1 drawn %d times, rank 10 %d times: not Zipf(1.1)", counts[0], counts[9])
	}
}

func TestPoolsAreDeterministic(t *testing.T) {
	for _, sp := range workloads {
		var pools [2][]poolQuery
		for i := range pools {
			e, err := build(sp.smoke(), 11, t.TempDir(), false)
			if err != nil {
				t.Fatal(err)
			}
			pools[i] = e.pool
			if err := e.close(); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(pools[0], pools[1]) {
			t.Errorf("%s: two set-ups from one seed built different pools", sp.name)
		}
	}
}

// TestOpenLoopTimesFromDueTime holds the only connection for 30 ms on the
// first request of a 100 requests/s schedule: the second request, due at
// 10 ms, must leave about 20 ms late and be charged that wait.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	first := true
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if first {
			first = false
			time.Sleep(30 * time.Millisecond)
		}
		_ = json.NewEncoder(w).Encode(queryReply{Status: http.StatusOK, Answers: []string{"0.1"}})
	}))
	defer ts.Close()
	e := &env{base: ts.URL, pool: []poolQuery{{src: "//a", want: 1}}}
	clients := httpClients(1)
	defer closeClients(clients)
	p := openLoopPhase(e, clients, queryBodies(e.pool), make([]int, 5), 100)
	if p.sent != 5 || p.wrong != 0 {
		t.Fatalf("sent %d wrong %d, want 5 and 0", p.sent, p.wrong)
	}
	if p.lag[1] < 15*time.Millisecond {
		t.Errorf("second request left %v late, want about 20 ms", p.lag[1])
	}
	if p.reads[1].lat < p.lag[1] {
		t.Errorf("second request's latency %v is shorter than its lateness %v: not timed from the due time", p.reads[1].lat, p.lag[1])
	}
	if p.ok() {
		t.Error("a phase with a fifth of its replies over the limit met the limit at p95")
	}
}

func TestSelfTimeSubtractsDirectChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Layer: layerOp, Parent: -1, Start: 0, End: 100},
		{ID: 1, Layer: layerRewrite, Parent: 0, Start: 10, End: 70},
		{ID: 2, Layer: layerRefine, Parent: 1, Start: 10, End: 30},
		{ID: 3, Layer: layerJoin, Parent: 1, Start: 30, End: 60},
		{ID: 4, Layer: layerCollect, Parent: 0, Start: 70, End: 90},
		// A separately measured part that ran longer than its parent
		// leaves the parent at zero, not below.
		{ID: 5, Layer: layerParse, Parent: 4, Start: 70, End: 120},
	}
	want := []time.Duration{20, 10, 20, 30, 0, 50}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

// TestGraftMapsTheProgramsSpans answers one query uncached with the
// program's trace on and checks that every stage the serving layer runs
// arrives under its layer name, so a renamed or dropped span in the
// program fails here and not as a silent zero in a share.
func TestGraftMapsTheProgramsSpans(t *testing.T) {
	e, err := build(findWorkload("lib-hot").smoke(), 3, t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	pt := xpathviews.NewTrace()
	opts := xpathviews.Options{Strategy: xpathviews.HV, NoPlanCache: true, Trace: pt}
	if _, err := e.sys.AnswerContext(context.Background(), tableIII[1], opts); err != nil {
		t.Fatal(err)
	}
	tr := newTracer(16)
	tr.graft(pt.Root(), tr.add(layerOp, -1, 0, pt.Root().Duration()), 0)
	got := map[string]int{}
	for _, s := range tr.spans {
		got[s.Layer]++
	}
	want := map[string]int{layerOp: 2, layerParse: 1, layerPattern: 1, layerVFilter: 1, layerSelection: 1,
		layerRewrite: 1, layerRefine: 1, layerJoin: 1, layerExtract: 1, layerCollect: 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("layers grafted: %v, want %v", got, want)
	}
	st := &layerStats{}
	st.tally(pt.Root())
	if st.planned != 1 || st.answerable != 1 || st.selected != 2 || st.executes != 1 || st.scanned == 0 || len(st.join) != 1 {
		t.Errorf("tally of a two-view query: %+v", st)
	}
}

func TestFalsifiedAnswerCountFailsTheRun(t *testing.T) {
	sp := findWorkload("lib-hot").smoke()
	e, err := build(sp, 3, t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	w, err := measure(e, 0, 100*time.Millisecond, &profiler{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if w.wrong != 0 {
		t.Fatalf("%d wrong reads before any count was falsified", w.wrong)
	}
	e.pool[0].want++
	if w, err = measure(e, 0, 100*time.Millisecond, &profiler{}, false); err != nil {
		t.Fatal(err)
	}
	if w.wrong == 0 || w.failed == 0 {
		t.Error("a falsified expected count went unnoticed")
	}
}

func TestVerdicts(t *testing.T) {
	lower := metricDef{Name: "query_p50_us", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "goodput_qps", Better: "higher", Bound: 0.10}
	agg := func(median, spread float64) aggregate { return aggregate{Median: median, Spread: spread} }
	for _, c := range []struct {
		d        metricDef
		old, cur aggregate
		want     string
	}{
		{lower, agg(100, 0.02), agg(120, 0.02), "regressed"},
		{lower, agg(100, 0.02), agg(85, 0.02), "improved"},
		{lower, agg(100, 0.02), agg(105, 0.02), "unchanged"},
		{lower, agg(100, 0.02), agg(120, 0.30), "unresolved"},
		{higher, agg(100, 0.02), agg(80, 0.02), "regressed"},
		{higher, agg(100, 0.02), agg(120, 0.02), "improved"},
	} {
		if _, got := verdict(c.d, c.old, c.cur); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.d.Name, c.old.Median, c.cur.Median, got, c.want)
		}
	}
}

// TestSmokeSuite runs the whole command on tiny documents and checks
// that every workload emits every declared metric exactly once, that the
// results file carries what -compare needs, and that -compare flags a
// regression.
func TestSmokeSuite(t *testing.T) {
	dir := t.TempDir()
	results := filepath.Join(dir, "results.json")
	var out bytes.Buffer
	if code := run([]string{"-smoke", "-seed", "5", "-outdir", dir, "-out", results}, &out); code != 0 {
		t.Fatalf("smoke suite exited %d:\n%s", code, out.String())
	}
	blocks := strings.Split(out.String(), "\n== ")[1:]
	if len(blocks) != len(workloads) {
		t.Fatalf("%d workload blocks printed, want %d", len(blocks), len(workloads))
	}
	for i, block := range blocks {
		if !strings.HasPrefix(block, workloads[i].name) {
			t.Errorf("block %d is not %s", i, workloads[i].name)
		}
		for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
			if n := strings.Count(block, "\n"+d.Name+" "); n != 1 {
				t.Errorf("%s: %s printed %d times", workloads[i].name, d.Name, n)
			}
		}
	}
	s, err := readSuite(results)
	if err != nil {
		t.Fatal(err)
	}
	if !s.correct() || len(s.Workloads) != len(workloads) || s.Seed != 5 || s.Host.NumCPU == 0 || s.FrozenRates != frozenRates {
		t.Errorf("results file is missing settings or a workload failed: %+v", s.Host)
	}
	for _, w := range s.Workloads {
		if len(w.EndToEnd) != len(endToEnd) || len(w.PerLayer) != len(perLayer) {
			t.Errorf("%s: %d end-to-end and %d per-layer metrics stored", w.Name, len(w.EndToEnd), len(w.PerLayer))
		}
		for name, a := range w.EndToEnd {
			if a.Median <= 0 {
				t.Errorf("%s: %s is %v; an end-to-end metric is never 0", w.Name, name, a.Median)
			}
		}
		if _, err := os.Stat(filepath.Join(dir, "trace-"+w.Name+".json")); err != nil {
			t.Errorf("%s: no trace written: %v", w.Name, err)
		}
	}

	// The same file against itself is unchanged; with one median made a
	// half worse, -compare exits 1.
	out.Reset()
	if code := run([]string{"-compare", results, results}, &out); code != 0 {
		t.Errorf("a file against itself exited %d:\n%s", code, out.String())
	}
	a := s.Workloads[0].EndToEnd["query_p50_us"]
	a.Median *= 1.5
	s.Workloads[0].EndToEnd["query_p50_us"] = a
	worse := filepath.Join(dir, "worse.json")
	if err := s.write(worse); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code := run([]string{"-compare", results, worse}, &out); code != 1 || !strings.Contains(out.String(), "regressed") {
		t.Errorf("a 50%% worse median exited %d:\n%s", code, out.String())
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the tables in
// metrics.go and setup.go equal.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark's directory:", err)
	}
	var decl struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decl.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from metrics.go:\n%+v\n%+v", decl.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(decl.PerLayer, perLayer) {
		t.Errorf("per_layer differs from metrics.go")
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q declared, %q defined", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, at most 200 allowed", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, d := range decl.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}
