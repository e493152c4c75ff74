package telemetry

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("c") != c {
		t.Fatal("Counter is not get-or-create")
	}
	g := r.Gauge("g")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestNilMetricsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	r.Gauge("y").Set(3)
	r.Histogram("z").Observe(5)
	r.GaugeFunc("f", func() int64 { return 1 })
	if c.Value() != 0 || r.Gauge("y").Value() != 0 {
		t.Fatal("nil registry metrics must stay zero")
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil || b.Len() != 0 {
		t.Fatalf("nil registry WriteText: %q, %v", b.String(), err)
	}
	var sl *SlowLog
	sl.SetThreshold(time.Second)
	sl.Record(SlowQuery{})
	if sl.Threshold() != 0 || sl.Snapshot() != nil {
		t.Fatal("nil slowlog must be inert")
	}
}

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{0, 0}, {1, 0}, {1000, 0}, {1001, 1}, {2000, 1}, {2001, 2},
		{4000, 2}, {1 << 62, histBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketIndex(c.ns); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
}

func TestHistogramPercentiles(t *testing.T) {
	h := &Histogram{}
	// 100 observations at ~10µs, 5 at ~1ms: p50 must sit in the 10µs
	// region, p99 in the 1ms region.
	for i := 0; i < 100; i++ {
		h.Observe(10_000)
	}
	for i := 0; i < 5; i++ {
		h.Observe(1_000_000)
	}
	s := h.Snapshot()
	if s.Count != 105 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.SumNs != 100*10_000+5*1_000_000 {
		t.Fatalf("sum = %d", s.SumNs)
	}
	if s.P50Ns < 5_000 || s.P50Ns > 20_000 {
		t.Errorf("p50 = %dns, want ~10µs", s.P50Ns)
	}
	if s.P99Ns < 500_000 || s.P99Ns > 2_000_000 {
		t.Errorf("p99 = %dns, want ~1ms", s.P99Ns)
	}
	if s.P50Ns > s.P95Ns || s.P95Ns > s.P99Ns {
		t.Errorf("percentiles not monotone: %d %d %d", s.P50Ns, s.P95Ns, s.P99Ns)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := &Histogram{}
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(int64(i) * 100)
			}
		}()
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != workers*per {
		t.Fatalf("count = %d, want %d", got, workers*per)
	}
}

func TestRegistryWriteText(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total").Add(2)
	r.Gauge("a_live").Set(7)
	r.GaugeFunc("c_dyn", func() int64 { return 42 })
	r.Histogram("lat_ns").Observe(5000)
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"a_live 7\n", "b_total 2\n", "c_dyn 42\n", "lat_ns_count 1\n", "lat_ns_sum_ns 5000\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteText missing %q in:\n%s", want, out)
		}
	}
	// Sorted: a_live before b_total before c_dyn.
	if strings.Index(out, "a_live") > strings.Index(out, "b_total") ||
		strings.Index(out, "b_total") > strings.Index(out, "c_dyn") {
		t.Errorf("WriteText not sorted:\n%s", out)
	}
}

// TestWriteTextDeterministic pins the /metrics exposition contract the
// serving daemon and golden tests rely on: repeated scrapes of the same
// registry state are byte-identical (map iteration order must not leak
// through), lines are fully sorted by exposed name (histogram expansion
// included), and metrics of different kinds sharing a name keep a stable
// relative order.
func TestWriteTextDeterministic(t *testing.T) {
	r := NewRegistry()
	// Enough names to make map-order leakage overwhelmingly visible,
	// including a histogram whose expanded rows interleave with plain
	// metrics, and a counter/gauge name collision.
	for i := 0; i < 40; i++ {
		r.Counter(fmt.Sprintf("m%02d_total", i)).Add(int64(i))
	}
	r.Histogram("m10_ns").Observe(3000) // expands between m10_total and m11_total
	r.Counter("dup").Inc()
	r.Gauge("dup").Set(9)
	r.GaugeFunc("m20_live", func() int64 { return 5 })

	var first strings.Builder
	if err := r.WriteText(&first); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		var b strings.Builder
		if err := r.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		if b.String() != first.String() {
			t.Fatalf("WriteText not deterministic:\n--- first ---\n%s--- run %d ---\n%s", first.String(), i, b.String())
		}
	}
	lines := strings.Split(strings.TrimSuffix(first.String(), "\n"), "\n")
	for i := 1; i < len(lines); i++ {
		prev := strings.SplitN(lines[i-1], " ", 2)[0]
		cur := strings.SplitN(lines[i], " ", 2)[0]
		if prev > cur {
			t.Fatalf("WriteText lines not sorted: %q before %q", lines[i-1], lines[i])
		}
	}
	if !strings.Contains(first.String(), "m10_ns_p50_ns") {
		t.Fatalf("histogram rows missing:\n%s", first.String())
	}
}

func TestRegistryReset(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Inc()
	r.Histogram("h").Observe(100)
	r.Reset()
	if r.Counter("c").Value() != 0 {
		t.Fatal("counter not reset")
	}
	if r.Histogram("h").Snapshot().Count != 0 {
		t.Fatal("histogram not reset")
	}
}

func TestTraceTree(t *testing.T) {
	tr := NewTrace("answer")
	root := tr.Root()
	root.SetAttr("query", "//a/b")
	parse := root.Child("parse")
	parse.End()
	plan := root.Child("plan")
	vf := plan.Child("vfilter")
	vf.SetAttr("candidates", 2)
	vf.End()
	plan.SetAttr("cache", "miss")
	plan.End()
	root.Event("done")
	root.End()

	if got := tr.Find("vfilter"); got == nil {
		t.Fatal("Find(vfilter) = nil")
	} else if v, ok := got.Attr("candidates"); !ok || v != 2 {
		t.Fatalf("vfilter candidates attr = %v, %v", v, ok)
	}
	kids := root.Children()
	if len(kids) != 2 || kids[0].Name() != "parse" || kids[1].Name() != "plan" {
		t.Fatalf("root children = %v", kids)
	}
	if root.Duration() <= 0 {
		t.Fatal("root duration not measured")
	}
	txt := tr.Text()
	for _, want := range []string{"answer", "├─ parse", "└─ plan", "   └─ vfilter", "cache=miss", "done"} {
		if !strings.Contains(txt, want) {
			t.Errorf("Text missing %q in:\n%s", want, txt)
		}
	}
	buf, err := tr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(buf), "\"vfilter\"") {
		t.Errorf("JSON missing vfilter:\n%s", buf)
	}
}

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	sp := tr.Root()
	sp = sp.Child("x") // still nil
	sp.SetAttr("k", 1)
	sp.Event("e")
	sp.Err(nil)
	sp.End()
	if sp != nil || tr.Find("x") != nil || tr.Text() != "" {
		t.Fatal("nil trace must be inert")
	}
	if _, err := tr.JSON(); err != nil {
		t.Fatal(err)
	}
}

func TestTraceChildTimed(t *testing.T) {
	tr := NewTrace("root")
	start := time.Now()
	c := tr.Root().ChildTimed("refine", start, 123*time.Microsecond)
	if c.Duration() != 123*time.Microsecond {
		t.Fatalf("ChildTimed duration = %v", c.Duration())
	}
	if !strings.Contains(tr.Text(), "refine 123µs") {
		t.Fatalf("text:\n%s", tr.Text())
	}
}

func TestSlowLogRing(t *testing.T) {
	l := NewSlowLog(4)
	if l.Threshold() != 0 {
		t.Fatal("threshold must default to 0 (disabled)")
	}
	l.SetThreshold(10 * time.Millisecond)
	if l.Threshold() != 10*time.Millisecond {
		t.Fatal("threshold not set")
	}
	for i := 0; i < 6; i++ {
		l.Record(SlowQuery{Query: string(rune('a' + i))})
	}
	got := l.Snapshot()
	if len(got) != 4 {
		t.Fatalf("snapshot len = %d, want 4", len(got))
	}
	// Oldest-first: entries c, d, e, f survive.
	want := []string{"c", "d", "e", "f"}
	for i, e := range got {
		if e.Query != want[i] {
			t.Fatalf("snapshot[%d] = %q, want %q", i, e.Query, want[i])
		}
	}
}

func TestSlowLogConcurrent(t *testing.T) {
	l := NewSlowLog(8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Record(SlowQuery{Query: "q"})
			}
		}()
	}
	wg.Wait()
	if len(l.Snapshot()) != 8 {
		t.Fatalf("snapshot len = %d", len(l.Snapshot()))
	}
}
