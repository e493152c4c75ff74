package telemetry

import (
	"fmt"
	"testing"
)

func TestWithLabel(t *testing.T) {
	cases := []struct{ name, key, value, want string }{
		{"xpv_answers_total", "tenant", "acme", `xpv_answers_total{tenant="acme"}`},
		{`xpv_rung_total{rung="HV"}`, "tenant", "acme", `xpv_rung_total{rung="HV",tenant="acme"}`},
		{"m", "k", `a"b\c`, `m{k="a\"b\\c"}`},
		{"m", "k", "tab\there\nline", "m{k=\"tab\there\\nline\"}"},
	}
	for _, c := range cases {
		if got := WithLabel(c.name, c.key, c.value); got != c.want {
			t.Errorf("WithLabel(%q, %q, %q) = %q, want %q", c.name, c.key, c.value, got, c.want)
		}
	}
	// Printable ASCII spells as %q does, so every series name built from
	// a plain-ASCII label value is the one a %q-formatted name gave.
	var ascii []byte
	for c := byte(' '); c <= '~'; c++ {
		ascii = append(ascii, c)
	}
	for _, v := range []string{"default", "acme-1", string(ascii)} {
		if got, want := WithLabel("m", "k", v), fmt.Sprintf("m{k=%q}", v); got != want {
			t.Errorf("WithLabel(%q) = %s, %%q spelling %s", v, got, want)
		}
	}
}

// TestHistogramExemplars: a bucket's first traced observation becomes
// its exemplar, every 64th after replaces it, untraced observations
// count without sampling, and the tail is the highest populated bucket.
func TestHistogramExemplars(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ns")
	h.ObserveExemplar(10_000, "aaaa")
	h.ObserveExemplar(10_000, "") // no trace: metric counted, exemplar unchanged
	if got := h.Snapshot().Count; got != 2 {
		t.Fatalf("count = %d, want 2", got)
	}
	if ex, ok := h.TailExemplar(); !ok || ex.TraceID != "aaaa" || ex.ValueNs != 10_000 {
		t.Fatalf("tail exemplar = %+v ok=%t, want aaaa@10µs", ex, ok)
	}
	// Traced observations 2..63 of the bucket do not resample; the
	// 64th does.
	for i := 2; i < exemplarEvery; i++ {
		h.ObserveExemplar(10_000, "cccc")
	}
	if ex, _ := h.TailExemplar(); ex.TraceID != "aaaa" {
		t.Fatalf("exemplar resampled too eagerly: %+v", ex)
	}
	h.ObserveExemplar(10_000, "dddd")
	if ex, _ := h.TailExemplar(); ex.TraceID != "dddd" {
		t.Fatalf("64th observation not sampled: %+v", ex)
	}
	h.ObserveExemplar(50_000_000, "bbbb")
	if ex, ok := h.TailExemplar(); !ok || ex.TraceID != "bbbb" || ex.ValueNs != 50_000_000 {
		t.Fatalf("tail exemplar = %+v ok=%t, want bbbb@50ms", ex, ok)
	}
	r.Reset()
	if _, ok := h.TailExemplar(); ok {
		t.Fatal("Registry Reset must clear exemplars")
	}
}
