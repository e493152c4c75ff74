package rewrite

// White-box tests for the holistic join kernel: the head-scan k-way
// merge that builds the virtual tree, join-plan reuse, and the
// sort-and-compact answer dedup.

import (
	"math/rand"
	"sort"
	"testing"

	"xpathviews/internal/dewey"
	"xpathviews/internal/paperdata"
	"xpathviews/internal/selection"
	"xpathviews/internal/views"
	"xpathviews/internal/xpath"
)

// mergeStreams builds the virtual tree over refined and returns the
// merge's emitted (stream, code) sequence — the arena's fragment entries
// are appended in pop order — and its gallop hits. It also checks that
// every Δ-view (stream 0) anchor is the arena node of its fragment's
// code.
func mergeStreams(t *testing.T, refined []refinedView) (streams []int32, codes []dewey.Code, gallop int64) {
	t.Helper()
	vt, anchors, gallop := buildVirtual(dewey.BuildFSTFromSchema("r", nil), refined, 0)
	defer putVtree(vt)
	for _, e := range vt.fragEntries {
		streams = append(streams, e.view)
		codes = append(codes, e.frag.Code)
	}
	for fi, f := range refined[0].frags {
		if got := vt.nodes[anchors[fi]].code; dewey.Compare(got, f.Code) != 0 {
			t.Fatalf("anchor of Δ-fragment %d is node %v, want %v", fi, got, f.Code)
		}
	}
	return streams, codes, gallop
}

// streamLabels labels every random code's components; the merge copies
// them onto arena nodes and never compares them.
var streamLabels = []string{"r", "x", "x", "x", "x"}

// randStreams builds k sorted code streams under the root code 0 with
// skewed lengths (stream 0 gets runs of consecutive codes) and duplicate
// codes both within and across streams.
func randStreams(r *rand.Rand, k, maxLen int) []refinedView {
	path := &dewey.LabelPath{Labels: streamLabels}
	refined := make([]refinedView, k)
	for vi := range refined {
		n := r.Intn(maxLen + 1)
		if vi == 0 {
			n = maxLen * 2 // skew: the dominant stream runs
		}
		frags := make([]*views.Fragment, 0, n)
		for i := 0; i < n; i++ {
			code := make(dewey.Code, 2+r.Intn(4))
			for d := 1; d < len(code); d++ {
				code[d] = uint32(r.Intn(4))
			}
			frags = append(frags, &views.Fragment{Code: code, Path: path})
		}
		sort.Slice(frags, func(i, j int) bool { return dewey.Compare(frags[i].Code, frags[j].Code) < 0 })
		refined[vi] = refinedView{frags: frags}
	}
	return refined
}

// TestHeadScanMergeRandom: for many random stream sets and widths, the
// head-scan merge must emit every code exactly once, in global document
// order, breaking ties by stream index, and count as gallop hits exactly
// the emits that continue the previous emit's stream.
func TestHeadScanMergeRandom(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		k := 1 + r.Intn(9)
		refined := randStreams(r, k, 1+r.Intn(20))

		type emit struct {
			stream int32
			code   dewey.Code
		}
		var want []emit
		for vi := range refined {
			for _, f := range refined[vi].frags {
				want = append(want, emit{int32(vi), f.Code})
			}
		}
		sort.SliceStable(want, func(i, j int) bool {
			c := dewey.Compare(want[i].code, want[j].code)
			return c < 0 || (c == 0 && want[i].stream < want[j].stream)
		})
		var wantGallop int64
		for i := 1; i < len(want); i++ {
			if want[i].stream == want[i-1].stream {
				wantGallop++
			}
		}

		streams, codes, gallop := mergeStreams(t, refined)
		if len(codes) != len(want) {
			t.Fatalf("trial %d (k=%d): merged %d codes, want %d", trial, k, len(codes), len(want))
		}
		for i := range want {
			if streams[i] != want[i].stream || dewey.Compare(codes[i], want[i].code) != 0 {
				t.Fatalf("trial %d (k=%d): emit %d = (stream %d, %v), want (stream %d, %v)",
					trial, k, i, streams[i], codes[i], want[i].stream, want[i].code)
			}
		}
		if gallop != wantGallop {
			t.Fatalf("trial %d (k=%d): %d gallop hits, want %d", trial, k, gallop, wantGallop)
		}
	}
}

// TestHeadScanGallopSkew pins the merge on a hand-built skew: one stream
// holds a long run strictly below every other head, so the whole run
// drains first and each pop after its first is a gallop hit.
func TestHeadScanGallopSkew(t *testing.T) {
	path := &dewey.LabelPath{Labels: []string{"r", "x"}}
	mk := func(codes ...dewey.Code) refinedView {
		frags := make([]*views.Fragment, len(codes))
		for i, c := range codes {
			frags[i] = &views.Fragment{Code: c, Path: path}
		}
		return refinedView{frags: frags}
	}
	refined := []refinedView{
		mk(dewey.Code{0, 1}, dewey.Code{0, 2}, dewey.Code{0, 3}, dewey.Code{0, 4}, dewey.Code{0, 9}),
		mk(dewey.Code{0, 5}),
		mk(dewey.Code{0, 6}, dewey.Code{0, 7}),
	}
	wantStreams := []int32{0, 0, 0, 0, 1, 2, 2, 0}
	streams, codes, gallop := mergeStreams(t, refined)
	if len(streams) != len(wantStreams) {
		t.Fatalf("emitted %d codes, want %d", len(streams), len(wantStreams))
	}
	for i, ws := range wantStreams {
		if streams[i] != ws {
			t.Fatalf("emit %d came from stream %d (%v), want stream %d", i, streams[i], codes[i], ws)
		}
	}
	for i := 1; i < len(codes); i++ {
		if dewey.Compare(codes[i-1], codes[i]) > 0 {
			t.Fatalf("merge out of order at %d: %v > %v", i, codes[i-1], codes[i])
		}
	}
	if gallop != 4 {
		t.Fatalf("%d gallop hits, want 4 (three in stream 0's run, one in stream 2's)", gallop)
	}
}

// planFixture builds a (plan, fst, refined) stack from the paper's
// running example, refined for real.
func planFixture(t *testing.T) (*JoinPlan, *dewey.FST, []refinedView, func()) {
	t.Helper()
	tree := paperdata.BookTree()
	enc, err := dewey.Encode(tree, paperdata.BookFST())
	if err != nil {
		t.Fatal(err)
	}
	reg := views.NewRegistry(tree, enc)
	reg.Add(xpath.MustParse(paperdata.ViewV1), 0)
	reg.Add(xpath.MustParse(paperdata.ViewV2), 0)
	q := xpath.MustParse(paperdata.QueryE)
	sel, err := selection.MinimumBudget(q, reg.ViewList, nil)
	if err != nil {
		t.Fatal(err)
	}
	jp, err := PlanJoin(q, sel.Covers)
	if err != nil {
		t.Fatal(err)
	}
	refined := make([]refinedView, len(sel.Covers))
	for i, c := range sel.Covers {
		if err := refineView(q, c, &refined[i], nil); err != nil {
			t.Fatal(err)
		}
	}
	return jp, enc.FST(), refined, func() { releaseRefined(refined) }
}

// TestJoinPlanReuse: passing the precomputed JoinPlan through Options
// must give the same answers as recomputing it per call (the serving
// layer's plan-cache wiring depends on this).
func TestJoinPlanReuse(t *testing.T) {
	tree := paperdata.BookTree()
	enc, err := dewey.Encode(tree, paperdata.BookFST())
	if err != nil {
		t.Fatal(err)
	}
	reg := views.NewRegistry(tree, enc)
	reg.Add(xpath.MustParse(paperdata.ViewV1), 0)
	reg.Add(xpath.MustParse(paperdata.ViewV2), 0)
	q := xpath.MustParse(paperdata.QueryE)
	sel, err := selection.MinimumBudget(q, reg.ViewList, nil)
	if err != nil {
		t.Fatal(err)
	}
	jp, err := PlanJoin(q, sel.Covers)
	if err != nil {
		t.Fatal(err)
	}
	base, err := ExecuteOptions(q, sel, enc.FST(), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	withPlan, err := ExecuteOptions(q, sel, enc.FST(), nil, Options{Plan: jp})
	if err != nil {
		t.Fatal(err)
	}
	bc, pc := base.Codes(), withPlan.Codes()
	if len(bc) != len(pc) {
		t.Fatalf("plan reuse changed answer count: %d vs %d", len(pc), len(bc))
	}
	for i := range bc {
		if dewey.Compare(bc[i], pc[i]) != 0 {
			t.Fatalf("plan reuse changed answer %d: %v vs %v", i, pc[i], bc[i])
		}
	}
	// A plan for a different pattern object must be ignored, not misused.
	q2 := xpath.MustParse(paperdata.QueryE)
	sel2, err := selection.MinimumBudget(q2, reg.ViewList, nil)
	if err != nil {
		t.Fatal(err)
	}
	cross, err := ExecuteOptions(q2, sel2, enc.FST(), nil, Options{Plan: jp})
	if err != nil {
		t.Fatal(err)
	}
	if len(cross.Codes()) != len(bc) {
		t.Fatalf("mismatched plan not recomputed: %d answers, want %d", len(cross.Codes()), len(bc))
	}
}

// TestDedupAnswers: duplicates collapse to the first-seen answer (the
// map-based dedup's survivor), the dropped tail is zeroed so pooled
// buffers do not pin fragment nodes, and the result has no spare
// capacity a caller's append could write through.
func TestDedupAnswers(t *testing.T) {
	c := func(xs ...uint32) dewey.Code { return dewey.Code(xs) }
	backing := []Answer{
		{Code: c(0, 1)}, {Code: c(0, 1)}, {Code: c(0, 2)}, {Code: c(0, 2)}, {Code: c(0, 2)}, {Code: c(0, 3)},
	}
	got := dedupAnswers(backing)
	want := []dewey.Code{c(0, 1), c(0, 2), c(0, 3)}
	if len(got) != len(want) || cap(got) != len(got) {
		t.Fatalf("dedup kept %d answers (cap %d), want %d with cap == len", len(got), cap(got), len(want))
	}
	for i, w := range want {
		if dewey.Compare(got[i].Code, w) != 0 {
			t.Fatalf("answer %d = %v, want %v", i, got[i].Code, w)
		}
	}
	for i := len(want); i < len(backing); i++ {
		if backing[i].Code != nil || backing[i].Node != nil {
			t.Fatalf("dropped tail slot %d not zeroed: %+v", i, backing[i])
		}
	}
}
