package vfilter

// Differential tests of the dense filtering pass against the map-based
// reference in reference_test.go: whatever the construction history,
// mode, scratch history or concurrency, FilteringBudget must return
// exactly the Result the reference returns.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sync"
	"testing"

	"xpathviews/internal/budget"
	"xpathviews/internal/faults"
	"xpathviews/internal/paperdata"
	"xpathviews/internal/pattern"
	"xpathviews/internal/workload"
	"xpathviews/internal/xmark"
	"xpathviews/internal/xpath"
)

// pair is a filter and the reference, built in lockstep.
type pair struct {
	f   *Filter
	ref *refFilter
}

const (
	modeSafe = iota
	modeExact
	modeAttrs
	numModes
)

func newPair(mode int) pair {
	p := pair{f: New(), ref: newRef()}
	switch mode {
	case modeExact:
		p = pair{f: NewExact(), ref: newRefExact()}
	case modeAttrs:
		p.f.EnableAttributePruning()
		p.ref.attrPruning = true
	}
	return p
}

func (p pair) add(id int, v *pattern.Pattern) {
	p.f.AddView(id, v)
	p.ref.AddView(id, v)
}

func (p pair) remove(t *testing.T, id int) {
	t.Helper()
	if a, b := p.f.RemoveView(id), p.ref.RemoveView(id); a != b {
		t.Fatalf("RemoveView(%d) = %v, reference %v", id, a, b)
	}
}

// check compares one query's Result, and the raw Read of each of its
// paths, with the reference's.
func (p pair) check(t *testing.T, what string, f *Filter, q *pattern.Pattern) {
	t.Helper()
	want, err := p.ref.FilteringBudget(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.FilteringBudget(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: query %s:\n got %+v\nwant %+v", what, q, got, want)
	}
	for _, qp := range want.QueryPaths {
		syms := pattern.Str(qp)
		g, w := f.Read(syms), p.ref.Read(syms)
		if len(g) != len(w) {
			t.Fatalf("%s: Read(%s) returned %d entries, reference %d", what, qp, len(g), len(w))
		}
		for i := range g {
			g[i].ord, g[i].idx = 0, 0 // derived, unknown to the reference
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: Read(%s):\n got %+v\nwant %+v", what, qp, g, w)
		}
	}
}

func reload(t *testing.T, f *Filter) *Filter {
	t.Helper()
	data, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	again, err := back.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Fatal("marshal → unmarshal → marshal changed the stored bytes")
	}
	return back
}

var (
	diffLabels = []string{"a", "b", "c", "d", "e"}
	diffAttrs  = []string{"x", "y", "z"}
)

// randomDiffPattern draws a small tree pattern with wildcards, both axes
// and, when attrs is set, attribute predicates.
func randomDiffPattern(r *rand.Rand, maxNodes int, attrs bool) *pattern.Pattern {
	label := func() string {
		if r.Intn(6) == 0 {
			return pattern.Wildcard
		}
		return diffLabels[r.Intn(len(diffLabels))]
	}
	root := pattern.NewNode(diffLabels[r.Intn(len(diffLabels))], pattern.Descendant)
	nodes := []*pattern.Node{root}
	for n := 1 + r.Intn(maxNodes); len(nodes) < n; {
		parent := nodes[r.Intn(len(nodes))]
		nodes = append(nodes, parent.AddChild(label(), pattern.Axis(r.Intn(2))))
	}
	if attrs {
		for _, n := range nodes {
			if r.Intn(3) == 0 {
				n.Attrs = append(n.Attrs, pattern.AttrPred{Name: diffAttrs[r.Intn(len(diffAttrs))], Op: pattern.AttrExists})
			}
		}
	}
	return &pattern.Pattern{Root: root, Ret: nodes[r.Intn(len(nodes))]}
}

// TestFilterDifferential: random view sets under arbitrary sparse IDs,
// with removals, re-adds of removed IDs and a marshal round trip, in
// all three modes.
func TestFilterDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	for trial := 0; trial < 240; trial++ {
		mode := trial % numModes
		attrs := mode == modeAttrs
		p := newPair(mode)
		var live []int
		used := map[int]bool{}
		addFresh := func() {
			id := r.Intn(1 << 20)
			for used[id] {
				id = r.Intn(1 << 20)
			}
			used[id] = true
			live = append(live, id)
			p.add(id, randomDiffPattern(r, 5, attrs))
		}
		for n := 10 + r.Intn(100); len(live) < n; {
			addFresh()
		}
		queries := make([]*pattern.Pattern, 12)
		for i := range queries {
			queries[i] = randomDiffPattern(r, 6, attrs)
		}
		for _, q := range queries {
			p.check(t, "built", p.f, q)
		}

		// Remove a quarter, re-add half of those under their old IDs
		// with new patterns, then some fresh views.
		r.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
		gone := live[:len(live)/4]
		for _, id := range gone {
			p.remove(t, id)
		}
		p.remove(t, 1<<21) // unknown: false on both sides
		for _, id := range gone[:len(gone)/2] {
			p.add(id, randomDiffPattern(r, 5, attrs))
		}
		for i := 0; i < 5; i++ {
			addFresh()
		}
		if p.f.NumViews() != len(p.ref.viewIDs) || p.f.NumStates() != len(p.ref.states) ||
			p.f.transitions != p.ref.transitions {
			t.Fatalf("shape: %d views %d states %d arcs, reference %d %d %d",
				p.f.NumViews(), p.f.NumStates(), p.f.transitions,
				len(p.ref.viewIDs), len(p.ref.states), p.ref.transitions)
		}
		back := reload(t, p.f)
		for _, q := range queries {
			p.check(t, "after remove/re-add", p.f, q)
			p.check(t, "after marshal round trip", back, q)
		}
	}
}

// xmarkGen is the §VI-B query generator over the XMark schema.
func xmarkGen(seed int64) *workload.Generator {
	return workload.New(seed, xmark.Schema(), xmark.Attributes(), workload.Params{
		MaxDepth: 4, ProbWild: 0.2, ProbDesc: 0.2, NumNestedPath: 2,
	})
}

// xmarkPair builds n generated XMark views (the benchmark's kind) into a
// filter and the reference, and returns some queries from the same
// generator.
func xmarkPair(seed int64, n, queries int) (pair, []*pattern.Pattern) {
	gen := xmarkGen(seed)
	p := newPair(modeSafe)
	for i := 0; i < n; i++ {
		p.add(3*i+1, gen.Query())
	}
	qs := make([]*pattern.Pattern, queries)
	for i := range qs {
		qs[i] = gen.Query()
	}
	return p, qs
}

// TestFilterScratchReuse: one scratch serving a 2,000-view and a 5-view
// filter in turn (its arrays sized for the other one, its stamps left by
// the other one) and then an epoch counter about to wrap over stamps
// that would collide with the restarted epochs.
func TestFilterScratchReuse(t *testing.T) {
	big, queries := xmarkPair(11, 2000, 40)
	small := newPair(modeSafe)
	for i, src := range []string{"//person/name", "//item[location]/name", "//*/name", "//person//city", "//open_auction/bidder"} {
		small.add(100-i, xpath.MustParse(src))
	}
	sc := &scratch{}
	run := func(p pair, q *pattern.Pattern) {
		t.Helper()
		want, _ := p.ref.FilteringBudget(q, nil)
		got, err := p.f.filtering(sc, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %s (epoch %d):\n got %+v\nwant %+v", q, sc.epoch, got, want)
		}
	}
	for _, q := range queries {
		run(small, q)
		run(big, q)
		// The pooled path, too: whichever scratch the pool hands out.
		small.check(t, "small, pooled", small.f, q)
		big.check(t, "big, pooled", big.f, q)
	}

	for _, q := range queries[:8] {
		for i := range sc.states {
			sc.states[i] = stateSlot{mark: uint32(1 + i%7), accepted: uint32(1 + i%5)}
		}
		for i := range sc.ords {
			sc.ords[i] = ordSlot{counted: 1, listed: uint32(2 + i%9), count: 1, hit: 0}
		}
		for i := range sc.entries {
			sc.entries[i] = 1
		}
		sc.epoch = math.MaxUint32 - 2
		run(big, q)
		if sc.epoch > 1<<16 {
			t.Fatalf("epoch %d after a call that should have wrapped", sc.epoch)
		}
		run(small, q)
	}
}

// TestFilterConcurrent: 64 goroutines filter one shared Filter (as
// readers under System's read lock do) and compare with results the
// reference computed beforehand. Run under -race.
func TestFilterConcurrent(t *testing.T) {
	p, queries := xmarkPair(12, 600, 64)
	want := make([]*Result, len(queries))
	for i, q := range queries {
		want[i], _ = p.ref.FilteringBudget(q, nil)
	}
	var wg sync.WaitGroup
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 3*len(queries); k++ {
				i := (g + k) % len(queries)
				got, err := p.f.FilteringBudget(queries[i], nil)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d: query %s:\n got %+v\nwant %+v", g, queries[i], got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestFilterBudgetExact: the pass charges what the reference charges,
// where the reference charges it — one step short fails on both sides,
// the exact amount passes on both — and the stage fault still fires.
func TestFilterBudgetExact(t *testing.T) {
	p, queries := xmarkPair(13, 500, 30)
	for _, q := range queries {
		tracked := budget.New(context.Background(), 0, 0)
		if _, err := p.ref.FilteringBudget(q, tracked); err != nil {
			t.Fatal(err)
		}
		total, _ := tracked.Spent()
		mine := budget.New(context.Background(), 0, 0)
		if _, err := p.f.FilteringBudget(q, mine); err != nil {
			t.Fatal(err)
		}
		if got, _ := mine.Spent(); got != total {
			t.Fatalf("query %s charged %d steps, reference %d", q, got, total)
		}
		// Every cap from 1 to the total: both sides fail or pass alike,
		// having spent the same when they stop.
		for max := int64(1); max <= total; max++ {
			rb, fb := budget.New(context.Background(), max, 0), budget.New(context.Background(), max, 0)
			_, rerr := p.ref.FilteringBudget(q, rb)
			res, ferr := p.f.FilteringBudget(q, fb)
			if (max < total) != errors.Is(ferr, budget.ErrSteps) || !errors.Is(ferr, rerr) {
				t.Fatalf("query %s, cap %d of %d: err %v, reference %v", q, max, total, ferr, rerr)
			}
			if ferr != nil && res != nil {
				t.Fatalf("query %s: result beside error %v", q, ferr)
			}
			rs, _ := rb.Spent()
			fs, _ := fb.Spent()
			if rs != fs {
				t.Fatalf("query %s, cap %d: stopped after %d steps, reference after %d", q, max, fs, rs)
			}
		}
	}

	faults.Arm("vfilter.filtering", faults.Error)
	defer faults.DisarmAll()
	if res, err := p.f.FilteringBudget(queries[0], nil); err == nil || res != nil {
		t.Fatalf("armed fault point: got (%v, %v)", res, err)
	}
	if res := p.f.Filtering(queries[0]); len(res.Candidates) != 0 {
		t.Fatalf("Filtering under an armed fault kept candidates %v", res.Candidates)
	}
}

// TestFilterAllocs: what one call allocates does not depend on how many
// views are registered, and is a small constant plus the per-path lists.
func TestFilterAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	// The same 100 views, alone and followed by 3,900 views over labels
	// the query never reaches: the query touches the same views in both.
	small, _ := xmarkPair(14, 100, 0)
	large, _ := xmarkPair(14, 100, 0)
	r := rand.New(rand.NewSource(15))
	for i := 0; i < 3900; i++ {
		large.f.AddView(1_000_000+i, randomDiffPattern(r, 5, false))
	}
	q := xpath.MustParse("//person[address/city][profile/age]/name")
	a, b := small.f.Filtering(q), large.f.Filtering(q)
	if a.Touched == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("the padded filter answers differently:\n%+v\n%+v", a, b)
	}
	decompose := testing.AllocsPerRun(100, func() { pattern.DecomposeNormalized(q) })
	measure := func(f *Filter) float64 {
		f.Filtering(q) // grow the pooled scratch to this filter
		return testing.AllocsPerRun(100, func() { f.Filtering(q) })
	}
	at100, at4000 := measure(small.f), measure(large.f)
	if at100 != at4000 {
		t.Fatalf("allocations grow with the registry: %.0f at 100 views, %.0f at 4,000", at100, at4000)
	}
	if limit := decompose + 8 + 2*float64(len(a.QueryPaths)); at4000 > limit {
		t.Fatalf("%.0f allocs per call (decomposition %.0f), limit %.0f", at4000, decompose, limit)
	}
}

// TestMarshalGolden: the stored form is byte-for-byte what the map-based
// implementation wrote — for the Table I filter (testdata, written by
// the parent commit) and for a 440-view filter with removals and
// re-adds (digest taken at the parent commit) — so StoredSize and
// Figure 11 cannot have moved.
func TestMarshalGolden(t *testing.T) {
	f := New()
	for i, src := range paperdata.TableIViews() {
		f.AddView(i+1, xpath.MustParse(src))
	}
	got, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/tablei_filter.golden")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("Table I filter marshals to %d bytes that differ from the %d golden ones", len(got), len(want))
	}
	if back := reload(t, f); back.StoredSize() != len(want) {
		t.Fatalf("StoredSize after reload = %d, want %d", back.StoredSize(), len(want))
	}

	for attrs, digest := range map[bool]string{
		false: "1280574af73fdbebd0083580baa48f757027405caf9176702d991196f77b9bcb",
		true:  "af7981a060b2af11869c5b7e0bfdbc2133ba5d2782c2a4574aa342b1abffe919",
	} {
		gen := xmarkGen(3)
		g := New()
		if attrs {
			g.EnableAttributePruning()
		}
		for i := 0; i < 400; i++ {
			g.AddView(7*i+3, gen.Query())
		}
		for i := 0; i < 400; i += 5 {
			g.RemoveView(7*i + 3)
		}
		for i := 0; i < 40; i++ {
			g.AddView(7*i*5+3, gen.Query())
		}
		data, err := g.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if sum := fmt.Sprintf("%x", sha256.Sum256(data)); len(data) != 39000 || sum != digest {
			t.Fatalf("attrs=%v: %d bytes, sha256 %s; the parent wrote 39000 bytes, %s", attrs, len(data), sum, digest)
		}
		reload(t, g)
	}
}

// TestUnmarshalRejectsInconsistentTables: ordinals and dense indices are
// derived on load from the view table, so a stored form whose accept
// entries and view table disagree must fail to load rather than index
// the scratch out of range later.
func TestUnmarshalRejectsInconsistentTables(t *testing.T) {
	f := New()
	f.AddView(5, xpath.MustParse("//a[b]/c"))
	f.AddView(6, xpath.MustParse("//a/d"))
	data, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// The stored form ends: nv, (id, paths)×nv, flags, transitions.
	tail := len(data) - 4*(1+2*2+2)
	word := func(i int) []byte { return data[tail+4*i : tail+4*i+4] }
	if binary.LittleEndian.Uint32(word(0)) != 2 || binary.LittleEndian.Uint32(word(1)) != 5 {
		t.Fatal("test out of step with the stored layout")
	}
	for name, mutate := range map[string]func(){
		"duplicate view id":        func() { binary.LittleEndian.PutUint32(word(3), 5) },
		"entry of an unknown view": func() { binary.LittleEndian.PutUint32(word(1), 999) },
		"more paths than entries":  func() { binary.LittleEndian.PutUint32(word(2), 7) },
		"path index out of range":  func() { binary.LittleEndian.PutUint32(word(2), 1) },
	} {
		saved := append([]byte(nil), data...)
		mutate()
		if _, err := UnmarshalBinary(data); err == nil {
			t.Errorf("%s: UnmarshalBinary accepted it", name)
		}
		copy(data, saved)
	}
	if _, err := UnmarshalBinary(data); err != nil {
		t.Fatalf("restored bytes no longer load: %v", err)
	}
}
