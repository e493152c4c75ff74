package xpathviews_test

// Differential correctness of incremental view maintenance: after every
// mutation batch, each incrementally maintained view must be
// indistinguishable from a view rematerialized from scratch over the
// mutated document, and every strategy must agree with direct
// evaluation. Plus WAL replay equivalence, scoped plan invalidation, and
// a mixed read/write hammer.

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"xpathviews"
	"xpathviews/internal/dewey"
	"xpathviews/internal/faults"
	"xpathviews/internal/maintain"
	"xpathviews/internal/paperdata"
	"xpathviews/internal/storage"
	"xpathviews/internal/views"
	"xpathviews/internal/xmark"
	"xpathviews/internal/xmltree"
)

// freshEqual asserts every registered view is fragment-for-fragment
// identical to a from-scratch materialization over the current document,
// down to the interned root label-path.
func freshEqual(t *testing.T, sys *xpathviews.System, tag string) {
	t.Helper()
	doc, enc := sys.Document(), sys.Encoding()
	if err := doc.Validate(); err != nil {
		t.Fatalf("%s: document invalid after mutations: %v", tag, err)
	}
	for _, v := range sys.Registry().Views() {
		fresh, err := views.Materialize(v.ID, v.Pattern, doc, enc, nil, 0)
		if err != nil {
			t.Fatalf("%s: rematerialize view %d: %v", tag, v.ID, err)
		}
		if len(v.Fragments) != len(fresh.Fragments) {
			t.Fatalf("%s: view %d has %d fragments, fresh materialization has %d",
				tag, v.ID, len(v.Fragments), len(fresh.Fragments))
		}
		total := 0
		for i := range fresh.Fragments {
			a, b := &v.Fragments[i], &fresh.Fragments[i]
			if dewey.Compare(a.Code, b.Code) != 0 {
				t.Fatalf("%s: view %d fragment %d code %s, fresh %s", tag, v.ID, i, a.Code, b.Code)
			}
			if got, want := a.Tree.Root().String(), b.Tree.Root().String(); got != want {
				t.Fatalf("%s: view %d fragment %d content drifted:\n got %s\nwant %s", tag, v.ID, i, got, want)
			}
			if len(a.NodeCodes) != len(b.NodeCodes) {
				t.Fatalf("%s: view %d fragment %d has %d node codes, fresh %d",
					tag, v.ID, i, len(a.NodeCodes), len(b.NodeCodes))
			}
			for j := range a.NodeCodes {
				if dewey.Compare(a.NodeCodes[j], b.NodeCodes[j]) != 0 {
					t.Fatalf("%s: view %d fragment %d node code %d: %s vs %s",
						tag, v.ID, i, j, a.NodeCodes[j], b.NodeCodes[j])
				}
			}
			if a.Bytes != b.Bytes {
				t.Fatalf("%s: view %d fragment %d bytes %d, fresh %d", tag, v.ID, i, a.Bytes, b.Bytes)
			}
			// The root label-path is interned per System: a maintained
			// fragment holds the very pointer a fresh build hands out, and
			// its labels are the FST decoding of its code.
			if a.Path != b.Path {
				t.Fatalf("%s: view %d fragment %d path %v is not the interned %v", tag, v.ID, i, a.Path, b.Path)
			}
			if want, err := enc.FST().Decode(a.Code); err != nil || !slices.Equal(a.Path.Labels, want) {
				t.Fatalf("%s: view %d fragment %d path %v, FST decodes %s to %v (%v)", tag, v.ID, i, a.Path.Labels, a.Code, want, err)
			}
			total += a.Bytes
		}
		if v.TotalBytes != total || v.TotalBytes != fresh.TotalBytes {
			t.Fatalf("%s: view %d TotalBytes %d, fragments sum %d, fresh %d",
				tag, v.ID, v.TotalBytes, total, fresh.TotalBytes)
		}
	}
}

func answerCodes(res *xpathviews.Result) []string {
	out := make([]string, len(res.Answers))
	for i, a := range res.Answers {
		out[i] = a.Code.String()
	}
	slices.Sort(out)
	return out
}

// answersAgree asserts the view strategies return exactly the direct-
// evaluation answer set for each query on the mutated document.
func answersAgree(t *testing.T, sys *xpathviews.System, queries []string, tag string) {
	t.Helper()
	for _, q := range queries {
		base, err := sys.Answer(q, xpathviews.BN)
		if err != nil {
			t.Fatalf("%s: BN %s: %v", tag, q, err)
		}
		want := answerCodes(base)
		for _, strat := range []xpathviews.Strategy{xpathviews.HV, xpathviews.MV} {
			res, err := sys.Answer(q, strat)
			if errors.Is(err, xpathviews.ErrNotAnswerable) {
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v %s: %v", tag, strat, q, err)
			}
			if got := answerCodes(res); !slices.Equal(got, want) {
				t.Fatalf("%s: %v %s answers diverge from BN:\n got %v\nwant %v", tag, strat, q, got, want)
			}
		}
	}
}

// mutator drives a random but schema-valid stream of inserts and deletes
// against a System, tracking inserted subtree roots for later deletion.
type mutator struct {
	rng      *rand.Rand
	inserted []dewey.Code
}

func (m *mutator) emit(b *strings.Builder, fst *dewey.FST, label string, depth int) {
	kids := fst.ChildAlphabet(label)
	if depth == 0 || len(kids) == 0 || m.rng.Intn(2) == 0 {
		fmt.Fprintf(b, "<%s/>", label)
		return
	}
	fmt.Fprintf(b, "<%s>", label)
	for i, n := 0, 1+m.rng.Intn(2); i < n; i++ {
		m.emit(b, fst, kids[m.rng.Intn(len(kids))], depth-1)
	}
	fmt.Fprintf(b, "</%s>", label)
}

func (m *mutator) step(t *testing.T, sys *xpathviews.System) {
	t.Helper()
	if m.rng.Intn(2) == 0 || len(m.inserted) == 0 {
		doc, enc, fst := sys.Document(), sys.Encoding(), sys.FST()
		var parents []*xmltree.Node
		doc.Walk(func(n *xmltree.Node) bool {
			if len(fst.ChildAlphabet(n.Label)) > 0 {
				parents = append(parents, n)
			}
			return true
		})
		p := parents[m.rng.Intn(len(parents))]
		var b strings.Builder
		alpha := fst.ChildAlphabet(p.Label)
		m.emit(&b, fst, alpha[m.rng.Intn(len(alpha))], 2)
		res, err := sys.InsertSubtree(enc.MustCode(p), b.String())
		if err != nil {
			t.Fatalf("insert %s under %s: %v", b.String(), p.Label, err)
		}
		m.inserted = append(m.inserted, res.Code)
	} else {
		code := m.inserted[m.rng.Intn(len(m.inserted))]
		if _, err := sys.DeleteSubtree(code); err != nil {
			t.Fatalf("delete %s: %v", code, err)
		}
		keep := m.inserted[:0]
		for _, c := range m.inserted {
			if !dewey.IsPrefix(code, c) {
				keep = append(keep, c)
			}
		}
		m.inserted = keep
	}
}

// TestMutationDifferentialPaper: the paper's book fixture under targeted
// and random mutations, checked against from-scratch materialization
// after every batch.
func TestMutationDifferentialPaper(t *testing.T) {
	sys := chaosSystem(t)
	queries := []string{paperdata.QueryE, "//s[t]/p", "//s//p", "//s[p]/f"}
	freshEqual(t, sys, "seed")
	answersAgree(t, sys, queries, "seed")

	// Targeted: delete s3 (0.8.6) — it carries f1/i1, so QueryE loses
	// the s2 answer — then insert an equivalent section. The allocator
	// hands out the earliest gap in the section residue class (2 mod 4),
	// which is component 2: the new section lands between p1 and p2 in
	// document order.
	if _, err := sys.DeleteSubtree(dewey.Code{0, 8, 6}); err != nil {
		t.Fatal(err)
	}
	freshEqual(t, sys, "delete-s3")
	answersAgree(t, sys, queries, "delete-s3")
	res, err := sys.InsertSubtree(dewey.Code{0, 8}, "<s><t/><p/><f><i/></f></s>")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Code.String(); got != "0.8.2" {
		t.Fatalf("reinserted section got code %s, want the earliest gap 0.8.2", got)
	}
	freshEqual(t, sys, "reinsert-s3")
	answersAgree(t, sys, queries, "reinsert-s3")

	// Random interleaving in batches.
	m := &mutator{rng: rand.New(rand.NewSource(2008))}
	for batch := 0; batch < 6; batch++ {
		for i := 0; i < 8; i++ {
			m.step(t, sys)
		}
		tag := fmt.Sprintf("batch-%d", batch)
		freshEqual(t, sys, tag)
		answersAgree(t, sys, queries, tag)
	}
}

// TestMutationDifferentialXMark: the same differential bar on a
// generated XMark document with realistic views.
func TestMutationDifferentialXMark(t *testing.T) {
	doc := xmark.Generate(xmark.Config{Scale: 0.02, Seed: 77})
	sys, err := xpathviews.Open(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{
		"//person/address/city",
		"//person[address]/name",
		"//item[location]/name",
		"//mail[from]/date",
		"//open_auction/bidder/increase",
	} {
		if _, err := sys.AddView(v, xpathviews.DefaultFragmentLimit); err != nil {
			t.Fatal(err)
		}
	}
	queries := []string{
		"//person/address/city",
		"//person[address]/name",
		"//item[location]/name",
		"//mail[from]/date",
	}
	freshEqual(t, sys, "seed")
	answersAgree(t, sys, queries, "seed")
	m := &mutator{rng: rand.New(rand.NewSource(77))}
	for batch := 0; batch < 5; batch++ {
		for i := 0; i < 10; i++ {
			m.step(t, sys)
		}
		tag := fmt.Sprintf("batch-%d", batch)
		freshEqual(t, sys, tag)
		answersAgree(t, sys, queries, tag)
	}
}

// walMutations applies a fixed mutation script and returns the expected
// record count.
func walMutations(t *testing.T, sys *xpathviews.System) int {
	t.Helper()
	script := []struct {
		op   string
		code dewey.Code
		xml  string
	}{
		{"insert", dewey.Code{0, 8}, "<p/>"},
		{"insert", dewey.Code{0, 5}, "<s><t/><p/></s>"},
		{"delete", dewey.Code{0, 8, 6}, ""},
		{"insert", dewey.Code{0, 8}, "<s><t/><f><i/></f></s>"},
		{"delete", dewey.Code{0, 1}, ""},
	}
	var lastSeq uint64
	for i, sc := range script {
		var res *xpathviews.MaintainResult
		var err error
		if sc.op == "insert" {
			res, err = sys.InsertSubtree(sc.code, sc.xml)
		} else {
			res, err = sys.DeleteSubtree(sc.code)
		}
		if err != nil {
			t.Fatalf("script step %d (%s %s): %v", i, sc.op, sc.code, err)
		}
		if res.WALSeq <= lastSeq {
			t.Fatalf("script step %d: WALSeq %d not increasing past %d", i, res.WALSeq, lastSeq)
		}
		lastSeq = res.WALSeq
	}
	return len(script)
}

// sameState asserts two systems hold identical documents and identical
// view fragment stores.
func sameState(t *testing.T, a, b *xpathviews.System, tag string) {
	t.Helper()
	if got, want := a.Document().Root().String(), b.Document().Root().String(); got != want {
		t.Fatalf("%s: documents diverge:\n got %s\nwant %s", tag, got, want)
	}
	av, bv := a.Registry().Views(), b.Registry().Views()
	if len(av) != len(bv) {
		t.Fatalf("%s: view counts diverge: %d vs %d", tag, len(av), len(bv))
	}
	for i := range av {
		if len(av[i].Fragments) != len(bv[i].Fragments) {
			t.Fatalf("%s: view %d fragment counts diverge: %d vs %d",
				tag, av[i].ID, len(av[i].Fragments), len(bv[i].Fragments))
		}
		for j := range av[i].Fragments {
			fa, fb := &av[i].Fragments[j], &bv[i].Fragments[j]
			if dewey.Compare(fa.Code, fb.Code) != 0 || fa.Tree.Root().String() != fb.Tree.Root().String() {
				t.Fatalf("%s: view %d fragment %d diverges", tag, av[i].ID, j)
			}
		}
	}
}

// TestWALReplayEquality: replaying the log into a fresh seed system
// reproduces the mutated system bit-for-bit — documents, codes, and
// fragments.
func TestWALReplayEquality(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	st, err := storage.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	sys1 := chaosSystem(t)
	if n, err := sys1.AttachWAL(st); err != nil || n != 0 {
		t.Fatalf("attach empty wal: n=%d err=%v", n, err)
	}
	want := walMutations(t, sys1)
	if err := sys1.DetachWAL().Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := storage.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	sys2 := chaosSystem(t)
	n, err := sys2.AttachWAL(st2)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if n != want {
		t.Fatalf("replayed %d records, want %d", n, want)
	}
	sameState(t, sys1, sys2, "replay")
	freshEqual(t, sys2, "replay")

	// The replayed system keeps logging under continuing sequence
	// numbers: a further mutation must not collide with replayed keys.
	res, err := sys2.InsertSubtree(dewey.Code{0, 8}, "<p/>")
	if err != nil {
		t.Fatal(err)
	}
	if res.WALSeq != uint64(want)+1 {
		t.Fatalf("post-replay WALSeq = %d, want %d", res.WALSeq, want+1)
	}
}

// TestWALTornTail: garbage appended after the last complete record — a
// crash mid-append — is truncated by storage.Open, and the surviving
// prefix replays cleanly.
func TestWALTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	st, err := storage.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	sys1 := chaosSystem(t)
	if _, err := sys1.AttachWAL(st); err != nil {
		t.Fatal(err)
	}
	want := walMutations(t, sys1)
	if err := sys1.DetachWAL().Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x7f, 0x01, 0x02, 0x03, 0x04}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st2, err := storage.Open(path)
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	defer st2.Close()
	sys2 := chaosSystem(t)
	n, err := sys2.AttachWAL(st2)
	if err != nil {
		t.Fatalf("replay after torn tail: %v", err)
	}
	if n != want {
		t.Fatalf("replayed %d records after torn tail, want %d", n, want)
	}
	sameState(t, sys1, sys2, "torn-tail")
}

// TestMaintainHammer: 64 goroutines of mixed reads, writes, and
// generation watching. Run with -race for the full acceptance bar; the
// final state must still equal a from-scratch materialization (every
// writer reverts its own inserts).
func TestMaintainHammer(t *testing.T) {
	doc := xmark.Generate(xmark.Config{Scale: 0.05, Seed: 7})
	sys, err := xpathviews.Open(doc)
	if err != nil {
		t.Fatal(err)
	}
	var ids []int
	for _, v := range []string{
		"//person/address/city",
		"//item[location]/name",
		"//mail[from]/date",
		"//closed_auction/price",
	} {
		id, err := sys.AddView(v, xpathviews.DefaultFragmentLimit)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	queries := []string{
		"//person/address/city",
		"//item[location]/name",
		"//mail[from]/date",
		"//closed_auction/price",
	}

	// One mutation target per writer, codes resolved before any
	// goroutine starts (codes are stable, the lookup is not locked).
	var items []*xmltree.Node
	sys.Document().Walk(func(n *xmltree.Node) bool {
		if n.Label == "item" {
			items = append(items, n)
		}
		return true
	})
	const writers, readers = 16, 47
	if len(items) < writers {
		t.Fatalf("document too small: %d items for %d writers", len(items), writers)
	}
	parentCodes := make([]dewey.Code, writers)
	for i := range parentCodes {
		parentCodes[i] = sys.Encoding().MustCode(items[i])
	}

	var wg, watchWG sync.WaitGroup
	stop := make(chan struct{})
	// Generation watcher: per-view generations only move forward.
	watchWG.Add(1)
	go func() {
		defer watchWG.Done()
		last := make(map[int]uint64)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, id := range ids {
				g, ok := sys.ViewGeneration(id)
				if !ok {
					t.Errorf("view %d vanished", id)
					return
				}
				if g < last[id] {
					t.Errorf("view %d generation went backwards: %d -> %d", id, last[id], g)
					return
				}
				last[id] = g
			}
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			strats := []xpathviews.Strategy{xpathviews.HV, xpathviews.BN, xpathviews.MV}
			for i := 0; i < 25; i++ {
				q := queries[(r+i)%len(queries)]
				res, err := sys.Answer(q, strats[(r+i)%len(strats)])
				if err != nil {
					if errors.Is(err, xpathviews.ErrNotAnswerable) {
						continue
					}
					t.Errorf("reader %d: %s: %v", r, q, err)
					return
				}
				for _, a := range res.Answers {
					if a.Node == nil || len(a.Code) == 0 {
						t.Errorf("reader %d: %s: torn answer %+v", r, q, a)
						return
					}
				}
			}
		}(r)
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				res, err := sys.InsertSubtree(parentCodes[w],
					"<mailbox><mail><from/><to/><date/></mail></mailbox>")
				if err != nil {
					t.Errorf("writer %d insert: %v", w, err)
					return
				}
				if _, err := sys.DeleteSubtree(res.Code); err != nil {
					t.Errorf("writer %d delete %s: %v", w, res.Code, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	watchWG.Wait()

	// Every writer reverted its inserts, so the final fragment stores
	// must equal a clean materialization of the (net-unchanged) document.
	freshEqual(t, sys, "hammer-final")
	answersAgree(t, sys, queries, "hammer-final")
}

// flipSchema lets every label of the property tests nest under every
// other, so any generated subtree is a schema-valid insert anywhere.
func flipSchema(labels []string) *dewey.FST {
	schema := map[string][]string{"root": labels}
	for _, l := range labels {
		schema[l] = labels
	}
	return dewey.BuildFSTFromSchema("root", schema)
}

// TestDirtyRootRegimes scripts the two regimes of the data-aware dirty
// root on one small document and reads them off the mutation's
// counters: a mutation that adds a further witness, or removes one of
// several, re-evaluates nothing beyond the mutated subtree; the one that
// adds the first witness, or removes the last, re-reads the ancestor
// whose predicate flipped — and the views change exactly then.
func TestDirtyRootRegimes(t *testing.T) {
	doc, err := xmltree.ParseString("<root><a><b/></a><c/><y/><q><y/></q></root>")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := xpathviews.OpenWithFST(doc, flipSchema([]string{"a", "b", "c", "x", "y", "q"}))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"//*[.//x]/y", "//*[a/b]/c"} {
		if _, err := sys.AddView(v, xpathviews.DefaultFragmentLimit); err != nil {
			t.Fatal(err)
		}
	}
	size := func() int { return sys.Document().Size() }
	a := dewey.Code{0, sys.Encoding().MustCode(doc.Root().Children[0])[1]}

	// First x in the document: root's [.//x] flips, root/y enters.
	before := size()
	first, err := sys.InsertSubtree(a, "<x/>")
	if err != nil {
		t.Fatal(err)
	}
	freshEqual(t, sys, "first x")
	if first.FragmentsAdded != 1 || first.NodesScanned < before {
		t.Fatalf("first witness: added %d fragments scanning %d nodes, want 1 fragment and a scan of the %d-node document",
			first.FragmentsAdded, first.NodesScanned, before)
	}
	// Second x: every predicate already held.
	second, err := sys.InsertSubtree(a, "<x/>")
	if err != nil {
		t.Fatal(err)
	}
	freshEqual(t, sys, "second x")
	if second.DirtyViews != 0 || second.ViewsScanned == 0 || second.NodesScanned != second.ViewsScanned*second.NodesAdded {
		t.Fatalf("further witness: %d dirty views, %d views scanned %d nodes for a %d-node insert; want scans of the inserted subtree only",
			second.DirtyViews, second.ViewsScanned, second.NodesScanned, second.NodesAdded)
	}
	// One x of two goes: nothing to re-evaluate at all.
	del, err := sys.DeleteSubtree(second.Code)
	if err != nil {
		t.Fatal(err)
	}
	freshEqual(t, sys, "one x of two deleted")
	if del.DirtyViews != 0 || del.ViewsScanned == 0 || del.NodesScanned != 0 {
		t.Fatalf("one witness of two deleted: %d dirty views, %d nodes scanned; want none", del.DirtyViews, del.NodesScanned)
	}
	// The last x goes: root's predicate flips back, root/y leaves.
	del, err = sys.DeleteSubtree(first.Code)
	if err != nil {
		t.Fatal(err)
	}
	freshEqual(t, sys, "last x deleted")
	if del.FragmentsRemoved != 1 || del.NodesScanned < size() {
		t.Fatalf("last witness deleted: removed %d fragments scanning %d nodes, want 1 fragment and a scan of the %d-node document",
			del.FragmentsRemoved, del.NodesScanned, size())
	}
}

// randomFlipView writes a random view over labels: one to three spine
// steps, wildcards, and predicates that may nest, descend or test the
// attribute k.
func randomFlipView(rng *rand.Rand, labels []string) string {
	label := func() string {
		if rng.Intn(5) == 0 {
			return "*"
		}
		return labels[rng.Intn(len(labels))]
	}
	var pred func(depth int) string
	pred = func(depth int) string {
		var b strings.Builder
		if rng.Intn(3) == 0 {
			b.WriteString(".//")
		}
		b.WriteString(label())
		switch rng.Intn(4) {
		case 0:
			fmt.Fprintf(&b, `[@k="%d"]`, 1+rng.Intn(2))
		case 1:
			if depth > 0 {
				fmt.Fprintf(&b, "[%s]", pred(depth-1))
			}
		case 2:
			b.WriteString([]string{"/", "//"}[rng.Intn(2)] + label())
		}
		return b.String()
	}
	var b strings.Builder
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		b.WriteString([]string{"/", "//", "//"}[rng.Intn(3)])
		if i == 0 && rng.Intn(3) == 0 {
			b.WriteString("root")
		} else {
			b.WriteString(label())
		}
		for rng.Intn(5) < 2 {
			fmt.Fprintf(&b, "[%s]", pred(1))
		}
	}
	return b.String()
}

// TestDirtyRootProperty: random small documents × fixed and generated
// views × random insert/delete scripts over arbitrary nodes. After every
// single mutation each view must equal a fresh materialization, every
// fragment's interned root label-path included; over the
// run, inserts and deletes must each have hit both regimes — scope left
// at the mutation root, scope lifted to an ancestor.
func TestDirtyRootProperty(t *testing.T) {
	labels := []string{"a", "b", "c", "x", "y", "p", "q"}
	fst := flipSchema(labels)
	fixed := []string{
		"//*[a/b]/c",
		"//*[.//x]/y",
		"/root[p]//q",
		"//a[b[c][.//x]]/y",
		`//*[a[@k="1"]]/c`,
		`//a[@k="2"][x]//y`,
		"//p[q]//*[x]",
		"//p//q",
	}
	var subtree func(rng *rand.Rand, b *strings.Builder, depth int)
	subtree = func(rng *rand.Rand, b *strings.Builder, depth int) {
		l := labels[rng.Intn(len(labels))]
		fmt.Fprintf(b, "<%s", l)
		if rng.Intn(3) == 0 {
			fmt.Fprintf(b, ` k="%d"`, 1+rng.Intn(2))
		}
		b.WriteString(">")
		for i := rng.Intn(3); depth > 0 && i > 0; i-- {
			subtree(rng, b, depth-1)
		}
		fmt.Fprintf(b, "</%s>", l)
	}
	var insertStay, insertLift, deleteStay, deleteLift int
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var b strings.Builder
		b.WriteString("<root>")
		for i := 0; i < 6; i++ {
			subtree(rng, &b, 3)
		}
		b.WriteString("</root>")
		doc, err := xmltree.ParseString(b.String())
		if err != nil {
			t.Fatal(err)
		}
		sys, err := xpathviews.OpenWithFST(doc, fst)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range fixed {
			if _, err := sys.AddView(v, 0); err != nil {
				t.Fatalf("seed %d: view %s: %v", seed, v, err)
			}
		}
		for i := 0; i < 8; i++ {
			v := randomFlipView(rng, labels)
			if _, err := sys.AddView(v, 0); err != nil {
				t.Fatalf("seed %d: view %s: %v", seed, v, err)
			}
		}
		freshEqual(t, sys, fmt.Sprintf("seed %d", seed))
		for step := 0; step < 40; step++ {
			nodes := sys.Document().Nodes()
			target := nodes[rng.Intn(len(nodes))]
			code := sys.Encoding().MustCode(target).Clone()
			tag := fmt.Sprintf("seed %d step %d", seed, step)
			if target == sys.Document().Root() || len(nodes) < 30 || rng.Intn(2) == 0 {
				var sub strings.Builder
				subtree(rng, &sub, 2)
				res, err := sys.InsertSubtree(code, sub.String())
				if err != nil {
					t.Fatalf("%s: insert %s under %s: %v", tag, sub.String(), code, err)
				}
				if res.NodesScanned > res.ViewsScanned*res.NodesAdded {
					insertLift++
				} else {
					insertStay++
				}
				tag += " insert " + sub.String() + " under " + code.String()
			} else {
				res, err := sys.DeleteSubtree(code)
				if err != nil {
					t.Fatalf("%s: delete %s: %v", tag, code, err)
				}
				if res.NodesScanned > 0 {
					deleteLift++
				} else {
					deleteStay++
				}
				tag += " delete " + code.String()
			}
			freshEqual(t, sys, tag)
		}
	}
	t.Logf("inserts: %d stayed at the mutation root, %d lifted; deletes: %d stayed, %d lifted",
		insertStay, insertLift, deleteStay, deleteLift)
	if insertStay == 0 || insertLift == 0 || deleteStay == 0 || deleteLift == 0 {
		t.Fatalf("a regime never occurred: inserts stay/lift %d/%d, deletes stay/lift %d/%d",
			insertStay, insertLift, deleteStay, deleteLift)
	}
}

// TestFaultedDeleteLeavesNoTrace: a delete reads the doomed subtree to
// find the dirty roots before it detaches anything, and the
// maintain.apply fault fires after that read. The delete below would
// lift a dirty root (s3's only title goes, so //s[t]/p loses s3's
// paragraph); faulted, it must leave document, codes, views and
// generations exactly as an untouched twin's, and succeed once disarmed.
func TestFaultedDeleteLeavesNoTrace(t *testing.T) {
	for _, mode := range []faults.Mode{faults.Error, faults.Panic} {
		sys, twin := chaosSystem(t), chaosSystem(t)
		title := dewey.Code{0, 8, 6, 0}
		if n, ok := maintain.ResolveCode(sys.Document(), sys.Encoding(), title); !ok || n.Label != paperdata.Title {
			t.Fatalf("fixture drifted: %s is not s3's title", title)
		}
		gens := func(s *xpathviews.System) []uint64 {
			var out []uint64
			for _, v := range s.Registry().Views() {
				out = append(out, v.Gen)
			}
			return out
		}
		faults.Arm("maintain.apply", mode)
		_, err := sys.DeleteSubtree(title)
		faults.DisarmAll()
		if !errors.Is(err, xpathviews.ErrInternal) {
			t.Fatalf("mode %v: faulted delete returned %v, want ErrInternal", mode, err)
		}
		sameState(t, sys, twin, "after faulted delete")
		freshEqual(t, sys, "after faulted delete")
		if !slices.Equal(gens(sys), gens(twin)) {
			t.Fatalf("mode %v: generations moved: %v vs %v", mode, gens(sys), gens(twin))
		}
		if sys.Encoding().Len() != twin.Encoding().Len() {
			t.Fatalf("mode %v: encoding lost codes: %d vs %d", mode, sys.Encoding().Len(), twin.Encoding().Len())
		}
		answersAgree(t, sys, []string{paperdata.QueryE, "//s[t]/p"}, "after faulted delete")

		res, err := sys.DeleteSubtree(title)
		if err != nil {
			t.Fatalf("mode %v: disarmed delete: %v", mode, err)
		}
		if res.FragmentsRemoved == 0 || res.NodesScanned == 0 {
			t.Fatalf("mode %v: delete of s3's only title removed %d fragments scanning %d nodes; want a lifted dirty root",
				mode, res.FragmentsRemoved, res.NodesScanned)
		}
		freshEqual(t, sys, "after disarmed delete")
	}
}

// TestMaintainScanObservability: the scan counters of a mutation reach
// all three surfaces — MaintainResult, the maintain span's attributes
// and the nodes-scanned counter — and an insert whose payload does not
// parse is turned away before it is even addressed (it never takes the
// write lock), counted as a failed mutation, with nothing changed.
func TestMaintainScanObservability(t *testing.T) {
	sys, twin := chaosSystem(t), chaosSystem(t)
	reg := xpathviews.NewMetricsRegistry()
	sys.SetMetricsRegistry(reg)

	tr := xpathviews.NewTrace()
	res, err := sys.InsertSubtreeOpts(dewey.Code{0, 8}, "<s><t/><p/></s>", xpathviews.MutateOptions{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if res.ViewsScanned == 0 || res.NodesScanned < res.ViewsScanned*res.NodesAdded {
		t.Fatalf("insert scanned %d views / %d nodes for a %d-node subtree", res.ViewsScanned, res.NodesScanned, res.NodesAdded)
	}
	var span *xpathviews.Span
	for _, c := range tr.Root().Children() {
		if c.Name() == "maintain" {
			span = c
		}
	}
	if span == nil {
		t.Fatal("mutation trace has no maintain span")
	}
	for key, want := range map[string]int{"views_scanned": res.ViewsScanned, "nodes_scanned": res.NodesScanned} {
		if got, ok := span.Attr(key); !ok || got != want {
			t.Fatalf("maintain span %s = %v (present %v), want %d", key, got, ok, want)
		}
	}
	if got := counterVal(reg, "xpv_maintain_nodes_scanned_total"); got != int64(res.NodesScanned) {
		t.Fatalf("xpv_maintain_nodes_scanned_total = %d, want %d", got, res.NodesScanned)
	}
	if _, err := sys.DeleteSubtree(res.Code); err != nil {
		t.Fatal(err)
	}

	_, err = sys.InsertSubtree(dewey.Code{0, 99, 99}, "<s><t></s>")
	if err == nil || errors.Is(err, xpathviews.ErrNoSuchNode) {
		t.Fatalf("malformed insert under a missing parent returned %v, want the parse error first", err)
	}
	if got := counterVal(reg, "xpv_maintain_errors_total"); got != 1 {
		t.Fatalf("xpv_maintain_errors_total = %d, want 1", got)
	}
	sameState(t, sys, twin, "after insert, delete and a rejected insert")
}
