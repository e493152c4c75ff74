package rewrite

// The holistic join's differential oracle: the backtracking embed the
// memoized joiner replaced, kept verbatim. It places a query node's kept
// children in sequence and, when a later sibling fails, retries every
// further placement of the earlier ones; it remembers nothing across
// Δ-fragments. The memoized joiner must join exactly the fragments it
// joins, in the same order, in no more budget steps.

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"xpathviews/internal/budget"
	"xpathviews/internal/dewey"
	"xpathviews/internal/pattern"
	"xpathviews/internal/selection"
	"xpathviews/internal/views"
	"xpathviews/internal/xpath"
)

// oracle is the backtracking joiner: a joiner's state under the methods
// of the search it replaced.
type oracle struct{ joiner }

// oracleJoinUpper is joinUpper on the backtracking search.
func oracleJoinUpper(p *JoinPlan, refined []refinedView, vt *vtree, anchors []int32, b *budget.B) ([]*views.Fragment, error) {
	j := &oracle{joiner{p: p, vt: vt, assign: make([]int32, len(p.labels))}}
	frags := refined[p.deltaIdx].frags
	out := make([]*views.Fragment, 0, len(frags))
	for fi, frag := range frags {
		if j.embed(b, frag, anchors[fi]) {
			out = append(out, frag)
		}
		if j.err != nil {
			return nil, j.err
		}
	}
	return out, nil
}

// embed reports whether the upper pattern embeds with the Δ landing node
// pinned to this fragment's anchor node.
func (j *oracle) embed(b *budget.B, frag *views.Fragment, anchor int32) bool {
	j.deltaFrag = frag
	for i := range j.assign {
		j.assign[i] = -1
	}
	// chain[d] = depth-d ancestor of anchor; chain[0] is the document
	// root. Reuse the backing array.
	depth := j.vt.depth(anchor)
	if cap(j.chain) < depth+1 {
		j.chain = make([]int32, depth+1)
	}
	j.chain = j.chain[:depth+1]
	for v := anchor; v >= 0; v = j.vt.nodes[v].parent {
		j.chain[j.vt.depth(v)] = v
	}
	// The query root is on the Δ-path, so it maps onto the anchor chain:
	// a '/'-rooted query at chain[0], a '//'-rooted one anywhere on it.
	rootIdx := j.p.rootIdx
	if !j.p.keep[rootIdx] {
		return false
	}
	if j.p.axes[rootIdx] == pattern.Child {
		return j.try(b, rootIdx, j.chain[0])
	}
	for _, v := range j.chain {
		if j.try(b, rootIdx, v) {
			return true
		}
	}
	return false
}

// pinsOK validates every pin of view vi whose target is already assigned
// against the candidate fragment.
func (j *oracle) pinsOK(vi int32, frag *views.Fragment) bool {
	for _, p := range j.p.pins[vi] {
		w := j.assign[p.y]
		if w < 0 {
			continue // ancestors are always assigned before descendants
		}
		wc := j.vt.nodes[w].code
		want := len(frag.Code) - int(p.k)
		if want < 1 || len(wc) != want || !isPrefixCode(wc, frag.Code) {
			return false
		}
	}
	return true
}

// pickFrag returns the first fragment of view vi rooted at arena node at
// whose pins validate (for the Δ-view, only the fragment under test
// itself qualifies — its landing node is pinned to the anchor).
func (j *oracle) pickFrag(at, vi int32) *views.Fragment {
	for e := j.vt.nodes[at].fragHead; e >= 0; e = j.vt.fragEntries[e].next {
		fe := &j.vt.fragEntries[e]
		if fe.view != vi {
			continue
		}
		if int(vi) == j.p.deltaIdx && fe.frag != j.deltaFrag {
			continue
		}
		if j.pinsOK(vi, fe.frag) {
			return fe.frag
		}
	}
	return nil
}

// try assigns query node qi to arena node at and recursively places its
// kept children; on failure all assignments made beneath are rolled back.
func (j *oracle) try(b *budget.B, qi int, at int32) bool {
	if j.err != nil {
		return false
	}
	if j.err = b.Step(1); j.err != nil {
		return false
	}
	if lbl := j.p.labels[qi]; lbl != pattern.Wildcard && lbl != j.vt.nodes[at].label {
		return false
	}
	j.assign[qi] = at
	for _, vi := range j.p.landAt[qi] {
		if j.pickFrag(at, vi) == nil {
			j.assign[qi] = -1
			return false
		}
	}
	if !j.placeKids(b, qi, at, 0) {
		j.assign[qi] = -1
		return false
	}
	return true
}

// placeKids places the kept children of qi starting from index k.
func (j *oracle) placeKids(b *budget.B, qi int, at int32, k int) bool {
	kids := j.p.keptKids[qi]
	if k == len(kids) {
		return true
	}
	ci := kids[k]
	if j.p.deltaPath[ci] {
		// ci maps onto the anchor chain only; its parent must itself sit
		// on the chain.
		d := j.vt.depth(at)
		if d >= len(j.chain) || j.chain[d] != at {
			return false
		}
		if j.p.axes[ci] == pattern.Child {
			return d+1 < len(j.chain) && j.placeAt(b, ci, j.chain[d+1], qi, at, k)
		}
		for dd := d + 1; dd < len(j.chain); dd++ {
			if j.placeAt(b, ci, j.chain[dd], qi, at, k) {
				return true
			}
		}
		return false
	}
	if j.p.axes[ci] == pattern.Child {
		for v := j.vt.nodes[at].firstChild; v >= 0; v = j.vt.nodes[v].nextSib {
			if j.placeAt(b, ci, v, qi, at, k) {
				return true
			}
		}
		return false
	}
	return j.placeDesc(b, ci, at, qi, at, k)
}

// placeAt tries child query node ci at arena node v, then continues with
// the remaining siblings of the placement in progress.
func (j *oracle) placeAt(b *budget.B, ci, v int32, qi int, at int32, k int) bool {
	if !j.try(b, int(ci), v) {
		return false
	}
	if j.placeKids(b, qi, at, k+1) {
		return true
	}
	j.unassign(int(ci))
	return false
}

// placeDesc scans the arena subtree below root for a placement of ci
// (descendant axis).
func (j *oracle) placeDesc(b *budget.B, ci, root int32, qi int, at int32, k int) bool {
	for ch := j.vt.nodes[root].firstChild; ch >= 0; ch = j.vt.nodes[ch].nextSib {
		if j.placeAt(b, ci, ch, qi, at, k) || j.placeDesc(b, ci, ch, qi, at, k) {
			return true
		}
	}
	return false
}

// unassign rolls back the subtree assignment rooted at query node qi.
func (j *oracle) unassign(qi int) {
	if !j.p.keep[qi] {
		return
	}
	j.assign[qi] = -1
	for _, ci := range j.p.keptKids[qi] {
		j.unassign(int(ci))
	}
}

// intner is the choice source of the case generator: *rand.Rand for the
// randomized tests, the fuzzer's bytes for FuzzJoinOracle.
type intner interface{ Intn(n int) int }

// byteChooser reads choices off a byte string, one byte per choice, and
// answers 0 once the bytes run out.
type byteChooser struct{ data []byte }

func (c *byteChooser) Intn(n int) int {
	if len(c.data) == 0 {
		return 0
	}
	v := int(c.data[0]) % n
	c.data = c.data[1:]
	return v
}

// joinAlphabet labels the generated documents and patterns: few labels,
// so that labels match often and the search backtracks.
var joinAlphabet = []string{"a", "b", "c"}

// relabel gives every code prefix of the streams a label from
// joinAlphabet, a function of the prefix alone, so that fragments
// sharing an arena node agree on its label; the root is "r", the FST's
// root label.
func relabel(refined []refinedView) {
	for vi := range refined {
		for _, f := range refined[vi].frags {
			labels := make([]string, len(f.Code))
			labels[0] = "r"
			h := uint32(7)
			for d := 1; d < len(f.Code); d++ {
				h = h*31 + f.Code[d] + 1
				labels[d] = joinAlphabet[h%uint32(len(joinAlphabet))]
			}
			f.Path = &dewey.LabelPath{Labels: labels}
		}
	}
}

// randJoinCase draws an upper pattern of up to six nodes mixing '/',
// '//', '*' and predicate branches, 1–3 covers over it (one of them a
// Δ-cover, some with mode-(b) pins to an ancestor-or-self of their
// landing node), and one random fragment stream per cover.
func randJoinCase(r intner) (*JoinPlan, []refinedView, error) {
	label := func() string {
		if r.Intn(4) == 0 {
			return pattern.Wildcard
		}
		return joinAlphabet[r.Intn(len(joinAlphabet))]
	}
	axis := func() pattern.Axis {
		if r.Intn(2) == 0 {
			return pattern.Child
		}
		return pattern.Descendant
	}
	root := pattern.NewNode(label(), pattern.Descendant)
	if r.Intn(3) == 0 {
		root = pattern.NewNode("r", pattern.Child)
	}
	nodes := []*pattern.Node{root}
	for n := r.Intn(6); n > 0; n-- {
		nodes = append(nodes, nodes[r.Intn(len(nodes))].AddChild(label(), axis()))
	}
	q := &pattern.Pattern{Root: root, Ret: nodes[r.Intn(len(nodes))]}
	spine := q.Spine()
	covers := make([]*selection.Cover, 1+r.Intn(3))
	for i := range covers {
		x := nodes[r.Intn(len(nodes))]
		if i == 0 {
			x = spine[r.Intn(len(spine))]
		}
		c := &selection.Cover{X: x, Delta: pattern.AncestorOrSelf(x, q.Ret), Leaves: map[*pattern.Node]bool{}}
		if i == 0 {
			for _, l := range q.Leaves() {
				c.Leaves[l] = true
			}
		}
		for n := r.Intn(4) - 1; n > 0; n-- {
			y := x
			for up := r.Intn(4); up > 0 && y.Parent != nil; up-- {
				y = y.Parent
			}
			c.Pins = append(c.Pins, selection.Pin{Y: y, K: r.Intn(4)})
		}
		covers[i] = c
	}
	jp, err := PlanJoin(q, covers)
	if err != nil {
		return nil, nil, err
	}
	refined := randStreams(r, len(covers), 1+r.Intn(12))
	relabel(refined)
	return jp, refined, nil
}

// joinFST is the FST the synthetic streams are merged under; the merge
// reads only its root label.
var joinFST = dewey.BuildFSTFromSchema("r", nil)

// joinBoth joins refined under jp with the memoized joiner and with the
// oracle over one arena and fails unless both join the same fragments in
// the same order, the joiner in no more budget steps. It returns the
// joined fragments and both step counts.
func joinBoth(t testing.TB, tag string, jp *JoinPlan, fst *dewey.FST, refined []refinedView) (joined []*views.Fragment, steps, oracleSteps int64) {
	t.Helper()
	vt, anchors, _ := buildVirtual(fst, refined, jp.deltaIdx)
	defer putVtree(vt)
	bo, bn := budget.New(nil, 0, 0), budget.New(nil, 0, 0)
	want, err := oracleJoinUpper(jp, refined, vt, anchors, bo)
	if err != nil {
		t.Fatalf("%s: oracle: %v", tag, err)
	}
	got, err := joinUpper(jp, refined, vt, anchors, bn)
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	steps, _ = bn.Spent()
	oracleSteps, _ = bo.Spent()
	if !slices.Equal(got, want) {
		t.Fatalf("%s: joined %d fragments, oracle %d (or a different set/order)", tag, len(got), len(want))
	}
	if steps > oracleSteps {
		t.Fatalf("%s: %d budget steps, oracle %d", tag, steps, oracleSteps)
	}
	return got, steps, oracleSteps
}

// xmarkJoinShapes are selections over XMark whose joins mix Δ-path,
// local and pinned off-path branches, among them the slowest joins of
// the lib-cold benchmark pool.
var xmarkJoinShapes = []string{
	"//person[address/city]/name",
	"//person[address/city][profile/age]/name",
	"//*[.//date]/time",
	"//*[.//*/payment]/item/location",
	"//*[.//item/location]/item",
	"//*[.//item/description]/item/name",
	"//*[annotation//*]/*",
	"//*[text]//text",
	"//open_auction[.//date]/bidder/time",
	"//site//*[.//keyword]//item/name",
}

// xmarkJoinFixture materializes the views the shapes draw on.
func xmarkJoinFixture(t testing.TB) *refineFixture {
	f := xmarkRefineFixture(t, 0.03)
	for _, v := range []string{
		"//person/name", "//person/address/city", "//person/profile/age",
		"//date", "//time", "//*/payment", "//item/location", "//item",
		"//item/description", "//item/name", "//annotation", "//annotation//*",
		"//open_auction//date", "//bidder/time", "//*[keyword]",
	} {
		if _, err := f.reg.Add(xpath.MustParse(v), 0); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// joinSelections returns the XMark shapes and random answerable queries
// with their minimum selections, refined: the joins the serving path
// would run.
func joinSelections(t testing.TB, f *refineFixture, r *rand.Rand, random int) (plans []*JoinPlan, refined [][]refinedView) {
	qs, sels := f.answerableQueries(t, r, 40*random, random)
	for _, src := range xmarkJoinShapes {
		q := pattern.Minimize(xpath.MustParse(src))
		sel, err := selection.MinimumBudget(q, f.reg.ViewList, nil)
		if err != nil {
			continue
		}
		qs = append(qs, q)
		sels = append(sels, sel)
	}
	for qi, q := range qs {
		jp, err := PlanJoin(q, sels[qi].Covers)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		rv := make([]refinedView, len(jp.covers))
		if empty, err := refineAll(jp, rv, nil); err != nil || empty {
			releaseRefined(rv)
			continue
		}
		plans = append(plans, jp)
		refined = append(refined, rv)
	}
	t.Cleanup(func() {
		for _, rv := range refined {
			releaseRefined(rv)
		}
	})
	return plans, refined
}

// TestJoinDifferential: on random streams under random upper patterns
// with 1–3 covers, and on XMark selections, the memoized joiner joins
// exactly the oracle's fragments in the oracle's order, in no more budget
// steps.
func TestJoinDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(49))
	var cases, joined, partial, local, pinned int
	var steps, oracleSteps int64
	for trial := 0; trial < 3000; trial++ {
		jp, refined, err := randJoinCase(r)
		if err != nil {
			continue // the covers leave a leaf uncovered
		}
		got, s, os := joinBoth(t, fmt.Sprintf("trial %d: %s", trial, jp.q), jp, joinFST, refined)
		cases++
		steps += s
		oracleSteps += os
		if len(got) > 0 {
			joined++
		}
		if n := len(refined[jp.deltaIdx].frags); len(got) > 0 && len(got) < n {
			partial++
		}
		if jp.nLocal > 0 {
			local++
		}
		for _, c := range jp.covers {
			if len(c.Pins) > 0 {
				pinned++
				break
			}
		}
	}
	t.Logf("random: %d cases, %d join some fragment, %d some but not all, %d with a local node, %d pinned; steps %d, oracle %d",
		cases, joined, partial, local, pinned, steps, oracleSteps)
	if cases < 1000 || joined < cases/10 || partial < cases/50 || local < cases/10 || pinned < cases/4 {
		t.Fatalf("random cases too tame: %d cases, %d joined, %d partial, %d local, %d pinned", cases, joined, partial, local, pinned)
	}

	f := xmarkJoinFixture(t)
	plans, refined := joinSelections(t, f, r, 150)
	var multi int
	steps, oracleSteps = 0, 0
	for i, jp := range plans {
		_, s, os := joinBoth(t, jp.q.String(), jp, f.enc.FST(), refined[i])
		steps += s
		oracleSteps += os
		if len(jp.covers) > 1 {
			multi++
		}
	}
	t.Logf("xmark: %d joins (%d multi-view); steps %d, oracle %d", len(plans), multi, steps, oracleSteps)
	if multi < len(xmarkJoinShapes)/2 {
		t.Fatalf("only %d multi-view XMark joins", multi)
	}
}

// TestJoinStepsLinear: a '//' predicate off the Δ-path costs the join
// linear work in the number of Δ-fragments. Under //*[.//d]/t, the
// oracle rescans the whole arena for d below the document root for every
// t fragment; the memoized joiner scans it once.
func TestJoinStepsLinear(t *testing.T) {
	q := xpath.MustParse("//*[.//d]/t")
	var tn, dn *pattern.Node
	for _, n := range q.Nodes() {
		switch n.Label {
		case "t":
			tn = n
		case "d":
			dn = n
		}
	}
	jp, err := PlanJoin(q, []*selection.Cover{
		{X: tn, Delta: true, Leaves: map[*pattern.Node]bool{tn: true}},
		{X: dn, Leaves: map[*pattern.Node]bool{dn: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if jp.nLocal != 1 {
		t.Fatalf("%d local nodes, want 1 (the d branch)", jp.nLocal)
	}
	// F parents p, each holding a t fragment and, one level further
	// down, a d fragment.
	stepsAt := func(n int) (steps, oracleSteps int64) {
		tPath := &dewey.LabelPath{Labels: []string{"r", "p", "t"}}
		dPath := &dewey.LabelPath{Labels: []string{"r", "p", "q", "d"}}
		refined := []refinedView{{}, {}}
		for i := 0; i < n; i++ {
			refined[0].frags = append(refined[0].frags, &views.Fragment{Code: dewey.Code{0, uint32(i), 0}, Path: tPath})
			refined[1].frags = append(refined[1].frags, &views.Fragment{Code: dewey.Code{0, uint32(i), 1, 0}, Path: dPath})
		}
		joined, s, os := joinBoth(t, fmt.Sprintf("F=%d", n), jp, joinFST, refined)
		if len(joined) != n {
			t.Fatalf("F=%d: joined %d fragments, want all", n, len(joined))
		}
		return s, os
	}
	const f = 200
	s1, o1 := stepsAt(f)
	s2, o2 := stepsAt(2 * f)
	t.Logf("F=%d: %d steps (oracle %d); 2F: %d steps (oracle %d)", f, s1, o1, s2, o2)
	if float64(s2) > 2.2*float64(s1) {
		t.Fatalf("steps grow superlinearly: %d at F=%d, %d at 2F", s1, f, s2)
	}
	if float64(o2) < 3*float64(o1) {
		t.Fatalf("the oracle is not quadratic on this shape (%d, %d): the test no longer measures the rescans", o1, o2)
	}
}

// TestJoinPinnedOffPath: an off-Δ-path branch whose view is pinned to
// an ancestor outside the branch is not local, because its verdict
// depends on where that ancestor sits. Under //*[.//a/b]/t with b's view
// pinned to the root's placement three levels up, the root is first
// tried at the document root, where the pin fails at a, and then at x,
// where it holds at the same a.
func TestJoinPinnedOffPath(t *testing.T) {
	q := xpath.MustParse("//*[.//a/b]/t")
	byLabel := map[string]*pattern.Node{}
	for _, n := range q.Nodes() {
		byLabel[n.Label] = n
	}
	jp, err := PlanJoin(q, []*selection.Cover{
		{X: byLabel["t"], Delta: true, Leaves: map[*pattern.Node]bool{byLabel["b"]: true, byLabel["t"]: true}},
		{X: byLabel["b"], Pins: []selection.Pin{{Y: q.Root, K: 3}}, Leaves: map[*pattern.Node]bool{byLabel["b"]: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if jp.nLocal != 0 {
		t.Fatalf("%d local nodes, want none: the a/b branch is pinned to the root", jp.nLocal)
	}
	refined := []refinedView{
		{frags: []*views.Fragment{{Code: dewey.Code{0, 0, 5}, Path: &dewey.LabelPath{Labels: []string{"r", "x", "t"}}}}},
		{frags: []*views.Fragment{{Code: dewey.Code{0, 0, 0, 0, 0}, Path: &dewey.LabelPath{Labels: []string{"r", "x", "y", "a", "b"}}}}},
	}
	if joined, _, _ := joinBoth(t, q.String(), jp, joinFST, refined); len(joined) != 1 {
		t.Fatalf("joined %d fragments, want the one t", len(joined))
	}
}

// TestJoinScratchReuse: one joiner serves joins over large and small
// arenas and plans of different sizes in turn, among them joins aborted
// by the step budget; every complete join must equal the oracle's, so no
// verdict may outlive the join that computed it.
func TestJoinScratchReuse(t *testing.T) {
	r := rand.New(rand.NewSource(50))
	f := xmarkJoinFixture(t)
	plans, refined := joinSelections(t, f, r, 20)
	j := new(joiner)
	run := func(tag string, jp *JoinPlan, fst *dewey.FST, rv []refinedView) {
		vt, anchors, _ := buildVirtual(fst, rv, jp.deltaIdx)
		defer putVtree(vt)
		want, err := oracleJoinUpper(jp, rv, vt, anchors, nil)
		if err != nil {
			t.Fatal(err)
		}
		b := budget.New(nil, 0, 0)
		got, err := j.join(jp, rv, vt, anchors, b)
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("%s: joined %d fragments (err %v), oracle %d", tag, len(got), err, len(want))
		}
		// The same join again, aborted half-way, then in full.
		steps, _ := b.Spent()
		if steps < 2 {
			return
		}
		if _, err := j.join(jp, rv, vt, anchors, budget.New(nil, steps/2, 0)); !errors.Is(err, budget.ErrSteps) {
			t.Fatalf("%s: join under half its steps: err %v, want ErrSteps", tag, err)
		}
		if got, err := j.join(jp, rv, vt, anchors, nil); err != nil || !slices.Equal(got, want) {
			t.Fatalf("%s: after an aborted join: joined %d fragments (err %v), oracle %d", tag, len(got), err, len(want))
		}
	}
	for round := 0; round < 400; round++ {
		if round%2 == 0 {
			i := r.Intn(len(plans))
			run(fmt.Sprintf("round %d: %s", round, plans[i].q), plans[i], f.enc.FST(), refined[i])
			continue
		}
		jp, rv, err := randJoinCase(r)
		if err != nil {
			continue
		}
		run(fmt.Sprintf("round %d: %s", round, jp.q), jp, joinFST, rv)
	}
	if j.p != nil || j.vt != nil || j.deltaFrag != nil {
		t.Fatal("an idle joiner still references a plan, an arena or a fragment")
	}
}

// FuzzJoinOracle: a case drawn from the fuzzer's bytes (pattern, covers,
// pins and streams, as randJoinCase draws them) must join the oracle's
// fragments in no more steps. The seed corpus is
// testdata/fuzz/FuzzJoinOracle.
func FuzzJoinOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		jp, refined, err := randJoinCase(&byteChooser{data: data})
		if err != nil {
			return
		}
		joinBoth(t, fmt.Sprintf("%q: %s", data, jp.q), jp, joinFST, refined)
	})
}
