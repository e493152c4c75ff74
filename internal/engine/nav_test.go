package engine_test

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"xpathviews/internal/budget"
	"xpathviews/internal/engine"
	"xpathviews/internal/pattern"
	"xpathviews/internal/xmltree"
	"xpathviews/internal/xpath"
)

// checkWalk runs the navigational walk of q over scope and requires the
// reference evaluator's answers on tree that lie in scope's subtree, in
// document order, with every node of the scope visited once.
func checkWalk(t *testing.T, ctx string, tree *xmltree.Tree, q *pattern.Pattern, scope *xmltree.Node) {
	t.Helper()
	var want []*xmltree.Node
	for _, a := range engine.Answers(tree, q) {
		for n := a; n != nil; n = n.Parent {
			if n == scope {
				want = append(want, a)
				break
			}
		}
	}
	got, visited, err := engine.AnswersWithin(q.Spine(), scope, nil)
	if err != nil {
		t.Fatalf("%s %s: %v", ctx, q, err)
	}
	if visited != scope.SubtreeSize() {
		t.Fatalf("%s %s: visited %d nodes, scope has %d", ctx, q, visited, scope.SubtreeSize())
	}
	if len(got) != len(want) {
		t.Fatalf("%s %s scope ord %d: %d answers, want %d", ctx, q, tree.Ord(scope), len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s %s scope ord %d: answer %d is ord %d, want ord %d",
				ctx, q, tree.Ord(scope), i, tree.Ord(got[i]), tree.Ord(want[i]))
		}
	}
}

// checkWalkModes runs checkWalk in the walk's three uses: over the whole
// document (BN), over a scope inside it (view maintenance), and over a
// copy of a subtree with the pattern's root pinned to the copy's root by
// a Child axis (extraction from a fragment).
func checkWalkModes(t *testing.T, ctx string, tree *xmltree.Tree, q *pattern.Pattern, scope, frag *xmltree.Node) {
	t.Helper()
	checkWalk(t, ctx+" document", tree, q, tree.Root())
	checkWalk(t, ctx+" scope", tree, q, scope)
	copied := xmltree.FromRoot(frag.CopySubtree())
	pinned := q.Clone()
	pinned.Root.Axis = pattern.Child
	checkWalk(t, ctx+" pinned", copied, pinned, copied.Root())
}

// TestAnswersWithinMatchesAnswers: for random trees, patterns (each
// also with a Child-axis root) and scopes, the walk returns exactly the
// reference answers that lie in the scope's subtree, in document order,
// and reports the scope's size as the nodes it visited.
func TestAnswersWithinMatchesAnswers(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	labels := []string{"a", "b", "c", "d"}
	for trial := 0; trial < 25; trial++ {
		tree := randomTree(r, 60+r.Intn(120), labels)
		nodes := tree.Nodes()
		for qi := 0; qi < 20; qi++ {
			q := randomPattern(r, labels, 6)
			rooted := q.Clone()
			rooted.Root.Axis = pattern.Child
			for _, p := range []*pattern.Pattern{q, rooted} {
				checkWalkModes(t, "trial", tree, p, nodes[r.Intn(len(nodes))], nodes[r.Intn(len(nodes))])
			}
		}
	}
}

// TestAnswersAtRoot: a pattern whose root axis is Child is pinned to the
// walk's root, so it only reaches what hangs below that root.
func TestAnswersAtRoot(t *testing.T) {
	tree, err := xmltree.ParseString(`<s><p/><s><p/><p/></s></s>`)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		q    string
		want int
	}{{"//s//p", 3}, {"//s/p", 1}} {
		q := xpath.MustParse(c.q)
		q.Root.Axis = pattern.Child
		checkWalk(t, "pinned", tree, q, tree.Root())
		if got, _, _ := engine.AnswersWithin(q.Spine(), tree.Root(), nil); len(got) != c.want {
			t.Fatalf("%s pinned at the root: %d answers, want %d", c.q, len(got), c.want)
		}
	}
}

// FuzzNavWalk checks the walk in its three uses against the reference
// evaluator, on a small tree, pattern and scope drawn from the bytes.
func FuzzNavWalk(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c := &byteChooser{data: data}
		labels := []string{"a", "b", "c"}
		tree := randomTree(c, 1+c.Intn(40), labels)
		q := randomPattern(c, labels, 5)
		nodes := tree.Nodes()
		checkWalkModes(t, "fuzz", tree, q, nodes[c.Intn(len(nodes))], nodes[c.Intn(len(nodes))])
	})
}

// byteChooser draws choices from fuzz bytes, then zeros once they run
// out.
type byteChooser struct{ data []byte }

func (c *byteChooser) Intn(n int) int {
	if len(c.data) == 0 {
		return 0
	}
	v := int(c.data[0]) % n
	c.data = c.data[1:]
	return v
}

// TestBNBudgetAbortsMidWalk: BN charges a step per visited node, so a
// step budget below the document's size stops the walk at the node that
// exhausts it, with no answers.
func TestBNBudgetAbortsMidWalk(t *testing.T) {
	tree := bookTree(t)
	bn := engine.NewBN(tree)
	q := xpath.MustParse("//s[f//i][t]/p")
	b := budget.New(nil, 0, 0)
	if got, err := bn.EvalBudget(q, b); err != nil || len(got) != 5 {
		t.Fatalf("unlimited: %d answers, err %v", len(got), err)
	}
	if steps, _ := b.Spent(); steps != int64(tree.Size()) {
		t.Fatalf("unlimited walk spent %d steps over %d nodes", steps, tree.Size())
	}
	limit := int64(tree.Size() / 2)
	b = budget.New(nil, limit, 0)
	got, err := bn.EvalBudget(q, b)
	if !errors.Is(err, budget.ErrBudget) || got != nil {
		t.Fatalf("MaxSteps %d of %d nodes: %d answers, err %v; want ErrBudget", limit, tree.Size(), len(got), err)
	}
	if steps, _ := b.Spent(); steps != limit+1 {
		t.Fatalf("MaxSteps %d: walk spent %d steps, want it to stop at the %dth node", limit, steps, limit+1)
	}
}

// TestAnswersWithinAllocsIndependentOfScope: the walk keeps its state
// per depth, so a scope a thousand times larger at the same depth costs
// no more allocations — predicate checks included.
func TestAnswersWithinAllocsIndependentOfScope(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under the race detector")
	}
	var b strings.Builder
	b.WriteString("<r><small><g><k/><v/></g></small><big>")
	for i := 0; i < 1000; i++ {
		b.WriteString("<g><k/><w><k/></w></g>")
	}
	b.WriteString("</big></r>")
	tree, err := xmltree.ParseString(b.String())
	if err != nil {
		t.Fatal(err)
	}
	// One answer in either scope; //*[k] runs a predicate check at every
	// node and .//k a descendant search.
	spine := xpath.MustParse("//*[k][.//k]/v").Spine()
	small, big := tree.Root().Children[0], tree.Root().Children[1]
	big.Children[500].Children[1].Label = "v"
	allocs := func(scope *xmltree.Node) float64 {
		return testing.AllocsPerRun(20, func() {
			if got, _, _ := engine.AnswersWithin(spine, scope, nil); len(got) != 1 {
				t.Fatalf("%d answers under %s, want 1", len(got), scope.Label)
			}
		})
	}
	if s, l := allocs(small), allocs(big); l > s {
		t.Fatalf("allocations grow with the scope: %v for %d nodes, %v for %d",
			s, small.SubtreeSize(), l, big.SubtreeSize())
	}
}
