package engine_test

import (
	"math/rand"
	"strings"
	"testing"

	"xpathviews/internal/engine"
	"xpathviews/internal/xmltree"
	"xpathviews/internal/xpath"
)

// TestAnswersWithinMatchesAnswers: for random trees, patterns and
// scopes, the scoped evaluator returns exactly the reference answers
// that lie in the scope's subtree, in document order, and reports the
// scope's size as the nodes it visited.
func TestAnswersWithinMatchesAnswers(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	labels := []string{"a", "b", "c", "d"}
	for trial := 0; trial < 25; trial++ {
		tree := randomTree(r, 60+r.Intn(120), labels)
		nodes := tree.Nodes()
		for qi := 0; qi < 20; qi++ {
			q := randomPattern(r, labels, 6)
			ref := engine.Answers(tree, q)
			for _, scope := range []*xmltree.Node{tree.Root(), nodes[r.Intn(len(nodes))], nodes[r.Intn(len(nodes))]} {
				var want []*xmltree.Node
				for _, a := range ref {
					if a == scope || scope.IsAncestorOf(a) {
						want = append(want, a)
					}
				}
				got, visited := engine.AnswersWithin(tree, q, scope)
				if visited != scope.SubtreeSize() {
					t.Fatalf("trial %d %s: visited %d nodes, scope has %d", trial, q, visited, scope.SubtreeSize())
				}
				if len(got) != len(want) {
					t.Fatalf("trial %d %s scope ord %d: %d answers, want %d", trial, q, tree.Ord(scope), len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("trial %d %s scope ord %d: answer %d is ord %d, want ord %d",
							trial, q, tree.Ord(scope), i, tree.Ord(got[i]), tree.Ord(want[i]))
					}
				}
			}
		}
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
	q := xpath.MustParse("//*[k][.//k]/v")
	small, big := tree.Root().Children[0], tree.Root().Children[1]
	big.Children[500].Children[1].Label = "v"
	allocs := func(scope *xmltree.Node) float64 {
		return testing.AllocsPerRun(20, func() {
			if got, _ := engine.AnswersWithin(tree, q, scope); len(got) != 1 {
				t.Fatalf("%d answers under %s, want 1", len(got), scope.Label)
			}
		})
	}
	if s, l := allocs(small), allocs(big); l > s {
		t.Fatalf("allocations grow with the scope: %v for %d nodes, %v for %d",
			s, small.SubtreeSize(), l, big.SubtreeSize())
	}
}
