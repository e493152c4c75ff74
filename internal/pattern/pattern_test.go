package pattern_test

import (
	"math/rand"
	"testing"

	"xpathviews/internal/pattern"
	"xpathviews/internal/xpath"
)

func mp(t *testing.T, s string) *pattern.Pattern {
	t.Helper()
	p, err := xpath.Parse(s)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return p
}

func TestDecompose(t *testing.T) {
	cases := []struct {
		q    string
		want []string
	}{
		{"//s[t]/p", []string{"//s/t", "//s/p"}},
		{"//s[f//i][t]/p", []string{"//s/f//i", "//s/t", "//s/p"}},
		{"//a", []string{"//a"}},
		{"/a[b][b]/c", []string{"/a/b", "/a/c"}},         // duplicate path removed
		{"//b[*//f]//t", []string{"//b/*//f", "//b//t"}}, // wildcard branch
		{"//s[a][.//i]//p", []string{"//s/a", "//s//i", "//s//p"}},
	}
	for _, c := range cases {
		got := pattern.Decompose(mp(t, c.q))
		if len(got) != len(c.want) {
			t.Errorf("Decompose(%s) = %v, want %v", c.q, got, c.want)
			continue
		}
		for i := range got {
			if got[i].String() != c.want[i] {
				t.Errorf("Decompose(%s)[%d] = %s, want %s", c.q, i, got[i], c.want[i])
			}
		}
	}
}

func TestNormalize(t *testing.T) {
	cases := []struct{ in, want string }{
		{"//s/*//t", "//s//*/t"}, // Example 3.2/3.3: push // to the front
		{"//s//*/t", "//s//*/t"}, // already normalized
		{"//s/*/t", "//s/*/t"},   // no descendant edge in the run: unchanged
		{"//a/*//*//b", "//a//*/*/b"},
		{"//a//*//*//b", "//a//*/*/b"},
		{"/*//a", "//*/a"},       // leading run anchored at the root
		{"//a/*//*", "//a//*/*"}, // trailing run
		{"//a/b//c", "//a/b//c"}, // no wildcards: unchanged
		{"/a/b/c", "/a/b/c"},
	}
	for _, c := range cases {
		p, ok := pattern.PathOf(mp(t, c.in))
		if !ok {
			t.Fatalf("%s is not a path", c.in)
		}
		got := pattern.Normalize(p).String()
		if got != c.want {
			t.Errorf("Normalize(%s) = %s, want %s", c.in, got, c.want)
		}
	}
}

// TestNormalizePreservesEquivalence: N(P) ≡ P under the exact
// canonical-model containment check.
func TestNormalizePreservesEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for i := 0; i < 120; i++ {
		p := randomPath(r, 1+r.Intn(5))
		n := pattern.Normalize(p)
		if !pattern.EquivalentExact(p.Pattern(), n.Pattern()) {
			t.Fatalf("Normalize(%s) = %s is not equivalent", p, n)
		}
	}
}

// TestNormalizeCanonical — Proposition 3.2: equivalent path patterns
// normalize to identical strings. We generate a path, scramble the
// descendant-edge position within each wildcard run (an equivalence-
// preserving rewrite), and check the normal forms collide.
func TestNormalizeCanonical(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for i := 0; i < 150; i++ {
		p := randomPath(r, 2+r.Intn(4))
		q := scrambleRuns(r, p)
		if !pattern.EquivalentExact(p.Pattern(), q.Pattern()) {
			continue // scramble changed semantics (shouldn't happen) — skip
		}
		np, nq := pattern.Normalize(p), pattern.Normalize(q)
		if np.Key() != nq.Key() {
			t.Fatalf("equivalent paths %s and %s normalize differently: %s vs %s", p, q, np, nq)
		}
	}
}

func TestHomomorphismContainment(t *testing.T) {
	cases := []struct {
		v, q string
		want bool // q ⊑ v
	}{
		{"//s[t]/p", "//s[f//i][t]/p", true}, // the running example
		{"//s[p]/f", "//s[p]/f//i", true},    // boolean containment: extra predicates only strengthen q
		{"//a/b", "//a/b/c", true},
		{"//b/c", "//b/c", true},
		{"//b//c", "//b/c", true},
		{"//b/c", "//b//c", false},
		{"//*", "//a", true},
		{"//a", "//*", false},
		{"/a/b", "/a/b", true},
		{"/a/b", "//a/b", false}, // //a/b may match deeper
		{"//a/b", "/a/b", true},
		{"//a[b][c]", "//a[b/d][c]", true},
		{"//a[b/d]", "//a[b][c]", false},
	}
	for _, c := range cases {
		v, q := mp(t, c.v), mp(t, c.q)
		if got := pattern.Contains(v, q); got != c.want {
			t.Errorf("Contains(%s, %s) = %v, want %v", c.v, c.q, got, c.want)
		}
	}
}

// TestHomomorphismSoundness: if a homomorphism exists (q ⊑ v reported),
// the exact canonical-model check must agree.
func TestHomomorphismSoundness(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	checked := 0
	for i := 0; i < 250; i++ {
		v := randomPattern(r, 4)
		q := randomPattern(r, 5)
		if pattern.Contains(v, q) {
			checked++
			if !pattern.ContainsExact(q, v) {
				t.Fatalf("homomorphism claims %s ⊑ %s but canonical models disagree", q, v)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no containments generated; test is vacuous")
	}
}

// TestPathContainmentCompleteness — Theorem 3.1: for path-pattern
// containers the homomorphism test is complete, so it must agree with the
// canonical-model test in both directions. The classic caveat applies:
// completeness needs a wildcard-free container (e.g. //a//b ⊑ //a/* holds
// with no homomorphism), so the generator keeps vp wildcard-free.
func TestPathContainmentCompleteness(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	agree := 0
	for i := 0; i < 200; i++ {
		vp := randomPath(r, 1+r.Intn(4))
		for k := range vp.Steps {
			if vp.Steps[k].Label == pattern.Wildcard {
				vp.Steps[k].Label = testLabels[r.Intn(len(testLabels))]
			}
		}
		qp := randomPath(r, 1+r.Intn(5))
		hom := pattern.Contains(vp.Pattern(), qp.Pattern())
		exact := pattern.ContainsExact(qp.Pattern(), vp.Pattern())
		if hom != exact {
			t.Fatalf("path containment mismatch for %s ⊑ %s: hom=%v exact=%v", qp, vp, hom, exact)
		}
		if hom {
			agree++
		}
	}
	if agree == 0 {
		t.Fatal("no positive containments; vacuous")
	}
}

func TestMinimize(t *testing.T) {
	cases := []struct {
		in   string
		size int // node count after minimization
	}{
		{"//a[b][b]/c", 3},    // duplicate predicate
		{"//a[b]/c", 3},       // already minimal
		{"//a[.//b][b]/c", 3}, // .//b subsumed by b
		{"//a[*][b]/c", 3},    // * subsumed by b
	}
	for _, c := range cases {
		got := pattern.Minimize(mp(t, c.in))
		if got.Size() != c.size {
			t.Errorf("Minimize(%s) has %d nodes (%s), want %d", c.in, got.Size(), got, c.size)
		}
		if !pattern.EquivalentExact(got, mp(t, c.in)) {
			t.Errorf("Minimize(%s) = %s is not equivalent", c.in, got)
		}
	}
}

func TestMinimizePreservesAnswer(t *testing.T) {
	p := pattern.Minimize(mp(t, "//a[b][b]/c[d][d]"))
	if p.Ret.Label != "c" {
		t.Fatalf("answer node label = %q, want c", p.Ret.Label)
	}
}

func TestSpineAndLeaves(t *testing.T) {
	q := mp(t, "//s[f//i][t]/p")
	spine := q.Spine()
	if len(spine) != 2 || spine[0].Label != "s" || spine[1].Label != "p" {
		t.Fatalf("spine = %v", spine)
	}
	leaves := q.Leaves()
	labels := map[string]bool{}
	for _, l := range leaves {
		labels[l.Label] = true
	}
	if len(leaves) != 3 || !labels["i"] || !labels["t"] || !labels["p"] {
		t.Fatalf("leaves = %v", leaves)
	}
}

func TestStr(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"//s/p", []string{"^", "s", "p"}},
		{"/b/s", []string{"b", "s"}},
		{"//s/*//t", []string{"^", "s", "*", "^", "t"}},
		{"//s//i", []string{"^", "s", "^", "i"}},
	}
	for _, c := range cases {
		p, _ := pattern.PathOf(mp(t, c.in))
		got := pattern.Str(p)
		if len(got) != len(c.want) {
			t.Errorf("Str(%s) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Str(%s) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
}

// --- random pattern generators ------------------------------------------

var testLabels = []string{"a", "b", "c", "d"}

func randomPath(r *rand.Rand, steps int) pattern.Path {
	var p pattern.Path
	for i := 0; i < steps; i++ {
		ax := pattern.Child
		if r.Intn(3) == 0 {
			ax = pattern.Descendant
		}
		lb := testLabels[r.Intn(len(testLabels))]
		if r.Intn(4) == 0 {
			lb = pattern.Wildcard
		}
		p.Steps = append(p.Steps, pattern.Step{Axis: ax, Label: lb})
	}
	// Avoid an all-wildcard path ending: keep the leaf labelled half the
	// time to diversify.
	if p.Steps[len(p.Steps)-1].Label == pattern.Wildcard && r.Intn(2) == 0 {
		p.Steps[len(p.Steps)-1].Label = testLabels[r.Intn(len(testLabels))]
	}
	return p
}

// scrambleRuns moves the descendant edge within each wildcard run to a
// random position (the equivalence the paper exploits in §III-C).
func scrambleRuns(r *rand.Rand, p pattern.Path) pattern.Path {
	steps := append([]pattern.Step(nil), p.Steps...)
	i := 0
	for i < len(steps) {
		if steps[i].Label != pattern.Wildcard {
			i++
			continue
		}
		j := i
		for j < len(steps) && steps[j].Label == pattern.Wildcard {
			j++
		}
		// edges at positions i..j (j only if within range)
		hi := j
		if hi >= len(steps) {
			hi = len(steps) - 1
		}
		hasDesc := false
		for k := i; k <= hi; k++ {
			if steps[k].Axis == pattern.Descendant {
				hasDesc = true
			}
		}
		if hasDesc {
			for k := i; k <= hi; k++ {
				steps[k].Axis = pattern.Child
			}
			pick := i + r.Intn(hi-i+1)
			steps[pick].Axis = pattern.Descendant
		}
		i = j + 1
	}
	return pattern.Path{Steps: steps}
}

func randomPattern(r *rand.Rand, maxNodes int) *pattern.Pattern {
	root := pattern.NewNode(testLabels[r.Intn(len(testLabels))], pattern.Axis(r.Intn(2)))
	nodes := []*pattern.Node{root}
	n := 1 + r.Intn(maxNodes)
	for len(nodes) < n {
		parent := nodes[r.Intn(len(nodes))]
		lb := testLabels[r.Intn(len(testLabels))]
		if r.Intn(5) == 0 {
			lb = pattern.Wildcard
		}
		c := parent.AddChild(lb, pattern.Axis(r.Intn(2)))
		nodes = append(nodes, c)
	}
	return &pattern.Pattern{Root: root, Ret: nodes[r.Intn(len(nodes))]}
}
