package pattern

// This file implements homomorphisms between tree patterns (§II). A
// homomorphism h from pattern P to pattern Q witnesses Q ⊑ P: it maps
// P's nodes to Q's nodes such that
//
//   - labels agree, or the P-node is a wildcard;
//   - a '/'-edge of P maps to a '/'-edge of Q;
//   - a '//'-edge of P maps to a downward path of one or more edges in Q;
//   - every attribute predicate of a P-node appears (syntactically) on
//     its image (§V's "exactly the same" rule);
//   - P's root maps to Q's root when P is rooted with '/', and to any
//     node of Q otherwise (both patterns hang off a virtual document
//     root; a '//'-rooted P may map anywhere below it, but only if the
//     target is reachable — Q's own root axis already allows depth).
//
// Checking existence is the classic O(|P|·|Q|·depth) dynamic program.

// Hom holds a homomorphism existence table between a source pattern P and
// a target pattern Q.
type Hom struct {
	P, Q *Pattern

	pNodes []*Node
	qNodes []*Node
	pIdx   map[*Node]int
	qIdx   map[*Node]int

	// can[i][j] reports whether the subtree of P rooted at pNodes[i] can
	// be mapped with h(pNodes[i]) = qNodes[j].
	can [][]bool
}

// NewHom computes the homomorphism table from P to Q.
func NewHom(p, q *Pattern) *Hom {
	h := &Hom{
		P: p, Q: q,
		pNodes: p.Nodes(), qNodes: q.Nodes(),
	}
	h.pIdx = make(map[*Node]int, len(h.pNodes))
	for i, n := range h.pNodes {
		h.pIdx[n] = i
	}
	h.qIdx = make(map[*Node]int, len(h.qNodes))
	for j, n := range h.qNodes {
		h.qIdx[n] = j
	}
	h.can = make([][]bool, len(h.pNodes))
	for i := range h.can {
		h.can[i] = make([]bool, len(h.qNodes))
	}
	// P.Nodes() is preorder, so children come after parents; fill the
	// table bottom-up by iterating P's nodes in reverse.
	for i := len(h.pNodes) - 1; i >= 0; i-- {
		pn := h.pNodes[i]
		for j, qn := range h.qNodes {
			h.can[i][j] = h.nodeMaps(pn, qn)
		}
	}
	return h
}

// nodeMaps computes can(pn, qn) assuming children of pn already have
// their rows filled.
func (h *Hom) nodeMaps(pn, qn *Node) bool {
	if !labelCompat(pn.Label, qn.Label) {
		return false
	}
	if !attrsImplied(pn.Attrs, qn.Attrs) {
		return false
	}
	for _, pc := range pn.Children {
		pi := h.pIdx[pc]
		ok := false
		if pc.Axis == Child {
			for _, qc := range qn.Children {
				if qc.Axis == Child && h.can[pi][h.qIdx[qc]] {
					ok = true
					break
				}
			}
		} else {
			// Descendant: any node strictly below qn.
			ok = h.existsBelow(pi, qn)
		}
		if !ok {
			return false
		}
	}
	return true
}

// existsBelow reports whether some proper descendant qd of qn has
// can[pi][qd].
func (h *Hom) existsBelow(pi int, qn *Node) bool {
	for _, qc := range qn.Children {
		if h.can[pi][h.qIdx[qc]] || h.existsBelow(pi, qc) {
			return true
		}
	}
	return false
}

// labelCompat implements the homomorphism label rule: the source label
// must equal the target label or be the wildcard.
func labelCompat(src, dst string) bool {
	return src == Wildcard || src == dst
}

// AttrsImplied reports whether every attribute predicate of src is
// present (syntactically) in dst — the §V rule for attribute predicates.
func AttrsImplied(src, dst []AttrPred) bool { return attrsImplied(src, dst) }

// attrsImplied reports whether every attribute predicate of the source
// node is present on the target node.
func attrsImplied(src, dst []AttrPred) bool {
	for _, a := range src {
		found := false
		for _, b := range dst {
			if a == b {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Exists reports whether a homomorphism from P to Q exists at all,
// respecting root axes. This is the PTIME (sound, generally incomplete)
// containment check Q ⊑ P used throughout the system.
func (h *Hom) Exists() bool {
	pRoot := 0
	if h.P.Root.Axis == Child {
		// P's root must map to Q's root, which must itself sit directly
		// under the document root.
		return h.Q.Root.Axis == Child && h.can[pRoot][0]
	}
	for j := range h.qNodes {
		if h.can[pRoot][j] {
			return true
		}
	}
	return false
}

// CanMap reports whether the subtree of P at pn can map with image qn.
func (h *Hom) CanMap(pn, qn *Node) bool {
	return h.can[h.pIdx[pn]][h.qIdx[qn]]
}

// Contains reports whether pattern v contains pattern q (q ⊑ v) according
// to the homomorphism test. Sound always; complete when v is a path
// pattern (Theorem 3.1).
func Contains(v, q *Pattern) bool {
	return NewHom(v, q).Exists()
}

// PathContains reports whether path pattern vp contains path pattern qp
// (qp ⊑ vp). Complete per Theorem 3.1.
func PathContains(vp, qp Path) bool {
	return Contains(vp.Pattern(), qp.Pattern())
}

// SpineMapping is an assignment of the spine of P (root → RET(P)) to a
// descending chain of nodes in Q, forming part of a full homomorphism:
// off-spine subtrees of each spine node are guaranteed mappable below the
// assigned image.
type SpineMapping struct {
	// Images[i] is the Q-node assigned to the i-th spine node of P.
	Images []*Node
}

// Ret returns the image of RET(P), the last spine assignment.
func (m SpineMapping) Ret() *Node { return m.Images[len(m.Images)-1] }

// SpineMappings enumerates every way the spine of P can be embedded in Q
// as part of a complete homomorphism. The number of homomorphisms can be
// exponential, but spine mappings are at most |spine(P)| choices over
// |Q| nodes each and are enumerated without duplication.
func (h *Hom) SpineMappings() []SpineMapping {
	spine := h.P.Spine()
	spineSet := make(map[*Node]bool, len(spine))
	for _, n := range spine {
		spineSet[n] = true
	}

	// ok(i, qn): spine[i] maps to qn: can-compatible ignoring the spine
	// child (which is assigned explicitly) but requiring off-spine
	// children mappable.
	ok := func(i int, qn *Node) bool {
		pn := spine[i]
		if !labelCompat(pn.Label, qn.Label) || !attrsImplied(pn.Attrs, qn.Attrs) {
			return false
		}
		for _, pc := range pn.Children {
			if i+1 < len(spine) && pc == spine[i+1] {
				continue
			}
			pi := h.pIdx[pc]
			found := false
			if pc.Axis == Child {
				for _, qc := range qn.Children {
					if qc.Axis == Child && h.can[pi][h.qIdx[qc]] {
						found = true
						break
					}
				}
			} else {
				found = h.existsBelow(pi, qn)
			}
			if !found {
				return false
			}
		}
		return true
	}

	var out []SpineMapping
	var images []*Node
	var rec func(i int, from *Node)
	assign := func(i int, qn *Node) {
		images = append(images, qn)
		if i == len(spine)-1 {
			cp := append([]*Node(nil), images...)
			out = append(out, SpineMapping{Images: cp})
		} else {
			rec(i+1, qn)
		}
		images = images[:len(images)-1]
	}
	// rec assigns spine[i] to a node reachable from `from` per spine[i]'s
	// axis; from == nil means the virtual document root.
	rec = func(i int, from *Node) {
		pn := spine[i]
		if from == nil {
			if pn.Axis == Child {
				if h.Q.Root.Axis == Child && ok(i, h.Q.Root) {
					assign(i, h.Q.Root)
				}
				return
			}
			for _, qn := range h.qNodes {
				if ok(i, qn) {
					assign(i, qn)
				}
			}
			return
		}
		if pn.Axis == Child {
			for _, qc := range from.Children {
				if qc.Axis == Child && ok(i, qc) {
					assign(i, qc)
				}
			}
			return
		}
		var below func(q *Node)
		below = func(q *Node) {
			for _, qc := range q.Children {
				if ok(i, qc) {
					assign(i, qc)
				}
				below(qc)
			}
		}
		below(from)
	}
	rec(0, nil)
	return out
}
