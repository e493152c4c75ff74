// Package maintain implements incremental maintenance of materialized
// XPath views under subtree mutations (insert/delete), exploiting the
// paper's extended Dewey encoding (§III): a subtree is exactly a code
// prefix range, so the fragments a mutation can affect are found by
// intersecting that range with each view's code-sorted fragment store,
// and the view pattern is re-evaluated only over the affected subtree.
//
// Three ideas carry the subsystem:
//
//   - Gap allocation (alloc.go): an inserted child takes the smallest
//     unused component in its label's residue class, so existing codes
//     never shift and the allocation is a pure function of the live
//     sibling set — which is what makes WAL replay reproduce identical
//     codes.
//
//   - Dirty-root detection (dirty.go): for downward patterns, an answer
//     outside the mutated subtree can only change when a spine node's
//     predicates, at a proper ancestor of the mutation root, hold with
//     the mutated subtree and fail without it. The highest ancestor
//     where that happens bounds the re-evaluation scope; when it happens
//     nowhere the scope is the mutation root itself.
//
//   - Delta application (delta.go): re-evaluate the pattern inside the
//     dirty scope (engine.AnswersWithin), splice the result over the
//     scope's prefix range, and refresh ancestor fragments whose copied
//     content contains the mutation point.
//
// The package is storage- and lock-agnostic: the owning System drives it
// under its write lock and appends the WAL records (record.go) to
// internal/storage.
package maintain

import (
	"errors"

	"xpathviews/internal/faults"
)

// ErrSchema reports an insert whose labels are not in the FST's child
// alphabets. Growing an alphabet would change the modulus and silently
// re-label every existing code, so such inserts are rejected outright.
var ErrSchema = errors.New("maintain: label outside the FST child alphabet")

// ErrNoSuchNode reports a mutation addressed at a code that resolves to
// no live node.
var ErrNoSuchNode = errors.New("maintain: no node with that code")

// FaultApply is the chaos-injection point for mutations. The owning
// System fires it after validation and the read-only dirty-root pass,
// immediately before the first state change, so an injected error or
// panic always leaves document, encoding, indexes and views untouched.
var FaultApply = faults.New("maintain.apply")
