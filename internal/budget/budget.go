// Package budget provides cooperative cancellation and resource budgets
// for the answering pipeline. A *B is threaded through the traversal and
// enumeration loops of engine, vfilter, selection and rewrite; each loop
// reports progress via Step (cheap work units) or Hom (homomorphism
// computations, the cost driver of §IV) and aborts with a typed error
// when the caller's context is done or a budget is exhausted.
//
// A nil *B is valid everywhere and means "unlimited, uncancellable" —
// legacy entry points pass nil so the hot paths stay check-free.
//
// Charging is atomic, so a budget a caller shares across goroutines
// keeps its caps exact — every unit is debited exactly once, and the
// first debit that crosses zero reports exhaustion. The pipeline itself
// charges a call's budget from that call's goroutine only, where the
// atomics are uncontended.
package budget

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
)

// ErrBudget reports that a configured resource budget ran out before the
// call completed. Use errors.Is: both step and homomorphism exhaustion
// match it.
var ErrBudget = errors.New("budget exceeded")

// ErrSteps and ErrHoms identify which budget ran out; both wrap
// ErrBudget.
var (
	ErrSteps = fmt.Errorf("step %w", ErrBudget)
	ErrHoms  = fmt.Errorf("homomorphism %w", ErrBudget)
)

// checkInterval is how many steps pass between context polls. Steps are
// cheap (a pointer chase or two), so polling every 256 keeps expired
// contexts returning within microseconds without measurable overhead.
const checkInterval = 256

// B tracks one call's remaining budgets. It is safe for concurrent use.
type B struct {
	ctx        context.Context
	stepBound  bool
	homBound   bool
	track      bool
	steps      atomic.Int64
	homs       atomic.Int64
	sinceCheck atomic.Int64
	usedSteps  atomic.Int64
	usedHoms   atomic.Int64
}

// New builds a budget over ctx. maxSteps caps cheap work units, maxHoms
// caps homomorphism computations; zero or negative means unlimited. A nil
// ctx means context.Background().
func New(ctx context.Context, maxSteps, maxHoms int64) *B {
	if ctx == nil {
		ctx = context.Background()
	}
	b := &B{ctx: ctx}
	if maxSteps > 0 {
		b.stepBound = true
		b.steps.Store(maxSteps)
	}
	if maxHoms > 0 {
		b.homBound = true
		b.homs.Store(maxHoms)
	}
	return b
}

// EnableTracking turns on spend accounting: Step and Hom additionally
// accumulate how much was consumed, readable via Spent. Off by default
// so the untraced hot path pays only a predictable-false branch; must
// be called before the budget is shared with other goroutines.
func (b *B) EnableTracking() {
	if b != nil {
		b.track = true
	}
}

// Spent returns the work consumed so far. Zero until EnableTracking is
// called; safe to read while another goroutine is still charging.
func (b *B) Spent() (steps, homs int64) {
	if b == nil {
		return 0, 0
	}
	return b.usedSteps.Load(), b.usedHoms.Load()
}

// Step consumes n work units, returning ErrSteps when the step budget is
// exhausted and the context's error when it is done. It polls the context
// only every checkInterval units.
func (b *B) Step(n int) error {
	if b == nil {
		return nil
	}
	if b.track {
		b.usedSteps.Add(int64(n))
	}
	if b.stepBound && b.steps.Add(-int64(n)) < 0 {
		return ErrSteps
	}
	if b.sinceCheck.Add(int64(n)) >= checkInterval {
		b.sinceCheck.Store(0)
		if err := b.ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Hom consumes one homomorphism computation. Homomorphisms are chunky
// enough that the context is polled on every call.
func (b *B) Hom() error {
	if b == nil {
		return nil
	}
	if b.track {
		b.usedHoms.Add(1)
	}
	if err := b.ctx.Err(); err != nil {
		return err
	}
	if b.homBound && b.homs.Add(-1) < 0 {
		return ErrHoms
	}
	return nil
}

// CtxErr polls only the caller's context, never the budgets. The serving
// pipeline calls it at stage seams (parse→filter→select→refine→join→
// extract→collect) so a disconnected caller cancels the call promptly
// even when no work unit is charged between stages. Budget exhaustion is
// deliberately not reported here: a call that consumed exactly its step
// budget inside a stage must still complete.
func (b *B) CtxErr() error {
	if b == nil {
		return nil
	}
	return b.ctx.Err()
}

// Err polls the context and the budgets without consuming anything.
func (b *B) Err() error {
	if b == nil {
		return nil
	}
	if err := b.ctx.Err(); err != nil {
		return err
	}
	if b.stepBound && b.steps.Load() <= 0 {
		return ErrSteps
	}
	if b.homBound && b.homs.Load() <= 0 {
		return ErrHoms
	}
	return nil
}
