// Package budget provides the per-call meter of the answering pipeline:
// cooperative cancellation, resource budgets and the call's stage clock.
// A *B is threaded through the traversal and enumeration loops of
// engine, vfilter, selection and rewrite; each loop reports progress via
// Step (cheap work units) or Hom (homomorphism computations, the cost
// driver of §IV) and aborts with a typed error when the caller's context
// is done or a budget is exhausted. The serving layer brackets each
// stage with Mark and Lap, so the meter also holds the call's per-stage
// wall times.
//
// A nil *B is valid everywhere and means "unlimited, uncancellable,
// untimed" — legacy entry points pass nil so the hot paths stay
// check-free.
//
// A B belongs to one call and is charged from that call's goroutine
// only: its fields are plain, and it is not safe for concurrent use.
// Sharing one across goroutines is a data race.
package budget

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"
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

// epoch anchors the stage clock: time.Since reads only the monotonic
// clock, which is all a stage's duration needs.
var epoch = time.Now()

// Stage names one timed pipeline stage.
type Stage uint8

// The timed stages, in pipeline order: parsing with minimization, §III
// filtering, §IV selection, and §V's refinement, join and extraction.
const (
	Parse Stage = iota
	Filter
	Select
	Refine
	Join
	Extract
	numStages
)

// B is one call's meter: its remaining budgets and its stage clock.
type B struct {
	ctx context.Context
	// maxSteps/maxHoms are the starting caps (math.MaxInt64 when
	// unlimited) and steps/homs what remains of them, so the spend is
	// their difference. A charge that crosses zero still counts.
	maxSteps, maxHoms int64
	steps, homs       int64
	untilPoll         int           // steps left before the next context poll
	mark              time.Duration // stage clock reading, since epoch
	nanos             [numStages]int64
}

// New builds a meter over ctx (see Reset).
func New(ctx context.Context, maxSteps, maxHoms int64) *B {
	b := new(B)
	b.Reset(ctx, maxSteps, maxHoms)
	return b
}

// Reset starts b afresh over ctx, in place. maxSteps caps cheap work
// units, maxHoms caps homomorphism computations; zero or negative means
// unlimited. A nil ctx means context.Background().
func (b *B) Reset(ctx context.Context, maxSteps, maxHoms int64) {
	if ctx == nil {
		ctx = context.Background()
	}
	if maxSteps <= 0 {
		maxSteps = math.MaxInt64
	}
	if maxHoms <= 0 {
		maxHoms = math.MaxInt64
	}
	b.ctx, b.maxSteps, b.maxHoms, b.steps, b.homs = ctx, maxSteps, maxHoms, maxSteps, maxHoms
	b.untilPoll, b.mark, b.nanos = checkInterval, 0, [numStages]int64{}
}

// Spent returns the work charged so far, including a charge that
// exhausted a budget.
func (b *B) Spent() (steps, homs int64) {
	if b == nil {
		return 0, 0
	}
	return b.maxSteps - b.steps, b.maxHoms - b.homs
}

// Step consumes n work units, returning ErrSteps when the step budget is
// exhausted and the context's error when it is done. It polls the context
// only every checkInterval units.
func (b *B) Step(n int) error {
	if b == nil {
		return nil
	}
	if b.steps -= int64(n); b.steps < 0 {
		return ErrSteps
	}
	if b.untilPoll -= n; b.untilPoll <= 0 {
		b.untilPoll = checkInterval
		return b.ctx.Err()
	}
	return nil
}

// Hom consumes one homomorphism computation. Homomorphisms are chunky
// enough that the context is polled on every call.
func (b *B) Hom() error {
	if b == nil {
		return nil
	}
	b.homs--
	if err := b.ctx.Err(); err != nil {
		return err
	}
	if b.homs < 0 {
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

// Mark starts the stage clock: the next Lap charges the time from here.
func (b *B) Mark() {
	if b != nil {
		b.mark = time.Since(epoch)
	}
}

// Lap charges the time since the last Mark or Lap to stage s and returns
// it; the clock keeps running, so adjacent stages share one clock read.
// Laps into the same stage add up. A Lap must follow a Mark.
func (b *B) Lap(s Stage) int64 {
	if b == nil {
		return 0
	}
	now := time.Since(epoch)
	d := int64(now - b.mark)
	b.nanos[s] += d
	b.mark = now
	return d
}

// Nanos returns the wall time charged to stage s.
func (b *B) Nanos(s Stage) int64 {
	if b == nil {
		return 0
	}
	return b.nanos[s]
}
