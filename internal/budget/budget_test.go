package budget_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"xpathviews/internal/budget"
)

func TestNilBudgetIsUnlimited(t *testing.T) {
	var b *budget.B
	for i := 0; i < 10000; i++ {
		if err := b.Step(1); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Hom(); err != nil {
		t.Fatal(err)
	}
	if err := b.CtxErr(); err != nil {
		t.Fatal(err)
	}
	if steps, homs := b.Spent(); steps != 0 || homs != 0 {
		t.Fatalf("nil Spent = %d, %d", steps, homs)
	}
	b.Mark()
	if d := b.Lap(budget.Refine); d != 0 {
		t.Fatalf("nil Lap = %d", d)
	}
	if d := b.Nanos(budget.Refine); d != 0 {
		t.Fatalf("nil Nanos = %d", d)
	}
}

func TestStepBudget(t *testing.T) {
	b := budget.New(context.Background(), 10, 0)
	for i := 0; i < 10; i++ {
		if err := b.Step(1); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	err := b.Step(1)
	if !errors.Is(err, budget.ErrBudget) || !errors.Is(err, budget.ErrSteps) {
		t.Fatalf("exhausted step budget returned %v", err)
	}
	if err := b.Step(1); !errors.Is(err, budget.ErrSteps) {
		t.Fatalf("Step after exhaustion = %v", err)
	}
	if err := b.CtxErr(); err != nil {
		t.Fatalf("CtxErr reported budget exhaustion: %v", err)
	}
}

func TestHomBudget(t *testing.T) {
	b := budget.New(context.Background(), 0, 2)
	if err := b.Hom(); err != nil {
		t.Fatal(err)
	}
	if err := b.Hom(); err != nil {
		t.Fatal(err)
	}
	if err := b.Hom(); !errors.Is(err, budget.ErrHoms) {
		t.Fatalf("exhausted hom budget returned %v", err)
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	b := budget.New(ctx, 0, 0)
	cancel()
	// Steps poll the context periodically: within one check interval the
	// cancellation must surface.
	var err error
	for i := 0; i < 1024 && err == nil; i++ {
		err = b.Step(1)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context not observed: %v", err)
	}
	if err := b.CtxErr(); !errors.Is(err, context.Canceled) {
		t.Fatalf("CtxErr = %v", err)
	}
	if err := b.Hom(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Hom = %v", err)
	}
}

func TestBigStepExhaustsAtOnce(t *testing.T) {
	b := budget.New(context.Background(), 100, 0)
	if err := b.Step(1000); !errors.Is(err, budget.ErrSteps) {
		t.Fatalf("oversized step returned %v", err)
	}
}

// charge runs a fixed mix of charges against b and returns the first
// error.
func charge(b *budget.B) error {
	for i := 1; i <= 40; i++ {
		if err := b.Step(i % 7); err != nil {
			return err
		}
		if i%5 == 0 {
			if err := b.Hom(); err != nil {
				return err
			}
		}
	}
	return nil
}

// TestSpentExact: Spent counts every charge with no opt-in, on bounded
// and unbounded meters alike, and keeps counting the charge that
// exhausted a budget and those after it.
func TestSpentExact(t *testing.T) {
	const wantSteps, wantHoms = 120, 8 // sum of i%7, count of multiples of 5, over 1..40
	for _, caps := range [][2]int64{{0, 0}, {1000, 1000}, {wantSteps, wantHoms}} {
		b := budget.New(context.Background(), caps[0], caps[1])
		if err := charge(b); err != nil {
			t.Fatalf("caps %v: %v", caps, err)
		}
		if steps, homs := b.Spent(); steps != wantSteps || homs != wantHoms {
			t.Fatalf("caps %v: Spent = %d, %d, want %d, %d", caps, steps, homs, wantSteps, wantHoms)
		}
	}
	b := budget.New(context.Background(), 3, 1)
	if err := b.Step(5); !errors.Is(err, budget.ErrSteps) {
		t.Fatalf("Step(5) under cap 3 = %v", err)
	}
	b.Step(2)
	b.Hom()
	if err := b.Hom(); !errors.Is(err, budget.ErrHoms) {
		t.Fatalf("second Hom under cap 1 = %v", err)
	}
	if steps, homs := b.Spent(); steps != 7 || homs != 2 {
		t.Fatalf("Spent after exhaustion = %d, %d, want 7, 2", steps, homs)
	}
}

// TestCapAtSpend: with the spend S of an unbounded run, every cap below S
// fails with the matching error and the cap S itself succeeds, for steps
// and for homomorphisms.
func TestCapAtSpend(t *testing.T) {
	free := budget.New(context.Background(), 0, 0)
	if err := charge(free); err != nil {
		t.Fatal(err)
	}
	steps, homs := free.Spent()
	for c := int64(1); c < steps; c++ {
		if err := charge(budget.New(context.Background(), c, 0)); !errors.Is(err, budget.ErrSteps) {
			t.Fatalf("step cap %d < %d: %v", c, steps, err)
		}
	}
	for c := int64(1); c < homs; c++ {
		if err := charge(budget.New(context.Background(), 0, c)); !errors.Is(err, budget.ErrHoms) {
			t.Fatalf("hom cap %d < %d: %v", c, homs, err)
		}
	}
	if err := charge(budget.New(context.Background(), steps, homs)); err != nil {
		t.Fatalf("caps equal to the spend (%d, %d): %v", steps, homs, err)
	}
}

// TestStageSlots: laps charge the time since the previous Mark or Lap to
// their stage, laps into one stage add up, and untouched stages stay 0.
func TestStageSlots(t *testing.T) {
	b := budget.New(context.Background(), 0, 0)
	b.Mark()
	time.Sleep(time.Millisecond)
	first := b.Lap(budget.Join)
	time.Sleep(time.Millisecond)
	second := b.Lap(budget.Join)
	extract := b.Lap(budget.Extract)
	if first < int64(time.Millisecond) || second < int64(time.Millisecond) {
		t.Fatalf("laps %d, %d shorter than the sleeps", first, second)
	}
	if got := b.Nanos(budget.Join); got != first+second {
		t.Fatalf("Join = %d, want %d + %d", got, first, second)
	}
	if got := b.Nanos(budget.Extract); got != extract || extract < 0 {
		t.Fatalf("Extract = %d, lap returned %d", got, extract)
	}
	for _, s := range []budget.Stage{budget.Parse, budget.Filter, budget.Select, budget.Refine} {
		if got := b.Nanos(s); got != 0 {
			t.Fatalf("untimed stage %d = %d", s, got)
		}
	}
	// Mark restarts the clock: time before it belongs to no stage.
	time.Sleep(20 * time.Millisecond)
	b.Mark()
	if d := b.Lap(budget.Parse); d >= int64(20*time.Millisecond) {
		t.Fatalf("lap after Mark charged %d, including time before the Mark", d)
	}
}
