package budget_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

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
	if err := b.Err(); err != nil {
		t.Fatal(err)
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
	if err := b.Err(); !errors.Is(err, budget.ErrBudget) {
		t.Fatalf("Err after exhaustion = %v", err)
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
	if err := b.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err = %v", err)
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

// TestConcurrentStepExactness shares one budget across goroutines and
// verifies the cap is exact: the number of
// successful unit debits equals the configured budget.
func TestConcurrentStepExactness(t *testing.T) {
	const cap = 10_000
	b := budget.New(context.Background(), cap, cap)
	var ok, okHoms atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < cap; i++ {
				if b.Step(1) == nil {
					ok.Add(1)
				}
				if b.Hom() == nil {
					okHoms.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if got := ok.Load(); got != cap {
		t.Fatalf("successful steps = %d, want exactly %d", got, cap)
	}
	if got := okHoms.Load(); got != cap {
		t.Fatalf("successful homs = %d, want exactly %d", got, cap)
	}
}
