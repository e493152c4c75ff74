package rewrite

// Parallel execution of the rewriting pipeline's parallel stages. §V's
// refinement ("pushing selection") treats each selected view
// independently, and extraction treats each joined Δ-fragment
// independently, so both fan out across a bounded worker pool: one
// worker per view (refinement) or a pool striding over fragments
// (extraction). The holistic join splits in two: the arena build stays
// the single loser-tree merge scan the paper designed to be linear,
// while the per-fragment embeds — independent by construction — fan out
// over Dewey-prefix partitions (see joinParallel in join.go).
//
// Correctness under concurrency: the shared budget charges atomically
// (internal/budget), fragment trees are pre-numbered at materialization
// (Tree.Ord is read-only afterwards), and patterns are never mutated by
// matching. Workers write only their own refinedView slot or answer
// slot, so merged results are deterministic and identical to the
// sequential path's.

import (
	"runtime"
	"sync"
	"sync/atomic"

	"xpathviews/internal/budget"
	"xpathviews/internal/pattern"
	"xpathviews/internal/selection"
)

// Options tunes one Execute call.
type Options struct {
	// MaxWorkers caps the refinement/join/extraction worker pools. 0
	// means min(GOMAXPROCS, work items); 1 forces the sequential path
	// (useful for differential testing and single-core deployments).
	MaxWorkers int
	// Plan, when non-nil, supplies a precomputed join skeleton for
	// exactly this call's (pattern, covers) pair — the serving layer
	// caches one per query plan. The first call through a Plan leaves the
	// Δ-list of stages 1–3 on it; later calls, while no covered view's
	// Gen has moved, go straight to extraction (Result.Memo). A
	// mismatched or nil Plan is recomputed on the fly and remembers
	// nothing, so passing it is purely an optimization.
	Plan *JoinPlan
}

// workersFor resolves the worker count for n independent work items.
func (o Options) workersFor(n int) int {
	w := o.MaxWorkers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// refineAll runs stage 1+2 for every cover, with workers goroutines when
// workers > 1. It reports empty=true when some view refined to zero
// fragments (the rewriting's answer is empty); on a parallel run the
// discovering worker flips a cooperative stop flag so sibling workers
// abandon their remaining fragments early. All workers are joined before
// returning, so the caller may release the refined scratch safely.
func refineAll(q *pattern.Pattern, covers []*selection.Cover, refined []refinedView, b *budget.B, workers int) (empty bool, err error) {
	if workers <= 1 || len(covers) == 1 {
		for i, c := range covers {
			if err := refineView(q, c, &refined[i], b, nil); err != nil {
				return false, err
			}
			if len(refined[i].frags) == 0 {
				return true, nil
			}
		}
		return false, nil
	}

	var (
		wg       sync.WaitGroup
		stop     atomic.Bool
		gotEmpty atomic.Bool
		errSlot  atomic.Pointer[error]
	)
	next := atomic.Int64{}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(covers) {
					return
				}
				if stop.Load() {
					continue // drain remaining indexes cheaply
				}
				if e := refineView(q, covers[i], &refined[i], b, &stop); e != nil {
					p := new(error)
					*p = e
					if errSlot.CompareAndSwap(nil, p) {
						stop.Store(true)
					}
					continue
				}
				if !stop.Load() && len(refined[i].frags) == 0 {
					gotEmpty.Store(true)
					stop.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	if p := errSlot.Load(); p != nil {
		return false, *p
	}
	if gotEmpty.Load() {
		return true, nil
	}
	// A worker cancelled by the stop flag may have left a view partially
	// refined; without an error or an empty view the flag is never set,
	// so reaching here means every view was fully refined.
	return false, nil
}
