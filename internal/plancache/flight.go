package plancache

// Group is the cache's singleflight mechanism lifted out on its own: per-
// key coalescing of concurrent identical computations, with no storage of
// the result afterwards. The serving daemon uses it to extend the plan
// cache's thundering-herd protection from plans to *full answers* —
// identical in-flight queries from concurrent clients collapse onto one
// pipeline execution, and everyone shares the (immutable) result — while
// the answer itself is deliberately not retained: answers depend on the
// materialized fragments and would otherwise need the same generation
// bookkeeping as plans for no hit-rate benefit within one request's
// lifetime.

import "sync"

type flight struct {
	done chan struct{}
	val  any
	err  error
}

// Group coalesces concurrent calls with the same key. The zero value is
// ready to use.
type Group struct {
	mu      sync.Mutex
	flights map[string]*flight
}

// Do executes fn for key, coalescing concurrent callers: while one call
// for key is in flight, later Do calls with the same key wait for it and
// receive its value and error. shared reports that the result came from
// another goroutine's execution — a shared error may reflect the other
// caller's budget or cancellation, not this caller's, so callers that
// care should re-execute locally when err != nil && shared (mirroring
// Cache.GetOrCompute's contract).
func (g *Group) Do(key string, fn func() (any, error)) (v any, err error, shared bool) {
	g.mu.Lock()
	if g.flights == nil {
		g.flights = make(map[string]*flight)
	}
	if f, ok := g.flights[key]; ok {
		g.mu.Unlock()
		<-f.done
		return f.val, f.err, true
	}
	f := &flight{done: make(chan struct{})}
	g.flights[key] = f
	g.mu.Unlock()

	f.val, f.err = fn()

	g.mu.Lock()
	delete(g.flights, key)
	g.mu.Unlock()
	close(f.done)
	return f.val, f.err, false
}

// InFlight returns the number of distinct keys currently executing.
func (g *Group) InFlight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.flights)
}
