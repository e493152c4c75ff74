package plancache_test

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xpathviews/internal/plancache"
)

func TestGetPut(t *testing.T) {
	c := plancache.New(64, 4)
	if _, ok := c.Get("a", 1); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", 1, "plan-a")
	v, ok := c.Get("a", 1)
	if !ok || v.(string) != "plan-a" {
		t.Fatalf("Get = %v, %v", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestGenerationInvalidates(t *testing.T) {
	c := plancache.New(64, 4)
	c.Put("a", 1, "old")
	if _, ok := c.Get("a", 2); ok {
		t.Fatal("stale-generation entry served")
	}
	if st := c.Stats(); st.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", st.Invalidations)
	}
	// The stale entry must be gone, not resurrectable at the old gen.
	if _, ok := c.Get("a", 1); ok {
		t.Fatal("stale entry survived its invalidation")
	}
}

func TestLRUEviction(t *testing.T) {
	// One shard so the LRU order is global and deterministic.
	c := plancache.New(2, 1)
	if c.NumShards() != 1 {
		t.Fatalf("NumShards = %d", c.NumShards())
	}
	c.Put("a", 1, 1)
	c.Put("b", 1, 2)
	c.Get("a", 1) // a is now MRU
	c.Put("c", 1, 3)
	if _, ok := c.Get("b", 1); ok {
		t.Fatal("LRU victim b survived")
	}
	if _, ok := c.Get("a", 1); !ok {
		t.Fatal("recently used a evicted")
	}
	if _, ok := c.Get("c", 1); !ok {
		t.Fatal("fresh c evicted")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
}

func TestShardRounding(t *testing.T) {
	if got := plancache.New(0, 5).NumShards(); got != 8 {
		t.Fatalf("shards for 5 = %d, want 8", got)
	}
	if got := plancache.New(0, 16).NumShards(); got != 16 {
		t.Fatalf("shards for 16 = %d, want 16", got)
	}
}

func TestSingleflightCoalesces(t *testing.T) {
	c := plancache.New(64, 4)
	var computes atomic.Int64
	gate := make(chan struct{})
	const waiters = 16
	var wg sync.WaitGroup
	results := make([]any, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err, _ := c.GetOrCompute("hot", 1, func() (any, error) {
				computes.Add(1)
				<-gate
				return "plan", nil
			})
			if err != nil {
				t.Errorf("GetOrCompute: %v", err)
			}
			results[i] = v
		}(i)
	}
	// Let the herd pile up, then release the single computation.
	for computes.Load() == 0 {
	}
	close(gate)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("computed %d times, want 1", got)
	}
	for i, v := range results {
		if v.(string) != "plan" {
			t.Fatalf("waiter %d got %v", i, v)
		}
	}
	// The plan must now be cached.
	if _, ok := c.Get("hot", 1); !ok {
		t.Fatal("computed plan not cached")
	}
}

func TestSingleflightErrorNotCached(t *testing.T) {
	c := plancache.New(64, 4)
	boom := errors.New("boom")
	_, err, shared := c.GetOrCompute("k", 1, func() (any, error) { return nil, boom })
	if !errors.Is(err, boom) || shared {
		t.Fatalf("err=%v shared=%v", err, shared)
	}
	if _, ok := c.Get("k", 1); ok {
		t.Fatal("failed computation was cached")
	}
}

func TestSharedErrorReported(t *testing.T) {
	c := plancache.New(64, 4)
	boom := errors.New("boom")
	gate := make(chan struct{})
	started := make(chan struct{})
	go func() {
		c.GetOrCompute("k", 1, func() (any, error) {
			close(started)
			<-gate
			return nil, boom
		})
	}()
	<-started
	done := make(chan struct{})
	entered := make(chan struct{})
	var sharedErr error
	var shared bool
	go func() {
		defer close(done)
		close(entered)
		_, sharedErr, shared = c.GetOrCompute("k", 1, func() (any, error) {
			t.Error("waiter must not compute")
			return nil, nil
		})
	}()
	// Give the waiter time to reach the in-flight coalescing point before
	// the leader finishes; if it somehow doesn't, its fn fires t.Error.
	<-entered
	time.Sleep(20 * time.Millisecond)
	close(gate)
	<-done
	if !errors.Is(sharedErr, boom) || !shared {
		t.Fatalf("waiter got err=%v shared=%v, want boom/true", sharedErr, shared)
	}
}

func TestConcurrentMixedKeys(t *testing.T) {
	c := plancache.New(128, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("q%d", i%50)
				gen := uint64(1 + i/250) // generation flips mid-run
				v, err, _ := c.GetOrCompute(key, gen, func() (any, error) {
					return key, nil
				})
				if err != nil || v.(string) != key {
					t.Errorf("got %v, %v", v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 128 {
		t.Fatalf("cache over capacity: %d", c.Len())
	}
}
