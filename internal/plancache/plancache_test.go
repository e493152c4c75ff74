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
	if st := c.Stats(); st != (plancache.Stats{}) {
		t.Fatalf("stats = %+v, want none: a shard with room evicts and refuses nothing", st)
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

// lookup reads key the way the serving layer does, computing and
// offering it on a miss, and reports whether it hit.
func lookup(c *plancache.Cache, key string) bool {
	hit := true
	c.GetOrCompute(key, 1, func() (any, error) { hit = false; return key, nil })
	return hit
}

func TestAdmissionCyclicScan(t *testing.T) {
	// One shard so the scan competes for one LRU. A plain LRU hits never
	// on a cycle twice its size; admission keeps about half the keys.
	const capacity = 64
	c := plancache.New(capacity, 1)
	keys := make([]string, 2*capacity)
	for i := range keys {
		keys[i] = fmt.Sprintf("cycle-%d", i)
	}
	for _, k := range keys {
		lookup(c, k) // warm-up cycle
	}
	hits, calls := 0, 0
	for round := 0; round < 8; round++ {
		for _, k := range keys {
			if lookup(c, k) {
				hits++
			}
			calls++
		}
	}
	share := float64(hits) / float64(calls)
	t.Logf("cyclic scan hit share %.3f", share)
	if share < 0.4 {
		t.Fatalf("cyclic scan hit share %.3f, want >= 0.4", share)
	}
	if c.Len() > capacity {
		t.Fatalf("Len = %d over capacity %d", c.Len(), capacity)
	}
	if st := c.Stats(); st.Rejected == 0 {
		t.Fatalf("stats = %+v: the scan's newcomers were never refused", st)
	}
}

func TestAdmissionHotSetSurvivesScan(t *testing.T) {
	// A hot set read once between bursts of twice the capacity in new
	// keys: a plain LRU loses all of it to every burst.
	const capacity = 64
	c := plancache.New(capacity, 1)
	hot := make([]string, capacity/4)
	for i := range hot {
		hot[i] = fmt.Sprintf("hot-%d", i)
	}
	for i := 0; i < capacity; i++ {
		lookup(c, fmt.Sprintf("fill-%d", i))
	}
	for round := 0; round < 4; round++ {
		for _, k := range hot {
			lookup(c, k)
		}
	}
	scan := 0
	for burst := 0; burst < 5; burst++ {
		for _, k := range hot {
			lookup(c, k)
		}
		for i := 0; i < 2*capacity; i++ {
			lookup(c, fmt.Sprintf("scan-%d", scan))
			scan++
		}
	}
	if scan != 10*capacity {
		t.Fatalf("scanned %d keys", scan)
	}
	for _, k := range hot {
		if _, ok := c.Get(k, 1); !ok {
			t.Fatalf("hot key %s lost to a one-pass scan of %d new keys (stats %+v)", k, scan, c.Stats())
		}
	}
}

func TestAdmissionRepeatingKey(t *testing.T) {
	// The shard's keys were each read twice; a new key that keeps coming
	// back outgrows them within a few touches.
	const capacity, maxTouches = 64, 8
	c := plancache.New(capacity, 1)
	for round := 0; round < 3; round++ {
		for i := 0; i < capacity; i++ {
			lookup(c, fmt.Sprintf("old-%d", i))
		}
	}
	for touch := 1; ; touch++ {
		if lookup(c, "newcomer") {
			if touch == 2 {
				t.Fatalf("newcomer admitted on its first touch against keys read twice")
			}
			t.Logf("newcomer stored after %d touches", touch-1)
			break
		}
		if touch > maxTouches {
			t.Fatalf("newcomer not admitted within %d touches (stats %+v)", maxTouches, c.Stats())
		}
	}
}

func TestAdmissionStaleVictimReplaced(t *testing.T) {
	const capacity = 4
	c := plancache.New(capacity, 1)
	for round := 0; round < 10; round++ {
		for i := 0; i < capacity; i++ {
			lookup(c, fmt.Sprintf("old-%d", i))
		}
	}
	// A never-seen key at a newer generation beats any frequency: the
	// victim was written under a view set that no longer exists.
	for i := 0; i < capacity; i++ {
		key := fmt.Sprintf("new-%d", i)
		c.Put(key, 2, key)
	}
	st := c.Stats()
	if st.Invalidations != capacity || st.Rejected != 0 || st.Evictions != 0 {
		t.Fatalf("stats = %+v, want %d invalidations and nothing else", st, capacity)
	}
	for i := 0; i < capacity; i++ {
		if _, ok := c.Get(fmt.Sprintf("new-%d", i), 2); !ok {
			t.Fatalf("new-%d missing", i)
		}
	}
}

func TestPutAliasSharesVerdict(t *testing.T) {
	const capacity = 4
	c := plancache.New(capacity, 1)
	for round := 0; round < 10; round++ {
		for i := 0; i < capacity; i++ {
			lookup(c, fmt.Sprintf("old-%d", i))
		}
	}
	// key is refused (seen once against keys seen ten times), so its
	// alias is refused too.
	if lookup(c, "key") {
		t.Fatal("key hit before it was stored")
	}
	c.PutAlias("alias", "key", 1, "key")
	if st := c.Stats(); st.Rejected != 2 || st.Evictions != 0 {
		t.Fatalf("stats = %+v, want key and alias refused", st)
	}
	// key2 earns its place; its alias, never looked up, then takes an
	// old key's place too, where on its own it would be refused.
	for touch := 0; !lookup(c, "key2"); touch++ {
		if touch == 40 {
			t.Fatal("key2 never admitted")
		}
	}
	before := c.Stats()
	c.PutAlias("alias2", "key2", 1, "key2")
	if after := c.Stats(); after.Evictions != before.Evictions+1 || after.Rejected != before.Rejected {
		t.Fatalf("stats %+v → %+v, want alias2 admitted in place of an old key", before, after)
	}
	for _, k := range []string{"key2", "alias2"} {
		if _, ok := c.Get(k, 1); !ok {
			t.Fatalf("%s missing", k)
		}
	}
}

func TestGetHitAllocs(t *testing.T) {
	const capacity = 8
	for _, full := range []bool{false, true} {
		c := plancache.New(capacity, 1)
		n := capacity / 2
		if full {
			n = capacity
		}
		for i := 0; i < n; i++ {
			lookup(c, fmt.Sprintf("k%d", i))
		}
		if allocs := testing.AllocsPerRun(100, func() {
			if _, ok := c.Get("k1", 1); !ok {
				t.Fatal("k1 missing")
			}
		}); allocs != 0 {
			t.Fatalf("full=%v: a Get hit allocates %.1f times", full, allocs)
		}
	}
}

func TestShardRounding(t *testing.T) {
	if got := plancache.NumShards(plancache.New(0, 5)); got != 8 {
		t.Fatalf("shards for 5 = %d, want 8", got)
	}
	if got := plancache.NumShards(plancache.New(0, 16)); got != 16 {
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
	// 400 keys over 8 shards of 16 fill every shard, so the goroutines
	// race on the sketch and on admission, not just on the LRU.
	c := plancache.New(128, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				key := fmt.Sprintf("q%d", (i*7+g)%400)
				gen := uint64(1 + i/500) // generation flips mid-run
				switch i % 4 {
				case 0:
					if v, ok := c.Get(key, gen); ok && v.(string) != key {
						t.Errorf("Get(%s) = %v", key, v)
						return
					}
				case 1:
					c.Put(key, gen, key)
				case 2:
					c.PutAlias(key+"-alias", key, gen, key)
				default:
					v, err, _ := c.GetOrCompute(key, gen, func() (any, error) {
						return key, nil
					})
					if err != nil || v.(string) != key {
						t.Errorf("got %v, %v", v, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 128 {
		t.Fatalf("cache over capacity: %d", c.Len())
	}
}
