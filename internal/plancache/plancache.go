// Package plancache implements the serving layer's memoized query plans:
// a sharded LRU keyed by query text, with per-key singleflight and
// generation-based lazy invalidation.
//
// The cache exploits the observation behind Mandhani & Suciu's cached-
// view scenario (the paper's [19]): real XPath
// workloads are highly repetitive, so the expensive query-dependent but
// data-independent work — parsing, VFILTER filtering (§III) and view
// selection (§IV) — is worth computing once and replaying. Values are
// opaque to this package; the serving layer stores its plan structs.
//
// Sharding: keys are hashed with hash/maphash (the runtime's string
// hash, word at a time) and distributed over a power-of-two number of
// shards, each with its own mutex, hash map and intrusive LRU list, so
// concurrent lookups on different keys rarely contend.
//
// Singleflight: when many goroutines miss on the same key at once (a
// thundering herd on a cold popular query), one of them computes the
// plan while the rest wait for the result; the expensive selection runs
// once, not N times.
//
// Invalidation is lazy and generational: the owner bumps a generation
// counter whenever the view set changes, and entries written under an
// older generation are treated as misses (and dropped) on their next
// touch. Nothing is eagerly scanned on mutation.
package plancache

import (
	"hash/maphash"
	"sync"
)

// Stats reports cache effectiveness counters. Hits and Misses count
// lookups, GetOrCompute's included.
type Stats struct {
	Hits          uint64
	Misses        uint64
	Evictions     uint64
	Invalidations uint64
}

// Cache is a sharded, generation-checked LRU. The zero value is not
// usable; construct with New.
type Cache struct {
	shards  []shard
	flights Group
	seed    maphash.Seed
	mask    uint64
	// perShard is each shard's entry capacity.
	perShard int
}

// DefaultCapacity is the total entry capacity used when New is given a
// non-positive capacity: enough for a large hot query set while bounding
// retained selections.
const DefaultCapacity = 1024

// New builds a cache holding at most capacity entries spread over
// nshards shards. nshards is rounded up to a power of two; non-positive
// values pick a default suited to moderate core counts. capacity <= 0
// means DefaultCapacity.
func New(capacity, nshards int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if nshards <= 0 {
		nshards = 16
	}
	n := 1
	for n < nshards {
		n <<= 1
	}
	per := (capacity + n - 1) / n
	if per < 1 {
		per = 1
	}
	c := &Cache{shards: make([]shard, n), seed: maphash.MakeSeed(), mask: uint64(n - 1), perShard: per}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]*entry)
	}
	return c
}

type entry struct {
	key   string
	gen   uint64
	value any
	// Intrusive LRU links within the shard; nil at list ends.
	prev, next *entry
}

type shard struct {
	mu      sync.Mutex
	entries map[string]*entry
	// head is the most recently used entry, tail the least.
	head, tail *entry
	stats      Stats
}

func (c *Cache) shardFor(key string) *shard {
	return &c.shards[maphash.String(c.seed, key)&c.mask]
}

// Get returns the cached value for key if present and written under gen.
// A present entry with a stale generation is dropped and counted as an
// invalidation (and a miss).
func (c *Cache) Get(key string, gen uint64) (any, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok {
		s.stats.Misses++
		return nil, false
	}
	if e.gen != gen {
		s.remove(e)
		s.stats.Invalidations++
		s.stats.Misses++
		return nil, false
	}
	s.moveToFront(e)
	s.stats.Hits++
	v := e.value // copy under the lock: remove may nil it out after
	return v, true
}

// Put stores value for key under gen, evicting the shard's LRU entry
// when the shard is full.
func (c *Cache) Put(key string, gen uint64, value any) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.put(c.perShard, key, gen, value)
}

// GetOrCompute returns the cached value for key, or computes it with fn.
// Concurrent callers missing on the same key coalesce: one runs fn, the
// rest wait. The computing caller's result is cached under gen only on
// success.
//
// shared reports that the returned value or error came from another
// goroutine's computation. A shared error may reflect the other caller's
// budget or cancellation, not this caller's — callers that care should
// recompute locally (without coalescing) when err != nil && shared.
func (c *Cache) GetOrCompute(key string, gen uint64, fn func() (any, error)) (v any, err error, shared bool) {
	if v, ok := c.Get(key, gen); ok {
		return v, nil, false
	}
	return c.flights.Do(key, func() (any, error) {
		if v, ok := c.Get(key, gen); ok {
			return v, nil // a leader stored it since our lookup
		}
		v, err := fn()
		if err == nil {
			c.Put(key, gen, v)
		}
		return v, err
	})
}

// put inserts or refreshes an entry; the caller holds s.mu.
func (s *shard) put(cap int, key string, gen uint64, value any) {
	if e, ok := s.entries[key]; ok {
		e.gen = gen
		e.value = value
		s.moveToFront(e)
		return
	}
	e := &entry{key: key, gen: gen, value: value}
	s.entries[key] = e
	s.pushFront(e)
	for len(s.entries) > cap {
		victim := s.tail
		if victim == nil {
			break
		}
		s.remove(victim)
		s.stats.Evictions++
	}
}

func (s *shard) pushFront(e *entry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *shard) moveToFront(e *entry) {
	if s.head == e {
		return
	}
	// Unlink.
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	if s.tail == e {
		s.tail = e.prev
	}
	s.pushFront(e)
}

// remove unlinks and deletes an entry; the caller holds s.mu.
func (s *shard) remove(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if s.head == e {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if s.tail == e {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
	e.value = nil
	delete(s.entries, e.key)
}

// Len returns the number of live entries (stale ones included until
// their next touch).
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// Stats sums the per-shard counters.
func (c *Cache) Stats() Stats {
	var out Stats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		out.Hits += s.stats.Hits
		out.Misses += s.stats.Misses
		out.Evictions += s.stats.Evictions
		out.Invalidations += s.stats.Invalidations
		s.mu.Unlock()
	}
	return out
}

// NumShards reports the rounded shard count (for tests).
func (c *Cache) NumShards() int { return len(c.shards) }
