// Package plancache implements the serving layer's memoized query plans:
// a sharded cache keyed by query text, recency-ordered (LRU) within each
// shard behind a TinyLFU admission filter, with per-key singleflight and
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
// hash, word at a time, seeded per cache) and distributed over a
// power-of-two number of shards, each with its own mutex, hash map and
// intrusive LRU list, so concurrent lookups on different keys rarely
// contend.
//
// Admission: a plain LRU lets any run of new keys longer than a shard
// evict everything, so a cyclic scan wider than the cache hits never. A
// full shard therefore counts every lookup in a small frequency sketch
// (sketch.go), indexed by the hash bits shard selection does not use,
// and a new key takes the place of the shard's LRU victim only if the
// sketch saw it more often than the victim; otherwise it is refused
// (Stats.Rejected), its value serves only the call that computed it, and
// the victim moves to the front. A victim written under another
// generation is always replaced. A shard with room stores every key and
// feeds no sketch, so a cache that never fills pays one length compare
// per lookup for all of this.
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
	"math/bits"
	"sync"
)

// Stats reports what the cache did with the keys offered to it:
// Evictions (an admitted key took an LRU victim's place), Invalidations
// (keys dropped because they were written under an older generation) and
// Rejected (new keys refused at a full shard). Lookups are not counted
// here; the owner counts its own hits and misses.
type Stats struct {
	Evictions     uint64
	Invalidations uint64
	Rejected      uint64
}

// Cache is a sharded, generation-checked LRU with TinyLFU admission. The
// zero value is not usable; construct with New.
type Cache struct {
	shards  []shard
	flights Group
	seed    maphash.Seed
	mask    uint64
	// shardBits is log2(len(shards)): the low hash bits shard selection
	// uses, shifted off before the sketch sees the hash.
	shardBits uint
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
	c := &Cache{shards: make([]shard, n), seed: maphash.MakeSeed(), mask: uint64(n - 1),
		shardBits: uint(bits.TrailingZeros(uint(n))), perShard: per}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]*entry)
		c.shards[i].freq = newSketch(per)
	}
	return c
}

type entry struct {
	key string
	// hash is the key's sketch input.
	hash  uint64
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
	// freq counts lookups while the shard is full.
	freq  sketch
	stats Stats
}

// locate returns key's shard and its sketch input.
func (c *Cache) locate(key string) (*shard, uint64) {
	h := maphash.String(c.seed, key)
	return &c.shards[h&c.mask], h >> c.shardBits
}

// Get returns the cached value for key if present and written under gen.
// A present entry with a stale generation is dropped and counted as an
// invalidation. At a full shard the lookup is counted in the sketch,
// hit or miss.
func (c *Cache) Get(key string, gen uint64) (any, bool) {
	s, h := c.locate(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.entries) >= c.perShard {
		s.freq.add(h)
	}
	return s.get(key, gen)
}

// Put offers value for key under gen. A key already present is
// refreshed; a new key is stored if its shard has room, and at a full
// shard only in place of an LRU victim that is stale or that the sketch
// saw less often (see put).
func (c *Cache) Put(key string, gen uint64, value any) {
	s, h := c.locate(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.put(c.perShard, key, h, gen, value, offer)
}

// PutAlias stores value under alias, a second key for the value a
// GetOrCompute of key just computed, with the verdict key got: admitted
// (in place of the LRU victim if alias's shard is full, whatever the
// sketch says) if key holds an entry under gen, refused otherwise unless
// alias's shard has room. So a value that two keys name needs to win
// admission once, not twice.
func (c *Cache) PutAlias(alias, key string, gen uint64, value any) {
	ks, _ := c.locate(key)
	ks.mu.Lock()
	e, ok := ks.entries[key]
	verdict := refuse
	if ok && e.gen == gen {
		verdict = admit
	}
	ks.mu.Unlock()
	s, h := c.locate(alias)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.put(c.perShard, alias, h, gen, value, verdict)
}

// GetOrCompute returns the cached value for key, or computes it with fn.
// Concurrent callers missing on the same key coalesce: one runs fn, the
// rest wait. The computing caller's result is offered to the cache under
// gen (as by Put) only on success; a refused value is still returned.
// The lookup is counted in the sketch once, however many times the call
// looks.
//
// shared reports that the returned value or error came from another
// goroutine's computation. A shared error may reflect the other caller's
// budget or cancellation, not this caller's — callers that care should
// recompute locally (without coalescing) when err != nil && shared.
func (c *Cache) GetOrCompute(key string, gen uint64, fn func() (any, error)) (v any, err error, shared bool) {
	if v, ok := c.Get(key, gen); ok {
		return v, nil, false
	}
	s, h := c.locate(key)
	return c.flights.Do(key, func() (any, error) {
		s.mu.Lock()
		v, ok := s.get(key, gen)
		s.mu.Unlock()
		if ok {
			return v, nil // a leader stored it since our lookup
		}
		v, err := fn()
		if err == nil {
			s.mu.Lock()
			s.put(c.perShard, key, h, gen, v, offer)
			s.mu.Unlock()
		}
		return v, err
	})
}

// get looks key up without counting the lookup; the caller holds s.mu.
func (s *shard) get(key string, gen uint64) (any, bool) {
	e, ok := s.entries[key]
	if !ok {
		return nil, false
	}
	if e.gen != gen {
		s.remove(e)
		s.stats.Invalidations++
		return nil, false
	}
	s.moveToFront(e)
	return e.value, true
}

// A verdict tells put what to do with a new key at a full shard.
type verdict uint8

const (
	offer  verdict = iota // admit if the sketch saw it more often than the victim (see put)
	admit                 // replace the victim
	refuse                // leave the shard as it is
)

// put inserts or refreshes an entry, or refuses a new key; the caller
// holds s.mu. An offered key wins if it was looked
// up more often than the victim before the lookup that missed on it: the
// sketch has already counted that one, and the victim's next lookup may
// be just ahead. Compared as they stand, every key of a cycle wider than
// the shard would beat the LRU key by exactly that lookup, and the shard
// would be an LRU again.
func (s *shard) put(cap int, key string, h, gen uint64, value any, v verdict) {
	if e, ok := s.entries[key]; ok {
		e.gen = gen
		e.value = value
		s.moveToFront(e)
		return
	}
	if len(s.entries) >= cap {
		victim := s.tail
		switch {
		case victim.gen != gen:
			s.stats.Invalidations++
		case v == admit || v == offer && s.freq.estimate(h) > s.freq.estimate(victim.hash)+1:
			s.stats.Evictions++
		default:
			// The victim goes to the front, so one key whose estimate
			// collisions inflated cannot keep every newcomer out.
			s.moveToFront(victim)
			s.stats.Rejected++
			return
		}
		s.remove(victim)
	}
	e := &entry{key: key, hash: h, gen: gen, value: value}
	s.entries[key] = e
	s.pushFront(e)
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
		out.Evictions += s.stats.Evictions
		out.Invalidations += s.stats.Invalidations
		out.Rejected += s.stats.Rejected
		s.mu.Unlock()
	}
	return out
}
