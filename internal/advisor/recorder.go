// Package advisor closes the materialization loop the paper leaves
// open: §IV selects which *given* views answer one query, but never asks
// which views are worth materializing in the first place. The advisor
// observes the served workload (Recorder), generalizes the recorded
// queries into candidate view patterns (GenerateCandidates), and picks a
// set to materialize under a byte budget by estimated benefit against
// the §IV-B cost model (Advise) — the observe → advise → re-materialize
// loop of a self-tuning serving system.
package advisor

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"xpathviews/internal/pattern"
	"xpathviews/internal/storage"
	"xpathviews/internal/workload"
)

// Outcome classifies how the serving layer disposed of one query.
type Outcome uint8

const (
	// Answered: an equivalent view-based rewriting produced the result.
	Answered Outcome = iota
	// FellBack: the query was served, but not from views alone — direct
	// evaluation (BN/BF) or a contained/degraded rung.
	FellBack
	// BudgetExhausted: the call ran out of its step/hom budget.
	BudgetExhausted
	// Failed: any other failure (not answerable, internal error, ...).
	Failed

	numOutcomes
)

var outcomeNames = [...]string{"answered", "fellback", "budget", "failed"}

func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// QueryStat is the recorded tally for one distinct (canonicalized)
// query.
type QueryStat struct {
	Query  string
	Counts [numOutcomes]int
}

// Freq is the total number of recorded calls for the query.
func (s QueryStat) Freq() int {
	n := 0
	for _, c := range s.Counts {
		n += c
	}
	return n
}

// storeKeyPrefix namespaces recorder entries inside a shared store.
const storeKeyPrefix = "wl\x00"

// Recorder tallies served queries by canonical pattern string and
// outcome. It is safe for concurrent use and designed to sit on the
// serving hot path: when sampling is disabled (the default), Record is
// one atomic load; when enabled, one mutex acquisition plus a map
// update. With a backing store, every sampled record is persisted, so
// workloads survive restarts.
type Recorder struct {
	// every is the sampling period: 0 = disabled, 1 = every call,
	// n = one call in n.
	every atomic.Int64
	tick  atomic.Int64

	mu    sync.Mutex
	stats map[string]*QueryStat
	store *storage.Store
	// persistErrs counts store writes that failed; recording never fails
	// the serving call.
	persistErrs atomic.Int64
}

// NewRecorder creates a recorder. store may be nil (in-memory tallies
// only); otherwise previously persisted tallies are loaded, and every
// sampled record is written through. A store dedicated to one recorder
// can arm storage.SetAutoCompact so repeated tallies do not grow the log
// without bound.
func NewRecorder(store *storage.Store) (*Recorder, error) {
	r := &Recorder{stats: make(map[string]*QueryStat), store: store}
	if store == nil {
		return r, nil
	}
	for _, k := range store.Keys() {
		if !strings.HasPrefix(k, storeKeyPrefix) {
			continue
		}
		v, ok := store.Get([]byte(k))
		if !ok {
			continue
		}
		st := &QueryStat{Query: k[len(storeKeyPrefix):]}
		if err := decodeCounts(v, &st.Counts); err != nil {
			return nil, fmt.Errorf("advisor: corrupt workload entry %q: %w", st.Query, err)
		}
		r.stats[st.Query] = st
	}
	return r, nil
}

// SetSampling sets the sampling period: 0 disables recording, 1 records
// every call, n > 1 records one call in n.
func (r *Recorder) SetSampling(every int) {
	if every < 0 {
		every = 0
	}
	r.every.Store(int64(every))
}

// RecordPattern samples one served query. The pattern is canonicalized
// (String of the already-minimized pattern) only when this call is
// actually sampled, keeping the disabled/skipped path allocation-free.
func (r *Recorder) RecordPattern(q *pattern.Pattern, o Outcome) {
	every := r.every.Load()
	if every == 0 {
		return
	}
	if every > 1 && r.tick.Add(1)%every != 0 {
		return
	}
	r.record(q.String(), o)
}

// Record tallies a pre-canonicalized query string, bypassing sampling.
func (r *Recorder) Record(query string, o Outcome) { r.record(query, o) }

func (r *Recorder) record(query string, o Outcome) {
	if int(o) >= int(numOutcomes) {
		o = Failed
	}
	r.mu.Lock()
	st, ok := r.stats[query]
	if !ok {
		st = &QueryStat{Query: query}
		r.stats[query] = st
	}
	st.Counts[o]++
	var enc []byte
	if r.store != nil {
		enc = encodeCounts(st.Counts)
	}
	r.mu.Unlock()
	if enc != nil {
		if err := r.store.Put([]byte(storeKeyPrefix+query), enc); err != nil {
			r.persistErrs.Add(1)
		}
	}
}

// Len returns the number of distinct recorded queries.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.stats)
}

// PersistErrors reports how many store writes failed (entries stay
// tallied in memory regardless).
func (r *Recorder) PersistErrors() int64 { return r.persistErrs.Load() }

// Snapshot returns the tallies sorted by frequency (descending, ties by
// query string), safe to use while recording continues.
func (r *Recorder) Snapshot() []QueryStat {
	r.mu.Lock()
	out := make([]QueryStat, 0, len(r.stats))
	for _, st := range r.stats {
		out = append(out, *st)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		fi, fj := out[i].Freq(), out[j].Freq()
		if fi != fj {
			return fi > fj
		}
		return out[i].Query < out[j].Query
	})
	return out
}

// Reset drops all tallies, including persisted ones.
func (r *Recorder) Reset() {
	r.mu.Lock()
	queries := make([]string, 0, len(r.stats))
	for q := range r.stats {
		queries = append(queries, q)
	}
	r.stats = make(map[string]*QueryStat)
	r.mu.Unlock()
	if r.store != nil {
		for _, q := range queries {
			if err := r.store.Delete([]byte(storeKeyPrefix + q)); err != nil {
				r.persistErrs.Add(1)
			}
		}
	}
}

func encodeCounts(c [numOutcomes]int) []byte {
	return []byte(fmt.Sprintf("%d %d %d %d", c[0], c[1], c[2], c[3]))
}

func decodeCounts(b []byte, c *[numOutcomes]int) error {
	n, err := fmt.Sscanf(string(b), "%d %d %d %d", &c[0], &c[1], &c[2], &c[3])
	if err != nil || n != int(numOutcomes) {
		return fmt.Errorf("bad counts %q", b)
	}
	return nil
}

// StatsFromEntries converts workload-file entries into advisor stats;
// the file carries only frequencies, so every count lands on FellBack
// (the "needs a view" bucket).
func StatsFromEntries(entries []workload.Entry) []QueryStat {
	out := make([]QueryStat, 0, len(entries))
	for _, e := range entries {
		st := QueryStat{Query: e.Query}
		f := e.Freq
		if f < 1 {
			f = 1
		}
		st.Counts[FellBack] = f
		out = append(out, st)
	}
	return out
}

// EntriesFromStats converts tallies back to workload-file entries
// (outcome detail is dropped; frequency survives).
func EntriesFromStats(stats []QueryStat) []workload.Entry {
	out := make([]workload.Entry, 0, len(stats))
	for _, s := range stats {
		out = append(out, workload.Entry{Freq: s.Freq(), Query: s.Query})
	}
	return out
}
