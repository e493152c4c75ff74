package telemetry

// Slow-query log: a fixed-capacity ring buffer of the most recent
// queries whose total latency crossed a configurable threshold. The
// per-call cost while disabled (threshold 0) is one atomic load; the
// ring's mutex is taken only for queries that are already slow, so it
// never contends on the fast path.

import (
	"sync"
	"sync/atomic"
	"time"
)

// SlowQuery is one logged slow call, carrying the same stage accounting
// the Result exposes so a slow entry is diagnosable without re-running
// the query under a tracer.
type SlowQuery struct {
	// Time is when the call finished.
	Time time.Time `json:"time"`
	// Query is the query's source text (or the minimized pattern's
	// rendering when the call was pattern-based).
	Query string `json:"query"`
	// Tenant names the tenant whose system served the call ("" for
	// unlabeled library use). Stamped by the ring's label (SetLabel).
	Tenant string `json:"tenant,omitempty"`
	// TraceID is the W3C trace ID the call ran under ("" when the
	// request carried none), joining the entry to an exported trace.
	TraceID string `json:"trace_id,omitempty"`
	// Strategy names the answering strategy; Rung is set for resilient
	// calls.
	Strategy string `json:"strategy"`
	Rung     string `json:"rung,omitempty"`
	// Err is the failure, if the call failed.
	Err string `json:"err,omitempty"`
	// CacheHit reports that the call served from a cached plan.
	CacheHit bool `json:"cache_hit"`
	// Memo reports that the rewrite returned the plan's remembered
	// answers (view strategies only).
	Memo bool `json:"memo,omitempty"`
	// Views lists the IDs of the materialized views the rewriting
	// joined (empty for non-view strategies and failed calls) — a slow
	// entry names the exact views whose fragments were on the floor.
	Views []int `json:"views,omitempty"`
	// Total and the per-stage durations mirror the Result's *Nanos
	// fields.
	Total   time.Duration `json:"total"`
	Parse   time.Duration `json:"parse"`
	Filter  time.Duration `json:"filter"`
	Select  time.Duration `json:"select"`
	Rewrite time.Duration `json:"rewrite"`
}

// SlowLog is the ring. The zero value is unusable; build with
// NewSlowLog. A nil *SlowLog is a no-op.
type SlowLog struct {
	threshold atomic.Int64 // ns; 0 = disabled
	label     atomic.Value // string: tenant stamped on every entry

	mu   sync.Mutex
	buf  []SlowQuery
	next int // ring write cursor
	full bool
}

// DefaultSlowLogCapacity is the ring size used by the serving layer.
const DefaultSlowLogCapacity = 128

// NewSlowLog builds a ring holding the last capacity entries
// (non-positive capacity picks DefaultSlowLogCapacity).
func NewSlowLog(capacity int) *SlowLog {
	if capacity <= 0 {
		capacity = DefaultSlowLogCapacity
	}
	return &SlowLog{buf: make([]SlowQuery, capacity)}
}

// SetThreshold arms the log: calls whose total latency is >= d get
// recorded. d <= 0 disables logging.
func (l *SlowLog) SetThreshold(d time.Duration) {
	if l == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	l.threshold.Store(int64(d))
}

// Threshold returns the current threshold (0 = disabled).
func (l *SlowLog) Threshold() time.Duration {
	if l == nil {
		return 0
	}
	return time.Duration(l.threshold.Load())
}

// SetLabel stamps every subsequently recorded entry with a tenant name
// (entries that already carry one keep it).
func (l *SlowLog) SetLabel(tenant string) {
	if l == nil {
		return
	}
	l.label.Store(tenant)
}

// Label returns the ring's tenant stamp ("" when unset).
func (l *SlowLog) Label() string {
	if l == nil {
		return ""
	}
	if v, ok := l.label.Load().(string); ok {
		return v
	}
	return ""
}

// Record appends one entry, overwriting the oldest when full. Callers
// check Threshold first; Record itself does not filter.
func (l *SlowLog) Record(e SlowQuery) {
	if l == nil {
		return
	}
	if e.Tenant == "" {
		if v, ok := l.label.Load().(string); ok {
			e.Tenant = v
		}
	}
	l.mu.Lock()
	l.buf[l.next] = e
	l.next++
	if l.next == len(l.buf) {
		l.next = 0
		l.full = true
	}
	l.mu.Unlock()
}

// Snapshot returns the retained entries, oldest first.
func (l *SlowLog) Snapshot() []SlowQuery {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.full {
		out := make([]SlowQuery, l.next)
		copy(out, l.buf[:l.next])
		return out
	}
	out := make([]SlowQuery, 0, len(l.buf))
	out = append(out, l.buf[l.next:]...)
	out = append(out, l.buf[:l.next]...)
	return out
}
