package server

// Admission control: every query passes through here before any pipeline
// work runs. Two limits compose — a per-tenant in-flight cap (cheap
// atomic, rejects with 429 so one tenant cannot starve the rest) and a
// process-wide concurrency semaphore with a bounded wait queue (rejects
// with 503 + Retry-After once the queue is full or the wait deadline
// passes). The controller also grades the process's pressure level at
// admit time; the shedding policy (shed.go) maps that level onto the
// AnswerResilient rung chain.

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"xpathviews/internal/telemetry"
)

// Pressure is the process load level graded at admission time.
type Pressure int32

const (
	// Healthy: occupancy below the pressured threshold — serve the full
	// pipeline (default fallback chain, full budgets).
	Healthy Pressure = iota
	// Pressured: occupancy above the threshold or requests queueing —
	// serve through the cheaper rung chain with reduced budgets.
	Pressured
	// Saturated: the request was not admitted at all (queue full, wait
	// deadline passed, or draining) — fast-fail with 503.
	Saturated
)

var pressureNames = [...]string{"healthy", "pressured", "saturated"}

func (p Pressure) String() string {
	if int(p) < len(pressureNames) {
		return pressureNames[p]
	}
	return fmt.Sprintf("Pressure(%d)", int(p))
}

// Shed reasons, used as metric labels and ShedError.Reason values.
const (
	ShedTenantLimit  = "tenant_limit"
	ShedQueueFull    = "queue_full"
	ShedQueueTimeout = "queue_timeout"
	ShedDraining     = "draining"
)

// ShedError reports a request rejected by admission control. Scope
// "tenant" maps to HTTP 429 (the caller exceeded its own quota), scope
// "process" to 503 (the whole daemon is saturated or draining); both
// carry a Retry-After hint.
type ShedError struct {
	Reason     string // ShedTenantLimit | ShedQueueFull | ShedQueueTimeout | ShedDraining
	Scope      string // "tenant" | "process"
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("server: request shed (%s, retry after %v)", e.Reason, e.RetryAfter)
}

// admission is the process-wide controller.
type admission struct {
	sem         chan struct{} // buffered to capacity; len() is the occupancy
	capacity    int
	queueDepth  int64         // waiters allowed beyond capacity
	queueWait   time.Duration // max time a queued request waits
	pressuredAt int64         // occupancy above which admits grade Pressured
	waiting     atomic.Int64
	draining    atomic.Bool

	// forcePressured, when set by the SLO watchdog, grades every admit
	// Pressured regardless of occupancy — sustained burn pre-emptively
	// sheds onto the cheap rung chain.
	forcePressured atomic.Bool

	// waitEWMA smooths observed queue waits (ns) — granted and timed-out
	// alike — and feeds the Retry-After heuristic: a congested queue
	// tells callers to back off for longer than the nominal queue wait.
	waitEWMA atomic.Int64

	queueWaitNs *telemetry.Histogram // xpvd_queue_wait_ns (nil-safe)
}

func newAdmission(capacity int, queueDepth int, queueWait time.Duration, pressuredFrac float64) *admission {
	if capacity < 1 {
		capacity = 1
	}
	if queueDepth < 0 {
		queueDepth = 0
	}
	if queueWait <= 0 {
		queueWait = 100 * time.Millisecond
	}
	if pressuredFrac <= 0 || pressuredFrac > 1 {
		pressuredFrac = 0.75
	}
	at := int64(pressuredFrac * float64(capacity))
	if at < 1 {
		at = 1
	}
	if at >= int64(capacity) {
		at = int64(capacity) - 1 // full occupancy always grades Pressured
	}
	return &admission{
		sem:         make(chan struct{}, capacity),
		capacity:    capacity,
		queueDepth:  int64(queueDepth),
		queueWait:   queueWait,
		pressuredAt: at,
	}
}

// noteWait folds one observed queue wait — granted or timed out — into
// the smoothed estimate (EWMA, α = 1/4).
func (a *admission) noteWait(w time.Duration) {
	for {
		old := a.waitEWMA.Load()
		next := old + (int64(w)-old)/4
		if a.waitEWMA.CompareAndSwap(old, next) {
			return
		}
	}
}

// retryAfter suggests how long a shed caller should back off: the
// nominal queue wait plus the smoothed wait actually being observed, so
// the hint grows with congestion instead of lying about it. The HTTP
// header renders at a second's granularity; the JSON body carries the
// full value.
func (a *admission) retryAfter() time.Duration {
	ra := a.queueWait
	if w := time.Duration(a.waitEWMA.Load()); w > 0 {
		ra += w
	}
	return ra
}

// acquire admits one request for tenant t, blocking in the bounded queue
// when the process is at capacity. On success it returns the release
// function and the pressure grade the request should be served under; on
// rejection it returns a *ShedError (or the context's error if the
// caller vanished while queued).
func (a *admission) acquire(ctx context.Context, t *Tenant) (release func(), pr Pressure, err error) {
	if a.draining.Load() {
		return nil, Saturated, &ShedError{Reason: ShedDraining, Scope: "process", RetryAfter: a.retryAfter()}
	}
	// Per-tenant cap first: it is the cheap check, and a tenant over its
	// own quota must not occupy a process slot or queue position.
	if max := int64(t.cfg.MaxInFlight); max > 0 {
		if t.inflight.Add(1) > max {
			t.inflight.Add(-1)
			return nil, Saturated, &ShedError{Reason: ShedTenantLimit, Scope: "tenant", RetryAfter: a.retryAfter()}
		}
	} else {
		t.inflight.Add(1)
	}
	releaseTenant := func() { t.inflight.Add(-1) }

	queued := false
	select {
	case a.sem <- struct{}{}:
	default:
		// At capacity: queue if there is room, shed otherwise.
		if a.waiting.Add(1) > a.queueDepth {
			a.waiting.Add(-1)
			releaseTenant()
			return nil, Saturated, &ShedError{Reason: ShedQueueFull, Scope: "process", RetryAfter: a.retryAfter()}
		}
		queued = true
		t0 := time.Now()
		timer := time.NewTimer(a.queueWait)
		// The wait between enqueue and outcome is recorded on EVERY exit —
		// grant, timeout, caller gone — so the wait histograms and the
		// Retry-After heuristic see the congestion that shed requests
		// experienced, not just the waits that ended happily.
		recordWait := func() {
			w := time.Since(t0)
			a.noteWait(w)
			a.queueWaitNs.Observe(int64(w))
			t.queueWaitNs.Observe(int64(w))
		}
		select {
		case a.sem <- struct{}{}:
			timer.Stop()
			a.waiting.Add(-1)
			recordWait()
		case <-timer.C:
			a.waiting.Add(-1)
			recordWait()
			releaseTenant()
			return nil, Saturated, &ShedError{Reason: ShedQueueTimeout, Scope: "process", RetryAfter: a.retryAfter()}
		case <-ctx.Done():
			timer.Stop()
			a.waiting.Add(-1)
			recordWait()
			releaseTenant()
			return nil, Saturated, ctx.Err()
		}
	}
	// Drain may have begun while this request queued; admitted-but-
	// draining work is handed back so the drain deadline stays honest.
	if a.draining.Load() {
		<-a.sem
		releaseTenant()
		return nil, Saturated, &ShedError{Reason: ShedDraining, Scope: "process", RetryAfter: a.retryAfter()}
	}
	pr = Healthy
	if queued || int64(len(a.sem)) > a.pressuredAt || a.waiting.Load() > 0 ||
		a.forcePressured.Load() {
		pr = Pressured
	}
	return func() { <-a.sem; releaseTenant() }, pr, nil
}

// inflight is the current process-wide occupancy.
func (a *admission) inflight() int64 { return int64(len(a.sem)) }

// idle reports that no request is running or queued.
func (a *admission) idle() bool { return len(a.sem) == 0 && a.waiting.Load() == 0 }
