package server

// Tenancy: each tenant owns its own view registry (a private
// xpathviews.System over the shared document) plus the quotas the
// admission controller enforces — maximum in-flight requests, per-call
// step/homomorphism budgets, a per-call timeout, and a byte budget that
// caps how much fragment storage the tenant's materialized views may
// occupy. The byte budget is checked at admission time (before a view
// materializes, and before ApplyAdvice runs), per Chebotko & Fu's
// observation that view-storage cost must be bounded up front, not
// discovered at OOM time.

import (
	"fmt"
	"sync/atomic"
	"time"

	"xpathviews"
	"xpathviews/internal/telemetry"
	"xpathviews/internal/xmltree"
)

// DefaultTenant is the tenant name used when a request names none.
const DefaultTenant = "default"

// TenantConfig declares one tenant's view set and quotas. The zero value
// of every quota means "no limit".
type TenantConfig struct {
	// Name identifies the tenant in requests (JSON "tenant" field or the
	// X-Xpv-Tenant header) and in metric labels.
	Name string `json:"name"`
	// Views are materialized at tenant construction, in order, under
	// FragmentLimit and MaxViewBytes.
	Views []string `json:"views,omitempty"`
	// FragmentLimit caps one view's materialized bytes (0 = the paper's
	// 128 KB default).
	FragmentLimit int `json:"fragment_limit,omitempty"`
	// MaxViewBytes caps the tenant's *total* materialized bytes across
	// all views — the byte budget AddView and ApplyAdvice are admitted
	// against (0 = unlimited).
	MaxViewBytes int `json:"max_view_bytes,omitempty"`
	// MaxInFlight caps the tenant's concurrent queries; excess requests
	// are rejected with 429 + Retry-After (0 = only the process cap).
	MaxInFlight int `json:"max_in_flight,omitempty"`
	// MaxSteps / MaxHoms are the per-call pipeline budgets (see
	// xpathviews.Options); 0 = unlimited.
	MaxSteps int64 `json:"max_steps,omitempty"`
	MaxHoms  int   `json:"max_homs,omitempty"`
	// TimeoutMS bounds each call with a deadline, in milliseconds
	// (0 = none). A request's own timeout_ms may only shorten it.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// SLOAvailability overrides the server's availability objective for
	// this tenant, e.g. 0.999 (0 = the server default, see
	// Config.SLO.Availability).
	SLOAvailability float64 `json:"slo_availability,omitempty"`
	// SLOLatencyMS overrides the latency threshold (ms) a served request
	// must beat to count toward the latency objective (0 = the server
	// default).
	SLOLatencyMS int64 `json:"slo_latency_ms,omitempty"`
}

// timeout returns the configured per-call deadline as a duration.
func (c TenantConfig) timeout() time.Duration {
	return time.Duration(c.TimeoutMS) * time.Millisecond
}

// Tenant is one tenant's serving state: its private view registry and
// the live counters admission reads.
type Tenant struct {
	cfg TenantConfig
	sys *xpathviews.System

	inflight atomic.Int64

	// Pre-resolved per-tenant instruments (nil-safe when metrics off).
	reqs        *telemetry.Counter   // xpvd_tenant_requests_total{tenant=...}
	queueWaitNs *telemetry.Histogram // xpvd_queue_wait_ns{tenant=...}
	reqNs       *telemetry.Histogram // xpvd_tenant_request_ns{tenant=...} (exemplared)
	// shedNames maps each shed reason to its
	// xpvd_shed_total{tenant=...,reason=...} name. The counter is
	// registered at the reason's first shed, so the exposition lists
	// only the reasons a tenant was shed for.
	shedNames map[string]string

	// slo is the tenant's burn-rate watchdog (see slo.go); burning
	// mirrors its last verdict so state flips are edge-detected.
	slo     *sloTracker
	burning atomic.Bool
}

// SLOStatus returns the tenant's current burn-rate verdict.
func (t *Tenant) SLOStatus() SLOStatus { return t.slo.Status() }

// NewTenant builds a tenant over doc: a fresh System (own view registry,
// own plan cache) with the configured views materialized under the
// tenant's byte budget. Metrics and the slow-query log are wired by
// Server construction, not here.
func NewTenant(cfg TenantConfig, doc *xmltree.Tree) (*Tenant, error) {
	if cfg.Name == "" {
		cfg.Name = DefaultTenant
	}
	sys, err := xpathviews.Open(doc)
	if err != nil {
		return nil, fmt.Errorf("server: tenant %q: %w", cfg.Name, err)
	}
	t := &Tenant{cfg: cfg, sys: sys}
	for _, v := range cfg.Views {
		if err := t.AddView(v); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Name returns the tenant's name.
func (t *Tenant) Name() string { return t.cfg.Name }

// System exposes the tenant's private serving system.
func (t *Tenant) System() *xpathviews.System { return t.sys }

// InFlight returns the tenant's current concurrent-query count.
func (t *Tenant) InFlight() int64 { return t.inflight.Load() }

// fragmentLimit resolves the per-view byte cap.
func (t *Tenant) fragmentLimit() int {
	if t.cfg.FragmentLimit > 0 {
		return t.cfg.FragmentLimit
	}
	return xpathviews.DefaultFragmentLimit
}

// AddView materializes one view for the tenant, enforcing MaxViewBytes:
// a view whose addition would push the tenant's total materialized bytes
// over budget is rolled back and rejected.
func (t *Tenant) AddView(src string) error {
	id, err := t.sys.AddView(src, t.fragmentLimit())
	if err != nil {
		return fmt.Errorf("server: tenant %q view %q: %w", t.cfg.Name, src, err)
	}
	if b := t.cfg.MaxViewBytes; b > 0 {
		if got := t.sys.Registry().TotalBytes(); got > b {
			t.sys.RemoveView(id)
			return fmt.Errorf("server: tenant %q view %q: view byte budget exceeded (%d > %d)",
				t.cfg.Name, src, got, b)
		}
	}
	return nil
}

// ApplyAdvice materializes an advisor's view set for the tenant under
// the same byte budget AddView enforces: the advice is admitted only if
// the projected bytes fit, and rolled back entirely if materialization
// lands over budget anyway (projection is an estimate).
func (t *Tenant) ApplyAdvice(adv *xpathviews.Advice) ([]int, error) {
	ids, err := t.sys.ApplyAdvice(adv)
	if err != nil {
		return nil, fmt.Errorf("server: tenant %q: %w", t.cfg.Name, err)
	}
	if b := t.cfg.MaxViewBytes; b > 0 {
		if got := t.sys.Registry().TotalBytes(); got > b {
			for _, id := range ids {
				t.sys.RemoveView(id)
			}
			return nil, fmt.Errorf("server: tenant %q: advice exceeds view byte budget (%d > %d)",
				t.cfg.Name, got, b)
		}
	}
	return ids, nil
}
