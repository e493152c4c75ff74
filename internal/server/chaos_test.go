package server

// Chaos under pressure: fault injection (internal/faults) combined with
// admission-level overload. The daemon must degrade through the
// pressured rung chain in order — HV → contained → BN — as each rung's
// machinery is broken, keep answering the whole time, recover to the
// healthy path once faults clear, and expose every shed in telemetry.

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"xpathviews/internal/faults"
	"xpathviews/internal/paperdata"
	"xpathviews/internal/telemetry"
)

// pressuredServer returns a server plus a release function such that the
// next admitted request grades Pressured (3 of 4 slots held).
func pressuredServer(t *testing.T, reg *telemetry.Registry) (*Server, func()) {
	t.Helper()
	// Table I plus a view identical to the running example: the contained
	// rung needs a view whose answers are contained in the query's, which
	// none of the four paper views provides for Q_e on its own.
	views := append(paperdata.TableIViews(), paperdata.QueryE)
	srv := newBookServer(t, Config{MaxInFlight: 4, PressuredFrac: 0.5, Metrics: reg},
		TenantConfig{Views: views})
	var releases []func()
	for i := 0; i < 3; i++ {
		release, _, err := srv.adm.acquire(context.Background(), srv.Tenant(DefaultTenant))
		if err != nil {
			t.Fatal(err)
		}
		releases = append(releases, release)
	}
	return srv, func() {
		for _, r := range releases {
			r()
		}
	}
}

func TestChaosDegradesThroughRungsInOrder(t *testing.T) {
	defer faults.DisarmAll()
	reg := telemetry.NewRegistry()
	srv, relieve := pressuredServer(t, reg)
	body := fmt.Sprintf(`{"query": %q}`, paperdata.QueryE)

	ask := func(wantRung string, wantDegraded bool) {
		t.Helper()
		// Invalidate the plan cache (any view mutation bumps the plan
		// generation) so each ask exercises the full pipeline rather than
		// replaying the plan cached before the fault was armed.
		sys := srv.Tenant(DefaultTenant).System()
		id, err := sys.AddView("//s/f", 0)
		if err != nil {
			t.Fatal(err)
		}
		sys.RemoveView(id)
		rr, qr := postQuery(t, srv.Handler(), body)
		if rr.Code != http.StatusOK {
			t.Fatalf("status = %d, body %s", rr.Code, rr.Body.String())
		}
		if len(qr.Answers) == 0 {
			t.Fatalf("rung %s served no answers", qr.Rung)
		}
		if qr.Rung != wantRung {
			t.Fatalf("rung = %q (reasons %v), want %q", qr.Rung, qr.DegradedReasons, wantRung)
		}
		if qr.Degraded != wantDegraded {
			t.Fatalf("degraded = %v (rung %s, reasons %v), want %v",
				qr.Degraded, qr.Rung, qr.DegradedReasons, wantDegraded)
		}
	}

	// Pressured but fault-free: the cheap chain's first rung answers.
	ask("HV", false)

	// Break heuristic selection → the chain falls to contained rewriting.
	faults.Arm("selection.heuristic", faults.Error)
	ask("contained", true)

	// Break contained rewriting too → down to direct navigation. The
	// pressured chain never tries the exact-minimum rung (MV): it was
	// shed from the chain, not merely skipped.
	faults.Arm("rewrite.contained", faults.Error)
	ask("BN", true)

	// Panics degrade the same way errors do.
	faults.DisarmAll()
	faults.Arm("selection.heuristic", faults.Panic)
	ask("contained", true)

	// Faults clear while still pressured: back to the top of the chain.
	faults.DisarmAll()
	ask("HV", false)

	// Pressure clears: healthy serving, full chain, same answer.
	relieve()
	rr, qr := postQuery(t, srv.Handler(), body)
	if rr.Code != http.StatusOK || qr.Pressure != "healthy" || qr.Rung != "HV" {
		t.Fatalf("recovery: status %d pressure %q rung %q", rr.Code, qr.Pressure, qr.Rung)
	}
}

func TestChaosOverloadShedCountersVisible(t *testing.T) {
	defer faults.DisarmAll()
	reg := telemetry.NewRegistry()
	srv := newBookServer(t, Config{MaxInFlight: 1, QueueDepth: -1, Metrics: reg},
		TenantConfig{MaxInFlight: 2})
	faults.Arm("selection.heuristic", faults.Error)

	// Saturate the process slot, then overload from both scopes.
	release, _, err := srv.adm.acquire(context.Background(), srv.Tenant(DefaultTenant))
	if err != nil {
		t.Fatal(err)
	}
	rr, _ := postQuery(t, srv.Handler(), `{"query": "//s/p"}`)
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("process overload: status = %d, want 503", rr.Code)
	}
	// Second tenant slot is free but the process is full — still 503; the
	// tenant cap itself trips only when the tenant limit is the binding one.
	release()
	rel1, _, err := srv.adm.acquire(context.Background(), srv.Tenant(DefaultTenant))
	if err != nil {
		t.Fatal(err)
	}
	rel2v := srv.Tenant(DefaultTenant).inflight.Add(1) // simulate a second tenant-held slot
	_ = rel2v
	rr, _ = postQuery(t, srv.Handler(), `{"query": "//s/p"}`)
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("tenant overload: status = %d, want 429", rr.Code)
	}
	srv.Tenant(DefaultTenant).inflight.Add(-1)
	rel1()

	// Recovery: the same query answers (degraded by the armed fault).
	rr, qr := postQuery(t, srv.Handler(), fmt.Sprintf(`{"query": %q}`, paperdata.QueryE))
	if rr.Code != http.StatusOK || !qr.Degraded {
		t.Fatalf("recovery under faults: status %d degraded %v rung %s", rr.Code, qr.Degraded, qr.Rung)
	}

	// Every shed and degradation is visible in the exposition.
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`xpvd_shed_total{tenant="default",reason="queue_full"} 1`,
		`xpvd_shed_total{tenant="default",reason="tenant_limit"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition lacks %q:\n%s", want, text)
		}
	}
}
