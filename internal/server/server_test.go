package server

// White-box tests for the daemon core: tenancy and quotas, admission
// control, pressure-mapped shedding, answer coalescing, the HTTP
// surface, and the error taxonomy. Saturation is created by holding
// admission slots directly (not by racing slow queries), so every
// assertion is deterministic.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"xpathviews"
	"xpathviews/internal/advisor"
	"xpathviews/internal/paperdata"
	"xpathviews/internal/telemetry"
)

// newBookServer builds a server over the paper's running example with
// the Table I views on the default tenant.
func newBookServer(t *testing.T, cfg Config, tcfg TenantConfig) *Server {
	t.Helper()
	if tcfg.Name == "" {
		tcfg.Name = DefaultTenant
	}
	if tcfg.Views == nil {
		tcfg.Views = paperdata.TableIViews()
	}
	if cfg.Metrics == nil {
		cfg.Metrics = telemetry.NewRegistry()
	}
	ten, err := NewTenant(tcfg, paperdata.BookTree())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(cfg, []*Tenant{ten})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func postQuery(t *testing.T, h http.Handler, body string) (*httptest.ResponseRecorder, queryResponse) {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/query", strings.NewReader(body))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	var qr queryResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &qr); err != nil && rr.Code == http.StatusOK {
		t.Fatalf("bad response body %q: %v", rr.Body.String(), err)
	}
	return rr, qr
}

func TestQuerySingle(t *testing.T) {
	srv := newBookServer(t, Config{}, TenantConfig{})
	rr, qr := postQuery(t, srv.Handler(), fmt.Sprintf(`{"query": %q}`, paperdata.QueryE))
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rr.Code, rr.Body.String())
	}
	if len(qr.Answers) == 0 {
		t.Fatal("no answers for the running example")
	}
	if qr.Rung != "HV" {
		t.Fatalf("rung = %q, want HV on a healthy server with Table I views", qr.Rung)
	}
	if qr.Pressure != "healthy" {
		t.Fatalf("pressure = %q, want healthy", qr.Pressure)
	}
	if qr.Degraded {
		t.Fatalf("degraded = true on a healthy server: %v", qr.DegradedReasons)
	}
}

func TestQueryFixedStrategyAndXML(t *testing.T) {
	srv := newBookServer(t, Config{}, TenantConfig{})
	body := fmt.Sprintf(`{"query": %q, "strategy": "BN", "include_xml": true}`, paperdata.QueryE)
	rr, qr := postQuery(t, srv.Handler(), body)
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rr.Code, rr.Body.String())
	}
	if qr.Rung != "BN" {
		t.Fatalf("rung = %q, want BN for a fixed strategy", qr.Rung)
	}
	if len(qr.XML) != len(qr.Answers) || len(qr.XML) == 0 {
		t.Fatalf("xml = %d entries for %d answers", len(qr.XML), len(qr.Answers))
	}
	if !strings.Contains(qr.XML[0], "<p") {
		t.Fatalf("xml[0] = %q, want a <p> subtree", qr.XML[0])
	}
}

func TestQueryBatch(t *testing.T) {
	srv := newBookServer(t, Config{}, TenantConfig{})
	body := fmt.Sprintf(`{"queries": [%q, "//s/p", "//zzz"]}`, paperdata.QueryE)
	req := httptest.NewRequest("POST", "/v1/query", strings.NewReader(body))
	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rr.Code, rr.Body.String())
	}
	var br batchResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &br); err != nil {
		t.Fatal(err)
	}
	if br.Tenant != DefaultTenant || len(br.Results) != 3 {
		t.Fatalf("batch = tenant %q, %d results", br.Tenant, len(br.Results))
	}
	if br.Results[0].Status != http.StatusOK || len(br.Results[0].Answers) == 0 {
		t.Fatalf("batch[0] = %+v", br.Results[0])
	}
	// //zzz matches nothing but is still answerable: empty result, 200.
	if br.Results[2].Status != http.StatusOK || len(br.Results[2].Answers) != 0 {
		t.Fatalf("batch[2] = %+v", br.Results[2])
	}
}

func TestQueryErrors(t *testing.T) {
	srv := newBookServer(t, Config{}, TenantConfig{})
	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"bad json", `{"query": `, http.StatusBadRequest},
		{"no query", `{}`, http.StatusBadRequest},
		{"both forms", `{"query": "//a", "queries": ["//b"]}`, http.StatusBadRequest},
		{"unknown tenant", `{"query": "//a", "tenant": "nobody"}`, http.StatusNotFound},
		{"bad strategy", `{"query": "//a", "strategy": "XX"}`, http.StatusBadRequest},
		{"unparsable query", `{"query": "//["}`, http.StatusInternalServerError},
	} {
		rr, _ := postQuery(t, srv.Handler(), tc.body)
		if rr.Code != tc.want {
			t.Errorf("%s: status = %d, want %d (body %s)", tc.name, rr.Code, tc.want, rr.Body.String())
		}
	}
}

func TestTenantHeaderResolution(t *testing.T) {
	reg := telemetry.NewRegistry()
	doc := paperdata.BookTree()
	ta, _ := NewTenant(TenantConfig{Name: "alpha", Views: paperdata.TableIViews()}, doc)
	tb, _ := NewTenant(TenantConfig{Name: "beta"}, doc)
	srv, err := New(Config{Metrics: reg}, []*Tenant{ta, tb})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/v1/query",
		strings.NewReader(fmt.Sprintf(`{"query": %q}`, paperdata.QueryE)))
	req.Header.Set("X-Xpv-Tenant", "beta")
	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, req)
	var qr queryResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &qr); err != nil {
		t.Fatal(err)
	}
	// beta has no views: resilient serving still answers, off the views.
	if rr.Code != http.StatusOK || len(qr.Answers) == 0 {
		t.Fatalf("status = %d, %d answers", rr.Code, len(qr.Answers))
	}
	if qr.Rung == "HV" && !qr.Degraded {
		t.Fatalf("viewless tenant answered rung %q undegraded", qr.Rung)
	}
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `xpvd_tenant_requests_total{tenant="beta"} 1`) {
		t.Fatalf("no per-tenant request counter in exposition:\n%s", sb.String())
	}
}

func TestTenantInFlightCap(t *testing.T) {
	srv := newBookServer(t, Config{MaxInFlight: 8}, TenantConfig{MaxInFlight: 1})
	ten := srv.Tenant(DefaultTenant)
	// Occupy the tenant's single slot directly.
	release, _, err := srv.adm.acquire(context.Background(), ten)
	if err != nil {
		t.Fatal(err)
	}
	rr, _ := postQuery(t, srv.Handler(), `{"query": "//s/p"}`)
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", rr.Code)
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	release()
	rr, _ = postQuery(t, srv.Handler(), `{"query": "//s/p"}`)
	if rr.Code != http.StatusOK {
		t.Fatalf("status after release = %d, want 200", rr.Code)
	}
}

func TestProcessSaturationShedsWith503(t *testing.T) {
	srv := newBookServer(t, Config{MaxInFlight: 1, QueueDepth: -1, QueueWait: 5 * time.Millisecond},
		TenantConfig{})
	// QueueDepth -1 normalizes to 0: no queue, immediate shed at capacity.
	ten := srv.Tenant(DefaultTenant)
	release, _, err := srv.adm.acquire(context.Background(), ten)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	rr, _ := postQuery(t, srv.Handler(), `{"query": "//s/p"}`)
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", rr.Code)
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	var er errorResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &er); err != nil || er.Error == "" {
		t.Fatalf("shed body = %q (%v)", rr.Body.String(), err)
	}
}

func TestQueueTimeoutSheds(t *testing.T) {
	srv := newBookServer(t, Config{MaxInFlight: 1, QueueDepth: 4, QueueWait: 5 * time.Millisecond},
		TenantConfig{})
	ten := srv.Tenant(DefaultTenant)
	release, _, err := srv.adm.acquire(context.Background(), ten)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	start := time.Now()
	rr, _ := postQuery(t, srv.Handler(), `{"query": "//s/p"}`)
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 after queue timeout", rr.Code)
	}
	if time.Since(start) < 5*time.Millisecond {
		t.Fatal("shed before the queue wait elapsed")
	}
}

func TestPressuredRequestsServeCheapChain(t *testing.T) {
	srv := newBookServer(t, Config{MaxInFlight: 4, PressuredFrac: 0.5}, TenantConfig{})
	ten := srv.Tenant(DefaultTenant)
	// Hold 3 of 4 slots: occupancy 3 > pressuredAt 2, next admit grades
	// Pressured.
	var releases []func()
	for i := 0; i < 3; i++ {
		release, _, err := srv.adm.acquire(context.Background(), ten)
		if err != nil {
			t.Fatal(err)
		}
		releases = append(releases, release)
	}
	rr, qr := postQuery(t, srv.Handler(), fmt.Sprintf(`{"query": %q}`, paperdata.QueryE))
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rr.Code, rr.Body.String())
	}
	if qr.Pressure != "pressured" {
		t.Fatalf("pressure = %q, want pressured at occupancy 3/4", qr.Pressure)
	}
	// The cheap chain still answers off the views here (HV is its first
	// rung), but the response records the degraded serving mode.
	if len(qr.Answers) == 0 {
		t.Fatal("pressured request lost its answers")
	}
	for _, release := range releases {
		release()
	}
	rr, qr = postQuery(t, srv.Handler(), fmt.Sprintf(`{"query": %q}`, paperdata.QueryE))
	if qr.Pressure != "healthy" || rr.Code != http.StatusOK {
		t.Fatalf("after release: pressure = %q, status = %d", qr.Pressure, rr.Code)
	}
}

func TestOptionsForPressureHalvesBudgets(t *testing.T) {
	ten, err := NewTenant(TenantConfig{Name: "q", MaxSteps: 1000, MaxHoms: 40, TimeoutMS: 200},
		paperdata.BookTree())
	if err != nil {
		t.Fatal(err)
	}
	healthy := optionsFor(ten, Healthy, 7, 0)
	if healthy.MaxSteps != 1000 || healthy.MaxHoms != 40 || healthy.Fallback != nil ||
		healthy.MaxAnswers != 7 || healthy.Timeout != 200*time.Millisecond {
		t.Fatalf("healthy opts = %+v", healthy)
	}
	pressured := optionsFor(ten, Pressured, 0, 50*time.Millisecond)
	if pressured.MaxSteps != 500 || pressured.MaxHoms != 20 {
		t.Fatalf("pressured budgets = %d steps, %d homs; want halved", pressured.MaxSteps, pressured.MaxHoms)
	}
	if pressured.Timeout != 50*time.Millisecond {
		t.Fatalf("request timeout %v did not shorten tenant timeout", pressured.Timeout)
	}
	want := PressuredFallback()
	if len(pressured.Fallback) != len(want) {
		t.Fatalf("pressured fallback = %v", pressured.Fallback)
	}
	for i := range want {
		if pressured.Fallback[i] != want[i] {
			t.Fatalf("pressured fallback = %v, want %v", pressured.Fallback, want)
		}
	}
}

func TestCoalescing(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv := newBookServer(t, Config{MaxInFlight: 32, Metrics: reg}, TenantConfig{})
	// Fire identical queries concurrently; the singleflight must collapse
	// at least some of them onto one execution. Disable the plan cache?
	// No — coalescing is observable via the response flag regardless.
	const n = 16
	var wg sync.WaitGroup
	var mu sync.Mutex
	coalesced, ok := 0, 0
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rr, qr := postQuery(t, srv.Handler(), fmt.Sprintf(`{"query": %q}`, paperdata.QueryE))
			mu.Lock()
			defer mu.Unlock()
			if rr.Code == http.StatusOK && len(qr.Answers) > 0 {
				ok++
			}
			if qr.Coalesced {
				coalesced++
			}
		}()
	}
	wg.Wait()
	if ok != n {
		t.Fatalf("%d/%d concurrent identical queries succeeded", ok, n)
	}
	// Coalescing is timing-dependent; assert the mechanism directly too.
	var g = &srv.flights
	var hits int
	var wg2 sync.WaitGroup
	gate := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg2.Add(1)
		go func() {
			defer wg2.Done()
			v, err, shared := g.Do("k", func() (any, error) {
				<-gate
				return 42, nil
			})
			if err != nil || v.(int) != 42 {
				t.Errorf("Do = %v, %v", v, err)
			}
			mu.Lock()
			if shared {
				hits++
			}
			mu.Unlock()
		}()
	}
	time.Sleep(10 * time.Millisecond) // let all four join the flight
	close(gate)
	wg2.Wait()
	if hits == 0 {
		t.Fatal("no Do call reported a shared result")
	}
	_ = coalesced // informational; the direct Group assertion is the guarantee
}

// TestCoalesceKeyRawText: the coalescing key is the query text as sent,
// so a text the parser rejects never shares the answers of a spelling
// that differs from it only in whitespace.
func TestCoalesceKeyRawText(t *testing.T) {
	if a, b := coalesceKey("t", "HV", Healthy, 0, "//ab"), coalesceKey("t", "HV", Healthy, 0, "//a b"); a == b {
		t.Fatalf(`"//ab" and "//a b" share the coalescing key %q`, a)
	}
}

func TestViewByteBudget(t *testing.T) {
	ten, err := NewTenant(TenantConfig{Name: "tiny", MaxViewBytes: 1}, paperdata.BookTree())
	if err != nil {
		t.Fatal(err)
	}
	if err := ten.AddView("//s/p"); err == nil {
		t.Fatal("AddView over a 1-byte budget succeeded")
	}
	if n := ten.System().NumViews(); n != 0 {
		t.Fatalf("rejected view left %d views behind", n)
	}
	adv := &xpathviews.Advice{Views: []advisor.AdvisedView{{XPath: "//s/p"}, {XPath: "//s/t"}}}
	if _, err := ten.ApplyAdvice(adv); err == nil {
		t.Fatal("ApplyAdvice over a 1-byte budget succeeded")
	}
	if n := ten.System().NumViews(); n != 0 {
		t.Fatalf("rejected advice left %d views behind", n)
	}
	// A sane budget admits the same advice.
	roomy, err := NewTenant(TenantConfig{Name: "roomy", MaxViewBytes: 1 << 20}, paperdata.BookTree())
	if err != nil {
		t.Fatal(err)
	}
	ids, err := roomy.ApplyAdvice(adv)
	if err != nil || len(ids) != 2 {
		t.Fatalf("ApplyAdvice = %v, %v", ids, err)
	}
}

func TestExplainEndpoint(t *testing.T) {
	srv := newBookServer(t, Config{}, TenantConfig{})
	req := httptest.NewRequest("GET", "/v1/explain?query="+
		strings.ReplaceAll(paperdata.QueryE, "/", "%2F"), nil)
	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rr.Code, rr.Body.String())
	}
	var ex map[string]any
	if err := json.Unmarshal(rr.Body.Bytes(), &ex); err != nil {
		t.Fatal(err)
	}
	if _, ok := ex["query"]; !ok {
		t.Fatalf("explanation lacks query field: %v", ex)
	}

	rr = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/v1/explain", nil))
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("missing query: status = %d", rr.Code)
	}
	rr = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/v1/explain?query=//a&strategy=XX", nil))
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("bad strategy: status = %d", rr.Code)
	}
}

func TestMetricsEndpointDeterministic(t *testing.T) {
	srv := newBookServer(t, Config{}, TenantConfig{})
	postQuery(t, srv.Handler(), fmt.Sprintf(`{"query": %q}`, paperdata.QueryE))
	get := func() string {
		rr := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
		if rr.Code != http.StatusOK {
			t.Fatalf("metrics status = %d", rr.Code)
		}
		return rr.Body.String()
	}
	a := get()
	for _, want := range []string{"xpvd_requests_total 1", "xpvd_inflight 0",
		"xpvd_ready 1", `xpvd_served_total{pressure="healthy"} 1`} {
		if !strings.Contains(a, want) {
			t.Errorf("exposition lacks %q:\n%s", want, a)
		}
	}
	for i := 0; i < 5; i++ {
		if b := get(); b != a {
			t.Fatalf("exposition not deterministic:\n--- a\n%s\n--- b\n%s", a, b)
		}
	}
}

func TestHealthAndReadiness(t *testing.T) {
	srv := newBookServer(t, Config{}, TenantConfig{})
	get := func(path string) int {
		rr := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
		return rr.Code
	}
	if c := get("/healthz"); c != http.StatusOK {
		t.Fatalf("healthz = %d", c)
	}
	if c := get("/readyz"); c != http.StatusOK {
		t.Fatalf("readyz = %d", c)
	}
	srv.BeginDrain()
	if c := get("/healthz"); c != http.StatusOK {
		t.Fatalf("healthz during drain = %d, want 200 (liveness)", c)
	}
	if c := get("/readyz"); c != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain = %d, want 503", c)
	}
	rr, _ := postQuery(t, srv.Handler(), `{"query": "//s/p"}`)
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("query during drain = %d, want 503", rr.Code)
	}
}
