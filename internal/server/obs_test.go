package server

// Observability tests: trace propagation through /v1/query to the JSONL
// exporter, the /statusz page (byte-deterministic under an injected
// clock), the SLO watchdog's pressure coupling, and queue-wait
// accounting for timed-out requests.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"xpathviews/internal/paperdata"
	"xpathviews/internal/telemetry"
	"xpathviews/internal/telemetry/export"
)

// fakeClock is a hand-advanced clock for deterministic SLO windows.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestTraceRoundTrip(t *testing.T) {
	var sink bytes.Buffer
	exp := export.New(&sink, 64)
	srv := newBookServer(t, Config{TraceExporter: exp}, TenantConfig{})

	const parent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	req := httptest.NewRequest("POST", "/v1/query",
		strings.NewReader(fmt.Sprintf(`{"query": %q}`, paperdata.QueryE)))
	req.Header.Set("traceparent", parent)
	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rr.Code, rr.Body.String())
	}
	var qr queryResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &qr); err != nil {
		t.Fatal(err)
	}
	if qr.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("response trace_id = %q, want the propagated ID", qr.TraceID)
	}
	tc, ok := telemetry.ParseTraceparent(rr.Header().Get("Traceparent"))
	if !ok || tc.TraceID != qr.TraceID {
		t.Fatalf("response traceparent %q does not continue the caller's trace",
			rr.Header().Get("Traceparent"))
	}

	// A request with no (or a malformed) traceparent gets a fresh ID.
	rr2, qr2 := postQuery(t, srv.Handler(), fmt.Sprintf(`{"query": %q}`, paperdata.QueryE))
	if qr2.TraceID == "" || qr2.TraceID == qr.TraceID {
		t.Fatalf("fresh trace_id = %q", qr2.TraceID)
	}
	if _, ok := telemetry.ParseTraceparent(rr2.Header().Get("Traceparent")); !ok {
		t.Fatalf("fresh response traceparent %q invalid", rr2.Header().Get("Traceparent"))
	}

	// The tenant's latency histogram retained a trace-ID exemplar.
	ten := srv.Tenant(DefaultTenant)
	if ex, ok := ten.reqNs.TailExemplar(); !ok || ex.TraceID == "" {
		t.Fatalf("tenant latency exemplar = %+v ok=%t", ex, ok)
	}

	// Shutdown drains the exporter; every response's trace ID must
	// resolve to an exported span tree with pipeline children.
	if err := srv.Shutdown(context.Background(), &http.Server{}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sink.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("exported %d traces, want 2:\n%s", len(lines), sink.String())
	}
	for _, id := range []string{qr.TraceID, qr2.TraceID} {
		found := false
		for _, line := range lines {
			var tr struct {
				TraceID string `json:"trace_id"`
				Root    struct {
					Name     string            `json:"name"`
					Children []json.RawMessage `json:"children"`
				} `json:"root"`
			}
			if err := json.Unmarshal([]byte(line), &tr); err != nil {
				t.Fatalf("bad export line %q: %v", line, err)
			}
			if tr.TraceID == id {
				found = true
				if tr.Root.Name != "query" || len(tr.Root.Children) == 0 {
					t.Fatalf("span tree for %s = root %q with %d children",
						id, tr.Root.Name, len(tr.Root.Children))
				}
			}
		}
		if !found {
			t.Fatalf("trace %s not exported:\n%s", id, sink.String())
		}
	}
}

func TestStatuszGolden(t *testing.T) {
	clock := newFakeClock()
	var sink bytes.Buffer
	exp := export.New(&sink, 8)
	defer exp.Close()

	doc := paperdata.BookTree()
	acme, err := NewTenant(TenantConfig{Name: "acme", Views: []string{"//s/p"}}, doc)
	if err != nil {
		t.Fatal(err)
	}
	zeta, err := NewTenant(TenantConfig{Name: "zeta", SLOAvailability: 0.999, SLOLatencyMS: 100}, doc)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Metrics:       telemetry.NewRegistry(),
		TraceExporter: exp,
		Clock:         clock.Now,
	}, []*Tenant{acme, zeta})
	if err != nil {
		t.Fatal(err)
	}

	req := httptest.NewRequest("GET", "/statusz", nil)
	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d", rr.Code)
	}
	want := `xpvserved statusz
uptime_s: 0
ready: true
draining: false
inflight: 0
queue_waiting: 0
burning_tenants: 0
pressure_forced: false
trace_exported: 0
trace_dropped: 0
trace_queue_len: 0

tenant acme
  inflight: 0
  views: 1
  slo: availability=0.990 latency_objective=0.950 latency_threshold_ms=250
  requests_long_window: 0
  availability_burn: short=0.00 long=0.00
  latency_burn: short=0.00 long=0.00
  burning: false
  drift: armed=false ppm=0 events=0
  calibration_err: n/a (0 obs)
  view 0: hits=0 bytes=56 benefit_kb=0.00 net_kb=0.00 cal_err=n/a last_splice=0

tenant zeta
  inflight: 0
  views: 0
  slo: availability=0.999 latency_objective=0.950 latency_threshold_ms=100
  requests_long_window: 0
  availability_burn: short=0.00 long=0.00
  latency_burn: short=0.00 long=0.00
  burning: false
  drift: armed=false ppm=0 events=0
  calibration_err: n/a (0 obs)
`
	if got := rr.Body.String(); got != want {
		t.Fatalf("statusz text mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// Same clock, same server: the bytes must not move between reads.
	rr2 := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr2, httptest.NewRequest("GET", "/statusz", nil))
	if rr2.Body.String() != want {
		t.Fatal("statusz text is not deterministic across reads")
	}

	// JSON form carries the same report, tenants sorted.
	rrj := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rrj, httptest.NewRequest("GET", "/statusz?format=json", nil))
	var rep statuszReport
	if err := json.Unmarshal(rrj.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.UptimeS != 0 || !rep.Ready || len(rep.Tenants) != 2 ||
		rep.Tenants[0].Name != "acme" || rep.Tenants[1].Name != "zeta" {
		t.Fatalf("statusz json = %+v", rep)
	}
	if rep.Trace == nil || rep.Trace.Exported != 0 {
		t.Fatalf("statusz json trace = %+v", rep.Trace)
	}
	if rep.Tenants[1].Availability != 0.999 || rep.Tenants[1].LatencyThresholdMS != 100 {
		t.Fatalf("per-tenant SLO overrides not reported: %+v", rep.Tenants[1])
	}
	if rep.Tenants[0].CalibrationObs != 0 || rep.Tenants[0].ViewStats[0].CalibrationObs != 0 {
		t.Fatalf("quiet server reports calibration observations: %+v", rep.Tenants[0])
	}

	// The runtime scrape is opt-in and nondeterministic; just check it
	// appears on request and not otherwise.
	rrr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rrr, httptest.NewRequest("GET", "/statusz?runtime=1", nil))
	if !strings.Contains(rrr.Body.String(), "runtime /sched/goroutines:goroutines:") {
		t.Fatalf("runtime section missing:\n%s", rrr.Body.String())
	}

	// Uptime follows the injected clock.
	clock.Advance(90 * time.Second)
	rru := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rru, httptest.NewRequest("GET", "/statusz", nil))
	if !strings.Contains(rru.Body.String(), "uptime_s: 90\n") {
		t.Fatalf("uptime not clock-driven:\n%s", rru.Body.String())
	}
}

// TestStatuszCalibrationObs: once the cost model has been checked
// against a realized rewrite, /statusz prints the calibration error
// with the observation count behind it, for the tenant and the view.
// The first memo-miss query only seeds the cost scale; the second,
// distinct one is the first observation.
func TestStatuszCalibrationObs(t *testing.T) {
	srv := newBookServer(t, Config{}, TenantConfig{Views: []string{"//s/p"}})
	for _, q := range []string{"//s/p", "//b//s/p"} {
		if rr, _ := postQuery(t, srv.Handler(), fmt.Sprintf(`{"query": %q}`, q)); rr.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", q, rr.Code, rr.Body.String())
		}
	}
	vs := srv.Tenant(DefaultTenant).System().ViewStatsReport()
	if vs.CalibrationObs < 1 || vs.Views[0].CalibrationObs < 1 {
		t.Fatalf("no calibration observed: %+v", vs)
	}
	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/statusz", nil))
	text := rr.Body.String()
	for _, want := range []string{
		fmt.Sprintf("  calibration_err: %.3f (%d obs)\n", vs.CalibrationErr, vs.CalibrationObs),
		fmt.Sprintf(" cal_err=%.3f cal_obs=%d ", vs.Views[0].CalibrationErr, vs.Views[0].CalibrationObs),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("statusz lacks %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "n/a") {
		t.Errorf("observed calibration printed as n/a:\n%s", text)
	}
	rrj := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rrj, httptest.NewRequest("GET", "/statusz?format=json", nil))
	var rep statuszReport
	if err := json.Unmarshal(rrj.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if got := rep.Tenants[0]; got.CalibrationObs != vs.CalibrationObs ||
		got.ViewStats[0].CalibrationObs != vs.Views[0].CalibrationObs {
		t.Fatalf("statusz json calibration_obs = %d / %d, report %d / %d", got.CalibrationObs,
			got.ViewStats[0].CalibrationObs, vs.CalibrationObs, vs.Views[0].CalibrationObs)
	}
}

// TestMetricsLabelEscaping: tenant names holding a quote, a backslash,
// a tab and a newline keep every /metrics row one "name value" line,
// and each tenant has one label spelling across the library's xpv_*
// and the daemon's xpvd_* families.
func TestMetricsLabelEscaping(t *testing.T) {
	names := []string{`q"uo\te`, "tab\there\nline"}
	var tenants []*Tenant
	for _, n := range names {
		ten, err := NewTenant(TenantConfig{Name: n, Views: paperdata.TableIViews(), MaxInFlight: 1}, paperdata.BookTree())
		if err != nil {
			t.Fatal(err)
		}
		tenants = append(tenants, ten)
	}
	srv, err := New(Config{Metrics: telemetry.NewRegistry()}, tenants)
	if err != nil {
		t.Fatal(err)
	}
	post := func(tenant string) int {
		body, _ := json.Marshal(map[string]string{"query": paperdata.QueryE, "tenant": tenant})
		rr, _ := postQuery(t, srv.Handler(), string(body))
		return rr.Code
	}
	for _, n := range names {
		if code := post(n); code != http.StatusOK {
			t.Fatalf("tenant %q: status %d", n, code)
		}
	}
	// A tenant-limit shed: the first tenant's one slot is held.
	release, _, err := srv.adm.acquire(context.Background(), srv.Tenant(names[0]))
	if err != nil {
		t.Fatal(err)
	}
	if code := post(names[0]); code != http.StatusTooManyRequests {
		t.Fatalf("tenant-limit shed: status %d", code)
	}
	release()

	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	spellings := map[string]map[string]bool{} // tenant -> label spellings seen
	families := map[string]bool{}             // "family tenant" pairs seen
	for _, line := range strings.Split(strings.TrimSuffix(rr.Body.String(), "\n"), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			t.Fatalf("row %q is not \"name value\"", line)
		}
		name, value := line[:i], line[i+1:]
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			t.Fatalf("row %q: value %q: %v", line, value, err)
		}
		family, _, _ := strings.Cut(name, "_")
		if family != "xpv" && family != "xpvd" {
			t.Fatalf("row %q: no xpv_/xpvd_ family", line)
		}
		_, rest, ok := strings.Cut(name, `tenant="`)
		if !ok {
			continue
		}
		// Decode the label value by the text format's escapes.
		var raw, val strings.Builder
		for j := 0; ; j++ {
			if j == len(rest) {
				t.Fatalf("row %q: unterminated tenant label", line)
			}
			c := rest[j]
			if c == '"' {
				break
			}
			raw.WriteByte(c)
			if c == '\\' && j+1 < len(rest) {
				j++
				raw.WriteByte(rest[j])
				switch rest[j] {
				case 'n':
					c = '\n'
				case '\\', '"':
					c = rest[j]
				default:
					t.Fatalf("row %q: invalid escape \\%c", line, rest[j])
				}
			}
			val.WriteByte(c)
		}
		if spellings[val.String()] == nil {
			spellings[val.String()] = map[string]bool{}
		}
		spellings[val.String()][raw.String()] = true
		families[family+" "+val.String()] = true
	}
	if len(spellings) != len(names) {
		t.Fatalf("tenant label values %v, want %q", spellings, names)
	}
	for _, n := range names {
		if len(spellings[n]) != 1 {
			t.Errorf("tenant %q is spelled %d ways: %v", n, len(spellings[n]), spellings[n])
		}
		for _, family := range []string{"xpv", "xpvd"} {
			if !families[family+" "+n] {
				t.Errorf("tenant %q has no %s_* series", n, family)
			}
		}
	}
	shed := telemetry.WithLabel(telemetry.WithLabel("xpvd_shed_total", "tenant", names[0]), "reason", ShedTenantLimit)
	if !strings.Contains(rr.Body.String(), shed+" 1\n") {
		t.Errorf("exposition lacks %s 1", shed)
	}
}

// scrapeTwoTenants serves a query and an update for each of two tenants
// through a daemon built with cfg and returns its /metrics rows.
func scrapeTwoTenants(t *testing.T, cfg Config) []string {
	t.Helper()
	names := []string{"alpha", "beta"}
	var tenants []*Tenant
	for _, n := range names {
		ten, err := NewTenant(TenantConfig{Name: n, Views: paperdata.TableIViews()}, paperdata.BookTree())
		if err != nil {
			t.Fatal(err)
		}
		tenants = append(tenants, ten)
	}
	srv, err := New(cfg, tenants)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		body, _ := json.Marshal(map[string]string{"query": paperdata.QueryE, "tenant": n})
		if rr, _ := postQuery(t, srv.Handler(), string(body)); rr.Code != http.StatusOK {
			t.Fatalf("tenant %s query: status %d", n, rr.Code)
		}
		body, _ = json.Marshal(map[string]string{"op": "insert", "parent_code": "0", "xml": "<s><t/><p/></s>", "tenant": n})
		rr := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rr, httptest.NewRequest("POST", "/v1/update", strings.NewReader(string(body))))
		if rr.Code != http.StatusOK {
			t.Fatalf("tenant %s update: status %d: %s", n, rr.Code, rr.Body.String())
		}
	}
	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	return strings.Split(strings.TrimSuffix(rr.Body.String(), "\n"), "\n")
}

// promRow is one sample line of the Prometheus text format: a metric
// name, an optional label set with escaped values, and a value.
var promRow = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*` +
	`(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\[\\"n])*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\[\\"n])*")*\})? (\S+)$`)

// TestMetricsTextGrammar: every /metrics row of a two-tenant daemon is
// a valid Prometheus sample line. A histogram's row suffix belongs to
// the metric name, ahead of the tenant label, never after it.
func TestMetricsTextGrammar(t *testing.T) {
	rows := scrapeTwoTenants(t, Config{Metrics: telemetry.NewRegistry()})
	labeledHist := false
	for _, row := range rows {
		m := promRow.FindStringSubmatch(row)
		if m == nil {
			t.Fatalf("row %q does not match the Prometheus text grammar", row)
		}
		if _, err := strconv.ParseFloat(m[2], 64); err != nil {
			t.Fatalf("row %q: value: %v", row, err)
		}
		labeledHist = labeledHist || strings.HasPrefix(row, `xpv_answer_ns_count{tenant="alpha"} `)
	}
	if !labeledHist {
		t.Fatalf("no xpv_answer_ns_count row for tenant alpha in:\n%s", strings.Join(rows, "\n"))
	}
}

// TestDefaultRegistryRowsCarryTenant: a daemon on the process default
// registry exports only its tenants' labeled xpv_* series. Opening a
// tenant's System must not leave an unlabeled bundle registered there
// before the server re-points the System at its tenant's names. Fault
// injections are process-level and carry only their point. This is the
// package's only test that records into the default registry.
func TestDefaultRegistryRowsCarryTenant(t *testing.T) {
	for _, row := range scrapeTwoTenants(t, Config{}) {
		if strings.HasPrefix(row, "xpv_") && !strings.Contains(row, `tenant="`) &&
			!strings.HasPrefix(row, "xpv_fault_injected_total{point=") {
			t.Errorf("unlabeled row %q", row)
		}
	}
}

// TestSLOWatchdogFlipsPressure drives a sustained synthetic burn
// through the watchdog and asserts the admission coupling: burning
// forces Pressured grading, recovery releases it.
func TestSLOWatchdogFlipsPressure(t *testing.T) {
	clock := newFakeClock()
	srv := newBookServer(t, Config{
		Clock: clock.Now,
		SLO: SLOConfig{
			Availability:  0.9, // error budget 10%: all-errors = burn 10
			ShortWindow:   2 * time.Second,
			LongWindow:    10 * time.Second,
			BurnThreshold: 2,
			MinSamples:    4,
		},
	}, TenantConfig{})
	ten := srv.Tenant(DefaultTenant)

	// Sustained burn: errors across two seconds, enough short-window
	// samples in each.
	for i := 0; i < 3; i++ {
		srv.recordSLO(ten, true, -1)
	}
	clock.Advance(time.Second)
	for i := 0; i < 3; i++ {
		srv.recordSLO(ten, true, -1)
	}
	if !ten.burning.Load() {
		t.Fatalf("watchdog did not trip: %+v", ten.SLOStatus())
	}
	if srv.burningTenants.Load() != 1 || !srv.adm.forcePressured.Load() {
		t.Fatal("burning tenant must force Pressured admission")
	}
	if srv.met.sloTrips.Value() != 1 {
		t.Fatalf("slo trips = %d, want 1", srv.met.sloTrips.Value())
	}

	// A request on an otherwise idle server is now served degraded.
	rr, qr := postQuery(t, srv.Handler(), fmt.Sprintf(`{"query": %q}`, paperdata.QueryE))
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d", rr.Code)
	}
	if qr.Pressure != "pressured" {
		t.Fatalf("pressure = %q, want pressured while the watchdog burns", qr.Pressure)
	}
	if !strings.Contains(srv.statusz(false).Tenants[0].Name, DefaultTenant) {
		t.Fatal("statusz must report the tenant")
	}

	// Recovery: the burn windows age out, a clean request flips the
	// verdict back and releases the admission override.
	clock.Advance(30 * time.Second)
	srv.recordSLO(ten, false, time.Millisecond)
	if ten.burning.Load() || srv.burningTenants.Load() != 0 || srv.adm.forcePressured.Load() {
		t.Fatal("watchdog did not recover after the windows aged out")
	}
	_, qr2 := postQuery(t, srv.Handler(), fmt.Sprintf(`{"query": %q}`, paperdata.QueryE))
	if qr2.Pressure != "healthy" {
		t.Fatalf("pressure = %q, want healthy after recovery", qr2.Pressure)
	}
}

// TestQueueTimeoutRecordsWait: a request shed by queue timeout must
// still contribute its wait to the histograms and the Retry-After
// heuristic (satellite of the admission instrumentation).
func TestQueueTimeoutRecordsWait(t *testing.T) {
	reg := telemetry.NewRegistry()
	a := newAdmission(1, 1, 20*time.Millisecond, 0.75)
	a.queueWaitNs = reg.Histogram("xpvd_queue_wait_ns")
	ten := &Tenant{cfg: TenantConfig{Name: "x"}}
	ten.queueWaitNs = reg.Histogram(`xpvd_queue_wait_ns{tenant="x"}`)
	ten.slo = newSLOTracker(SLOConfig{}, nil)

	release, _, err := a.acquire(context.Background(), ten)
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	_, _, err = a.acquire(context.Background(), ten)
	shed, ok := err.(*ShedError)
	if !ok || shed.Reason != ShedQueueTimeout {
		t.Fatalf("err = %v, want queue timeout", err)
	}
	if got := a.queueWaitNs.Snapshot().Count; got != 1 {
		t.Fatalf("process queue-wait observations = %d, want 1 (timed-out wait)", got)
	}
	if got := ten.queueWaitNs.Snapshot().Count; got != 1 {
		t.Fatalf("tenant queue-wait observations = %d, want 1", got)
	}
	if a.waitEWMA.Load() <= 0 {
		t.Fatal("timed-out wait must feed the EWMA")
	}
	if ra := a.retryAfter(); ra <= a.queueWait {
		t.Fatalf("retryAfter = %v, want > nominal %v under congestion", ra, a.queueWait)
	}
	if shed.RetryAfter <= a.queueWait {
		t.Fatalf("shed Retry-After = %v did not grow with observed waits", shed.RetryAfter)
	}
}
