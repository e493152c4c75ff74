package xpathviews_test

// End-to-end coverage for the view observatory (viewstats_report.go):
// per-view utility attribution on the paper's running example,
// maintenance feeding the upkeep side, slow-log view attribution, the
// metrics exposition of the calibration/drift/join-kernel instruments,
// and the workload-drift detector tripping on a shifted XMark workload
// while steady traffic stays quiet.

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"xpathviews"
	"xpathviews/internal/dewey"
	"xpathviews/internal/paperdata"
	"xpathviews/internal/xmark"
)

// paperObservatory builds the paper's book system with the Table I
// views and a quiet metrics registry.
func paperObservatory(t testing.TB) *xpathviews.System {
	t.Helper()
	sys, err := xpathviews.OpenWithFST(paperdata.BookTree(), paperdata.BookFST())
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range paperdata.TableIViews() {
		if _, err := sys.AddView(src, xpathviews.DefaultFragmentLimit); err != nil {
			t.Fatal(err)
		}
	}
	sys.SetMetricsRegistry(xpathviews.NewMetricsRegistry())
	return sys
}

func viewRow(t *testing.T, rep *xpathviews.ViewStatsSummary, id int) xpathviews.ViewStatReport {
	t.Helper()
	for _, v := range rep.Views {
		if v.ID == id {
			return v
		}
	}
	t.Fatalf("view %d missing from report (%d rows)", id, len(rep.Views))
	return xpathviews.ViewStatReport{}
}

func TestViewStatsAttribution(t *testing.T) {
	sys := paperObservatory(t)
	const calls = 5
	var first, res *xpathviews.Result
	for i := 0; i < calls; i++ {
		var err error
		res, err = sys.Answer(paperdata.QueryE, xpathviews.HV)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res
		}
	}
	if len(res.ViewsUsed) != 2 {
		t.Fatalf("paper example should join 2 views, got %v", res.ViewsUsed)
	}
	rep := sys.ViewStatsReport()
	if rep.Queries != calls {
		t.Fatalf("queries = %d, want %d", rep.Queries, calls)
	}
	used := make(map[int]bool)
	for _, id := range res.ViewsUsed {
		used[id] = true
		row := viewRow(t, rep, id)
		if row.Hits != calls {
			t.Fatalf("view %d hits = %d, want %d", id, row.Hits, calls)
		}
		if row.FragsScanned <= 0 || row.FragsKept <= 0 {
			t.Fatalf("view %d volumes: scanned=%d kept=%d", id, row.FragsScanned, row.FragsKept)
		}
		if row.Bytes <= 0 || row.BenefitPerKB <= 0 {
			t.Fatalf("view %d benefit: bytes=%d benefit/KB=%v", id, row.Bytes, row.BenefitPerKB)
		}
		if row.XPath == "" {
			t.Fatalf("view %d has no pattern rendering", id)
		}
	}
	// Bystander views take no hits.
	for _, v := range rep.Views {
		if !used[v.ID] && v.Hits != 0 {
			t.Fatalf("unused view %d has %d hits", v.ID, v.Hits)
		}
	}
	// The first call ran the full rewrite and seeds the cost-model scale.
	// The rest were served from the plan's remembered Δ-list: the §IV-B
	// cost predicts refine + join + extract, so they calibrate nothing.
	if rep.ScaleNsPerCost <= 0 {
		t.Fatalf("scale = %v, want > 0", rep.ScaleNsPerCost)
	}
	if first.Memo || !res.Memo {
		t.Fatalf("Memo first=%v last=%v, want false then true", first.Memo, res.Memo)
	}
	if rep.CalibrationObs != 0 {
		t.Fatalf("calibration obs = %d after memo hits, want 0", rep.CalibrationObs)
	}
	// A second full rewrite (fresh plan, nothing remembered) calibrates.
	if _, err := sys.AnswerContext(context.Background(), paperdata.QueryE,
		xpathviews.Options{Strategy: xpathviews.HV, NoPlanCache: true}); err != nil {
		t.Fatal(err)
	}
	rep = sys.ViewStatsReport()
	if rep.CalibrationObs != 1 || rep.CalibrationErr < 0 {
		t.Fatalf("calibration after a second full rewrite: obs=%d err=%v, want 1 obs",
			rep.CalibrationObs, rep.CalibrationErr)
	}
	// Join-kernel internals surface on the Result of a call that joined.
	if first.JoinPartitions != 1 || res.JoinPartitions != 0 {
		t.Fatalf("JoinPartitions first=%d last=%d, want 1 for a 2-view join, 0 for a memo hit",
			first.JoinPartitions, res.JoinPartitions)
	}
}

func TestViewStatsDetached(t *testing.T) {
	sys := paperObservatory(t)
	sys.SetViewStats(nil)
	if _, err := sys.Answer(paperdata.QueryE, xpathviews.HV); err != nil {
		t.Fatal(err)
	}
	rep := sys.ViewStatsReport()
	if rep.Queries != 0 || len(rep.Views) != 0 {
		t.Fatalf("detached store must report empty, got %+v", rep)
	}
	// Reattaching resumes accounting.
	sys.SetViewStats(xpathviews.NewViewStats())
	if _, err := sys.Answer(paperdata.QueryE, xpathviews.HV); err != nil {
		t.Fatal(err)
	}
	if rep := sys.ViewStatsReport(); rep.Queries != 1 {
		t.Fatalf("reattached queries = %d, want 1", rep.Queries)
	}
}

func TestViewStatsMaintainFeeds(t *testing.T) {
	sys := paperObservatory(t)
	mres, err := sys.InsertSubtree(dewey.Code{0, 8}, "<s><t/><p/><f><i/></f></s>")
	if err != nil {
		t.Fatal(err)
	}
	if mres.DirtyViews == 0 {
		t.Fatal("insert dirtied no views; fixture no longer exercises maintenance")
	}
	rep := sys.ViewStatsReport()
	var passes, lastSplice int64
	for _, v := range rep.Views {
		passes += v.MaintPasses
		if v.LastSpliceSize > lastSplice {
			lastSplice = v.LastSpliceSize
		}
		if v.MaintPasses > 0 && v.IncrementalFrac <= 0 {
			t.Fatalf("maintained view %d reports zero incremental fraction: %+v", v.ID, v)
		}
	}
	if passes != int64(mres.DirtyViews) {
		t.Fatalf("maintenance passes = %d, want one per dirty view (%d)", passes, mres.DirtyViews)
	}
	if lastSplice <= 0 {
		t.Fatal("no view recorded a dirty-splice size")
	}
}

func TestSlowLogRecordsViews(t *testing.T) {
	sys := paperObservatory(t)
	sys.SetSlowQueryThreshold(time.Nanosecond)
	res, err := sys.Answer(paperdata.QueryE, xpathviews.HV)
	if err != nil {
		t.Fatal(err)
	}
	entries := sys.SlowQueries()
	if len(entries) == 0 {
		t.Fatal("1ns threshold recorded nothing")
	}
	e := entries[len(entries)-1]
	if e.Strategy != "HV" {
		t.Fatalf("slow entry strategy = %q", e.Strategy)
	}
	if len(e.Views) != len(res.ViewsUsed) {
		t.Fatalf("slow entry views = %v, result used %v", e.Views, res.ViewsUsed)
	}
	for i, id := range res.ViewsUsed {
		if e.Views[i] != id {
			t.Fatalf("slow entry views = %v, result used %v", e.Views, res.ViewsUsed)
		}
	}
}

func TestViewStatsMetricsExposition(t *testing.T) {
	sys := paperObservatory(t)
	for i := 0; i < 3; i++ {
		if _, err := sys.Answer(paperdata.QueryE, xpathviews.HV); err != nil {
			t.Fatal(err)
		}
	}
	var b strings.Builder
	if err := sys.DumpMetrics(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, name := range []string{
		"xpv_workload_drift ",
		"xpv_workload_drift_events_total ",
		"xpv_joins_total ",
		"xpv_cost_calibration_err_ppm_count ",
		"xpv_cost_calibration_err_ppm_p50 ",
	} {
		if !strings.Contains(text, name) {
			t.Errorf("exposition missing %q", name)
		}
	}
	// The unitless histogram must not carry the _ns latency suffixes.
	if strings.Contains(text, "xpv_cost_calibration_err_ppm_p50_ns") {
		t.Error("count-valued histogram rendered with _ns suffix")
	}
	// 3 calls: one joined, two served from its
	// remembered Δ-list. xpv_joins_total counts joins actually run.
	counter := func(name string) int64 {
		for _, line := range strings.Split(text, "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				n, err := json.Number(v).Int64()
				if err != nil {
					t.Fatalf("bad %s line %q", name, line)
				}
				return n
			}
		}
		t.Fatalf("exposition missing %q", name)
		return 0
	}
	if joins, hits := counter("xpv_joins_total"), counter("xpv_rewrite_memo_hits_total"); joins != 1 || hits != 2 {
		t.Fatalf("xpv_joins_total = %d, xpv_rewrite_memo_hits_total = %d, want 1 and 2", joins, hits)
	}
}

// driftFixture advises an XMark system on a two-query design workload
// (which arms the detector), applies the advice, and pins the
// detector's decay clock so the test is deterministic.
func driftFixture(t testing.TB) (*xpathviews.System, []xpathviews.WorkloadEntry) {
	t.Helper()
	doc := xmark.Generate(xmark.Config{Scale: 0.05, Seed: 42})
	sys, err := xpathviews.Open(doc)
	if err != nil {
		t.Fatal(err)
	}
	sys.SetMetricsRegistry(xpathviews.NewMetricsRegistry())
	entries := []xpathviews.WorkloadEntry{
		{Freq: 5, Query: "//person/name"},
		{Freq: 3, Query: "//open_auction[bidder]/seller"},
	}
	adv, err := sys.Advise(entries, xpathviews.AdviceOptions{ByteBudget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if !sys.ViewStatsReport().DriftArmed {
		t.Fatal("Advise must arm the drift detector")
	}
	if _, err := sys.ApplyAdvice(adv); err != nil {
		t.Fatal(err)
	}
	fixed := time.Unix(1_200_000_000, 0)
	sys.ViewStats().Drift.SetClock(func() time.Time { return fixed })
	return sys, entries
}

// replayMix serves the design workload in its proportions for
// `rounds` full passes, ignoring per-call errors (drift observes
// unanswerable traffic too).
func replayMix(sys *xpathviews.System, entries []xpathviews.WorkloadEntry, rounds int) {
	for r := 0; r < rounds; r++ {
		for _, e := range entries {
			for i := 0; i < e.Freq; i++ {
				sys.Answer(e.Query, xpathviews.HV)
			}
		}
	}
}

func TestWorkloadDriftSteadyAndShifted(t *testing.T) {
	// Steady: live traffic replays the design mix exactly — the distance
	// stays at zero and no threshold event fires.
	sys, entries := driftFixture(t)
	replayMix(sys, entries, 32) // 256 calls >= several check cadences
	rep := sys.ViewStatsReport()
	if rep.DriftRecentN == 0 {
		t.Fatal("steady replay reached the detector not at all")
	}
	if rep.DriftEvents != 0 {
		t.Fatalf("steady traffic fired %d drift events (ppm=%d)", rep.DriftEvents, rep.DriftPPM)
	}
	if rep.DriftPPM >= rep.DriftThresholdPPM {
		t.Fatalf("steady traffic measured %d ppm, threshold %d", rep.DriftPPM, rep.DriftThresholdPPM)
	}

	// Shifted: a pattern the design never predicted dominates. The
	// distance crosses the threshold and the event counter moves.
	sys2, _ := driftFixture(t)
	for i := 0; i < 256; i++ {
		sys2.Answer("//item/name", xpathviews.HV) // unanswerable is fine: still traffic
	}
	rep2 := sys2.ViewStatsReport()
	if rep2.DriftEvents < 1 {
		t.Fatalf("shifted workload fired no drift event (ppm=%d, threshold=%d, recent=%d)",
			rep2.DriftPPM, rep2.DriftThresholdPPM, rep2.DriftRecentN)
	}
	if rep2.DriftPPM < rep2.DriftThresholdPPM {
		t.Fatalf("shifted workload ppm = %d below threshold %d", rep2.DriftPPM, rep2.DriftThresholdPPM)
	}
	// The gauge and event counter surface in the exposition.
	var b strings.Builder
	if err := sys2.DumpMetrics(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "xpv_workload_drift_events_total 1") {
		t.Error("drift event not visible in the metrics exposition")
	}
}
