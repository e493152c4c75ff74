// Benchmarks regenerating every table and figure of the paper's
// evaluation (§VI), plus ablations for the design choices DESIGN.md calls
// out. Each BenchmarkFigN corresponds to the same-numbered figure; the
// xpvbench command prints the full paper-style rows at paper scale, while
// these benches run a mid-sized configuration suitable for `go test
// -bench`. See EXPERIMENTS.md for measured-vs-paper shapes.
package xpathviews_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"xpathviews"
	"xpathviews/internal/advisor"
	"xpathviews/internal/dewey"
	"xpathviews/internal/experiments"
	"xpathviews/internal/pattern"
	"xpathviews/internal/rewrite"
	"xpathviews/internal/vfilter"
	"xpathviews/internal/workload"
	"xpathviews/internal/xmark"
	"xpathviews/internal/xpath"
)

// benchConfig sits between Quick (unit tests) and Default (paper scale).
func benchConfig() experiments.Config {
	cfg := experiments.Default()
	cfg.Scale = 0.5
	cfg.NumViews = 400
	cfg.FilterSizes = []int{500, 1000, 2000, 4000}
	cfg.UtilityQueries = 60
	return cfg
}

var (
	envOnce sync.Once
	envVal  *experiments.Env
	envErr  error

	feOnce sync.Once
	feVal  *experiments.FilterEnv
)

func benchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	envOnce.Do(func() { envVal, envErr = experiments.NewEnv(benchConfig()) })
	if envErr != nil {
		b.Fatal(envErr)
	}
	return envVal
}

func benchFilterEnv(b *testing.B) *experiments.FilterEnv {
	b.Helper()
	feOnce.Do(func() { feVal = experiments.NewFilterEnv(benchConfig()) })
	return feVal
}

// BenchmarkTable3Workload answers the reconstructed Table III queries
// via the heuristic strategy — the paper's headline workload.
func BenchmarkTable3Workload(b *testing.B) {
	env := benchEnv(b)
	for _, qs := range experiments.TableIII() {
		b.Run(qs.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := env.Sys.Answer(qs.XPath, xpathviews.HV)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Answers) == 0 {
					b.Fatal("empty result; query must be positive")
				}
			}
		})
	}
}

// BenchmarkFig8 measures query processing time per strategy (Figure 8).
// It bypasses the plan cache, as experiments.Fig8 does, so every view
// strategy iteration runs the whole pipeline.
func BenchmarkFig8(b *testing.B) {
	env := benchEnv(b)
	strategies := []xpathviews.Strategy{xpathviews.BN, xpathviews.BF, xpathviews.MN, xpathviews.MV, xpathviews.HV}
	for _, qs := range experiments.TableIII() {
		for _, st := range strategies {
			opts := xpathviews.Options{Strategy: st, NoPlanCache: true}
			b.Run(fmt.Sprintf("%s/%v", qs.Name, st), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := env.Sys.AnswerContext(context.Background(), qs.XPath, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig9 measures lookup (selection-only) time (Figure 9).
func BenchmarkFig9(b *testing.B) {
	env := benchEnv(b)
	for _, qs := range experiments.TableIII() {
		q := pattern.Minimize(xpath.MustParse(qs.XPath))
		for _, st := range []xpathviews.Strategy{xpathviews.MN, xpathviews.MV, xpathviews.HV} {
			b.Run(fmt.Sprintf("%s/%v", qs.Name, st), func(b *testing.B) {
				homs := 0
				for i := 0; i < b.N; i++ {
					sel, _, err := env.Sys.Select(q, st)
					if err != nil {
						b.Fatal(err)
					}
					homs = sel.HomsComputed
				}
				b.ReportMetric(float64(homs), "homs")
			})
		}
	}
}

// BenchmarkFig10 reports the utility U(Q) = |V”|/|V_Q| per view-set size
// (Figure 10). Time measures the filtering side; avg/max utility are
// reported as metrics.
func BenchmarkFig10(b *testing.B) {
	fe := benchFilterEnv(b)
	rows := fe.Fig10()
	for i, n := range fe.Sizes {
		f := fe.Filters[i]
		row := rows[i]
		b.Run(fmt.Sprintf("views=%d", n), func(b *testing.B) {
			for it := 0; it < b.N; it++ {
				for _, q := range fe.TestQueries {
					f.Filtering(q)
				}
			}
			b.ReportMetric(row.AvgUtility, "avg-utility")
			b.ReportMetric(row.MaxUtility, "max-utility")
			b.ReportMetric(float64(row.MaxCandSet), "max-candidates")
		})
	}
}

// BenchmarkFig11 measures automaton construction and reports stored size
// scaling (Figure 11).
func BenchmarkFig11(b *testing.B) {
	fe := benchFilterEnv(b)
	base := 0
	for _, n := range fe.Sizes {
		b.Run(fmt.Sprintf("views=%d", n), func(b *testing.B) {
			var f *vfilter.Filter
			for i := 0; i < b.N; i++ {
				f = vfilter.New()
				for id := 0; id < n; id++ {
					f.AddView(id, fe.Views[id])
				}
			}
			bytes := f.StoredSize()
			if base == 0 {
				base = bytes
			}
			b.ReportMetric(float64(bytes), "stored-bytes")
			b.ReportMetric(float64(f.NumStates()), "states")
			b.ReportMetric(float64(bytes)/float64(base), "S_i/S_1")
		})
	}
}

// BenchmarkFig12 measures filtering time of Q1..Q4 against automata of
// increasing size (Figure 12).
func BenchmarkFig12(b *testing.B) {
	fe := benchFilterEnv(b)
	for _, qs := range experiments.TableIII() {
		q := xpath.MustParse(qs.XPath)
		for i, n := range fe.Sizes {
			f := fe.Filters[i]
			b.Run(fmt.Sprintf("%s/views=%d", qs.Name, n), func(b *testing.B) {
				for it := 0; it < b.N; it++ {
					f.Filtering(q)
				}
			})
		}
	}
}

// --- Ablations -----------------------------------------------------------

// BenchmarkAblationJoin compares the holistic virtual-tree join against
// the naive cross-product join on a two-view query.
func BenchmarkAblationJoin(b *testing.B) {
	env := benchEnv(b)
	qs := experiments.TableIII()[2] // Q3: two views
	q := pattern.Minimize(xpath.MustParse(qs.XPath))
	sel, _, err := env.Sys.Select(q, xpathviews.HV)
	if err != nil {
		b.Fatal(err)
	}
	fst := env.Sys.FST()
	b.Run("holistic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rewrite.ExecuteOptions(q, sel, fst, nil, rewrite.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rewrite.ExecuteNaive(q, sel, fst); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationNormalization measures the false-negative rate of the
// paper-exact automaton with and without path normalization (§III-C), and
// of the gap-binding extension, against homomorphism ground truth.
func BenchmarkAblationNormalization(b *testing.B) {
	fe := benchFilterEnv(b)
	n := fe.Sizes[0]
	queries := fe.TestQueries

	variants := []struct {
		name string
		mk   func() *vfilter.Filter
	}{
		{"exact-normalized", vfilter.NewExact},
		{"gap-binding", vfilter.New},
	}
	for _, v := range variants {
		f := v.mk()
		for id := 0; id < n; id++ {
			f.AddView(id, fe.Views[id])
		}
		b.Run(v.name, func(b *testing.B) {
			falseNeg := 0
			for it := 0; it < b.N; it++ {
				falseNeg = 0
				for _, q := range queries {
					res := f.Filtering(q)
					cand := make(map[int]bool, len(res.Candidates))
					for _, id := range res.Candidates {
						cand[id] = true
					}
					for id := 0; id < n; id++ {
						if pattern.Contains(fe.Views[id], q) && !cand[id] {
							falseNeg++
						}
					}
				}
			}
			b.ReportMetric(float64(falseNeg), "false-negatives")
		})
	}
}

// BenchmarkAblationPrefixSharing reports the automaton size with trie
// sharing versus the sum of isolated per-view automata.
func BenchmarkAblationPrefixSharing(b *testing.B) {
	fe := benchFilterEnv(b)
	n := fe.Sizes[0]
	b.Run("shared", func(b *testing.B) {
		var states int
		for i := 0; i < b.N; i++ {
			f := vfilter.New()
			for id := 0; id < n; id++ {
				f.AddView(id, fe.Views[id])
			}
			states = f.NumStates()
		}
		b.ReportMetric(float64(states), "states")
	})
	b.Run("isolated-sum", func(b *testing.B) {
		var states int
		for i := 0; i < b.N; i++ {
			states = 0
			for id := 0; id < n; id++ {
				f := vfilter.New()
				f.AddView(id, fe.Views[id])
				states += f.NumStates() - 1
			}
		}
		b.ReportMetric(float64(states), "states")
	})
}

// BenchmarkAblationSelection compares minimum vs heuristic selection:
// time plus the total materialized bytes the rewriting must scan (the
// quantity the heuristic optimizes, §IV-B).
func BenchmarkAblationSelection(b *testing.B) {
	env := benchEnv(b)
	for _, qs := range experiments.TableIII() {
		q := pattern.Minimize(xpath.MustParse(qs.XPath))
		for _, st := range []xpathviews.Strategy{xpathviews.MV, xpathviews.HV, xpathviews.CV} {
			b.Run(fmt.Sprintf("%s/%v", qs.Name, st), func(b *testing.B) {
				bytes := 0
				for i := 0; i < b.N; i++ {
					sel, _, err := env.Sys.Select(q, st)
					if err != nil {
						b.Fatal(err)
					}
					bytes = sel.TotalFragmentBytes()
				}
				b.ReportMetric(float64(bytes), "fragment-bytes")
			})
		}
	}
}

// --- Advisor -------------------------------------------------------------

// BenchmarkAdvise runs the full advisor pipeline (candidate generation,
// trial materialization, greedy selection) over a 1000-call workload of
// ~100 distinct positive XMark queries.
func BenchmarkAdvise(b *testing.B) {
	doc := xmark.Generate(xmark.Config{Scale: 0.1, Seed: 2008})
	enc, _, err := dewey.EncodeTree(doc)
	if err != nil {
		b.Fatal(err)
	}
	g := workload.New(2008, xmark.Schema(), xmark.Attributes(),
		workload.Params{MaxDepth: 4, ProbWild: 0.2, ProbDesc: 0.2, NumPred: 1, NumNestedPath: 1})
	positives := g.Positive(doc, 100, 30000)
	entries := make([]workload.Entry, len(positives))
	total := 0
	for i, q := range positives {
		f := 200 / (i + 1) // Zipf-ish, ~1000 calls over 100 distinct queries
		if f < 1 {
			f = 1
		}
		total += f
		entries[i] = workload.Entry{Freq: f, Query: q.String()}
	}
	stats := advisor.StatsFromEntries(entries)
	b.Logf("workload: %d distinct queries, %d calls", len(entries), total)
	b.ResetTimer()
	var adv *advisor.Advice
	for i := 0; i < b.N; i++ {
		adv, err = advisor.Advise(doc, enc, nil, stats, advisor.Options{ByteBudget: 256 << 10})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(adv.Views)), "views")
	b.ReportMetric(100*adv.Predicted.WeightedFraction, "coverage-%")
}

// BenchmarkRecorderOverhead measures the serving hot path without a
// recorder, with a recorder attached but sampling disabled (the
// acceptance criterion: one atomic load), and with full sampling.
func BenchmarkRecorderOverhead(b *testing.B) {
	doc := xmark.Generate(xmark.Config{Scale: 0.06, Seed: 41})
	const q = "//person/name"
	ctx := context.Background()
	opts := xpathviews.Options{Strategy: xpathviews.HV}
	newSys := func() *xpathviews.System {
		sys, err := xpathviews.Open(doc)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.AddView("//person/name", 0); err != nil {
			b.Fatal(err)
		}
		return sys
	}
	run := func(b *testing.B, sys *xpathviews.System) {
		for i := 0; i < b.N; i++ {
			if _, err := sys.AnswerContext(ctx, q, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("no-recorder", func(b *testing.B) {
		run(b, newSys())
	})
	b.Run("recorder-disabled", func(b *testing.B) {
		sys := newSys()
		rec, err := xpathviews.NewRecorder(nil)
		if err != nil {
			b.Fatal(err)
		}
		sys.SetRecorder(rec) // sampling stays 0: one atomic load per call
		run(b, sys)
	})
	b.Run("recorder-sampling", func(b *testing.B) {
		sys := newSys()
		rec, err := xpathviews.NewRecorder(nil)
		if err != nil {
			b.Fatal(err)
		}
		rec.SetSampling(1)
		sys.SetRecorder(rec)
		run(b, sys)
	})
}

// BenchmarkDeweyDecode measures the FST decode hot path used by both the
// rewriting join and BF.
func BenchmarkDeweyDecode(b *testing.B) {
	env := benchEnv(b)
	enc := env.Sys.Encoding()
	fst := env.Sys.FST()
	nodes := env.Sys.Document().Nodes()
	codes := make([]dewey.Code, 0, 1000)
	for i := 0; i < len(nodes) && len(codes) < 1000; i += 97 {
		codes = append(codes, enc.MustCode(nodes[i]))
	}
	b.ResetTimer()
	var buf []string
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		for _, c := range codes {
			buf, _ = fst.DecodeAppend(c, buf)
		}
	}
}
