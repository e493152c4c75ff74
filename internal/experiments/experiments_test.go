package experiments_test

import (
	"strings"
	"testing"

	"xpathviews"
	"xpathviews/internal/experiments"
	"xpathviews/internal/xpath"
)

// TestQuickEnv runs the whole §VI pipeline on the Quick configuration:
// Table III queries must be positive, answerable by at most the stated
// number of views, and every strategy must return identical answers.
func TestQuickEnv(t *testing.T) {
	if testing.Short() {
		t.Skip("environment build is seconds-long")
	}
	env, err := experiments.NewEnv(experiments.Quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, qs := range env.Queries {
		var canonical string
		var canonicalCount int
		for _, st := range []xpathviews.Strategy{xpathviews.BN, xpathviews.BF, xpathviews.MN, xpathviews.MV, xpathviews.HV} {
			res, err := env.Sys.Answer(qs.XPath, st)
			if err != nil {
				t.Fatalf("%s via %v: %v", qs.Name, st, err)
			}
			if len(res.Answers) == 0 {
				t.Fatalf("%s via %v returned no answers (must be positive)", qs.Name, st)
			}
			got := strings.Join(res.Codes(), ",")
			if canonical == "" {
				canonical, canonicalCount = got, len(res.Answers)
				continue
			}
			if got != canonical {
				t.Fatalf("%s: %v answers differ from BN (%d vs %d)", qs.Name, st, len(res.Answers), canonicalCount)
			}
			if st == xpathviews.MV && len(res.ViewsUsed) > qs.ViewsNeeded {
				t.Errorf("%s: minimum selection used %d views, Table III says %d suffice",
					qs.Name, len(res.ViewsUsed), qs.ViewsNeeded)
			}
		}
	}
}

// TestFig8BypassesPlanCache: Figure 8 times the whole pipeline, so none
// of its runs may be served from a cached plan (whose memo would skip
// refine, join and extraction).
func TestFig8BypassesPlanCache(t *testing.T) {
	if testing.Short() {
		t.Skip("environment build is seconds-long")
	}
	env, err := experiments.NewEnv(experiments.Quick())
	if err != nil {
		t.Fatal(err)
	}
	before := env.Sys.PlanCacheStats().Hits
	env.Fig8()
	if after := env.Sys.PlanCacheStats().Hits; after != before {
		t.Fatalf("Fig8 took %d plan-cache hits, want 0", after-before)
	}
}

// TestFigureRows sanity-checks the figure generators' outputs.
func TestFigureRows(t *testing.T) {
	if testing.Short() {
		t.Skip("environment build is seconds-long")
	}
	cfg := experiments.Quick()
	env, err := experiments.NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f8 := env.Fig8()
	if len(f8) != 4*5 {
		t.Fatalf("Fig8 rows = %d, want 20", len(f8))
	}
	for _, r := range f8 {
		if r.Err != "" {
			t.Errorf("Fig8 %s/%v failed: %s", r.Query, r.Strategy, r.Err)
		}
	}
	f9 := env.Fig9()
	if len(f9) != 4*3 {
		t.Fatalf("Fig9 rows = %d, want 12", len(f9))
	}
	for _, r := range f9 {
		if r.Strategy == xpathviews.MN && r.Homs != env.Sys.NumViews() {
			t.Errorf("Fig9 %s MN homs = %d, want %d", r.Query, r.Homs, env.Sys.NumViews())
		}
		if r.Strategy == xpathviews.HV && r.Homs >= env.Sys.NumViews()/2 {
			t.Errorf("Fig9 %s HV computed %d homs; the heuristic should be lazy", r.Query, r.Homs)
		}
	}

	fe := experiments.NewFilterEnv(cfg)
	f10 := fe.Fig10()
	for _, r := range f10 {
		if r.AvgUtility < 1.0 {
			t.Errorf("utility below 1 at %d views: %f (V_Q ⊆ V'' must hold)", r.NumViews, r.AvgUtility)
		}
		if r.AvgUtility > 3 {
			t.Errorf("average utility implausibly high at %d views: %f", r.NumViews, r.AvgUtility)
		}
	}
	f11 := fe.Fig11()
	last := f11[len(f11)-1]
	growth := float64(last.NumViews) / float64(f11[0].NumViews)
	if last.ScaleVsFirst >= growth {
		t.Errorf("no sub-linear size scaling: S_k/S_1 = %.2f with %gx views", last.ScaleVsFirst, growth)
	}
	f12 := fe.Fig12()
	if len(f12) != 4*len(cfg.FilterSizes) {
		t.Fatalf("Fig12 rows = %d", len(f12))
	}
}

// TestTableIIIDepths pins the structural constraints the paper states:
// max depth 4 overall and Q2 strictly the shallowest.
func TestTableIIIDepths(t *testing.T) {
	specs := experiments.TableIII()
	depths := make([]int, len(specs))
	for i, qs := range specs {
		depths[i] = xpath.MustParse(qs.XPath).Depth()
		if depths[i] > 4 {
			t.Errorf("%s deeper than max_depth=4: %d", qs.Name, depths[i])
		}
	}
	if depths[1] != 3 {
		t.Errorf("Q2 depth = %d, want 3", depths[1])
	}
	for i, d := range depths {
		if i != 1 && d <= depths[1] {
			t.Errorf("Q2 must be strictly shallowest; %s has depth %d", specs[i].Name, d)
		}
	}
	wantViews := []int{1, 2, 2, 3}
	for i, qs := range specs {
		if qs.ViewsNeeded != wantViews[i] {
			t.Errorf("%s ViewsNeeded = %d, want %d", qs.Name, qs.ViewsNeeded, wantViews[i])
		}
	}
}
