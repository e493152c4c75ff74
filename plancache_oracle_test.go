package xpathviews

// The plan cache against direct evaluation. A fuzz input is a script of
// one-byte steps over the paper's book document (28 nodes) and its
// Table I views, with a one-shard plan cache of four keys, so a handful
// of queries overflows it and the admission filter refuses, evicts and
// readmits entries while the script inserts, deletes, adds and removes
// views. Every answer is checked against BN on the document as it then
// stands: an HV answer and a resilient one must equal it (a contained
// rung's may be a subset), and an HV refusal must be the refusal an
// uncached call gives.

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"xpathviews/internal/dewey"
	"xpathviews/internal/paperdata"
	"xpathviews/internal/plancache"
	"xpathviews/internal/xmltree"
)

// oracleQueries is the script's query pool: two spellings of the
// running example, queries one view or a join answers, and queries no
// view answers under Table I.
var oracleQueries = []string{
	paperdata.QueryE,
	"// s[ f // i ][ t ]/ p", // QueryE's second spelling: one entry, two keys
	"//s[t]/p",
	"//s//p",
	"//s[p]/f",
	"//s/f/i", // refused until //f/i is a view
	"//t",     // refused: no view returns t
	"//b/s[t]/p",
}

// oracleViews is what an AddView step adds from.
var oracleViews = append(paperdata.TableIViews(), "//f/i", "//s/p", "//s[f]/p")

// oraclePayloads are the subtrees an insert step grafts, by parent label;
// every label is in the book FST's alphabet under its parent.
var oraclePayloads = map[string][]string{
	paperdata.Book:    {"<t/>", "<a/>", "<s><t/><p/></s>", "<s><p/><f><i/></f></s>"},
	paperdata.Section: {"<p/>", "<t/>", "<f><i/></f>", "<s><t/><p/><f><i/></f></s>"},
	paperdata.Figure:  {"<i/>"},
}

// oracleSteps bounds a script, so one input stays a few milliseconds.
const oracleSteps = 96

// oracleEvents records which plan-cache and memo paths a script took.
type oracleEvents struct {
	planMiss, planHit, alias, negative     bool
	rejected, readmitted                   bool
	memoHit, memoStale, degradedMemoHit    bool
	inserts, deletes, addViews, removeView int
}

// missing names the paths the script did not take.
func (ev *oracleEvents) missing() []string {
	var out []string
	for _, c := range []struct {
		name string
		ok   bool
	}{
		{"plan miss", ev.planMiss}, {"plan hit", ev.planHit}, {"alias hit", ev.alias},
		{"negative plan hit", ev.negative}, {"rejected key", ev.rejected},
		{"evicted then readmitted", ev.readmitted}, {"memo hit", ev.memoHit},
		{"stale memo", ev.memoStale}, {"degraded memo hit", ev.degradedMemoHit},
		{"insert", ev.inserts > 0}, {"delete", ev.deletes > 0},
		{"AddView", ev.addViews > 0}, {"RemoveView", ev.removeView > 0},
	} {
		if !c.ok {
			out = append(out, c.name)
		}
	}
	return out
}

// runOracleScript runs script against a fresh system and fails t on the
// first answer that disagrees with BN.
func runOracleScript(t *testing.T, script []byte) *oracleEvents {
	t.Helper()
	s, err := OpenWithFST(paperdata.BookTree(), paperdata.BookFST())
	if err != nil {
		t.Fatal(err)
	}
	s.plans = plancache.New(4, 1)
	var ids []int
	for _, v := range paperdata.TableIViews() {
		id, err := s.AddView(v, DefaultFragmentLimit)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	ctx := context.Background()
	ev := &oracleEvents{}
	// hadHit and evicted track each query text since the last view-set
	// change: a miss after a hit with no view-set change between means
	// its keys were evicted (or refused), and a hit after that means
	// they were admitted again.
	hadHit := map[string]bool{}
	evicted := map[string]bool{}
	countPlan := func(q string, hit bool) {
		if !hit {
			ev.planMiss = true
			if hadHit[q] {
				evicted[q] = true
			}
			return
		}
		ev.planHit = true
		hadHit[q] = true
		if evicted[q] {
			ev.readmitted = true
		}
	}
	viewSetChanged := func() { clear(hadHit); clear(evicted) }
	want := func(q, tag string) []string {
		base, err := s.Answer(q, BN)
		if err != nil {
			t.Fatalf("%s: BN %q: %v", tag, q, err)
		}
		return base.Codes()
	}
	if len(script) > oracleSteps {
		script = script[:oracleSteps]
	}
	for i, b := range script {
		op, arg := b%8, int(b/8)
		q := oracleQueries[arg%len(oracleQueries)]
		tag := "step " + strconv.Itoa(i)
		switch op {
		case 0, 1, 2:
			before := s.PlanCacheStats()
			res, err := s.AnswerContext(ctx, q, Options{Strategy: HV})
			after := s.PlanCacheStats()
			hit := after.Hits > before.Hits
			if after.Hits+after.Misses != before.Hits+before.Misses+1 {
				t.Fatalf("%s: HV %q counted %+v → %+v", tag, q, before, after)
			}
			countPlan(q, hit)
			if err != nil {
				if !errors.Is(err, ErrNotAnswerable) {
					t.Fatalf("%s: HV %q: %v", tag, q, err)
				}
				if _, uerr := s.AnswerContext(ctx, q, Options{Strategy: HV, NoPlanCache: true}); !errors.Is(uerr, ErrNotAnswerable) {
					t.Fatalf("%s: HV %q refused from the cache, uncached: %v", tag, q, uerr)
				}
				ev.negative = ev.negative || hit
				continue
			}
			if res.PlanCacheHit != hit {
				t.Fatalf("%s: HV %q: PlanCacheHit %v, stats say %v", tag, q, res.PlanCacheHit, hit)
			}
			if got, w := res.Codes(), want(q, tag); !slices.Equal(got, w) {
				t.Fatalf("%s: HV %q (hit %v, memo %v):\n got %v\nwant %v", tag, q, hit, res.Memo, got, w)
			}
			ev.alias = ev.alias || hit && res.ParseNanos > 0
			ev.memoHit = ev.memoHit || res.Memo
			ev.memoStale = ev.memoStale || hit && !res.Memo
		case 3, 4:
			before := s.PlanCacheStats()
			res, err := s.AnswerResilient(ctx, q, Options{})
			countPlan(q, s.PlanCacheStats().Hits > before.Hits)
			if err != nil {
				t.Fatalf("%s: resilient %q: %v", tag, q, err)
			}
			got, w := res.Codes(), want(q, tag)
			if res.Strategy == Contained {
				if !oracleSubset(got, w) {
					t.Fatalf("%s: contained %q returned a non-answer:\n got %v\nwant ⊆ %v", tag, q, got, w)
				}
			} else if !slices.Equal(got, w) {
				t.Fatalf("%s: resilient %q via %v (memo %v):\n got %v\nwant %v", tag, q, res.Strategy, res.Memo, got, w)
			}
			ev.degradedMemoHit = ev.degradedMemoHit || res.Memo && !isViewStrategy(res.Strategy)
		case 5:
			var parents []*xmltree.Node
			s.Document().Walk(func(n *xmltree.Node) bool {
				if len(oraclePayloads[n.Label]) > 0 {
					parents = append(parents, n)
				}
				return true
			})
			p := parents[arg%len(parents)]
			payloads := oraclePayloads[p.Label]
			if _, err := s.InsertSubtree(s.Encoding().MustCode(p), payloads[arg%len(payloads)]); err != nil {
				t.Fatalf("%s: insert under %s: %v", tag, p.Label, err)
			}
			ev.inserts++
		case 6:
			var codes []dewey.Code
			s.Document().Walk(func(n *xmltree.Node) bool {
				if n != s.Document().Root() {
					codes = append(codes, s.Encoding().MustCode(n).Clone())
				}
				return true
			})
			if len(codes) == 0 {
				continue
			}
			if _, err := s.DeleteSubtree(codes[arg%len(codes)]); err != nil {
				t.Fatalf("%s: delete: %v", tag, err)
			}
			ev.deletes++
		case 7:
			if arg%2 == 0 || len(ids) == 0 {
				id, err := s.AddView(oracleViews[(arg/2)%len(oracleViews)], DefaultFragmentLimit)
				if err != nil {
					t.Fatalf("%s: AddView: %v", tag, err)
				}
				ids = append(ids, id)
				ev.addViews++
			} else {
				k := (arg / 2) % len(ids)
				if !s.RemoveView(ids[k]) {
					t.Fatalf("%s: RemoveView(%d) found no view", tag, ids[k])
				}
				ids = slices.Delete(ids, k, k+1)
				ev.removeView++
			}
			viewSetChanged()
		}
	}
	ev.rejected = s.PlanCacheStats().Rejected > 0
	if n := s.PlanCacheLen(); n > 4 {
		t.Fatalf("plan cache holds %d keys, capacity 4", n)
	}
	return ev
}

// oracleSubset reports whether every code of sub (sorted) is in super
// (sorted).
func oracleSubset(sub, super []string) bool {
	for _, c := range sub {
		if _, ok := slices.BinarySearch(super, c); !ok {
			return false
		}
	}
	return true
}

func FuzzPlanCacheOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) {
		runOracleScript(t, script)
	})
}

// TestPlanCacheOracleCorpusCoverage runs the checked-in seed corpus and
// requires it, taken together, to reach every plan-cache and memo path
// the oracle is there to check.
func TestPlanCacheOracleCorpusCoverage(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzPlanCacheOracle")
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	all := &oracleEvents{}
	for _, fe := range files {
		script := readFuzzBytes(t, filepath.Join(dir, fe.Name()))
		ev := runOracleScript(t, script)
		t.Logf("%s: missing %v", fe.Name(), ev.missing())
		all.planMiss = all.planMiss || ev.planMiss
		all.planHit = all.planHit || ev.planHit
		all.alias = all.alias || ev.alias
		all.negative = all.negative || ev.negative
		all.rejected = all.rejected || ev.rejected
		all.readmitted = all.readmitted || ev.readmitted
		all.memoHit = all.memoHit || ev.memoHit
		all.memoStale = all.memoStale || ev.memoStale
		all.degradedMemoHit = all.degradedMemoHit || ev.degradedMemoHit
		all.inserts += ev.inserts
		all.deletes += ev.deletes
		all.addViews += ev.addViews
		all.removeView += ev.removeView
	}
	if m := all.missing(); len(m) > 0 {
		t.Fatalf("the seed corpus (%d scripts) never reaches: %s", len(files), strings.Join(m, ", "))
	}
}

// readFuzzBytes reads a one-value []byte corpus file in the format the
// go command writes ("go test fuzz v1" and a []byte("...") line).
func readFuzzBytes(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" ||
		!strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
		t.Fatalf("%s: not a one-value []byte corpus file", path)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}
