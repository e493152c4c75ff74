package xpathviews_test

// The join-kernel race hammer: 64 goroutines mixing answering (each
// reader runs the holistic join on its own goroutine) with document
// mutations under scoped plan invalidation (mutate.go). The interesting
// interleavings are joins reading view fragments while maintenance
// rewrites fragment stores and bumps view generations, and pooled
// joiner, arena and refine scratch migrating between goroutines. Run with -race; the final differential
// check catches lost updates the detector cannot.

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"

	"xpathviews"
	"xpathviews/internal/dewey"
	"xpathviews/internal/xmark"
	"xpathviews/internal/xmltree"
)

func TestJoinMutationHammer(t *testing.T) {
	// Force several Ps so a single-core CI host still runs readers and
	// writers in parallel, not only interleaved by the scheduler.
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)

	doc := xmark.Generate(xmark.Config{Scale: 0.15, Seed: 73}) // 150 persons
	sys, err := xpathviews.Open(doc)
	if err != nil {
		t.Fatal(err)
	}
	viewIDs := []int{}
	for _, v := range []string{
		"//person/name",
		"//person[address]/name",
		"//person/address/city",
		"//person/profile/age",
		"//closed_auction/price",
	} {
		id, err := sys.AddView(v, xpathviews.DefaultFragmentLimit)
		if err != nil {
			t.Fatal(err)
		}
		viewIDs = append(viewIDs, id)
	}
	queries := []string{
		"//person/name",
		"//person[address/city]/name",
		"//person/address/city",
		"//person[name]/profile/age",
		"//closed_auction/price",
	}

	// Writers each own one person subtree; codes resolved up front.
	var persons []*xmltree.Node
	sys.Document().Walk(func(n *xmltree.Node) bool {
		if n.Label == "person" {
			persons = append(persons, n)
		}
		return true
	})
	const readers, writers, observers = 48, 12, 4 // 64 goroutines
	if len(persons) < writers {
		t.Fatalf("document too small: %d persons for %d writers", len(persons), writers)
	}
	parentCodes := make([]dewey.Code, writers)
	for i := range parentCodes {
		parentCodes[i] = sys.Encoding().MustCode(persons[i])
	}

	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			strats := []xpathviews.Strategy{xpathviews.HV, xpathviews.MV}
			for i := 0; i < 8; i++ {
				q := queries[(r+i)%len(queries)]
				res, err := sys.Answer(q, strats[(r+i)%len(strats)])
				if err != nil {
					if errors.Is(err, xpathviews.ErrNotAnswerable) {
						continue // a mutation invalidated the covering view mid-flight
					}
					t.Errorf("reader %d: %s: %v", r, q, err)
					return
				}
				for _, a := range res.Answers {
					if a.Node == nil || len(a.Code) == 0 {
						t.Errorf("reader %d: %s: torn answer %+v", r, q, a)
						return
					}
				}
			}
		}(r)
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				res, err := sys.InsertSubtree(parentCodes[w], "<watches><watch/></watches>")
				if err != nil {
					t.Errorf("writer %d insert: %v", w, err)
					return
				}
				if _, err := sys.DeleteSubtree(res.Code); err != nil {
					t.Errorf("writer %d delete %s: %v", w, res.Code, err)
					return
				}
			}
		}(w)
	}
	for o := 0; o < observers; o++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := make(map[int]uint64)
			for i := 0; i < 200; i++ {
				for _, id := range viewIDs {
					g, ok := sys.ViewGeneration(id)
					if !ok {
						t.Errorf("view %d vanished", id)
						return
					}
					if g < last[id] {
						t.Errorf("view %d generation went backwards: %d -> %d", id, last[id], g)
						return
					}
					last[id] = g
				}
				sys.PlanCacheStats()
			}
		}()
	}
	wg.Wait()

	// Every writer reverted its insert, so view answers must agree with
	// a from-scratch evaluation of the (net-unchanged) document.
	for _, q := range queries {
		base, err := sys.Answer(q, xpathviews.BF)
		if err != nil {
			t.Fatalf("%s baseline: %v", q, err)
		}
		res, err := sys.Answer(q, xpathviews.HV)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if strings.Join(res.Codes(), ",") != strings.Join(base.Codes(), ",") {
			t.Fatalf("%s: answers drifted after hammer:\n got %v\nwant %v", q, res.Codes(), base.Codes())
		}
	}
}
