package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"xpathviews"
	"xpathviews/internal/dewey"
	"xpathviews/internal/engine"
	"xpathviews/internal/pattern"
	"xpathviews/internal/selection"
	"xpathviews/internal/server"
	"xpathviews/internal/storage"
	"xpathviews/internal/views"
	"xpathviews/internal/xmark"
	"xpathviews/internal/xmltree"
)

// kind selects a workload's traffic shape.
type kind int

const (
	libHot kind = iota
	libCold
	srvClosed
	libChurn
)

// spec is one workload's fixed configuration. scale and the view and
// pool sizes shrink under -smoke; nothing else about a workload varies.
type spec struct {
	name        string
	why         string
	kind        kind
	scale       float64
	fixedViews  []string
	fixedLimit  int // fragment cap of the fixed views (0 = unlimited)
	seededViews int
	poolSize    int
}

var workloads = []spec{
	{
		name: "lib-hot",
		why:  "16 hot queries over 508 views at XMark 1.0, closed loop: every call is a plan-cache hit, so rewrite does the work and the planner none",
		kind: libHot, scale: 1.0, fixedViews: anchorViews, fixedLimit: xpathviews.DefaultFragmentLimit,
		seededViews: 500, poolSize: 16,
	},
	{
		name: "lib-cold",
		why:  "2048 distinct queries cycled over 4000 views at XMark 0.1, closed loop: the keys overflow the plan cache, so every call parses, filters and selects",
		kind: libCold, scale: 0.1, seededViews: 4000, poolSize: 2048,
	},
	{
		name: "srv-closed",
		why:  "cheap Zipf queries POSTed to the in-process daemon over nproc keep-alive connections, closed loop: decode, admission, encode and transport dominate; three open-loop rates in the traced run",
		kind: srvClosed, scale: 0.25, fixedViews: anchorViews, fixedLimit: xpathviews.DefaultFragmentLimit,
		seededViews: 56, poolSize: 256,
	},
	{
		name: "lib-churn",
		why:  "hot reads beside 10 mutations/s with a file WAL at XMark 0.5: view maintenance and the System write lock decide the read tail",
		kind: libChurn, scale: 0.5, fixedViews: maintainViews, seededViews: 56, poolSize: len(churnQueries),
	},
}

func findWorkload(name string) *spec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// smoke shrinks a workload to a document of ~1.7 k nodes for the unit
// test: same code paths, no meaningful numbers.
func (s spec) smoke() spec {
	s.scale = 0.02
	if s.seededViews > 100 {
		s.seededViews = 100
	}
	if s.poolSize > 64 {
		s.poolSize = 64
	}
	return s
}

// notAnswerable marks a pool query whose expected outcome is
// ErrNotAnswerable rather than an answer count.
const notAnswerable = -1

// poolQuery is one query of a workload's pool with its expected outcome.
type poolQuery struct {
	src string
	// want is the answer count direct evaluation gives, or notAnswerable
	// when §IV decides no view set answers the query (lib-cold only).
	want int
	// slack is how many extra answers a pending churn insert may add.
	slack int
}

// ok reports whether an observed outcome is the expected one.
func (q poolQuery) ok(answers int, err error) bool {
	if q.want == notAnswerable {
		return errors.Is(err, xpathviews.ErrNotAnswerable)
	}
	return err == nil && answers >= q.want && answers <= q.want+q.slack
}

// setupLayers times the set-up steps that belong to single layers.
type setupLayers struct {
	generateMS, buildFSTMS, encodeMS, materializeMS float64
	views, skipped                                  int
}

// env is a workload ready to serve its first request.
type env struct {
	spec   spec
	seed   int64
	sys    *xpathviews.System
	doc    *xmltree.Tree
	pool   []poolQuery
	layers setupLayers

	// srv-closed
	srv  *server.Server
	hs   *http.Server
	base string

	// lib-churn
	wal    *storage.Store
	walDir string

	// mutation sites: parents[label] are the codes of the candidate
	// insertion parents for the mutation specs.
	parents map[string][]dewey.Code
}

// ask sends one pool query through the workload's library entry point;
// t, when not nil, collects the program's span tree of the call.
func (e *env) ask(src string, t *xpathviews.Trace) (*xpathviews.Result, error) {
	if e.spec.kind == srvClosed {
		return e.sys.AnswerResilient(context.Background(), src, xpathviews.Options{Trace: t})
	}
	return e.sys.AnswerContext(context.Background(), src, xpathviews.Options{Strategy: xpathviews.HV, Trace: t})
}

// build runs a workload's whole set-up: generate the document, open the
// System, materialize the views, build the pool with its expected
// answers, and (srv-closed) start the listener or (lib-churn) attach the
// WAL. traced additionally times dewey.BuildFST and dewey.Encode on
// their own, which costs a second encoding and is therefore kept out of
// the runs that report setup_s.
func build(sp spec, seed int64, outDir string, traced bool) (_ *env, err error) {
	e := &env{spec: sp, seed: seed}
	defer func() {
		if err != nil {
			err = errors.Join(err, e.close())
		}
	}()
	t := time.Now()
	e.doc = xmark.Generate(xmark.Config{Scale: sp.scale, Seed: seed})
	e.layers.generateMS = msSince(t)

	if traced {
		t = time.Now()
		fst := dewey.BuildFST(e.doc)
		e.layers.buildFSTMS = msSince(t)
		t = time.Now()
		if _, err := dewey.Encode(e.doc, fst); err != nil {
			return nil, err
		}
		e.layers.encodeMS = msSince(t)
	}

	if sp.kind == srvClosed {
		err = e.openServer()
	} else {
		e.sys, err = xpathviews.Open(e.doc)
	}
	if err != nil {
		return nil, err
	}
	t = time.Now()
	idx := engine.BuildLabelIndex(e.doc)
	for _, v := range sp.fixedViews {
		if _, err := e.sys.AddView(v, sp.fixedLimit); err != nil {
			return nil, fmt.Errorf("%s: fixed view %s: %w", sp.name, v, err)
		}
	}
	e.layers.skipped = addSeededViews(e.sys, e.doc, idx, sp.seededViews)
	e.layers.materializeMS = msSince(t)
	e.layers.views = e.sys.NumViews()
	if want := len(sp.fixedViews) + sp.seededViews; e.layers.views < want {
		return nil, fmt.Errorf("%s: materialized %d of %d views", sp.name, e.layers.views, want)
	}

	if err := e.buildPool(idx); err != nil {
		return nil, err
	}
	if err := e.verifyPool(); err != nil {
		return nil, err
	}
	e.parents = make(map[string][]dewey.Code)
	for _, label := range []string{"item", "people"} {
		for _, n := range nodesLabeled(e.doc, label) {
			e.parents[label] = append(e.parents[label], e.sys.Encoding().MustCode(n).Clone())
		}
		if len(e.parents[label]) == 0 {
			return nil, fmt.Errorf("%s: no %q node at scale %g", sp.name, label, sp.scale)
		}
	}
	if sp.kind == libChurn {
		e.walDir, err = os.MkdirTemp(outDir, "wal-")
		if err != nil {
			return nil, err
		}
		e.wal, err = storage.Open(filepath.Join(e.walDir, "mutations.wal"))
		if err != nil {
			return nil, err
		}
		if _, err := e.sys.AttachWAL(e.wal); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// openServer builds the one-tenant daemon and starts it on a loopback
// port. The tenant's views are added afterwards through its System so
// that every workload materializes views the same way.
func (e *env) openServer() error {
	tenant, err := server.NewTenant(server.TenantConfig{Name: server.DefaultTenant}, e.doc)
	if err != nil {
		return err
	}
	e.sys = tenant.System()
	// Every set-up records into the process default registry: the serving
	// layer keeps each registry it has ever resolved (observe.go's bundles
	// map), so a registry per set-up would pin that set-up's tenant, and
	// through its gauges the whole document, for the life of the process.
	e.srv, err = server.New(server.Config{}, []*server.Tenant{tenant})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.hs = &http.Server{Handler: e.srv.Handler()}
	go func() { _ = e.hs.Serve(ln) }() // ends when close shuts the server down
	e.base = "http://" + ln.Addr().String()
	return nil
}

// close releases what build acquired beyond memory.
func (e *env) close() error {
	var errs []error
	if e.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		errs = append(errs, e.srv.Shutdown(ctx, e.hs))
		cancel()
		// Drop the daemon's gauge functions, which reference the tenant.
		xpathviews.DefaultMetricsRegistry().Reset()
	}
	if e.wal != nil {
		e.sys.DetachWAL()
		errs = append(errs, e.wal.Close(), os.RemoveAll(e.walDir))
	}
	return errors.Join(errs...)
}

// buildPool fills e.pool with query texts; verifyPool fills in want.
func (e *env) buildPool(idx *engine.LabelIndex) error {
	sp := e.spec
	add := func(src string) { e.pool = append(e.pool, poolQuery{src: src}) }
	switch sp.kind {
	case libChurn:
		for _, q := range churnQueries {
			pq := poolQuery{src: q.src}
			if q.mutated {
				pq.slack = 1
			}
			e.pool = append(e.pool, pq)
		}
	case libCold:
		positiveQueries(e.doc, idx, definitionSeed+2, sp.poolSize*200, nil, func(_ *pattern.Pattern, src string, _ int) bool {
			add(src)
			return len(e.pool) < sp.poolSize
		})
	case libHot:
		// Q1–Q4, then answerable picks: the first half must select at
		// least two views so the holistic join runs, the rest may be
		// single-view.
		for _, q := range tableIII {
			add(q)
		}
		multi := (sp.poolSize - len(tableIII)) / 2
		single := sp.poolSize - len(tableIII) - multi
		var sel *selection.Selection
		answerable := func(q *pattern.Pattern) bool {
			var err error
			sel, _, err = e.sys.Select(q, xpathviews.HV)
			return err == nil
		}
		positiveQueries(e.doc, idx, definitionSeed+2, sp.poolSize*2000, answerable, func(_ *pattern.Pattern, src string, _ int) bool {
			switch {
			case len(sel.Covers) >= 2 && multi > 0:
				multi--
				add(src)
			case single > 0:
				single--
				add(src)
			}
			return multi+single > 0
		})
	case srvClosed:
		// Cheap queries only: at most maxCheapAnswers answers, so the
		// response stays small. One in twenty is a query no view set
		// answers and whose fallback is direct evaluation, so the rungs
		// below HV run.
		const maxCheapAnswers = 256
		var yes, no []string
		wantNo := sp.poolSize / 20
		answerable := false
		usable := func(q *pattern.Pattern) bool {
			_, _, err := e.sys.Select(q, xpathviews.HV)
			answerable = err == nil
			return answerable || len(no) < wantNo
		}
		positiveQueries(e.doc, idx, definitionSeed+2, sp.poolSize*2000, usable, func(_ *pattern.Pattern, src string, answers int) bool {
			switch {
			case answers > maxCheapAnswers:
			case answerable && len(yes) < sp.poolSize-wantNo:
				yes = append(yes, src)
			case !answerable && len(no) < wantNo:
				if res, err := e.ask(src, nil); err == nil && !res.Partial {
					no = append(no, src)
				}
			}
			return len(yes)+len(no) < sp.poolSize
		})
		// The unanswerable ones take every twentieth Zipf rank, which is
		// about 2 % of the traffic: enough for the fallback rungs to run
		// on every seed, and well below the 5 % that would put the p95 on
		// the cliff between a rewriting's cost and direct evaluation's.
		for rank := 0; len(yes)+len(no) > 0; rank++ {
			from := &yes
			if len(yes) == 0 || (rank%20 == 19 && len(no) > 0) {
				from = &no
			}
			add((*from)[0])
			*from = (*from)[1:]
		}
	}
	if len(e.pool) < sp.poolSize {
		return fmt.Errorf("%s: pool has %d of %d queries", sp.name, len(e.pool), sp.poolSize)
	}
	return nil
}

// agreesWithDirect answers src through the workload's entry point and by
// direct evaluation (BN) and returns the answer count when the two sets
// of codes are equal — the paper's equivalence contract. ErrNotAnswerable
// from the entry point is passed on as it is.
func (e *env) agreesWithDirect(src string) (answers int, err error) {
	direct, err := e.sys.Answer(src, xpathviews.BN)
	if err != nil {
		return 0, fmt.Errorf("%s: BN %s: %w", e.spec.name, src, err)
	}
	res, err := e.ask(src, nil)
	if err != nil {
		return 0, fmt.Errorf("%s: %s: %w", e.spec.name, src, err)
	}
	if !slices.Equal(res.Codes(), direct.Codes()) {
		return 0, fmt.Errorf("%s: %s: %d answers from views, %d by direct evaluation, or different codes",
			e.spec.name, src, len(res.Answers), len(direct.Answers))
	}
	return len(direct.Answers), nil
}

// verifyPool is the set-up half of the correctness check: every pool
// query must agree with direct evaluation, and its expected outcome is
// stored for the per-op check. It also leaves the plan cache as warm as
// the pool allows.
func (e *env) verifyPool() error {
	for i := range e.pool {
		q := &e.pool[i]
		n, err := e.agreesWithDirect(q.src)
		switch {
		case errors.Is(err, xpathviews.ErrNotAnswerable) && e.spec.kind == libCold:
			q.want = notAnswerable
		case err != nil:
			return err
		default:
			q.want = n
		}
	}
	return nil
}

// verifyQuiesced is lib-churn's end-of-round check, run with no writer:
// every view's fragments must equal a fresh materialization of its
// pattern over the mutated-and-restored document, and every hot query
// must equal direct evaluation. It returns the number of mismatches.
func (e *env) verifyQuiesced() (failed int, err error) {
	idx := engine.BuildLabelIndex(e.doc)
	for _, v := range e.sys.Registry().Views() {
		fresh, err := views.Materialize(v.ID, v.Pattern, e.doc, e.sys.Encoding(), idx, 0)
		if err != nil {
			return 0, err
		}
		same := slices.EqualFunc(v.Fragments, fresh.Fragments, func(a, b views.Fragment) bool {
			return dewey.Compare(a.Code, b.Code) == 0 && a.Bytes == b.Bytes
		})
		if !same {
			failed++
		}
	}
	for _, q := range e.pool {
		if n, err := e.agreesWithDirect(q.src); err != nil || n != q.want {
			failed++
		}
	}
	return failed, nil
}

// liveHeapMB is HeapAlloc after a collection: what the set-up retains.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
