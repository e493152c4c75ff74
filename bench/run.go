package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"

	"xpathviews/internal/xmltree"
)

// runConfig is one run: one workload, one seed, one window.
type runConfig struct {
	spec    spec
	seed    int64
	seconds float64
	// trace selects the traced run: a half-length untraced window for
	// the driver's own columns, then the traced pass. Untraced runs
	// report the end-to-end metrics and nothing else.
	trace  bool
	outDir string
	// rounds is how many untraced runs of a workload the suite takes the
	// median of.
	rounds int
	// setups is how many times the set-up is timed at least; the last
	// one is kept. A set-up of under two seconds is repeated further, up
	// to maxSetups times or setupBudget in all: its time is mostly where
	// the collector's cycles fall, and the host is slow for seconds at a
	// time, which a median taken within three seconds follows.
	setups int
	// traceOps and traceMut bound the traced pass.
	traceOps, traceMut int
	// cpuProfile and memProfile, when set, profile the measured window.
	cpuProfile, memProfile string
}

// runResult is what one run reports, in the shape of the result line.
// A run is correct when no operation returned an error or answers other
// than direct evaluation's; Failed adds the requests the daemon shed,
// which is not incorrect.
type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

const (
	maxSetups   = 9
	setupBudget = 6 * time.Second
)

// warmup is a fifth of the window, at most the 2 s the full suite uses.
func warmup(seconds float64) time.Duration {
	w := time.Duration(seconds / 5 * float64(time.Second))
	if w > 2*time.Second {
		w = 2 * time.Second
	}
	return w
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// runOnce sets a workload up, measures it and checks it.
func runOnce(cfg runConfig) (res *runResult, err error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	restoreGC := gcHeadroom(0)
	defer restoreGC()
	var e *env
	var setupS []float64
	setupStart := time.Now()
	for i := 0; i < cfg.setups || (cfg.setups > 1 && i < maxSetups && time.Since(setupStart) < setupBudget); i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
			e = nil // the previous set-up must be collectable before the next is timed
		}
		t := time.Now()
		if e, err = build(cfg.spec, cfg.seed, cfg.outDir, cfg.trace); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t).Seconds())
	}
	defer func() { err = errors.Join(err, e.close()) }()
	heapMB := liveHeapMB()
	gcHeadroom(heapMB)

	window := seconds(cfg.seconds)
	if cfg.trace {
		window /= 2
	}
	prof := &profiler{cpuPath: cfg.cpuProfile, memPath: cfg.memProfile}
	w, err := measure(e, warmup(cfg.seconds), window, prof, cfg.trace)
	if err != nil {
		return nil, err
	}

	res = &runResult{Attempted: w.attempted, Failed: w.failed}
	m := metricSet{}
	if cfg.trace {
		st, spans, err := tracedPass(e, cfg.outDir, cfg.traceOps, cfg.traceMut)
		if err != nil {
			return nil, err
		}
		m = layerMetrics(e, st, spans)
		m["viewstats.calibration_err"] = e.sys.ViewStatsReport().CalibrationErr
		res.Attempted += int64(len(st.untraced) + st.queries + st.mutations)
		res.Failed += int64(st.failed)
		w.wrong += int64(st.failed)
		setupLayerMetrics(e, m)
		windowLayerMetrics(w, m)
	} else {
		if e.spec.kind != libChurn {
			if w.mutations, err = mutationProbe(e, window); err != nil {
				return nil, err
			}
			res.Attempted += int64(len(w.mutations))
		}
		m["setup_s"] = median(setupS)
		m["live_heap_mb"] = heapMB
		m["query_p50_us"], m["query_p95_us"], m["goodput_qps"] = sliceStats(w.slices)
		m["mutate_p50_ms"] = mutationMedianMS(w.mutations)
	}
	if e.spec.kind == libChurn {
		bad, err := e.verifyQuiesced()
		if err != nil {
			return nil, err
		}
		res.Attempted += int64(len(e.sys.Registry().Views()) + len(e.pool))
		res.Failed += int64(bad)
		w.wrong += int64(bad)
	}
	// A request the daemon sheds in an open-loop phase fails without
	// making the run incorrect.
	res.Correct = w.wrong == 0
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res.Metrics = m.render(defs)
	return res, nil
}

// gcHeadroomMB is how much the measured process may allocate between two
// collections at least. At the default (one live heap's worth) srv-closed's
// 16 MB heap would be collected ten times a second and lib-cold's would
// be collected once per 270 MB mutation, and on a two-core host, where a
// mark phase takes one core from the program, a run's numbers would
// depend on where those phases fall. With a gigabyte between them most
// slices and most mutations see no collection, and a run reports the
// program. What a change allocates still shows, as
// driver.alloc_kb_per_op and as the time the allocation itself takes.
// The benchmark process also carries the load generator's garbage,
// which a deployed daemon does not. Set-up always runs at the default.
const gcHeadroomMB = 1024

// gcHeadroom sets the collector's trigger for a live heap of liveMB
// (0 = the default) and returns the function that restores the previous
// setting. A GOGC in the environment wins.
func gcHeadroom(liveMB float64) (restore func()) {
	if os.Getenv("GOGC") != "" {
		return func() {}
	}
	percent := 100
	if liveMB > 0 && liveMB < gcHeadroomMB {
		percent = int(100 * gcHeadroomMB / liveMB)
	}
	old := debug.SetGCPercent(percent)
	return func() { debug.SetGCPercent(old) }
}

// setupLayerMetrics reports what set-up cost per layer and what it left
// in memory.
func setupLayerMetrics(e *env, m metricSet) {
	reg := e.sys.Registry()
	frags := 0
	for _, v := range reg.Views() {
		frags += len(v.Fragments)
	}
	m["xmltree.generate_ms"] = e.layers.generateMS
	m["dewey.build_fst_ms"] = e.layers.buildFSTMS
	m["dewey.encode_ms"] = e.layers.encodeMS
	m["views.materialize_ms_per_view"] = ratio(e.layers.materializeMS, float64(e.layers.views))
	m["views.total_kb"] = float64(reg.TotalBytes()) / 1024
	m["views.bytes_per_doc_byte"] = ratio(float64(reg.TotalBytes()), float64(xmltree.SerializedSize(e.doc.Root())))
	m["views.fragments_total"] = float64(frags)
	m["views.skipped_over_cap"] = float64(e.layers.skipped)
}

// windowLayerMetrics reports the driver's own columns and the daemon's
// phase counters from the untraced window of a traced run.
func windowLayerMetrics(w *window, m metricSet) {
	var all []sample
	for _, sl := range w.slices {
		all = append(all, sl.reads...)
	}
	sortedLat := sortedMicros(latencies(all))
	m["driver.allocs_per_op"] = w.allocsPerOp
	m["driver.alloc_kb_per_op"] = w.allocKBOp
	m["driver.gc_pause_ms"] = w.gcPauseMS
	m["driver.cpu_util"] = w.cpuUtil
	m["driver.query_p99_us"] = percentile(sortedLat, 0.99)
	if len(w.mutations) > 0 && len(sortedLat) > 0 {
		m["driver.read_stall_max_ms"] = sortedLat[len(sortedLat)-1] / 1000
	}
	if len(w.phases) == 0 {
		return
	}
	var sent, shed, pressured, degraded, coalesced float64
	var lag []time.Duration
	for i, p := range w.phases {
		m[fmt.Sprintf("server.p95_us_r%d", i+1)] = percentile(sortedMicros(latencies(p.reads)), 0.95)
		if p.ok() {
			m["server.max_rate_ok_rps"] = p.rate
		}
		sent += float64(p.sent)
		shed += float64(p.shed)
		pressured += float64(p.pressured)
		degraded += float64(p.degraded)
		coalesced += float64(p.coalesced)
		lag = append(lag, p.lag...)
	}
	m["server.shed_ratio"] = ratio(shed, sent)
	m["server.pressured_ratio"] = ratio(pressured, sent)
	m["server.degraded_ratio"] = ratio(degraded, sent)
	m["server.coalesced_ratio"] = ratio(coalesced, sent)
	m["driver.sched_lag_us_p95"] = percentile(sortedMicros(lag), 0.95)
}

// profiler writes the requested CPU and heap profiles of one measured
// window. The zero value profiles nothing.
type profiler struct {
	cpuPath, memPath string
	cpu              *os.File
}

func (p *profiler) start() error {
	if p.cpuPath == "" {
		return nil
	}
	f, err := os.Create(p.cpuPath)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	p.cpu = f
	return nil
}

func (p *profiler) stop() error {
	var errs []error
	if p.cpu != nil {
		pprof.StopCPUProfile()
		errs = append(errs, p.cpu.Close())
	}
	if p.memPath != "" {
		f, err := os.Create(p.memPath)
		if err != nil {
			return errors.Join(append(errs, err)...)
		}
		runtime.GC()
		errs = append(errs, pprof.WriteHeapProfile(f), f.Close())
	}
	return errors.Join(errs...)
}
