package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"xpathviews"
	"xpathviews/internal/dewey"
)

// Frozen arrival rates of srv-closed's open-loop phases in requests/s:
// 25, 50 and 75 % of the closed-loop rate (srv-closed's own goodput_qps,
// 6,000/s) on the commit and host that added the benchmark; see
// README.md. They are constants so that two commits always face the same
// schedule; never re-derive them.
var frozenRates = [3]float64{1500, 3000, 4500}

// latencyLimit is the open-loop phases' latency limit: a phase whose p95
// from the due time exceeds it does not count for server.max_rate_ok_rps.
const latencyLimit = 10 * time.Millisecond

// mutationInterval spaces lib-churn's open-loop writer: 10 mutations/s,
// alternating an insert with the delete of the same subtree 100 ms on.
const mutationInterval = 100 * time.Millisecond

// The quiesced mutation probe of the read-only workloads runs
// insert+delete pairs after the read window for 15 % of the window's
// length, and at least probeMinPairs of them, so that the slowest
// workload (0.5 s a mutation at 4000 views) still has a steady median.
const probeMinPairs = 6

// readClients is the closed-loop client count: one core stays free for
// the collector and the rewrite kernel's own workers.
func readClients() int {
	if n := runtime.NumCPU() - 1; n > 1 {
		return n
	}
	return 1
}

// connections is how many keep-alive connections srv-closed holds: one
// per core. With the load generator and the daemon in one process, more
// requests in flight than cores measure how the scheduler shares the
// cores out, not the daemon; it is also an eighth of the daemon's default
// MaxInFlight (4×GOMAXPROCS), so admission never grades a request
// pressured.
func connections() int { return runtime.NumCPU() }

// slicesPerWindow is how many slices a window is measured in (half a
// second each in the driver's 15 s window). Each slice starts its clients
// (and, on srv-closed, its connections) afresh and has its own p50, p95
// and goodput; a run reports the mean of the best fifth of them.
const slicesPerWindow = 30

// bestShare is the share of a window's slices a run's latency and
// goodput are taken from. The host only ever slows the program down: it
// takes a core away for a tenth of a second to seconds at a time, and on
// srv-closed a slice whose client and server goroutines land on
// different cores pays a wake-up per hop, so the p50s of one run's slices
// range over 30–60 % of their median. Over ten seeds the median of the
// slices spread 3–18 % of itself and the mean of the best fifth 1–12 %
// (README.md, Repeatability). What the program costs on every call,
// every mutation or every collection is in every slice and therefore in
// the best ones.
const bestShare = 0.2

// sample is one read: how long its caller waited and whether its outcome
// was the expected one.
type sample struct {
	lat  time.Duration
	good bool
}

// slice is one stretch of a window: its reads and how long it took.
type slice struct {
	reads []sample
	wall  time.Duration
}

// sliceStats returns the window's latency percentiles (µs) and good
// reads per second: each the mean of its best fifth of the slices' own
// values — the lowest p50s, the lowest p95s, the highest rates.
func sliceStats(slices []slice) (p50, p95, goodput float64) {
	var p50s, p95s, rates []float64
	for _, sl := range slices {
		if len(sl.reads) == 0 {
			continue
		}
		us := sortedMicros(latencies(sl.reads))
		good := 0
		for _, r := range sl.reads {
			if r.good {
				good++
			}
		}
		p50s = append(p50s, percentile(us, 0.50))
		p95s = append(p95s, percentile(us, 0.95))
		rates = append(rates, float64(good)/sl.wall.Seconds())
	}
	return bestMean(p50s, false), bestMean(p95s, false), bestMean(rates, true)
}

// bestMean is the mean of the lowest (or highest) bestShare of vals, at
// least one of them, without modifying vals. Nothing yields 0.
func bestMean(vals []float64, highest bool) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if highest {
		slices.Reverse(s)
	}
	k := int(math.Round(bestShare * float64(len(s))))
	if k < 1 {
		k = 1
	}
	sum := 0.0
	for _, v := range s[:k] {
		sum += v
	}
	return sum / float64(k)
}

// latencies returns the samples' latencies.
func latencies(samples []sample) []time.Duration {
	out := make([]time.Duration, len(samples))
	for i, s := range samples {
		out[i] = s.lat
	}
	return out
}

// window is what one measured window observed.
type window struct {
	slices    []slice
	attempted int64
	failed    int64 // wrong or shed
	wrong     int64 // an error, or answers other than direct evaluation's

	mutations []mutationSample // lib-churn writer, or the quiesced probe
	phases    []phaseResult    // srv-closed

	gcPauseMS   float64
	cpuUtil     float64
	allocsPerOp float64
	allocKBOp   float64
}

type mutationSample struct {
	call time.Duration
	res  *xpathviews.MaintainResult
}

// procStats snapshots the process counters a window is bracketed with.
type procStats struct {
	mem runtime.MemStats
	cpu time.Duration
	at  time.Time
}

func readProcStats() procStats {
	var p procStats
	runtime.ReadMemStats(&p.mem)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	p.at = time.Now()
	return p
}

// account fills the runtime columns of w from the bracket (a, b).
func (w *window) account(a, b procStats) {
	wall := b.at.Sub(a.at)
	w.gcPauseMS = float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs) / 1e6
	w.cpuUtil = ratio(float64(b.cpu-a.cpu), float64(wall)*float64(runtime.NumCPU()))
	ops := float64(w.attempted)
	w.allocsPerOp = ratio(float64(b.mem.Mallocs-a.mem.Mallocs), ops)
	w.allocKBOp = ratio(float64(b.mem.TotalAlloc-a.mem.TotalAlloc)/1024, ops)
}

// reader performs one read on behalf of closed-loop client c and reports
// whether its outcome was the expected one.
type reader func(c int) (good bool)

// libraryReader reads through the library entry point, taking pool
// queries in one cyclic order shared by all clients: round-robin over a
// hot set, or the cold pool's cache-defeating cycle.
func libraryReader(e *env) reader {
	var next atomic.Uint64
	// The cycle starts at a seeded offset so that which query meets
	// which cache state differs between seeds.
	next.Store(uint64(rand.New(rand.NewSource(e.seed)).Intn(len(e.pool))))
	return func(int) bool {
		q := &e.pool[next.Add(1)%uint64(len(e.pool))]
		res, err := e.ask(q.src, nil)
		n := 0
		if res != nil {
			n = len(res.Answers)
		}
		return q.ok(n, err)
	}
}

// daemonReader posts Zipf-drawn pool queries to the daemon, one
// keep-alive connection and one seeded draw sequence per client.
func daemonReader(e *env, clients []*http.Client, bodies [][]byte, seed int64) reader {
	draws := make([]*zipf, len(clients))
	for c := range draws {
		draws[c] = newZipf(seed+int64(c), len(e.pool), 1.1)
	}
	return func(c int) bool {
		pick := draws[c].next()
		rep, _, err := post(clients[c], e.base+"/v1/query", bodies[pick])
		return err == nil && rep.Status == http.StatusOK && e.pool[pick].ok(len(rep.Answers), nil)
	}
}

// closedLoop runs clients closed-loop clients for d: each sends its next
// read as soon as the last one returned.
func closedLoop(clients int, d time.Duration, read reader) slice {
	start := time.Now()
	end := start.Add(d)
	perClient := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			reads := make([]sample, 0, 1<<14)
			for {
				t0 := time.Now()
				good := read(c)
				t1 := time.Now()
				reads = append(reads, sample{lat: t1.Sub(t0), good: good})
				if !t1.Before(end) {
					break
				}
			}
			perClient[c] = reads
		}(c)
	}
	wg.Wait()
	sl := slice{wall: time.Since(start)}
	for _, reads := range perClient {
		sl.reads = append(sl.reads, reads...)
	}
	return sl
}

// measure runs one workload's warm-up and measured window: closed-loop
// readers — max(1, nproc−1) library callers, or nproc connections to
// the daemon — beside the open-loop writer on lib-churn. withRates adds
// srv-closed's three open-loop phases after the window.
func measure(e *env, warm, dur time.Duration, prof *profiler, withRates bool) (*window, error) {
	bodies := queryBodies(e.pool)
	library := libraryReader(e)
	sliceSeed := e.seed
	// readSlice measures one slice with fresh clients.
	readSlice := func(d time.Duration) slice {
		if e.spec.kind != srvClosed {
			return closedLoop(readClients(), d, library)
		}
		conns := httpClients(connections())
		defer closeClients(conns)
		sliceSeed += int64(len(conns))
		return closedLoop(len(conns), d, daemonReader(e, conns, bodies, sliceSeed))
	}
	rng := rand.New(rand.NewSource(e.seed + 1))
	phase := func(d time.Duration, slices int, w *window) error {
		var writer sync.WaitGroup
		var werr error
		if e.spec.kind == libChurn {
			writer.Add(1)
			go func() {
				defer writer.Done()
				w.mutations, werr = churnWriter(e, rng, time.Now().Add(d))
			}()
		}
		for i := 0; i < slices; i++ {
			w.slices = append(w.slices, readSlice(d/time.Duration(slices)))
		}
		writer.Wait()
		return werr
	}

	if err := phase(warm, 1, &window{}); err != nil {
		return nil, err
	}
	w := &window{}
	if err := prof.start(); err != nil {
		return nil, err
	}
	a := readProcStats()
	err := phase(dur, slicesPerWindow, w)
	for _, sl := range w.slices {
		w.attempted += int64(len(sl.reads))
		for _, r := range sl.reads {
			if !r.good {
				w.failed++
				w.wrong++
			}
		}
	}
	w.attempted += int64(len(w.mutations))
	w.account(a, readProcStats())
	if err := errors.Join(err, prof.stop()); err != nil {
		return nil, err
	}
	if withRates && e.spec.kind == srvClosed {
		conns := httpClients(connections())
		defer closeClients(conns)
		z := newZipf(e.seed, len(e.pool), 1.1)
		for _, rate := range frozenRates {
			picks := make([]int, int(rate*dur.Seconds()/float64(len(frozenRates))))
			for i := range picks {
				picks[i] = z.next()
			}
			p := openLoopPhase(e, conns, bodies, picks, rate)
			w.phases = append(w.phases, p)
			w.attempted += p.sent
			w.failed += p.shed + p.wrong
			w.wrong += p.wrong
		}
	}
	return w, nil
}

// churnWriter is lib-churn's open-loop writer: mutation i is due at
// start + i×mutationInterval; even ones insert the next subtree shape
// under a seeded-random parent, odd ones delete what the previous one
// inserted, so the document is back at base state when it returns.
func churnWriter(e *env, rng *rand.Rand, end time.Time) ([]mutationSample, error) {
	start := time.Now()
	var out []mutationSample
	var pending dewey.Code
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * mutationInterval)
		if pending == nil && !due.Before(end) {
			return out, nil
		}
		if pending != nil && due.After(end) {
			due = end // restore base state without waiting past the window
		}
		time.Sleep(time.Until(due))
		var s mutationSample
		var err error
		t0 := time.Now()
		if pending == nil {
			spec := mutationSpecs[(i/2)%len(mutationSpecs)]
			sites := e.parents[spec.parent]
			s.res, err = e.sys.InsertSubtree(sites[rng.Intn(len(sites))], spec.xml)
			if err == nil {
				pending = s.res.Code
			}
		} else {
			s.res, err = e.sys.DeleteSubtree(pending)
			pending = nil
		}
		s.call = time.Since(t0)
		if err != nil {
			return out, fmt.Errorf("%s: mutation %d: %w", e.spec.name, i, err)
		}
		out = append(out, s)
	}
}

// mutationProbe measures mutation cost on a workload that does not
// mutate during its window: insert+delete pairs, quiesced, cycling
// through the four subtree shapes.
func mutationProbe(e *env, window time.Duration) ([]mutationSample, error) {
	rng := rand.New(rand.NewSource(e.seed + 2))
	var out []mutationSample
	start := time.Now()
	for i := 0; i < probeMinPairs || time.Since(start) < window*15/100; i++ {
		spec := mutationSpecs[i%len(mutationSpecs)]
		sites := e.parents[spec.parent]
		t0 := time.Now()
		ins, err := e.sys.InsertSubtree(sites[rng.Intn(len(sites))], spec.xml)
		if err != nil {
			return nil, fmt.Errorf("%s: probe insert: %w", e.spec.name, err)
		}
		t1 := time.Now()
		del, err := e.sys.DeleteSubtree(ins.Code)
		if err != nil {
			return nil, fmt.Errorf("%s: probe delete: %w", e.spec.name, err)
		}
		out = append(out,
			mutationSample{call: t1.Sub(t0), res: ins},
			mutationSample{call: time.Since(t1), res: del})
	}
	return out, nil
}

func mutationMedianMS(ms []mutationSample) float64 {
	calls := make([]float64, len(ms))
	for i, m := range ms {
		calls[i] = float64(m.call) / float64(time.Millisecond)
	}
	return median(calls)
}

// phaseResult is one fixed-rate phase of srv-closed.
type phaseResult struct {
	rate                float64
	reads               []sample        // latency runs from the due time
	lag                 []time.Duration // send time − due time
	sent, wrong         int64
	shed, pressured     int64
	degraded, coalesced int64
}

// ok reports whether the phase met the limit: p95 from due time within
// the limit, which a growing backlog cannot satisfy.
func (p *phaseResult) ok() bool {
	return p.sent > 0 && percentile(sortedMicros(latencies(p.reads)), 0.95) <= float64(latencyLimit/time.Microsecond)
}

// queryReply is the part of the daemon's response the driver checks.
type queryReply struct {
	Status    int      `json:"status"`
	Pressure  string   `json:"pressure"`
	Degraded  bool     `json:"degraded"`
	Coalesced bool     `json:"coalesced"`
	Answers   []string `json:"answers"`
}

// httpClients builds n clients holding one keep-alive connection each.
func httpClients(n int) []*http.Client {
	out := make([]*http.Client, n)
	for i := range out {
		out[i] = &http.Client{
			Timeout:   10 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
		}
	}
	return out
}

func closeClients(cs []*http.Client) {
	for _, c := range cs {
		c.CloseIdleConnections()
	}
}

// post sends one pool query and returns the decoded reply and its size.
func post(c *http.Client, url string, body []byte) (queryReply, int, error) {
	var rep queryReply
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return rep, 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return rep, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		rep.Status = resp.StatusCode
		return rep, len(raw), nil
	}
	return rep, len(raw), json.Unmarshal(raw, &rep)
}

// queryBodies pre-renders each pool query's request body.
func queryBodies(pool []poolQuery) [][]byte {
	out := make([][]byte, len(pool))
	for i, q := range pool {
		out[i], _ = json.Marshal(map[string]string{"query": q.src}) // strings cannot fail to marshal
	}
	return out
}

// openLoopPhase sends picks[i] at start + i/rate over the clients'
// keep-alive connections, whatever the replies do: a connection that is
// free takes the next request number, sleeps until it is due, and sends.
// Latency runs from the due time, so the wait a slow reply imposes on
// later requests is counted; lag reports how late the request left.
func openLoopPhase(e *env, clients []*http.Client, bodies [][]byte, picks []int, rate float64) phaseResult {
	n := len(picks)
	p := phaseResult{rate: rate, sent: int64(n)}
	p.reads = make([]sample, n)
	p.lag = make([]time.Duration, n)
	// outcome is what is kept of a reply until the phase is tallied.
	type outcome struct {
		failed                         bool // transport error
		status, answers                int
		pressured, degraded, coalesced bool
	}
	outcomes := make([]outcome, n)
	url := e.base + "/v1/query"
	interval := time.Duration(float64(time.Second) / rate)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				due := start.Add(time.Duration(i) * interval)
				time.Sleep(time.Until(due))
				sendAt := time.Now()
				rep, _, err := post(c, url, bodies[picks[i]])
				done := time.Now()
				outcomes[i] = outcome{failed: err != nil, status: rep.Status, answers: len(rep.Answers),
					pressured: rep.Pressure == "pressured", degraded: rep.Degraded, coalesced: rep.Coalesced}
				p.reads[i] = sample{lat: done.Sub(due)}
				p.lag[i] = sendAt.Sub(due)
			}
		}(c)
	}
	wg.Wait()
	for i, o := range outcomes {
		switch {
		case o.failed:
			p.wrong++
		case o.status == http.StatusTooManyRequests || o.status == http.StatusServiceUnavailable:
			p.shed++
		case o.status != http.StatusOK || !e.pool[picks[i]].ok(o.answers, nil):
			p.wrong++
		}
		if o.pressured {
			p.pressured++
		}
		if o.degraded {
			p.degraded++
		}
		if o.coalesced {
			p.coalesced++
		}
	}
	return p
}
