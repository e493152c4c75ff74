package viewstats

// Workload-drift detection: a sketch-based comparison of the recent
// query-pattern distribution against the design workload the current
// view set was advised from. Both sides are fixed-size hash sketches
// (SketchSize buckets over HashQuery of the canonical pattern), so the
// hot path is one atomic add per query and the distance computation —
// total variation between the two normalized sketches — touches a
// fixed 2·SketchSize floats. Distance runs on a sampled cadence
// (checkEvery observations), never per call.
//
// The detector is armed by SetDesign (typically at Advise/ApplyAdvice
// time, when the workload the selection optimized for is in hand) and
// stays fully inert before that: Observe returns after one atomic load.
// Time only matters for the recent sketch's exponential decay, and the
// clock is injectable, so tests drive the detector deterministically.

import (
	"sync"
	"sync/atomic"
	"time"
)

// SketchSize is the sketch width. 64 buckets keep the distance
// computation trivial while separating realistic workload mixes (tens
// of distinct patterns) with low collision probability.
const SketchSize = 64

// checkEvery is the sampled distance cadence: every checkEvery-th
// observed query recomputes the distance and evaluates the threshold.
const checkEvery = 64

// DefaultDriftThresholdPPM is the default alarm threshold: total
// variation distance 0.25 (25% of recent traffic mass sits in buckets
// the design workload did not predict), in parts per million.
const DefaultDriftThresholdPPM = 250_000

// DefaultDriftHalfLife is the recent sketch's decay half-life: counts
// halve this often, so the "recent distribution" window slides instead
// of accumulating forever.
const DefaultDriftHalfLife = 5 * time.Minute

// Detector compares recent traffic against a design workload. The zero
// value needs init(); build through viewstats.New.
type Detector struct {
	design atomic.Pointer[[SketchSize]float64] // normalized; nil = disarmed

	recent  [SketchSize]atomic.Int64
	recentN atomic.Int64
	gate    atomic.Int64 // observations since arm, drives the check cadence

	thresholdPPM atomic.Int64
	lastPPM      atomic.Int64
	events       atomic.Int64 // upward threshold crossings
	above        atomic.Bool

	mu        sync.Mutex // serializes check/decay/SetDesign bookkeeping
	clock     func() time.Time
	halfLife  time.Duration
	lastDecay time.Time
}

func (d *Detector) init() {
	d.thresholdPPM.Store(DefaultDriftThresholdPPM)
	d.clock = time.Now
	d.halfLife = DefaultDriftHalfLife
}

// SetClock injects the time source the decay window uses (tests). Must
// be set before traffic.
func (d *Detector) SetClock(now func() time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.clock = now
	d.lastDecay = now()
}

// ThresholdPPM returns the alarm threshold.
func (d *Detector) ThresholdPPM() int64 { return d.thresholdPPM.Load() }

// SetDesign arms (or re-arms) the detector with the design workload:
// one (pattern hash, weight) pair per distinct query. The recent sketch
// and the above-threshold latch reset — the new view set starts with a
// clean comparison window; the cumulative event counter is retained.
// Empty input disarms the detector.
func (d *Detector) SetDesign(hashes []uint64, weights []int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var dist [SketchSize]float64
	var total float64
	for i, h := range hashes {
		w := int64(1)
		if i < len(weights) && weights[i] > 0 {
			w = weights[i]
		}
		dist[h%SketchSize] += float64(w)
		total += float64(w)
	}
	if total == 0 {
		d.design.Store(nil)
		return
	}
	for i := range dist {
		dist[i] /= total
	}
	for i := range d.recent {
		d.recent[i].Store(0)
	}
	d.recentN.Store(0)
	d.gate.Store(0)
	d.above.Store(false)
	d.lastPPM.Store(0)
	if d.clock != nil {
		d.lastDecay = d.clock()
	}
	d.design.Store(&dist)
}

// Armed reports whether a design workload is set.
func (d *Detector) Armed() bool { return d.design.Load() != nil }

// Observe records one served query's pattern hash. Returns checked =
// false on the fast path; every checkEvery-th observation recomputes
// the distance and reports it (ppm) plus whether this check crossed the
// threshold upward. Allocation-free in all cases; disarmed detectors
// return after one atomic load.
func (d *Detector) Observe(hash uint64) (checked bool, ppm int64, crossed bool) {
	if d.design.Load() == nil {
		return false, 0, false
	}
	d.recent[hash%SketchSize].Add(1)
	d.recentN.Add(1)
	if d.gate.Add(1)%checkEvery != 0 {
		return false, 0, false
	}
	ppm, crossed = d.Check()
	return true, ppm, crossed
}

// Check recomputes the total variation distance between the recent and
// design distributions, applies any due decay, updates the gauge state
// and the threshold latch, and reports the distance in ppm plus whether
// this check crossed the threshold upward. Callers needing the current
// value without a fresh computation read LastPPM.
func (d *Detector) Check() (ppm int64, crossed bool) {
	design := d.design.Load()
	if design == nil {
		return 0, false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.clock != nil && d.halfLife > 0 {
		now := d.clock()
		if d.lastDecay.IsZero() {
			d.lastDecay = now
		}
		for now.Sub(d.lastDecay) >= d.halfLife {
			var n int64
			for i := range d.recent {
				v := d.recent[i].Load() / 2
				d.recent[i].Store(v)
				n += v
			}
			d.recentN.Store(n)
			d.lastDecay = d.lastDecay.Add(d.halfLife)
		}
	}
	total := d.recentN.Load()
	if total == 0 {
		d.lastPPM.Store(0)
		return 0, false
	}
	var dist float64
	for i := range d.recent {
		p := float64(d.recent[i].Load()) / float64(total)
		q := design[i]
		if p > q {
			dist += p - q
		} else {
			dist += q - p
		}
	}
	// Total variation: half the L1 distance, in [0,1].
	ppm = int64(dist / 2 * 1e6)
	d.lastPPM.Store(ppm)
	over := ppm >= d.thresholdPPM.Load()
	if over && !d.above.Load() {
		d.above.Store(true)
		d.events.Add(1)
		return ppm, true
	}
	if !over {
		d.above.Store(false)
	}
	return ppm, false
}

// LastPPM returns the most recently computed distance in ppm.
func (d *Detector) LastPPM() int64 { return d.lastPPM.Load() }

// Events returns the cumulative count of upward threshold crossings.
func (d *Detector) Events() int64 { return d.events.Load() }

// RecentN returns the decayed observation mass in the recent sketch.
func (d *Detector) RecentN() int64 { return d.recentN.Load() }
