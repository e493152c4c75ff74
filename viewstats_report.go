package xpathviews

// This file is the view-observatory facade: accessors for the always-on
// viewstats.Store the serving pipeline feeds (see serving.go and
// mutate.go), the design-workload hook that arms the drift detector,
// and the merged report — live attribution counters joined with the
// registry's static per-view facts (pattern, bytes, fragment count,
// content generation) — that xpvserved's GET /v1/views, /statusz, and
// the CLI -viewstats flags all render from.

import (
	"xpathviews/internal/viewstats"
)

// ViewStatsStore re-exports the observatory's accounting store.
type ViewStatsStore = viewstats.Store

// NewViewStats builds an empty observatory store; see viewstats.New.
var NewViewStats = viewstats.New

// ViewStats returns the system's observatory store (created at Open;
// nil after SetViewStats(nil)).
func (s *System) ViewStats() *ViewStatsStore { return s.vstats.Load() }

// SetViewStats attaches (or, with nil, detaches) the observatory store.
// Detaching reduces the serving path to one atomic load per call — the
// overhead guard measures the attribution path against this baseline.
func (s *System) SetViewStats(st *ViewStatsStore) { s.vstats.Store(st) }

// SetDesignWorkload arms the workload-drift detector with the workload
// the current view set was designed for: recent traffic is compared
// against this distribution and xpv_workload_drift reports the distance.
// Advise calls this automatically; call it directly when the view set
// was built from a workload file. An empty workload disarms the detector.
func (s *System) SetDesignWorkload(entries []WorkloadEntry) {
	vs := s.vstats.Load()
	if vs == nil {
		return
	}
	hashes := make([]uint64, len(entries))
	weights := make([]int64, len(entries))
	for i, e := range entries {
		hashes[i] = viewstats.HashQuery(e.Query)
		weights[i] = int64(e.Freq)
	}
	vs.Drift.SetDesign(hashes, weights)
}

// ViewStatReport is one view's observatory row: live attribution and
// upkeep counters merged with the registry's static facts.
type ViewStatReport struct {
	ID        int    `json:"id"`
	XPath     string `json:"xpath"`
	Fragments int    `json:"fragments"`
	Bytes     int    `json:"bytes"`
	Gen       uint64 `json:"gen"`

	// Serving-side attribution.
	Hits           int64   `json:"hits"`
	FragsScanned   int64   `json:"frags_scanned"`
	FragsKept      int64   `json:"frags_kept"`
	CalibrationErr float64 `json:"calibration_err"`
	CalibrationObs int64   `json:"calibration_obs"`

	// Maintenance-side upkeep.
	MaintPasses     int64   `json:"maint_passes"`
	SpliceAdded     int64   `json:"splice_added"`
	SpliceRemoved   int64   `json:"splice_removed"`
	SpliceRefreshed int64   `json:"splice_refreshed"`
	LastSpliceSize  int64   `json:"last_splice_size"`
	IncrementalFrac float64 `json:"incremental_frac"`

	// BenefitPerKB is hits per KiB resident — the bytes-resident vs.
	// benefit ratio selection optimizes blind; NetBenefitPerKB deducts
	// the view's cumulative splice volume, so a hot view that churns
	// under every mutation ranks below an equally hot stable one.
	BenefitPerKB    float64 `json:"benefit_per_kb"`
	NetBenefitPerKB float64 `json:"net_benefit_per_kb"`
}

// ViewStatsSummary is the full observatory report: global calibration
// and drift state plus one row per registered view (view-ID order).
type ViewStatsSummary struct {
	Queries        int64   `json:"queries"`
	ScaleNsPerCost float64 `json:"scale_ns_per_cost"`
	CalibrationErr float64 `json:"calibration_err"`
	CalibrationObs int64   `json:"calibration_obs"`

	DriftArmed        bool  `json:"drift_armed"`
	DriftPPM          int64 `json:"drift_ppm"`
	DriftThresholdPPM int64 `json:"drift_threshold_ppm"`
	DriftEvents       int64 `json:"drift_events"`
	DriftRecentN      int64 `json:"drift_recent_n"`

	Views []ViewStatReport `json:"views"`
}

// ViewStatsReport snapshots the observatory, joining live counters with
// the registry under the read lock. Returns an empty summary when the
// store is detached.
func (s *System) ViewStatsReport() *ViewStatsSummary {
	sum := &ViewStatsSummary{}
	vs := s.vstats.Load()
	if vs == nil {
		return sum
	}
	sum.Queries = vs.Queries()
	sum.ScaleNsPerCost = vs.ScaleNsPerCost()
	sum.CalibrationErr, sum.CalibrationObs = vs.CalibrationError()
	sum.DriftArmed = vs.Drift.Armed()
	sum.DriftPPM = vs.Drift.LastPPM()
	sum.DriftThresholdPPM = vs.Drift.ThresholdPPM()
	sum.DriftEvents = vs.Drift.Events()
	sum.DriftRecentN = vs.Drift.RecentN()

	s.mu.RLock()
	defer s.mu.RUnlock()
	vws := s.registry.Views()
	sum.Views = make([]ViewStatReport, 0, len(vws))
	for _, v := range vws {
		st := vs.Stat(v.ID)
		r := ViewStatReport{
			ID:              v.ID,
			XPath:           v.Pattern.String(),
			Fragments:       len(v.Fragments),
			Bytes:           v.TotalBytes,
			Gen:             v.Gen,
			Hits:            st.Hits,
			FragsScanned:    st.FragsScanned,
			FragsKept:       st.FragsKept,
			CalibrationErr:  st.CalibrationErr,
			CalibrationObs:  st.CalibrationObs,
			MaintPasses:     st.MaintPasses,
			SpliceAdded:     st.SpliceAdded,
			SpliceRemoved:   st.SpliceRemoved,
			SpliceRefreshed: st.SpliceRefreshed,
			LastSpliceSize:  st.LastSpliceSize,
			IncrementalFrac: st.IncrementalFrac(),
		}
		kb := float64(v.TotalBytes) / 1024
		if kb > 0 {
			r.BenefitPerKB = float64(st.Hits) / kb
			r.NetBenefitPerKB = (float64(st.Hits) - float64(st.SpliceTotal())) / kb
		}
		sum.Views = append(sum.Views, r)
	}
	return sum
}
