package server

// POST /v1/update — the serving surface of the incremental maintenance
// subsystem. A mutation is a tenant request like any other: it resolves
// the tenant, passes admission (so an update storm is subject to the
// same quotas and shedding as a query storm), and runs serialized
// against that tenant's in-flight queries by the System's RWMutex. The
// response reports what maintenance did: how many views were checked,
// how many were dirtied, and the fragment-level delta.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"xpathviews"
	"xpathviews/internal/dewey"
)

// updateRequest is the POST /v1/update body.
type updateRequest struct {
	Tenant string `json:"tenant,omitempty"`
	// Op is "insert" or "delete".
	Op string `json:"op"`
	// ParentCode addresses an insert's parent node (dotted extended
	// Dewey code, e.g. "0.8").
	ParentCode string `json:"parent_code,omitempty"`
	// XML is the inserted subtree's serialization (insert only).
	XML string `json:"xml,omitempty"`
	// Code addresses a delete's subtree root.
	Code string `json:"code,omitempty"`
}

// updateResponse reports one applied mutation.
type updateResponse struct {
	Tenant  string `json:"tenant"`
	TraceID string `json:"trace_id,omitempty"`
	Op      string `json:"op"`
	// Code is the inserted subtree root's newly allocated code, or the
	// deleted subtree root's code.
	Code               string `json:"code"`
	NodesAdded         int    `json:"nodes_added,omitempty"`
	NodesRemoved       int    `json:"nodes_removed,omitempty"`
	ViewsChecked       int    `json:"views_checked"`
	DirtyViews         int    `json:"dirty_views"`
	FragmentsAdded     int    `json:"fragments_added,omitempty"`
	FragmentsRemoved   int    `json:"fragments_removed,omitempty"`
	FragmentsRefreshed int    `json:"fragments_refreshed,omitempty"`
	// ViewsScanned counts views whose pattern was re-evaluated over the
	// mutation's dirty scope; NodesScanned sums the document nodes those
	// re-evaluations read.
	ViewsScanned int    `json:"views_scanned,omitempty"`
	NodesScanned int    `json:"nodes_scanned,omitempty"`
	WALSeq       uint64 `json:"wal_seq,omitempty"`
	ElapsedNS    int64  `json:"elapsed_ns"`
}

// updateStatus maps a mutation failure onto an HTTP status: bad
// addressing is the client's 404, a schema violation its 422, a
// contained pipeline failure our 500, anything else (unparseable XML,
// deleting the root) a 400.
func updateStatus(err error) int {
	switch {
	case errors.Is(err, xpathviews.ErrNoSuchNode):
		return http.StatusNotFound
	case errors.Is(err, xpathviews.ErrSchema):
		return http.StatusUnprocessableEntity
	case errors.Is(err, xpathviews.ErrInternal):
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	s.met.requests.Inc()
	traceID, tr := s.traceFor(w, r)
	defer s.exportTrace(tr)
	var req updateRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4<<20))
	if err := dec.Decode(&req); err != nil {
		tr.Root().Err(err)
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	t := s.tenantFor(req.Tenant, r)
	if t == nil {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("unknown tenant %q", req.Tenant))
		return
	}
	t.reqs.Inc()
	tr.Root().SetAttr("tenant", t.cfg.Name)
	tr.Root().SetAttr("op", req.Op)

	release, _, err := s.adm.acquire(r.Context(), t)
	if err != nil {
		tr.Root().Err(err)
		s.shedResponse(w, t, err)
		return
	}
	defer release()

	opts := xpathviews.MutateOptions{Trace: tr, TraceID: traceID}
	var res *xpathviews.MaintainResult
	switch req.Op {
	case "insert":
		if req.ParentCode == "" || req.XML == "" {
			s.writeError(w, http.StatusBadRequest,
				errors.New(`insert needs "parent_code" and "xml"`))
			return
		}
		pc, perr := dewey.ParseCode(req.ParentCode)
		if perr != nil {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("parent_code: %w", perr))
			return
		}
		res, err = t.sys.InsertSubtreeOpts(pc, req.XML, opts)
	case "delete":
		if req.Code == "" {
			s.writeError(w, http.StatusBadRequest, errors.New(`delete needs "code"`))
			return
		}
		c, perr := dewey.ParseCode(req.Code)
		if perr != nil {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("code: %w", perr))
			return
		}
		res, err = t.sys.DeleteSubtreeOpts(c, opts)
	default:
		s.writeError(w, http.StatusBadRequest,
			fmt.Errorf(`unknown op %q (want "insert" or "delete")`, req.Op))
		return
	}

	el := time.Since(t0)
	s.met.reqNs.Observe(int64(el))
	t.reqNs.ObserveExemplar(int64(el), traceID)
	if err != nil {
		tr.Root().Err(err)
		s.met.updateErrs.Inc()
		status := updateStatus(err)
		s.recordSLO(t, status >= 500, el)
		s.writeError(w, status, err)
		return
	}
	s.met.updates.Inc()
	s.recordSLO(t, false, el)
	s.countResponse(http.StatusOK)
	writeJSON(w, http.StatusOK, updateResponse{
		Tenant:             t.cfg.Name,
		TraceID:            traceID,
		Op:                 res.Op,
		Code:               res.Code.String(),
		NodesAdded:         res.NodesAdded,
		NodesRemoved:       res.NodesRemoved,
		ViewsChecked:       res.ViewsChecked,
		DirtyViews:         res.DirtyViews,
		FragmentsAdded:     res.FragmentsAdded,
		FragmentsRemoved:   res.FragmentsRemoved,
		FragmentsRefreshed: res.FragmentsRefreshed,
		ViewsScanned:       res.ViewsScanned,
		NodesScanned:       res.NodesScanned,
		WALSeq:             res.WALSeq,
		ElapsedNS:          int64(el),
	})
}
