package server

// Tests for POST /v1/update: the full mutation round-trip over HTTP, the
// error taxonomy, quota/drain behavior, and the update metrics.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"xpathviews"
	"xpathviews/internal/xmltree"
)

func postUpdate(t *testing.T, h http.Handler, body string) (*httptest.ResponseRecorder, updateResponse) {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/update", strings.NewReader(body))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	var ur updateResponse
	if rr.Code == http.StatusOK {
		if err := json.Unmarshal(rr.Body.Bytes(), &ur); err != nil {
			t.Fatalf("bad response body %q: %v", rr.Body.String(), err)
		}
	}
	return rr, ur
}

func bnCodes(t *testing.T, sys *xpathviews.System, q string) []string {
	t.Helper()
	res, err := sys.Answer(q, xpathviews.BN)
	if err != nil {
		t.Fatal(err)
	}
	return res.Codes()
}

// TestUpdateRoundTrip: insert over HTTP, the query surface sees the new
// node, delete it, the query surface confirms removal.
func TestUpdateRoundTrip(t *testing.T) {
	srv := newBookServer(t, Config{}, TenantConfig{})
	h := srv.Handler()
	sys := srv.Tenant(DefaultTenant).System()
	var sec *xmltree.Node
	sys.Document().Walk(func(n *xmltree.Node) bool {
		if n.Label == "s" {
			sec = n
			return false
		}
		return true
	})
	parent := sys.Encoding().MustCode(sec).String()
	before := bnCodes(t, sys, "//s/p")

	rr, ur := postUpdate(t, h,
		fmt.Sprintf(`{"op":"insert","parent_code":%q,"xml":"<p/>"}`, parent))
	if rr.Code != http.StatusOK {
		t.Fatalf("insert: status %d body %s", rr.Code, rr.Body.String())
	}
	if ur.Op != "insert" || ur.Code == "" || ur.NodesAdded != 1 {
		t.Fatalf("insert response: %+v", ur)
	}
	if ur.ViewsChecked != sys.NumViews() {
		t.Fatalf("checked %d views, registry has %d", ur.ViewsChecked, sys.NumViews())
	}
	if ur.DirtyViews == 0 || ur.FragmentsAdded == 0 {
		t.Fatalf("inserting a paragraph under a titled section dirtied nothing: %+v", ur)
	}
	// The paragraph lands under a section the views' patterns read, so
	// maintenance re-evaluates views there and the response says so.
	if ur.ViewsScanned == 0 || ur.ViewsScanned > ur.ViewsChecked || ur.NodesScanned < ur.ViewsScanned ||
		!strings.Contains(rr.Body.String(), `"views_scanned"`) || !strings.Contains(rr.Body.String(), `"nodes_scanned"`) {
		t.Fatalf("insert response does not report the maintenance scan: %s", rr.Body.String())
	}
	after := bnCodes(t, sys, "//s/p")
	if !slices.Contains(after, ur.Code) || len(after) != len(before)+1 {
		t.Fatalf("query does not see the inserted node %s: before %v after %v", ur.Code, before, after)
	}

	rr, ur = postUpdate(t, h, fmt.Sprintf(`{"op":"delete","code":%q}`, ur.Code))
	if rr.Code != http.StatusOK {
		t.Fatalf("delete: status %d body %s", rr.Code, rr.Body.String())
	}
	if ur.Op != "delete" || ur.NodesRemoved != 1 || ur.FragmentsRemoved == 0 {
		t.Fatalf("delete response: %+v", ur)
	}
	if got := bnCodes(t, sys, "//s/p"); !slices.Equal(got, before) {
		t.Fatalf("delete did not restore the answer set: before %v after %v", before, got)
	}

	if v := srv.met.updates.Value(); v != 2 {
		t.Fatalf("xpvd_updates_total = %d, want 2", v)
	}
	if v := srv.met.updateErrs.Value(); v != 0 {
		t.Fatalf("xpvd_update_errors_total = %d, want 0", v)
	}
}

// TestUpdateErrorTaxonomy pins the HTTP status for each failure class.
func TestUpdateErrorTaxonomy(t *testing.T) {
	srv := newBookServer(t, Config{}, TenantConfig{})
	h := srv.Handler()
	rootCode := srv.Tenant(DefaultTenant).System().Encoding().
		MustCode(srv.Tenant(DefaultTenant).System().Document().Root()).String()
	cases := []struct {
		name, body string
		want       int
	}{
		{"bad json", `{`, http.StatusBadRequest},
		{"unknown op", `{"op":"upsert"}`, http.StatusBadRequest},
		{"insert missing fields", `{"op":"insert"}`, http.StatusBadRequest},
		{"delete missing code", `{"op":"delete"}`, http.StatusBadRequest},
		{"bad code syntax", `{"op":"delete","code":"zap"}`, http.StatusBadRequest},
		{"unknown tenant", `{"op":"insert","tenant":"ghost","parent_code":"0","xml":"<s/>"}`, http.StatusNotFound},
		{"no such parent", `{"op":"insert","parent_code":"0.999","xml":"<p/>"}`, http.StatusNotFound},
		{"no such delete target", `{"op":"delete","code":"0.999"}`, http.StatusNotFound},
		{"schema violation", fmt.Sprintf(`{"op":"insert","parent_code":%q,"xml":"<zebra/>"}`, rootCode), http.StatusUnprocessableEntity},
		{"unparseable xml", fmt.Sprintf(`{"op":"insert","parent_code":%q,"xml":"<s>"}`, rootCode), http.StatusBadRequest},
		{"delete root", fmt.Sprintf(`{"op":"delete","code":%q}`, rootCode), http.StatusBadRequest},
	}
	for _, tc := range cases {
		rr, _ := postUpdate(t, h, tc.body)
		if rr.Code != tc.want {
			t.Errorf("%s: status %d, want %d (body %s)", tc.name, rr.Code, tc.want, rr.Body.String())
		}
	}
	// The document survived every rejected mutation intact.
	if err := srv.Tenant(DefaultTenant).System().Document().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestUpdateDraining: a draining server sheds mutations exactly like
// queries.
func TestUpdateDraining(t *testing.T) {
	srv := newBookServer(t, Config{}, TenantConfig{})
	srv.BeginDrain()
	rr, _ := postUpdate(t, srv.Handler(), `{"op":"insert","parent_code":"0","xml":"<a/>"}`)
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining update: status %d, want 503", rr.Code)
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Fatal("draining update: no Retry-After header")
	}
}
