package server

// Tests for the query responses' encoder and the answer text it copies
// from the plan memo: the encoder against encoding/json, answers/xml
// pairing, the memo's text across mutations, truncation and concurrent
// hits, and the served hit's allocation profile.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"xpathviews"
	"xpathviews/internal/dewey"
	"xpathviews/internal/telemetry"
	"xpathviews/internal/xmltree"
)

// newDocServer builds a one-tenant server over the XML document src
// with the given views, admitting up to 64 concurrent queries.
func newDocServer(t testing.TB, src string, views ...string) *Server {
	t.Helper()
	doc, err := xmltree.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	ten, err := NewTenant(TenantConfig{Name: DefaultTenant, Views: views}, doc)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Metrics: telemetry.NewRegistry(), MaxInFlight: 64}, []*Tenant{ten})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// rowsDoc is <r> with n <a id="i"/> children: from 11 children on, the
// answers' string order differs from document order (0.10 < 0.2).
func rowsDoc(n int) string {
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `<a id="%d"/>`, i)
	}
	b.WriteString("</r>")
	return b.String()
}

// marshalBody is what the handler sent before the hand-written encoder:
// json.Marshal of the response struct with Answers = Codes(), plus the
// newline json.Encoder appends.
func marshalBody(t testing.TB, v any) []byte {
	t.Helper()
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return append(want, '\n')
}

// fuzzCodes turns raw bytes into answer codes: each code takes its
// length from one byte and a component from each of the next ones, with
// magnitudes from one digit to the full 32 bits.
func fuzzCodes(raw []byte) []xpathviews.Answer {
	var out []xpathviews.Answer
	for len(raw) > 0 {
		n := int(raw[0]%4) + 1
		raw = raw[1:]
		code := make(dewey.Code, 0, n)
		for ; n > 0 && len(raw) > 0; n-- {
			v := uint32(raw[0])
			switch raw[0] % 3 {
			case 1:
				v *= 97
			case 2:
				v = v*16777619 + 4000000000
			}
			code = append(code, v)
			raw = raw[1:]
		}
		out = append(out, xpathviews.Answer{Code: code})
	}
	return out
}

// FuzzQueryResponse: the hand-written encoder equals json.Marshal (+
// "\n") of the same single and batch responses, for arbitrary strings
// in every string field and arbitrary answer codes.
func FuzzQueryResponse(f *testing.F) {
	f.Add("//a[@x='<&>']", "boom\x00\x1f\"\\", "HV: not answerable", "<a>  </a>", []byte{1, 10, 2, 0, 12, 3}, uint8(0xff), 200, int64(12345))
	f.Add("\xff\xfe//b", "", "", "\t\n\r\b\f", []byte{}, uint8(0), 422, int64(-1))
	f.Add("//c", "é ✓ \U0001F600", "BF\x7f", "", []byte{3, 255, 254, 253, 252, 0, 9}, uint8(0x55), 0, int64(1)<<62)
	f.Fuzz(func(t *testing.T, query, errText, reason, xml string, rawCodes []byte, flags uint8, status int, elapsed int64) {
		res := &xpathviews.Result{Answers: fuzzCodes(rawCodes)}
		qr := queryResponse{
			Query:        query,
			Status:       status,
			Pressure:     reason,
			Degraded:     flags&1 != 0,
			Coalesced:    flags&2 != 0,
			Truncated:    flags&4 != 0,
			PlanCacheHit: flags&8 != 0,
			ElapsedNS:    elapsed,
			Error:        errText,
		}
		if flags&16 != 0 {
			qr.TraceID, qr.Rung = xml, query
		}
		if flags&32 != 0 {
			qr.DegradedReasons = []string{reason, errText}
		}
		if flags&64 != 0 {
			qr.XML = []string{xml, query}
		}
		// From a Result: the encoder renders the codes itself.
		want := qr
		want.Answers = res.Codes()
		qr.res = res
		got := appendQueryResponse(nil, &qr)
		if w := marshalBody(t, &want); !bytes.Equal(append(got, '\n'), w) {
			t.Fatalf("single response:\n got %s\nwant %s", got, w)
		}
		// From strings (the error path), including nil Answers.
		plain := want
		if flags&128 != 0 {
			plain.Answers = nil
		}
		got = appendQueryResponse(nil, &plain)
		if w := marshalBody(t, &plain); !bytes.Equal(append(got, '\n'), w) {
			t.Fatalf("string answers:\n got %s\nwant %s", got, w)
		}
		// A batch of both.
		br := batchResponse{Tenant: query, TraceID: xml, Results: []queryResponse{qr, plain}}
		wantBr := br
		wantBr.Results = []queryResponse{want, plain}
		got = appendBatchResponse(nil, &br)
		if w := marshalBody(t, &wantBr); !bytes.Equal(append(got, '\n'), w) {
			t.Fatalf("batch response:\n got %s\nwant %s", got, w)
		}
	})
}

// TestQueryXMLFollowsAnswers: with include_xml, xml[i] is the subtree of
// answers[i], on direct evaluation and on a memo-served view answer,
// although answers are in string order and the document's are not.
func TestQueryXMLFollowsAnswers(t *testing.T) {
	srv := newDocServer(t, rowsDoc(12), "//a")
	sys := srv.Tenant(DefaultTenant).System()
	direct, err := sys.Answer("//a", xpathviews.BN)
	if err != nil {
		t.Fatal(err)
	}
	subtree := map[string]string{}
	for _, a := range direct.Answers {
		x, err := xpathviews.MarshalAnswer(a)
		if err != nil {
			t.Fatal(err)
		}
		subtree[a.Code.String()] = x
	}
	if len(subtree) != 12 {
		t.Fatalf("fixture: %d distinct answers, want 12", len(subtree))
	}
	for _, strat := range []string{"BN", "resilient", "resilient"} {
		rr, qr := postQuery(t, srv.Handler(), `{"query":"//a","strategy":"`+strat+`","include_xml":true}`)
		if rr.Code != http.StatusOK || len(qr.Answers) != 12 || len(qr.XML) != 12 {
			t.Fatalf("%s: status %d, %d answers, %d xml: %s", strat, rr.Code, len(qr.Answers), len(qr.XML), rr.Body)
		}
		if !slices.Equal(qr.Answers, direct.Codes()) || slices.IsSortedFunc(direct.Answers, func(a, b xpathviews.Answer) int {
			return strings.Compare(a.Code.String(), b.Code.String())
		}) {
			t.Fatalf("%s: answers %v, want Codes() %v in an order that is not document order", strat, qr.Answers, direct.Codes())
		}
		for i, code := range qr.Answers {
			if qr.XML[i] != subtree[code] {
				t.Fatalf("%s: xml[%d] = %q, want the subtree of answers[%d] = %s, %q", strat, i, qr.XML[i], i, code, subtree[code])
			}
		}
	}
}

// memoHits reads the tenant's rewrite-memo hit counter.
func memoHits(srv *Server) int64 {
	return srv.reg.Counter(telemetry.WithLabel("xpv_rewrite_memo_hits_total", "tenant", DefaultTenant)).Value()
}

// TestServedMemoText: a memo-served answer set's text follows the data.
// After an insert and after a delete, the next served hit returns
// exactly BN's Codes(); a max_answers-truncated hit returns its own
// prefix, not the memo's full text; and 64 concurrent hits agree on one
// rendering.
func TestServedMemoText(t *testing.T) {
	srv := newDocServer(t, rowsDoc(12), "//a")
	h := srv.Handler()
	sys := srv.Tenant(DefaultTenant).System()
	const q = `{"query":"//a"}`
	// served checks the next query (a first execution after a mutation)
	// and the memo-served hit after it against BN.
	served := func(stage string) queryResponse {
		t.Helper()
		want := bnCodes(t, sys, "//a")
		if rr, qr := postQuery(t, h, q); rr.Code != http.StatusOK || !slices.Equal(qr.Answers, want) {
			t.Fatalf("%s: first query: status %d answers %v, BN says %v", stage, rr.Code, qr.Answers, want)
		}
		before := memoHits(srv)
		rr, qr := postQuery(t, h, q)
		if rr.Code != http.StatusOK || qr.Rung != "HV" || memoHits(srv) != before+1 {
			t.Fatalf("%s: not a memo-served hit: status %d rung %q memo hits %d -> %d", stage, rr.Code, qr.Rung, before, memoHits(srv))
		}
		if !slices.Equal(qr.Answers, want) {
			t.Fatalf("%s: served %v, BN says %v", stage, qr.Answers, want)
		}
		return qr
	}
	first := served("initial")

	rr, ur := postUpdate(t, h, `{"op":"insert","parent_code":"0","xml":"<a id=\"new\"/>"}`)
	if rr.Code != http.StatusOK {
		t.Fatalf("insert: status %d body %s", rr.Code, rr.Body)
	}
	if got := served("after insert"); len(got.Answers) != 13 || !slices.Contains(got.Answers, ur.Code) {
		t.Fatalf("after insert: %v lacks %s", got.Answers, ur.Code)
	}
	if rr, _ := postUpdate(t, h, fmt.Sprintf(`{"op":"delete","code":%q}`, ur.Code)); rr.Code != http.StatusOK {
		t.Fatalf("delete: status %d body %s", rr.Code, rr.Body)
	}
	if got := served("after delete"); !slices.Equal(got.Answers, first.Answers) {
		t.Fatalf("after delete: %v, want %v", got.Answers, first.Answers)
	}

	// Truncation keeps the document-order prefix, rendered on its own.
	prefix := xpathviews.Result{Answers: bnAnswers(t, sys, "//a")[:3]}
	for i := 0; i < 2; i++ {
		before := memoHits(srv)
		rr, qr := postQuery(t, h, `{"query":"//a","max_answers":3}`)
		if rr.Code != http.StatusOK || !qr.Truncated || memoHits(srv) != before+1 || !slices.Equal(qr.Answers, prefix.Codes()) {
			t.Fatalf("truncated hit: status %d truncated %v memo hit %v answers %v, want %v",
				rr.Code, qr.Truncated, memoHits(srv) == before+1, qr.Answers, prefix.Codes())
		}
	}

	// 64 concurrent hits: every body is the same, and every library hit
	// reads one rendering (the same string storage).
	want := httptest.NewRecorder()
	h.ServeHTTP(want, httptest.NewRequest("POST", "/v1/query", strings.NewReader(q)))
	wantAnswers := answersField(t, want.Body.Bytes())
	var wg sync.WaitGroup
	var mu sync.Mutex
	texts := map[*byte]bool{}
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/query", strings.NewReader(q)))
			if got := answersField(t, rr.Body.Bytes()); rr.Code != http.StatusOK || !bytes.Equal(got, wantAnswers) {
				t.Errorf("concurrent hit: status %d answers %s, want %s", rr.Code, got, wantAnswers)
			}
			res, err := sys.AnswerResilient(context.Background(), "//a", xpathviews.Options{})
			if err != nil || !res.Memo {
				t.Errorf("concurrent library hit: memo %v err %v", res != nil && res.Memo, err)
				return
			}
			mu.Lock()
			texts[unsafe.StringData(res.Codes()[0])] = true
			mu.Unlock()
		}()
	}
	wg.Wait()
	if len(texts) != 1 {
		t.Fatalf("64 concurrent hits read %d renderings, want 1", len(texts))
	}
}

func bnAnswers(t *testing.T, sys *xpathviews.System, q string) []xpathviews.Answer {
	t.Helper()
	res, err := sys.Answer(q, xpathviews.BN)
	if err != nil {
		t.Fatal(err)
	}
	return res.Answers
}

// answersField returns the raw "answers" array of a query response.
func answersField(t testing.TB, body []byte) json.RawMessage {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		t.Errorf("bad body %q: %v", body, err)
	}
	return m["answers"]
}

// discardResponse is a ResponseWriter that keeps nothing but headers, so
// an allocation count sees the handler's work alone.
type discardResponse struct{ h http.Header }

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) WriteHeader(int)             {}
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }

// TestServedHitAllocs: a memo-served POST /v1/query costs the same
// objects, and under 1 KB more, for 1,200 answers as for 10: the answer
// text is copied from the memo's one rendering into a pooled buffer.
func TestServedHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	var doc strings.Builder
	doc.WriteString("<r>")
	for i := 0; i < 1200; i++ {
		doc.WriteString("<a><b/></a>")
	}
	for i := 0; i < 10; i++ {
		doc.WriteString("<c><b/></c>")
	}
	doc.WriteString("</r>")
	srv := newDocServer(t, doc.String(), "//a/b", "//c/b")
	h := srv.Handler()
	w := &discardResponse{h: http.Header{}}
	measure := func(query string, answers int) (allocs float64, bytesPerCall uint64) {
		body := `{"query":"` + query + `"}`
		call := func() {
			req, _ := http.NewRequest("POST", "/v1/query", strings.NewReader(body))
			h.ServeHTTP(w, req)
		}
		_, qr := postQuery(t, h, body)
		hits := memoHits(srv)
		if _, qr = postQuery(t, h, body); len(qr.Answers) != answers || memoHits(srv) != hits+1 {
			t.Fatalf("%s: %d answers, memo hit %v; want a hit with %d", query, len(qr.Answers), memoHits(srv) == hits+1, answers)
		}
		allocs = testing.AllocsPerRun(200, call)
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			call()
		}
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	smallAllocs, smallBytes := measure("//c/b", 10)
	bigAllocs, bigBytes := measure("//a/b", 1200)
	t.Logf("served memo hit: 10 answers %.1f allocs %d B, 1200 answers %.1f allocs %d B",
		smallAllocs, smallBytes, bigAllocs, bigBytes)
	if bigAllocs > smallAllocs+2 {
		t.Fatalf("1200-answer hit allocates %.1f objects, 10-answer hit %.1f", bigAllocs, smallAllocs)
	}
	if bigBytes >= smallBytes+1024 {
		t.Fatalf("1200-answer hit allocates %d B, 10-answer hit %d B: over 1 KB more", bigBytes, smallBytes)
	}
}
