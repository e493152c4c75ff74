package server

// The query responses' encoder. POST /v1/query is the daemon's hot
// path, so its bodies are appended by hand into a pooled buffer instead
// of going through encoding/json's reflection: a memo-served answer set
// is copied in as the memo's one rendering of its codes, and any other
// result renders its codes digit by digit. The output is byte for byte
// what json.Marshal produces for queryResponse / batchResponse (HTML
// escaping, U+FFFD for invalid UTF-8, escaped U+2028/U+2029, omitempty)
// followed by a newline, as json.Encoder writes it; FuzzQueryResponse
// holds the two to that.

import (
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"
)

// bufPool recycles response buffers; one grown past maxPooledBuf by a
// huge answer set is left to the collector rather than pinned.
var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

const maxPooledBuf = 1 << 20

// writeQuery encodes one single-query or batch response (exactly one of
// qr, br is non-nil) and sends it with the given status.
func writeQuery(w http.ResponseWriter, status int, qr *queryResponse, br *batchResponse) {
	bp := bufPool.Get().(*[]byte)
	b := (*bp)[:0]
	if qr != nil {
		b = appendQueryResponse(b, qr)
	} else {
		b = appendBatchResponse(b, br)
	}
	b = append(b, '\n')
	h := w.Header()
	h.Set("Content-Type", "application/json")
	// Without a length, net/http sends a body larger than its 2 KB
	// response buffer chunked.
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(status)
	_, _ = w.Write(b)
	if cap(b) <= maxPooledBuf {
		*bp = b
		bufPool.Put(bp)
	}
}

func appendBatchResponse(b []byte, br *batchResponse) []byte {
	b = append(b, `{"tenant":`...)
	b = appendString(b, br.Tenant)
	if br.TraceID != "" {
		b = append(b, `,"trace_id":`...)
		b = appendString(b, br.TraceID)
	}
	b = append(b, `,"results":`...)
	if br.Results == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range br.Results {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendQueryResponse(b, &br.Results[i])
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// appendQueryResponse writes qr's fields in declaration order under the
// struct's JSON tags. Answers come from qr.res when it is set.
func appendQueryResponse(b []byte, qr *queryResponse) []byte {
	b = append(b, `{"query":`...)
	b = appendString(b, qr.Query)
	if qr.TraceID != "" {
		b = append(b, `,"trace_id":`...)
		b = appendString(b, qr.TraceID)
	}
	b = append(b, `,"status":`...)
	b = strconv.AppendInt(b, int64(qr.Status), 10)
	if qr.Rung != "" {
		b = append(b, `,"rung":`...)
		b = appendString(b, qr.Rung)
	}
	b = append(b, `,"pressure":`...)
	b = appendString(b, qr.Pressure)
	if qr.Degraded {
		b = append(b, `,"degraded":true`...)
	}
	if len(qr.DegradedReasons) > 0 {
		b = append(b, `,"degraded_reasons":`...)
		b = appendStrings(b, qr.DegradedReasons)
	}
	if qr.Coalesced {
		b = append(b, `,"coalesced":true`...)
	}
	if qr.Truncated {
		b = append(b, `,"truncated":true`...)
	}
	if qr.PlanCacheHit {
		b = append(b, `,"plan_cache_hit":true`...)
	}
	b = append(b, `,"answers":`...)
	if qr.res != nil {
		b = append(b, '[')
		b = qr.res.AppendQuotedCodes(b)
		b = append(b, ']')
	} else {
		b = appendStrings(b, qr.Answers)
	}
	if len(qr.XML) > 0 {
		b = append(b, `,"xml":`...)
		b = appendStrings(b, qr.XML)
	}
	b = append(b, `,"elapsed_ns":`...)
	b = strconv.AppendInt(b, qr.ElapsedNS, 10)
	if qr.Error != "" {
		b = append(b, `,"error":`...)
		b = appendString(b, qr.Error)
	}
	return append(b, '}')
}

// appendStrings writes a []string as encoding/json does: null for nil.
func appendStrings(b []byte, ss []string) []byte {
	if ss == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, s)
	}
	return append(b, ']')
}

const hexDigits = "0123456789abcdef"

// appendString writes s as a JSON string with encoding/json's escaping:
// '"' and '\\' backslashed, the five short control escapes, every other
// byte below 0x20 and the HTML-sensitive '<', '>' and '&' as \u00XX,
// each byte of invalid UTF-8 as \ufffd, and U+2028/U+2029 as \u202X.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
