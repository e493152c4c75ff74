package rewrite

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"xpathviews/internal/dewey"
)

// TestAppendQuotedIsStringOrder: the rendered answer text splits back
// into exactly the codes' dotted strings sorted as strings, duplicates
// kept, for the per-call rendering and the memo's CodeText alike.
func TestAppendQuotedIsStringOrder(t *testing.T) {
	r := rand.New(rand.NewSource(38))
	for n := 0; n < 200; n++ {
		answers := make([]Answer, n%40)
		for i := range answers {
			code := make(dewey.Code, 1+r.Intn(4))
			for k := range code {
				code[k] = uint32(r.Intn([]int{3, 12, 120, 1 << 31}[r.Intn(4)]))
			}
			answers[i] = Answer{Code: code}
		}
		if len(answers) > 2 {
			answers[1] = answers[0] // a duplicate code
		}
		want := make([]string, len(answers))
		for i, a := range answers {
			want[i] = a.Code.String()
		}
		sort.Strings(want)
		if got := SplitQuoted(string(AppendQuoted(nil, answers))); !slices.Equal(got, want) {
			t.Fatalf("AppendQuoted: %q, want %q", got, want)
		}
		text := &CodeText{answers: answers}
		if got := SplitQuoted(text.Quoted()); !slices.Equal(got, want) || text.Quoted() != text.Quoted() {
			t.Fatalf("CodeText: %q, want %q", got, want)
		}
	}
}
