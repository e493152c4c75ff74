package rewrite

import (
	"slices"
	"strings"
	"sync/atomic"

	"xpathviews/internal/dewey"
)

// Answer text: the serving layer hands answers out as dotted code
// strings sorted as strings (Result.Codes in the root package, the
// daemon's "answers" array). TextOrder is the one place that order is
// decided; AppendQuoted renders in it, and CodeText keeps the rendering
// of a memoized answer set so every hit after the first reads it
// instead of rendering again.

// TextOrder returns the indexes of answers in the order their dotted
// codes sort as strings.
func TextOrder(answers []Answer) []int32 {
	perm := make([]int32, len(answers))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(i, j int32) int {
		return dewey.CompareDotted(answers[i].Code, answers[j].Code)
	})
	return perm
}

// AppendQuoted appends the answers' codes to dst as JSON strings joined
// by commas, in TextOrder: "0.1","0.10","0.2". Dotted codes hold only
// digits and dots, so the quotes are the whole escaping.
func AppendQuoted(dst []byte, answers []Answer) []byte {
	for k, i := range TextOrder(answers) {
		if k > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '"')
		dst = answers[i].Code.AppendTo(dst)
		dst = append(dst, '"')
	}
	return dst
}

// SplitQuoted splits AppendQuoted's output back into the dotted codes,
// as substrings of text (no copy).
func SplitQuoted(text string) []string {
	if text == "" {
		return []string{}
	}
	out := make([]string, 0, strings.Count(text, ",")+1)
	for len(text) > 0 {
		end := strings.IndexByte(text[1:], '"') + 1
		out = append(out, text[1:end])
		text = text[min(end+2, len(text)):]
	}
	return out
}

// CodeText is the rendered text of one memoized answer set: its codes in
// AppendQuoted form, built on first use and immutable after. It lives in
// an answer memo (a join plan's deltaMemo, a negative query plan's
// contained or BN answer) and is valid exactly as long as the memo's
// answers are, so it needs no invalidation of its own. Memory per memo
// is the rendered text (about the code's length plus three bytes per
// answer) once someone asks for it, nothing before.
type CodeText struct {
	answers []Answer
	quoted  atomic.Pointer[string]
}

// NewCodeText wraps an answer set a caller memoizes outside this
// package; answers must have cap == len and stay unmodified from here on.
func NewCodeText(answers []Answer) *CodeText { return &CodeText{answers: answers} }

// Answers returns the answer set the text renders (read-only).
func (t *CodeText) Answers() []Answer { return t.answers }

// Quoted returns AppendQuoted(nil, answers) as a string, rendering it
// once: concurrent first callers may each render, but only the first to
// publish wins, and every caller returns that one string.
func (t *CodeText) Quoted() string {
	if p := t.quoted.Load(); p != nil {
		return *p
	}
	s := string(AppendQuoted(nil, t.answers))
	if !t.quoted.CompareAndSwap(nil, &s) {
		return *t.quoted.Load()
	}
	return s
}
