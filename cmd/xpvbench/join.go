package main

// Join-kernel driver (-join): runs the rewrite stage in a tight loop on
// the serving benchmark fixture (8-view person query over XMark) and
// prints the per-stage split, sequential versus the prefix-partitioned
// parallel join. Combine with -cpuprofile to capture the join path for
// `go tool pprof` — the loop spends most of its samples in the
// loser-tree merge build and the per-fragment embeds.

import (
	"fmt"
	"io"
	"time"

	"xpathviews/internal/dewey"
	"xpathviews/internal/pattern"
	"xpathviews/internal/rewrite"
	"xpathviews/internal/selection"
	"xpathviews/internal/views"
	"xpathviews/internal/xmark"
	"xpathviews/internal/xpath"
)

var joinViews = []string{
	"//person/name",
	"//person/emailaddress",
	"//person/phone",
	"//person/address/city",
	"//person/homepage",
	"//person/creditcard",
	"//person/profile/age",
	"//person/watches/watch",
}

const joinQuery = "//person[emailaddress][phone][address/city][homepage][creditcard][profile/age][watches/watch]/name"

func runJoin(w io.Writer, quick bool) error {
	scale, iters := 1.0, 200
	if quick {
		scale, iters = 0.3, 50
	}
	fmt.Fprintf(w, "join kernel: XMark scale=%.1f, %d views, %d iterations per mode\n",
		scale, len(joinViews), iters)
	doc := xmark.Generate(xmark.Config{Scale: scale, Seed: 2008})
	enc, fst, err := dewey.EncodeTree(doc)
	if err != nil {
		return err
	}
	reg := views.NewRegistry(doc, enc)
	for _, v := range joinViews {
		if _, err := reg.Add(xpath.MustParse(v), 0); err != nil {
			return err
		}
	}
	q := pattern.Minimize(xpath.MustParse(joinQuery))
	sel, err := selection.Minimum(q, reg.ViewList)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "%-12s %10s %10s %10s %10s %10s %8s\n",
		"mode", "total/op", "refine", "join", "build", "extract", "workers")
	for _, mode := range []struct {
		name    string
		workers int
	}{{"seq", 1}, {"par-2", 2}, {"par-4", 4}} {
		var refine, join, build, extract int64
		joinWorkers := 1
		start := time.Now()
		for i := 0; i < iters; i++ {
			// No Plan: a reused one would remember the Δ-list after the
			// first iteration and the loop would time extraction alone.
			r, err := rewrite.ExecuteOptions(q, sel, fst, nil,
				rewrite.Options{MaxWorkers: mode.workers})
			if err != nil {
				return err
			}
			refine += r.RefineNanos
			join += r.JoinNanos
			build += r.JoinBuildNanos
			extract += r.ExtractNanos
			if r.JoinWorkers > joinWorkers {
				joinWorkers = r.JoinWorkers
			}
		}
		n := int64(iters)
		fmt.Fprintf(w, "%-12s %10v %10v %10v %10v %10v %8d\n",
			mode.name,
			time.Since(start)/time.Duration(n),
			time.Duration(refine/n), time.Duration(join/n),
			time.Duration(build/n), time.Duration(extract/n),
			joinWorkers)
	}
	fmt.Fprintln(w, "note: on a single-core host the parallel modes measure fan-out overhead, not speedup")
	return nil
}
