GO ?= go

.PHONY: check bench-check build vet test race fuzz-smoke fmt-check advise-demo obs-demo serve-demo statusz-demo update-demo views-demo

# check is the full local gate: static checks, build, the race-enabled
# test suite, a short fuzz smoke of the XPath parser and the response
# encoder, the benchmark module, and one iteration of the join-kernel
# microbenchmark so its set-up cannot silently break.
check: vet build race fuzz-smoke bench-check
	$(GO) test -run='^$$' -bench=JoinKernel -benchtime 1x ./internal/rewrite

# bench-check compiles, vets, tests and smoke-runs bench/, a nested
# module that imports internal/* packages which `./...` at the root never
# builds: a signature change there must break this, not the next
# benchmark run.
bench-check:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...
	bash bench/run.sh -smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# race runs the whole suite under the race detector, then ten more times
# the rewrite-memo tests (concurrent first executions of one plan, hits
# interleaved with mutations, shared answer slices) with the two mutation
# hammers (the memo's generation check is the one guard between a
# mutation and a stale answer), the plan cache's mixed Get/Put/PutAlias/
# GetOrCompute race over full shards (sketch and admission under the
# shard locks), the degraded-path memo tests (refused
# queries answered from their negative plan's contained and BN memos
# beside a mutating writer), the plan-entry hammer (readers of several
# spellings and strategies sharing one entry per query beside view-set
# changes and mutations), the contained rung's dedup differential
# and the filtering-pass tests (pooled scratch reused across filters, 64
# readers of one filter): a publication race or a scratch handed to two
# readers shows up in a few schedules, not in every one. The same goes for the label-path tests: refinement
# against its decode-per-fragment oracle, pooled verdict scratch across
# path tables, and 64 goroutines refining while AddView, mutations and
# Advise intern new paths. And the join kernel's: the memoized joiner
# against its backtracking oracle, one pooled joiner's verdict rows
# reused across arenas, plans and aborted joins.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run 'TestMemo|TestDegradedMemo|TestPlanEntryHammer|TestContainedDedup|TestJoinMutationHammer|TestMaintainHammer|TestConcurrentMixedKeys' . ./internal/rewrite ./internal/plancache
	$(GO) test -race -count=10 -run 'TestFilter(Differential|ScratchReuse|Concurrent)' ./internal/vfilter
	$(GO) test -race -count=10 -run 'TestRefine(Differential|ScratchReuse)|TestLabelPath|TestJoin(Differential|ScratchReuse)' ./internal/rewrite ./internal/views
	$(GO) test -race -count=10 -run 'TestLabelPathHammer' .

# fuzz-smoke fuzzes the XPath parser, the daemon's query-response
# encoder (against encoding/json), the plan-cache oracle (scripts of
# queries, mutations and view-set changes over a four-key cache, against
# direct evaluation), the holistic join (random upper patterns, pins and
# fragment streams, against the backtracking oracle) and the
# navigational walk (random trees and patterns over the whole document,
# a scope and a root-pinned copy, against the DP matcher) for ten
# seconds each.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=10s ./internal/xpath
	$(GO) test -run='^$$' -fuzz=FuzzQueryResponse -fuzztime=10s ./internal/server
	$(GO) test -run='^$$' -fuzz=FuzzPlanCacheOracle -fuzztime=10s .
	$(GO) test -run='^$$' -fuzz=FuzzJoinOracle -fuzztime=10s ./internal/rewrite
	$(GO) test -run='^$$' -fuzz=FuzzNavWalk -fuzztime=10s ./internal/engine

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# obs-demo exercises the observability surface end to end: an -explain
# run of the paper's running example (Figure 2 document, Table I views,
# query Q_e) with the slow-query log and metrics dump armed. It writes
# nothing into the tree; the hit path's telemetry cost is held by
# TestTelemetryOverheadAllocs.
obs-demo:
	printf '%s' '<b><t/><a/><a/><s><t/><p/><p/><f><i/></f><s><t/><p/><p/><f><i/></f></s></s><s><t/><p/><p/><s><t/><p/><f><i/></f></s><s><t/><p/></s></s></b>' > /tmp/xpv-book.xml
	$(GO) run ./cmd/xpvquery -doc /tmp/xpv-book.xml \
		-view '//s[t]/p' -view '//s[a][.//i]//p' -view '//s[*//t]//p' -view '//s[p]/f' \
		-strategy HV -explain -slowlog 1ns -metrics '//s[f//i][t]/p'

# serve-demo boots xpvserved on the paper's running example (Figure 2
# document, Table I views), round-trips a query, the explain endpoint,
# liveness and the metrics exposition, then drains it with SIGTERM and
# requires a clean exit.
serve-demo:
	printf '%s' '<b><t/><a/><a/><s><t/><p/><p/><f><i/></f><s><t/><p/><p/><f><i/></f></s></s><s><t/><p/><p/><s><t/><p/><f><i/></f></s><s><t/><p/></s></s></b>' > /tmp/xpv-book.xml
	$(GO) build -o /tmp/xpvserved ./cmd/xpvserved
	set -e; \
	/tmp/xpvserved -addr 127.0.0.1:8931 -doc /tmp/xpv-book.xml \
	  -view '//s[t]/p' -view '//s[a][.//i]//p' -view '//s[*//t]//p' -view '//s[p]/f' \
	  -slowlog 1ms & pid=$$!; \
	for i in $$(seq 1 100); do curl -fsS http://127.0.0.1:8931/readyz >/dev/null 2>&1 && break; sleep 0.1; done; \
	curl -fsS -X POST -d '{"query": "//s[f//i][t]/p", "include_xml": true}' http://127.0.0.1:8931/v1/query; \
	curl -fsS -G --data-urlencode 'query=//s[f//i][t]/p' --data-urlencode 'strategy=HV' http://127.0.0.1:8931/v1/explain >/dev/null; \
	curl -fsS http://127.0.0.1:8931/healthz; \
	curl -fsS http://127.0.0.1:8931/metrics | grep xpvd_requests_total; \
	kill -TERM $$pid; \
	wait $$pid; \
	echo "serve-demo: drained cleanly"

# statusz-demo exercises the tenant observability surface end to end:
# boots xpvserved with trace export and pprof armed, sends a query with
# a W3C traceparent header and checks the trace ID round-trips into the
# response, reads /statusz (text and JSON) including the SLO burn-rate
# block, pokes the pprof side listener, then drains with SIGTERM and
# requires the propagated trace to have landed in the JSONL export.
statusz-demo:
	printf '%s' '<b><t/><a/><a/><s><t/><p/><p/><f><i/></f><s><t/><p/><p/><f><i/></f></s></s><s><t/><p/><p/><s><t/><p/><f><i/></f></s><s><t/><p/></s></s></b>' > /tmp/xpv-book.xml
	$(GO) build -o /tmp/xpvserved ./cmd/xpvserved
	rm -f /tmp/xpv-traces.jsonl
	set -e; \
	/tmp/xpvserved -addr 127.0.0.1:8932 -doc /tmp/xpv-book.xml \
	  -view '//s[t]/p' -view '//s[a][.//i]//p' -view '//s[*//t]//p' -view '//s[p]/f' \
	  -trace-export /tmp/xpv-traces.jsonl -pprof 127.0.0.1:8933 -slowlog 1ns & pid=$$!; \
	for i in $$(seq 1 100); do curl -fsS http://127.0.0.1:8932/readyz >/dev/null 2>&1 && break; sleep 0.1; done; \
	curl -fsS -X POST -H 'traceparent: 00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01' \
	  -d '{"query": "//s[f//i][t]/p"}' http://127.0.0.1:8932/v1/query \
	  | grep 4bf92f3577b34da6a3ce929d0e0e4736 >/dev/null; \
	curl -fsS http://127.0.0.1:8932/statusz; \
	curl -fsS http://127.0.0.1:8932/statusz | grep -q 'availability_burn'; \
	curl -fsS 'http://127.0.0.1:8932/statusz?format=json' | grep -q '"tenants"'; \
	curl -fsS 'http://127.0.0.1:8932/statusz?runtime=1' | grep -q 'runtime /sched/goroutines'; \
	curl -fsS http://127.0.0.1:8933/debug/pprof/cmdline >/dev/null; \
	kill -TERM $$pid; \
	wait $$pid; \
	grep -q 4bf92f3577b34da6a3ce929d0e0e4736 /tmp/xpv-traces.jsonl; \
	echo "statusz-demo: trace exported, statusz healthy"

# update-demo exercises the mutation surface end to end: boots xpvserved
# on the paper's running example, inserts a titled section via POST
# /v1/update, checks the query surface sees the new paragraph, deletes
# the section, checks the answer disappears, then drains with SIGTERM
# and requires a clean exit.
update-demo:
	printf '%s' '<b><t/><a/><a/><s><t/><p/><p/><f><i/></f><s><t/><p/><p/><f><i/></f></s></s><s><t/><p/><p/><s><t/><p/><f><i/></f></s><s><t/><p/></s></s></b>' > /tmp/xpv-book.xml
	$(GO) build -o /tmp/xpvserved ./cmd/xpvserved
	set -e; \
	/tmp/xpvserved -addr 127.0.0.1:8934 -doc /tmp/xpv-book.xml \
	  -view '//s[t]/p' -view '//s[a][.//i]//p' -view '//s[*//t]//p' -view '//s[p]/f' \
	  -slowlog 1ms & pid=$$!; \
	for i in $$(seq 1 100); do curl -fsS http://127.0.0.1:8934/readyz >/dev/null 2>&1 && break; sleep 0.1; done; \
	code=$$(curl -fsS -X POST -d '{"op":"insert","parent_code":"0","xml":"<s><t/><p/></s>"}' \
	  http://127.0.0.1:8934/v1/update | sed -n 's/.*"code": *"\([^"]*\)".*/\1/p'); \
	test -n "$$code"; echo "update-demo: inserted section at $$code"; \
	curl -fsS -X POST -d '{"query": "//s[t]/p"}' http://127.0.0.1:8934/v1/query | grep -q "\"$$code\."; \
	curl -fsS -X POST -d "{\"op\":\"delete\",\"code\":\"$$code\"}" http://127.0.0.1:8934/v1/update >/dev/null; \
	curl -fsS -X POST -d '{"query": "//s[t]/p"}' http://127.0.0.1:8934/v1/query | { ! grep -q "\"$$code\."; }; \
	curl -fsS http://127.0.0.1:8934/metrics | grep xpvd_updates_total; \
	kill -TERM $$pid; \
	wait $$pid; \
	echo "update-demo: insert/delete round-trip visible to queries, drained cleanly"

# views-demo exercises the view observatory end to end: boots xpvserved
# on the paper's running example, serves a few queries, reads the
# per-view attribution from GET /v1/views and the drift/calibration
# block from /statusz, checks the join-kernel and calibration metrics in
# /metrics, then runs the library-level report through xpvquery
# -viewstats. The three identical queries never check the cost model
# (the first seeds its scale, the memo serves the other two), so
# /statusz must print calibration as n/a. CI runs this on every push.
views-demo:
	printf '%s' '<b><t/><a/><a/><s><t/><p/><p/><f><i/></f><s><t/><p/><p/><f><i/></f></s></s><s><t/><p/><p/><s><t/><p/><f><i/></f></s><s><t/><p/></s></s></b>' > /tmp/xpv-book.xml
	$(GO) build -o /tmp/xpvserved ./cmd/xpvserved
	set -e; \
	/tmp/xpvserved -addr 127.0.0.1:8935 -doc /tmp/xpv-book.xml \
	  -view '//s[t]/p' -view '//s[a][.//i]//p' -view '//s[*//t]//p' -view '//s[p]/f' \
	  -slowlog 1ns & pid=$$!; \
	for i in $$(seq 1 100); do curl -fsS http://127.0.0.1:8935/readyz >/dev/null 2>&1 && break; sleep 0.1; done; \
	for i in 1 2 3; do curl -fsS -X POST -d '{"query": "//s[f//i][t]/p"}' http://127.0.0.1:8935/v1/query >/dev/null; done; \
	curl -fsS http://127.0.0.1:8935/v1/views; \
	curl -fsS http://127.0.0.1:8935/v1/views | grep -q '"hits":3'; \
	curl -fsS http://127.0.0.1:8935/statusz | grep -q 'calibration_err: n/a'; \
	curl -fsS http://127.0.0.1:8935/statusz | grep -q 'drift: armed='; \
	curl -fsS http://127.0.0.1:8935/metrics | grep -q 'xpv_joins_total'; \
	curl -fsS http://127.0.0.1:8935/metrics | grep -q 'xpv_cost_calibration_err_ppm_count'; \
	kill -TERM $$pid; \
	wait $$pid; \
	$(GO) run ./cmd/xpvquery -doc /tmp/xpv-book.xml \
		-view '//s[t]/p' -view '//s[a][.//i]//p' -view '//s[*//t]//p' -view '//s[p]/f' \
		-strategy HV -viewstats '//s[f//i][t]/p' | grep -q '"benefit_per_kb"'; \
	echo "views-demo: per-view attribution visible over HTTP and CLI"

# advise-demo generates a positive workload and runs the advisor against
# the naive top-k baseline at the same byte budget.
advise-demo:
	$(GO) run ./cmd/xpvgen -queries 300 -positive -scale 0.1 -seed 2008 > /tmp/xpv-workload.txt
	$(GO) run ./cmd/xpvadvise -workload /tmp/xpv-workload.txt -scale 0.1 -seed 2008 -budget 196608 -compare -apply
