GO ?= go

.PHONY: all build test race vet fmt fmt-check bench bench-smoke bench-ledger ledger-check perfbench-check server cluster-smoke load-smoke adapt-smoke stream-smoke fuzz-smoke docs-check ci

# The perf ledger bench-ledger writes; bump the number with the PR
# sequence so ledger-check can diff consecutive ledgers.
LEDGER ?= BENCH_17.json

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

# Fails fast when any file needs reformatting (CI gate): names the
# offending files, shows the diff, and says how to fix it.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "FAIL: gofmt found unformatted files:"; \
		echo "$$out" | sed 's/^/  /'; \
		echo ""; gofmt -d $$out; \
		echo "run 'make fmt' (or 'gofmt -w .') and re-commit"; \
		exit 1; fi

bench:
	$(GO) test -bench=. -benchmem -run '^$$' . ./internal/core

# CI gate: the batch pipeline (live and index-backed), the indexed
# retrieval clusterer (a regression there reverts clustering to the
# quadratic scan), cold retrieval live vs the persistent index (a
# regression there means the fast path fell out of searchInterest),
# the async job queue end to end over a warm Shared, a scheduler
# sweep firing N due schedules through bounded admission, and the
# load-harness pair: corpusgen size-targeting at 10x plus a warm
# batch run over the 10x corpus, COI detection of 63 reviewers
# against one prepared author list (a regression there means conflict
# checks allocate per reviewer again), and the encoding of a warm
# 12-manuscript batch reply (a regression there means replies carry
# whole profiles or indentation again).
bench-smoke:
	$(GO) test -bench=BenchmarkBatchPipeline -benchtime=1x -run '^$$' .
	$(GO) test -bench='BenchmarkRetrieveCluster|BenchmarkRetrieveCold' -benchtime=1x -run '^$$' ./internal/core
	$(GO) test -bench=BenchmarkJobThroughput -benchtime=1x -run '^$$' .
	$(GO) test -bench=BenchmarkScheduleTick -benchtime=1x -run '^$$' ./internal/jobs
	$(GO) test -bench=BenchmarkAdaptTick -benchtime=100x -run '^$$' ./internal/adapt
	$(GO) test -bench='BenchmarkCorpusGen$$/10x|BenchmarkWarmBatch10x' -benchtime=1x -run '^$$' .
	$(GO) test -bench=BenchmarkSSEFanout -benchtime=1x -run '^$$' ./internal/httpapi
	$(GO) test -bench=BenchmarkIncrementalInvalidate -benchtime=1x -run '^$$' ./internal/core
	$(GO) test -bench=BenchmarkCOIDetection -benchtime=50x -run '^$$' .
	$(GO) test -bench=BenchmarkEncodeBatchReply -benchtime=20x -run '^$$' ./internal/httpapi

# Record the smoke suite as a perf ledger (see cmd/benchledger).
# -count=3 so the ledger keeps the minimum of three observations per
# benchmark — scheduling jitter only ever adds time, so the minimum is
# the closest to the code's true cost on a noisy box. ScheduleTick is
# a ~100µs single-iteration microbenchmark whose one-shot timings
# spread >2x under jitter, so it gets -count=20 for a stable minimum.
bench-ledger:
	@set -e; tmp=$$(mktemp); \
	run() { "$$@" >>"$$tmp" 2>&1 || { cat "$$tmp"; rm -f "$$tmp"; exit 1; }; }; \
	run $(GO) test -bench=BenchmarkBatchPipeline -benchtime=1x -count=3 -benchmem -run '^$$' . ; \
	run $(GO) test -bench='BenchmarkRetrieveCluster|BenchmarkRetrieveCold' -benchtime=1x -count=3 -benchmem -run '^$$' ./internal/core ; \
	run $(GO) test -bench=BenchmarkJobThroughput -benchtime=1x -count=3 -benchmem -run '^$$' . ; \
	run $(GO) test -bench=BenchmarkScheduleTick -benchtime=1x -count=20 -benchmem -run '^$$' ./internal/jobs ; \
	run $(GO) test -bench=BenchmarkAdaptTick -benchtime=100x -count=3 -benchmem -run '^$$' ./internal/adapt ; \
	run $(GO) test -bench='BenchmarkCorpusGen$$/10x|BenchmarkWarmBatch10x' -benchtime=1x -count=3 -benchmem -run '^$$' . ; \
	run $(GO) test -bench=BenchmarkSSEFanout -benchtime=1x -count=3 -benchmem -run '^$$' ./internal/httpapi ; \
	run $(GO) test -bench=BenchmarkIncrementalInvalidate -benchtime=1x -count=3 -benchmem -run '^$$' ./internal/core ; \
	run $(GO) test -bench=BenchmarkCOIDetection -benchtime=50x -count=3 -benchmem -run '^$$' . ; \
	run $(GO) test -bench=BenchmarkEncodeBatchReply -benchtime=20x -count=3 -benchmem -run '^$$' ./internal/httpapi ; \
	$(GO) run ./cmd/benchledger -out $(LEDGER) <"$$tmp"; \
	rm -f "$$tmp"

# CI gate: diff the two most recent committed ledgers; fail on a >20%
# ns/op or allocs/op regression. With fewer than two ledgers on disk
# there is no history yet and the check passes vacuously.
ledger-check:
	@set -- $$(ls BENCH_*.json 2>/dev/null | sort -V); \
	if [ $$# -lt 2 ]; then echo "ledger-check: $$# ledger(s) on disk, nothing to diff"; exit 0; fi; \
	while [ $$# -gt 2 ]; do shift; done; \
	echo "ledger-check: $$1 -> $$2"; \
	$(GO) run ./cmd/benchledger -compare $$1 $$2

# CI gate: perfbench is a module of its own, so the root build and
# tests never compile it; this vets and tests it against the tree, so a
# type change in core, httpapi or jobs that breaks the benchmark fails
# here rather than in the next benchmark run.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

server:
	$(GO) run ./cmd/minaret-server

# CI gate: the cluster acceptance scenario across real processes — a
# router fronting two shard servers on one shared jobs directory; jobs
# submitted through the router for a spread of venues must land on the
# ring owner, run exactly once, and appear in the merged cluster stats.
cluster-smoke:
	$(GO) test -count=1 -run TestClusterSmoke -v ./cmd/minaret-router

# CI gate: the assertable load loop across real processes — corpusgen
# writes an adversarial corpus + ground-truth manifest, a real
# minaret-server scrapes that exact corpus, and loadgen replays a 30s
# mixed-priority trace against it; the checker must pass with zero COI
# leaks and zero identity merges.
load-smoke:
	$(GO) test -count=1 -run TestLoadSmoke -v ./cmd/minaret

# CI gate: the streaming acceptance pair across real processes — a
# mutating simweb feeding a real minaret-server: an SSE client follows
# a job to its terminal event, a corpus mutation invalidates only the
# affected cache entries, and a drift watch fires its signed webhook
# exactly once; then the server is killed and restarted, and the
# durable watch detects a delta applied while it was down.
stream-smoke:
	$(GO) test -count=1 -run 'TestServerStreamSmoke|TestServerWatchSurvivesRestart' -v ./cmd/minaret-server

# CI gate: ten seconds of native Go fuzzing per hardened decoder — the
# envelope file/range readers, the MINWATCH watch-store codec, and the
# SSE Last-Event-ID parser — plus the tokenized name matcher checked
# against its string-based oracle. Long enough to catch a reintroduced
# panic, round-trip break or matcher divergence, short enough for every
# CI run; go test allows one -fuzz pattern per invocation, hence one
# line per target.
fuzz-smoke:
	$(GO) test -fuzz='FuzzDecodeFile$$' -fuzztime=10s -run '^$$' ./internal/envelope
	$(GO) test -fuzz=FuzzDecodeFileRange -fuzztime=10s -run '^$$' ./internal/envelope
	$(GO) test -fuzz=FuzzWatchStoreLoad -fuzztime=10s -run '^$$' ./internal/jobs
	$(GO) test -fuzz=FuzzParseLastEventID -fuzztime=10s -run '^$$' ./internal/httpapi
	$(GO) test -fuzz=FuzzNameMatch -fuzztime=10s -run '^$$' ./internal/nameres

# CI gate: the self-adaptation acceptance scenario — adaptbench replays
# one venue-deadline-spike trace against an undersized server with
# adaptation off and then the threshold policy; the adaptive run must
# shed strictly less, journal at least one applied scale-up, and keep
# every correctness gate at zero.
adapt-smoke:
	$(GO) test -count=1 -run TestAdaptSmoke -v ./cmd/minaret

# Documentation gate: the docs tree exists, every relative markdown link
# in README.md and docs/ resolves, every internal package carries a
# package comment, every minaret-server flag is documented in the
# OPERATIONS.md runbook, and the tree is gofmt/vet clean.
docs-check: fmt-check vet
	@for f in README.md docs/API.md docs/ARCHITECTURE.md docs/OPERATIONS.md; do \
		[ -f "$$f" ] || { echo "docs-check: missing $$f"; exit 1; }; \
	done
	@fail=0; \
	for bin in minaret-server minaret-router; do \
		for f in $$(grep -oE 'flag\.[A-Za-z0-9]+\("[a-z0-9-]+"' cmd/$$bin/main.go | sed -E 's/.*\("([a-z0-9-]+)".*/\1/' | sort -u); do \
			grep -q -- "\`-$$f\`" docs/OPERATIONS.md || { \
				echo "docs-check: flag -$$f (cmd/$$bin) is missing from docs/OPERATIONS.md"; fail=1; }; \
		done; \
	done; \
	for src in cmd/minaret/corpusgen.go cmd/minaret/loadgen.go cmd/minaret/adaptbench.go; do \
		for f in $$(grep -oE 'fs\.[A-Za-z0-9]+\("[a-z0-9-]+"' $$src | sed -E 's/.*\("([a-z0-9-]+)".*/\1/' | sort -u); do \
			grep -q -- "\`-$$f\`" docs/OPERATIONS.md || { \
				echo "docs-check: flag -$$f ($$src) is missing from docs/OPERATIONS.md"; fail=1; }; \
		done; \
	done; \
	[ "$$fail" -eq 0 ] || exit 1
	@fail=0; \
	for f in README.md docs/*.md; do \
		dir=$$(dirname "$$f"); \
		for link in $$(grep -oE '\]\([^)]+\)' "$$f" | sed -e 's/^](//' -e 's/)$$//'); do \
			case "$$link" in http://*|https://*|mailto:*|\#*) continue;; esac; \
			target=$${link%%\#*}; \
			[ -n "$$target" ] || continue; \
			[ -e "$$dir/$$target" ] || { echo "docs-check: $$f: broken link $$link"; fail=1; }; \
		done; \
	done; \
	for d in $$(find internal -type d); do \
		ls "$$d"/*.go >/dev/null 2>&1 || continue; \
		ok=0; \
		for g in "$$d"/*.go; do \
			case "$$g" in *_test.go) continue;; esac; \
			awk 'prev ~ /^\/\// && !(prev ~ /^\/\/go:/) && /^package / {found=1} {prev=$$0} END {exit !found}' "$$g" && { ok=1; break; }; \
		done; \
		[ "$$ok" -eq 1 ] || { echo "docs-check: $$d has no package comment"; fail=1; }; \
	done; \
	[ "$$fail" -eq 0 ] || exit 1
	@echo "docs-check: ok"

ci: fmt-check vet build race perfbench-check bench-smoke cluster-smoke load-smoke adapt-smoke stream-smoke fuzz-smoke ledger-check docs-check
