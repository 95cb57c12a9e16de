GO ?= go

# Coverage gate: total statement coverage must stay at or above this.
# The tree sat at ~72.7% when the gate was introduced; the floor sits a
# couple of points below so unrelated churn doesn't trip it, while a
# wholesale untested subsystem does.
COVER_FLOOR ?= 70.0

.PHONY: all test race cover lint lint-pragma-budget cross fuzz-smoke bench-smoke bench-check obs-smoke shard-smoke serve-smoke ingest-smoke build size ci

all: test

build:
	$(GO) build ./...

# Tier-1 gate: vet plus the full test suite (includes the chaos
# regression suite in internal/scan).
test:
	$(GO) vet ./...
	$(GO) test ./...

# The in-repo static-analysis suite (determinism, enum exhaustiveness,
# concurrency hygiene, error discipline, and the pool/lock/goroutine
# lifecycle analyzers — see docs/LINTS.md). Any finding is a nonzero
# exit.
lint:
	$(GO) run ./cmd/dnssec-lint ./...

# Suppression budget: every //lint:allow must carry a reason and the
# production-code pragma count must equal the reviewed budget constant
# in internal/lint/pragma_test.go.
lint-pragma-budget:
	$(GO) test ./internal/lint/ -run 'TestPragmaBudget'

# The tree must build off Linux too: platform-specific code lives in
# _linux.go/_other.go pairs. vet for darwin/arm64; Windows gets only a
# build, because two tests use syscall.Kill and Setrlimit.
cross:
	GOOS=darwin GOARCH=arm64 $(GO) vet ./...
	GOOS=windows $(GO) build ./...

# The chaos and concurrency paths under the race detector.
race:
	$(GO) test -race ./...

# Statement coverage across every package, enforced against
# COVER_FLOOR. The profile is left in coverage.out for
# `go tool cover -html=coverage.out`.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	@$(GO) tool cover -func=coverage.out | awk -v floor=$(COVER_FLOOR) \
		'/^total:/ { cov = $$3; gsub("%", "", cov); \
		  printf "total coverage %s%% (floor %s%%)\n", cov, floor; \
		  if (cov + 0 < floor + 0) { print "coverage below floor"; exit 1 } }'
	@$(GO) test -cover ./internal/zone/ ./internal/ingest/ | awk -v floor=$(COVER_FLOOR) \
		'$$1 == "ok" { cov = $$5; gsub("%", "", cov); \
		  printf "%s coverage %s%% (floor %s%%)\n", $$2, cov, floor; \
		  if (cov + 0 < floor + 0) { print "per-package coverage below floor"; exit 1 } }'

# 30 seconds of coverage-guided fuzzing per target; the checked-in
# corpora under testdata/fuzz/ replay as ordinary tests in `make test`.
fuzz-smoke:
	$(GO) test ./internal/dnswire/ -fuzz FuzzUnpack -fuzztime 30s
	$(GO) test ./internal/dnswire/ -run '^$$' -fuzz FuzzPackCompression -fuzztime 30s
	$(GO) test ./internal/zone/ -fuzz FuzzParseZone -fuzztime 30s
	$(GO) test ./internal/zone/ -run '^$$' -fuzz FuzzZoneOps -fuzztime 30s
	$(GO) test ./internal/scan/ -run '^$$' -fuzz FuzzObservationRoundTrip -fuzztime 30s
	$(GO) test ./internal/ingest/ -run '^$$' -fuzz FuzzIngest -fuzztime 30s
	$(GO) test ./internal/server/ -run '^$$' -fuzz FuzzNXDOMAINProof -fuzztime 30s
	$(GO) test ./internal/report/ -run '^$$' -fuzz FuzzFold -fuzztime 30s

# One iteration of every benchmark of every package — checks they still
# run, not their numbers — then 200 of BenchmarkScanStream, enough collections for its
# per-zone allocations, bytes and GC CPU share (ROADMAP item 2b), plus
# a metrics snapshot from a small instrumented scan, kept as a CI
# artefact so latency/counter regressions are diffable.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem . ./internal/... ./cmd/...
	$(GO) test -run '^$$' -bench ScanStream -benchtime 200x .
	mkdir -p artifacts
	$(GO) run ./cmd/dnssec-scan -scale 500000 -metrics-out artifacts/metrics.json -out queries

# The benchmark harness is a nested module that the root `go vet` and
# `go test ./...` never enter: vet it and run its own tests (names held
# equal to BENCHMARK.json, trace reconciliation, nothing left running).
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Sharded-orchestration conformance: a `dnssec-scan -shards 4` run —
# the binary coordinating four re-executed copies of itself, one of them
# SIGKILLed mid-run and restarted from its dump — must produce a merged
# JSONL dump whose record bodies (`reanalyze -out body`: each line
# without its trailing cost object), headline and CSVs are
# byte-identical to a default single-process run over the same world.
# `-rate 100` holds each worker to about a second, so its dump grows
# past 32 records before it is done (it moves no body byte on the
# simulated network); the coordinator must report at least one restart.
# A `-shards 2` run without -dump, whose workers still dump into the
# run directory, must print the same headline.
shard-smoke:
	rm -rf artifacts/shard
	mkdir -p artifacts/shard/bin artifacts/shard/csv-ref artifacts/shard/csv-merged
	$(GO) build -o artifacts/shard/bin/ ./cmd/dnssec-scan ./cmd/reanalyze
	artifacts/shard/bin/dnssec-scan -scale 500000 \
		-dump artifacts/shard/ref.jsonl -csv-dir artifacts/shard/csv-ref \
		-out headline > artifacts/shard/ref.txt
	artifacts/shard/bin/dnssec-scan -shards 4 -scale 500000 -run-dir artifacts/shard/run \
		-kill-shard 1 -kill-after-zones 32 -restart-backoff 50ms -rate 100 \
		-dump artifacts/shard/merged.jsonl -csv-dir artifacts/shard/csv-merged \
		-out headline > artifacts/shard/merged.txt 2> artifacts/shard/merged.log || { \
		cat artifacts/shard/merged.log; exit 1; }
	grep -Eq '\([1-9][0-9]* restarts\)' artifacts/shard/merged.log || { \
		cat artifacts/shard/merged.log; \
		echo "shard-smoke: the injected kill caused no restart"; exit 1; }
	artifacts/shard/bin/dnssec-scan -shards 2 -scale 500000 -run-dir artifacts/shard/run-nodump \
		-out headline > artifacts/shard/nodump.txt
	artifacts/shard/bin/reanalyze -in artifacts/shard/ref.jsonl -out body > artifacts/shard/ref.body.jsonl
	artifacts/shard/bin/reanalyze -in artifacts/shard/merged.jsonl -out body > artifacts/shard/merged.body.jsonl
	cmp artifacts/shard/ref.body.jsonl artifacts/shard/merged.body.jsonl
	cmp artifacts/shard/ref.txt artifacts/shard/merged.txt
	cmp artifacts/shard/ref.txt artifacts/shard/nodump.txt
	for f in table1 table2 table3 figure1; do \
		cmp artifacts/shard/csv-ref/$$f.csv artifacts/shard/csv-merged/$$f.csv || exit 1; \
	done
	@echo "shard-smoke: 4-shard merged dump bodies (one worker killed and restarted), headline and CSVs, and the 2-shard headline without -dump, byte-identical to single-process run"

# Serving-path gate: dnsd serves the signed smoke zone on an ephemeral
# port, dnsblast drives it with a zipfian UDP+TCP mix and asserts
# nonzero qps with zero protocol errors, then SIGTERM must produce a
# clean graceful drain (exit 0, in-flight queries answered) and a
# well-formed metrics snapshot.
serve-smoke:
	GO="$(GO)" sh scripts/serve_smoke.sh

# Real-zone ingestion gate: the golden gzipped uk. dump must reduce to
# the checked-in target list byte-for-byte through cmd/zonestat, and a
# dnssec-scan -zonefile scan over the same dump must reproduce the
# checked-in headline — the full dump→targets→scan→report chain.
ingest-smoke:
	rm -rf artifacts/ingest
	mkdir -p artifacts/ingest/bin
	$(GO) build -o artifacts/ingest/bin/ ./cmd/dnssec-scan ./cmd/zonestat
	artifacts/ingest/bin/zonestat -targets-out artifacts/ingest/targets.txt \
		internal/ingest/testdata/golden/uk_dump.zone.gz > artifacts/ingest/stats.json
	cmp internal/ingest/testdata/golden/targets.txt artifacts/ingest/targets.txt
	artifacts/ingest/bin/dnssec-scan -zonefile internal/ingest/testdata/golden/uk_dump.zone.gz \
		-seed 1 -scale 500000 -out headline > artifacts/ingest/headline.txt
	cmp internal/ingest/testdata/golden/headline.txt artifacts/ingest/headline.txt
	@echo "ingest-smoke: golden dump reduction and -zonefile scan match fixtures"

# Observability round-trip: a traced scan's -trace-out stream must parse
# back through `reanalyze -trace` (every line one exchange: zone, server,
# question, rcode or error) to an exchange total equal to its line count,
# and its -dump must give one `reanalyze -out explain` line per record.
obs-smoke:
	mkdir -p artifacts
	$(GO) run ./cmd/dnssec-scan -scale 500000 -trace-out artifacts/trace.jsonl -dump artifacts/obs.jsonl -out headline
	$(GO) run ./cmd/reanalyze -trace artifacts/trace.jsonl > artifacts/trace-summary.txt
	cat artifacts/trace-summary.txt
	test "$$(sed -n 's/^trace: \([0-9]*\) exchanges.*/\1/p' artifacts/trace-summary.txt)" -eq "$$(wc -l < artifacts/trace.jsonl)"
	$(GO) run ./cmd/reanalyze -in artifacts/obs.jsonl -out explain > artifacts/explain.jsonl
	test "$$(grep -c '^{"zone":' artifacts/explain.jsonl)" -eq "$$(wc -l < artifacts/obs.jsonl)"
	@echo "obs-smoke: $$(wc -l < artifacts/explain.jsonl) records explained"

# How much program there is: non-test Go lines per package (testdata/
# excluded), totals for internal/, cmd/ and examples/ (whose mains are
# roots that keep code alive under the unused lint), the number of cmd/
# binaries, and the flags each defines —
# plus internal/core, where the scan command's flags are registered for
# dnssec-scan and scanctl, on a row of its own. Printed at the end of
# `make ci` so a PR's before/after is one diff.
FLAG_DEF_RE = (flag|fs)\.((Bool|Duration|Float64|Int|Int64|String|Uint|Uint64)(Var)?|Var|Func)\(
size:
	@echo "non-test Go lines per package:"
	@for d in $$(find internal cmd -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | xargs -n1 dirname | sort -u); do \
		printf '%7d  %s\n' $$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' | xargs cat | wc -l) $$d; \
	done
	@for t in internal cmd examples; do \
		printf '%7d  %s/ total\n' $$(find $$t -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | xargs cat | wc -l) $$t; \
	done
	@printf 'binaries under cmd/: %d\n' $$(ls -d cmd/*/ | wc -l)
	@echo "flag definitions per binary:"
	@for d in cmd/*/ internal/core/; do \
		printf '%7d  %s\n' $$(cat $$(ls $$d*.go | grep -v '_test.go$$') | grep -cE '$(FLAG_DEF_RE)') $$d; \
	done

# The full local CI gate: gofmt (no file may need reformatting), vet,
# the lint suite, build (for darwin and windows too), the race-enabled
# test suite (includes the chaos, cache-invariance and
# observability-neutrality regressions; the allocation ceilings run in
# the plain suite of `make cover`, being excluded under -race), the
# fuzz smoke, the trace round-trip, the benchmark harness's own checks,
# the smokes, and the size report.
ci:
	test -z "$$(gofmt -l .)"
	$(GO) vet ./...
	$(MAKE) lint
	$(MAKE) lint-pragma-budget
	$(GO) build ./...
	$(MAKE) cross
	$(GO) test -race ./...
	$(MAKE) cover
	$(MAKE) fuzz-smoke
	$(MAKE) ingest-smoke
	$(MAKE) obs-smoke
	$(MAKE) bench-check
	$(MAKE) shard-smoke
	$(MAKE) serve-smoke
	$(MAKE) size
