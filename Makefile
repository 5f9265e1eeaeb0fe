# Developer entry points. `make check` is the gate every change must
# pass; CI (.github/workflows/ci.yml) runs the same target.

GO ?= go

# staticcheck is pinned so a new upstream release cannot break CI
# mid-flight; bump deliberately.
STATICCHECK_VERSION ?= 2025.1.1

.PHONY: check build fmt vet vet386 lint cuckoovet test race bench-selftest bench-pair bench-rung bench-smoke fuzz chaos loc cover sweep

check: build fmt vet vet386 lint race bench-selftest

build:
	$(GO) build ./...

# Fails, naming the files, when gofmt would change anything the module
# owns (.bench_build/ holds exported copies of other commits).
fmt:
	@out=$$(gofmt -l . | grep -v '^\.bench_build/' || true); \
	if [ -n "$$out" ]; then echo "gofmt -l . lists:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# The align64 analyzer (docs/ANALYSIS.md) guards the GOARCH=386 layout of
# 64-bit atomics; this is the target it guards, built and vetted so the
# guarantee is about code that compiles there.
vet386:
	GOARCH=386 $(GO) build ./...
	GOARCH=386 $(GO) vet ./...

# lint = the repo's own invariant checker (always; it builds offline from
# this module with no dependencies) + staticcheck when present (CI installs
# the pinned version; locally it is optional so the gate never requires
# network access).
lint: cuckoovet
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

# cuckoovet machine-checks the paper's concurrency invariants (§4.2 atomic
# discipline, §4.4 lock ordering, Eq. 1 snapshot/validate, P1 cache-line
# padding, the two-generation resize) plus two interprocedural proofs on
# one call-graph walker: allocfree (hot paths and span methods allocate
# nothing) and blockcheck (nothing blocks in a lock-free region, nothing
# irreversible runs in a §5 transaction body). Eight analyzers, one
# section each in docs/ANALYSIS.md. -timing prints per-analyzer wall time
# to stderr so a slow analyzer is visible before it eats the CI budget
# (the CI job caps the whole static-analysis step at 5 minutes).
cuckoovet:
	$(GO) run ./cmd/cuckoovet -timing ./...

test:
	$(GO) test ./...

# The second pass reruns, at 1, 2 and 4 Ps, the packages whose bugs have
# only ever shown above two Ps (the split-counter tick's nil dereference,
# the double-folded split slot): on a 2-CPU host the default run never
# reaches the interleavings the paper is about. -count=1 because a
# cached pass proves nothing about a scheduler-dependent bug.
# ./client rides along for its pool, breaker, hot cache and version
# memory: shared state many goroutines reach, ~2 s per pass.
# ./internal/obs and ./internal/metrics ride along for the state they
# publish on first use (flight rings, histogram shards, stage cells): the
# racing first records are only interleaved at more than one P.
# ./internal/chained runs five times on top: its allocator-conflict test
# compares the abort behaviour of two allocators under forced overlap, and
# its predecessor passed single runs while failing under repetition (it
# asserted an abort-rate ordering only one CPU's accidental serialisation
# ever satisfied); five keeps that from reopening silently.
# ./generic's path-search, displacement and concurrent tests run five times
# too: a search reads tag words with no stripe held, and the windows in
# which what it read goes stale are rare on a 2-CPU host.
# ./server's eviction-retry, evicting-SET and one-pin tests run five times
# as well: a SET builds its item before any lock and its version is issued
# inside the key's pin, and the window between that issue and the item's
# publication, where a racing writer of the same key could reorder
# versions, is as rare on a 2-CPU host as the search's. So do the tests of
# what the key's pin alone orders (docs/TRANSACTIONS.md, "What the pin
# orders"): EXEC's exclusion and ordered commit, the mirror log's order,
# the split-counter fold, and the counter exactness under faults, with
# and without split counters, and promotion under contention.
PARALLEL_PKGS = ./generic ./server ./client ./internal/obs ./internal/metrics

race:
	$(GO) test -race ./...
	$(GO) test -race -count=1 -cpu 1,2,4 $(PARALLEL_PKGS)
	$(GO) test -race -count=5 -cpu 1,2,4 ./internal/chained
	$(GO) test -race -count=5 -cpu 1,2,4 -run 'Search|Concurrent|Displace' ./generic
	$(GO) test -race -count=5 -cpu 1,2,4 -run 'EvictRetry|EvictingSet|OnePin|ExecOrderedCommit|ExecExcludes|MirrorOrder|BlindWrite|ChaosCounterExactness|ConcurrentIncrExact|ContentionPromotes' ./server

# The repository benchmark's own tests (declared metric names match
# BENCHMARK.json, recorder arithmetic, cuckoovet-clean harness). It is
# its own module so tier-1 `go test ./...` never reaches it; ~3 s.
bench-selftest:
	cd benchmark && $(GO) test ./...

# Paired runs of the repository benchmark, this checkout against BASE,
# alternating which side goes first (benchmark/README.md, "How to claim a
# gain on a moved metric"): per metric both medians, both quartile
# distances and the pairs this checkout won. About a minute per pair;
# results/PAIR_*.txt are committed outputs of this target. TRACE=1 pairs
# traced runs, for the per-layer metrics (no gain is claimed from those).
WORKLOAD ?= wire-get-pipelined
BASE ?= HEAD~1
PAIRS ?= 10
TRACE ?= 0
bench-pair:
	bash scripts/bench-pair.sh $(WORKLOAD) $(BASE) $(PAIRS) $(TRACE)

# Paired runs of one package's go test -bench rung (PKG/bench_test.go,
# default generic), this checkout against BASE, for what bench-pair's
# ladder cannot resolve: both test binaries built once, run alternately at
# -test.cpu CPU for a fixed iteration count, with BASE against itself as
# the noise floor (scripts/bench-rung.sh). RUNG is a -bench regexp; an
# empty BENCHTIME is the script's per-package default (2000000x for
# generic, 10000x otherwise). SCALE sets the paper figures' sizes (PKG=.:
# small, the default, medium or paper).
PKG ?= generic
RUNG ?= .
ROUNDS ?= 12
BENCHTIME ?=
CPU ?= 1
SCALE ?=
bench-rung:
	bash scripts/bench-rung.sh '$(RUNG)' '$(BASE)' '$(ROUNDS)' '$(BENCHTIME)' '$(CPU)' '$(PKG)' '$(SCALE)'

# Regenerates results/SWEEP_altbucket.txt, the alternate-bucket model's
# table (generic/sweep_test.go: the production twoBuckets/altOf against a
# second hash, the xor rule it replaced and page-local variants; about half
# a minute). The model is seeded, so CI reruns it and fails on any diff:
# the committed table cannot drift from the rule the code uses.
sweep:
	UPDATE_GOLDEN=1 $(GO) test -count=1 -run TestAltBucketSweep ./generic

# Non-test, non-generated Go code lines per package (blank and
# comment-only lines are not counted). The trend is a deliverable:
# CHANGES.md records this table before and after every change.
loc:
	@$(GO) list -f '{{.ImportPath}} {{.Dir}}' ./... | while read pkg dir; do \
		files=$$(ls $$dir/*.go 2>/dev/null | grep -v '_test\.go$$' | xargs -r grep -L '^// Code generated .* DO NOT EDIT\.$$'); \
		[ -n "$$files" ] || continue; \
		cat $$files | awk -v pkg=$$pkg ' \
			/^[ \t]*\/\*/ && !/\*\// { inblock = 1; next } \
			inblock { if (/\*\//) inblock = 0; next } \
			/^[ \t]*$$/ || /^[ \t]*\/\// { next } \
			{ n++ } \
			END { printf "%-44s %6d\n", pkg, n }'; \
	done | awk '{ print; total += $$2 } END { printf "%-44s %6d\n", "total", total }'

# Statements that neither go test ./... nor one -benchtime 1x pass of every
# benchmark runs, merged over both runs' -coverpkg=./... profiles
# (scripts/cover.sh): per package, the module total outside cmd/ and
# examples/, and every function there that never ran. results/COVER.txt is
# the committed output; CI fails when the module total rises above it.
cover:
	bash scripts/cover.sh

# Deterministic chaos suite (docs/ROBUSTNESS.md): fault-injected workloads,
# fault-tolerant clients, drain/restore — always under -race and -count=1
# (no cache) with verbose fault accounting for reproduction. A dedicated CI
# job runs this so the tier-1 test job stays fast.
chaos:
	$(GO) test -race -count=1 -v -run 'TestChaos|TestPoolBreaker|TestDrainSaves' \
	    ./server/ ./client/ ./internal/faultinject/

# Every paper figure's every cell (the root bench_test.go) and the host's
# ceiling, one run each at small scale, written as go test -bench text to
# .bench_build/bench-smoke.txt (CI uploads it). results/RUNG_figs.txt is the
# committed baseline: the same regexp through make bench-rung PKG=.
# BENCHTIME=1x CPU=2.
bench-smoke:
	@mkdir -p .bench_build
	$(GO) test -run '^$$' -bench 'Fig|Eq|Memory|Latency|Zipf|Churn|Ceiling' -benchtime 1x . >.bench_build/bench-smoke.txt || { cat .bench_build/bench-smoke.txt; exit 1; }
	@cat .bench_build/bench-smoke.txt

# Native Go fuzzing of the server text-protocol codec. The corpus seeds
# live in the test; 30s is the CI budget — run longer locally with
# FUZZTIME=10m.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParseCommand -fuzztime $(FUZZTIME) ./server/
