# Development targets for lmmrank. `make ci` is the full CI gate —
# exactly what .github/workflows/ci.yml runs, so the local and hosted
# gates cannot drift; `make check` is its fast core.

# Pipelines (bench | benchjson) must fail when go test fails, not when
# only the last stage does.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

GO ?= go

.PHONY: ci check fmt vet lint build test race race-multi chaos cover fuzz-smoke bench bench-smoke bench-gate benchmark-smoke docs

# The umbrella target CI calls: the fast gate, the race detector over
# the concurrency-heavy packages (single- and multi-core), the
# deterministic-seed fault sweep, the coverage floors, a bounded fuzz
# smoke, a 1x smoke pass over every benchmark (so the E-series cannot
# rot between bench sessions), the benchmark regression gate, and the
# benchmark of record's own tests.
ci: check race race-multi chaos cover fuzz-smoke bench-smoke bench-gate benchmark-smoke

check: fmt vet lint build test docs

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Deep static analysis and the vulnerability scan, pinned via `go run`
# tool versions so every machine lints identically without polluting
# go.mod. Both need the module proxy to fetch the tool on first use;
# an offline toolchain (no proxy, no cache) skips with a notice instead
# of failing the build — hosted CI has the network and enforces them.
STATICCHECK ?= honnef.co/go/tools/cmd/staticcheck@2025.1.1
GOVULNCHECK ?= golang.org/x/vuln/cmd/govulncheck@v1.1.4
lint:
	@if $(GO) run $(STATICCHECK) -version >/dev/null 2>&1; then \
		$(GO) run $(STATICCHECK) ./...; \
	else \
		echo "lint: staticcheck unavailable (offline toolchain?); skipped"; \
	fi
	@if $(GO) run $(GOVULNCHECK) -version >/dev/null 2>&1; then \
		$(GO) run $(GOVULNCHECK) ./...; \
	else \
		echo "lint: govulncheck unavailable (offline toolchain?); skipped"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The distributed runtime is concurrency-heavy, internal/lmm holds the
# parallel-pipeline regression tests (undeduped shared graphs), and the
# root package hosts the concurrent Engine serving tests; keep all three
# race-clean. The explicit timeout keeps a wedged networked test from
# stalling CI for the runner's full budget.
race:
	$(GO) test -race -timeout 10m . ./internal/dist/... ./internal/lmm/...

# The multicore race leg: the serving pool, keyed admission and
# coalescing paths schedule very differently on one core than on four,
# and a race that needs real parallelism to interleave never fires at
# GOMAXPROCS=1. -count=1 defeats the test cache — a cached verdict from
# a different GOMAXPROCS proves nothing.
race-multi:
	GOMAXPROCS=4 $(GO) test -race -timeout 10m -count=1 .

# The fault-injection sweep: the seeded kill/rejoin/resume soak over the
# chaos-proxied fleet, race-checked. The seed is fixed in the test, so a
# CI failure reproduces locally with this exact command.
chaos:
	$(GO) test -race -run 'Chaos' -timeout 10m -count=1 ./internal/dist/...

# Documentation gate: go vet's doc-adjacent checks run under `vet`; this
# target additionally fails when any package (library or command) lacks a
# godoc package comment — the repo's docs rot guard. Library packages
# must carry "// Package <name> ..."; main packages "// Command <name>
# ...". Keep it grep-simple so it stays dependency-free.
docs:
	@fail=0; \
	for d in $$($(GO) list -f '{{.Dir}}' ./...); do \
		if ! grep -qsE '^// (Package|Command) ' $$d/*.go; then \
			echo "missing package comment: $$d"; fail=1; \
		fi; \
	done; \
	if [ $$fail -ne 0 ]; then \
		echo "every package needs a '// Package ...' or '// Command ...' godoc comment"; exit 1; \
	fi

# Coverage floors. internal/dist+partition: the merged statement
# coverage of the distributed runtime's tests must not fall below
# COVER_FLOOR percent (the tree measured 86.5% when the gate was
# introduced). Root package: the engine/serving/admission paths must
# not fall below ROOT_COVER_FLOOR percent (89.4% when introduced).
# Both floors leave headroom for noise without letting the tests rot.
COVER_FLOOR      ?= 80
ROOT_COVER_FLOOR ?= 75
COVER_PROFILE    ?= cover.out
cover:
	$(GO) test -coverprofile=$(COVER_PROFILE) \
	    -coverpkg=./internal/dist/...,./internal/partition/... \
	    -timeout 10m ./internal/dist/... ./internal/partition/... > /dev/null
	@total=$$($(GO) tool cover -func=$(COVER_PROFILE) | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
	rm -f $(COVER_PROFILE); \
	echo "internal/dist+partition coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || { \
		echo "internal/dist+partition coverage $$total% fell below the $(COVER_FLOOR)% floor"; exit 1; \
	}
	$(GO) test -coverprofile=$(COVER_PROFILE) -coverpkg=. -timeout 10m . > /dev/null
	@total=$$($(GO) tool cover -func=$(COVER_PROFILE) | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
	rm -f $(COVER_PROFILE); \
	echo "root lmmrank coverage: $$total% (floor $(ROOT_COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(ROOT_COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || { \
		echo "root lmmrank coverage $$total% fell below the $(ROOT_COVER_FLOOR)% floor"; exit 1; \
	}

# Quick smoke pass over every benchmark in the module (bounded like
# `race`, for the same CI reason).
bench-smoke:
	$(GO) test -bench . -benchtime 1x -timeout 10m -run '^$$' ./...

# Bounded fuzz smoke over every fuzz target, one `go test -fuzz` run
# per target (the flag takes a single target per package). Keeps the
# corpus-driven guards — hostile text and gob graph input, COW clone
# isolation and coalescing-fingerprint safety — from rotting between
# dedicated fuzz sessions.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadText$$' -fuzztime $(FUZZTIME) -timeout 10m ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeGob$$' -fuzztime $(FUZZTIME) -timeout 10m ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzCloneCOW$$' -fuzztime $(FUZZTIME) -timeout 10m ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzQueryFingerprint$$' -fuzztime $(FUZZTIME) -timeout 10m .

# The benchmark of record (benchmark/, its own module built against this
# checkout through a replace directive) is outside ./..., so nothing
# above compiles it. Its tests check BENCHMARK.json against the metric
# catalog and run every workload briefly, traced and untraced, so a
# refactor that breaks the harness fails here rather than at the next
# benchmark run.
benchmark-smoke:
	cd benchmark && $(GO) test -timeout 10m ./...

# The benchmark regression gate: re-run the pinned serving-path
# benchmarks and fail on a >30% ns/op or allocs/op regression against
# the latest recorded session in BENCH_pr2.json (see cmd/benchjson
# -compare for the exact rules; pins default inside the tool).
bench-gate:
	$(GO) test -run '^$$' -benchmem -count=3 -timeout 20m \
	    -bench '^BenchmarkE(3Fig3FlatPageRank|4Fig4LayeredDocRank|10UpdateUnderLoad|13TenantServing)$$' . \
	    | $(GO) run ./cmd/benchjson -compare BENCH_pr2.json

# The perf trajectory: run the E-series benchmarks with allocation
# reporting and record the session in BENCH_pr2.json under BENCH_LABEL
# ("before" on the parent commit, "after" on the tip). A rerun with the
# same label replaces that label's record; other labels are preserved.
BENCH       ?= ^BenchmarkE
BENCH_COUNT ?= 5
BENCH_LABEL ?= after
bench:
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchmem -count=$(BENCH_COUNT) . \
	    | $(GO) run ./cmd/benchjson -label $(BENCH_LABEL) -out BENCH_pr2.json
