# Development entry points; CI runs the same targets.

GO ?= go
FUZZTIME ?= 10s
COVER_FLOOR ?= 75.0

.PHONY: build test race fmt-check lint lint-selftest lint-guard loadgen-check loc verify validate matrix chaos cluster fuzz cover golden bench bench-guard profile clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Formatting gate: gofmt must have nothing to rewrite in any Go file of the
# tree (lint fixtures and the benchmark module included; dot-directories
# such as the benchmark's .bench_build/ are skipped).
fmt-check:
	@out=$$(find . -path './.*' -prune -o -name '*.go' -print | xargs gofmt -l); \
	if [ -n "$$out" ]; then echo "fmt-check: gofmt would rewrite:"; echo "$$out"; exit 1; fi

# The static gate: the repository's own analyzers (internal/lint) over every
# package. Zero findings required; vetted exceptions go in lint.allow.
# See DESIGN.md §10 and TESTING.md.
lint:
	$(GO) run ./cmd/lint ./...

# Self-test: the gate must still FAIL on the seeded fixture violations under
# cmd/lint/testdata/src — a lint run that cannot find the planted bugs is
# broken, not clean. The golden tests own the fixture list
# (cmd/lint/main_test.go fixtureDirs) and check that every analyzer fires at
# the right file:line with exit status 1.
lint-selftest:
	$(GO) test -count=1 -run '^TestGolden' ./cmd/lint

# Timing guard: a full repo-wide lint run (all analyzers, test files
# included) must stay within 2x the committed BENCH_9.json wall-time
# baseline, so the gate cannot quietly become the slowest part of CI.
lint-guard:
	@start=$$(date +%s%N); $(GO) run ./cmd/lint ./... >/dev/null; end=$$(date +%s%N); \
	echo "BenchmarkLintRepoWide 1 $$((end - start)) ns/op" | \
		$(GO) run ./cmd/benchjson -guard BENCH_9.json -guard-name BenchmarkLintRepoWide -guard-factor 2

# The end-to-end benchmark (cmd/loadgen) is a module of its own, so the root
# build and test never enter it; this vets it and runs its short tests
# against the repository's current packages, so a rename that breaks only
# the benchmark fails here.
loadgen-check:
	$(GO) -C cmd/loadgen vet ./... && $(GO) -C cmd/loadgen test -short ./...

# Go line counts as ROADMAP.md tracks them: every *.go file outside
# cmd/loadgen/ (the benchmark module) and cmd/lint/testdata/ (lint fixtures),
# with *_test.go files counted as test code. Informational; nothing gates on it.
LOC_FILES = find . -path './.*' -prune -o -path ./cmd/loadgen -prune -o -path ./cmd/lint/testdata -prune -o -name '*.go' -print
loc:
	@echo "non-test Go LOC: $$($(LOC_FILES) | grep -v '_test\.go$$' | xargs cat | wc -l)"
	@echo "test Go LOC:     $$($(LOC_FILES) | grep '_test\.go$$' | xargs cat | wc -l)"

# Differential + metamorphic verification against the independent oracles in
# internal/oracle, plus the golden-snapshot existence check, preceded by the
# static gate so local verification matches CI. See TESTING.md.
verify: lint
	$(GO) run ./cmd/verify -quick

# Event-trust lane: the full per-event trust reports for both catalogs (text
# to stdout), plus the validation/similarity test suites — the trust decision
# tree, duplicate/permutation invariance, minimal spanning kernel selection,
# and the /v1/events/validate endpoint. See DESIGN.md §14.
validate:
	$(GO) test -count=1 ./internal/validate/... ./internal/similarity/... ./cmd/validate
	$(GO) test -count=1 -run 'TestMinimalKernels|TestValidate' ./internal/suite ./internal/server
	$(GO) run ./cmd/validate -platform spr
	$(GO) run ./cmd/validate -platform mi250x

# Platform-catalog lane: the platdef codec (property, byte-identity and
# fuzz-seed suites), the data-driven platform registry, the analysis request
# model (keys naming the platform each request reads), the composability
# matrix engine and its /v1/matrix + figures surfaces (cache/store/shard/
# chaos e2e), and -platform-dir overrides and per-request platforms (store
# keys naming definition digests; daemon and CLIs agreeing byte for byte)
# under the race detector, then a full cross-architecture matrix render as a
# smoke run. See DESIGN.md §15.
matrix:
	$(GO) test -race -count=1 ./internal/platdef/... ./internal/matrix/... ./internal/machine/... ./internal/analysis/...
	$(GO) test -race -count=1 -run 'Matrix|Platforms' ./internal/server ./cmd/figures ./cmd/serve
	$(GO) run ./cmd/figures -fig matrix

# Chaos lane: the fault-injection invariants (replay, recovery, degradation —
# DESIGN.md §11) as oracle checks, then the fault-injection e2e tests at every
# seam under the race detector. See TESTING.md "Chaos / fault injection".
chaos:
	$(GO) run ./cmd/verify -chaos -quick
	$(GO) test -race -count=1 ./internal/fault/... ./internal/machine/... ./internal/par/... ./internal/server/...

# Distributed-tier lane: the 3-replica cluster e2e (consistent-hash sharding,
# kill-a-replica failover, measurement-set batching), the restart-warm
# persistent-store path, and server-level store corruption — real loopback
# listeners, all under the race detector. See DESIGN.md §12.
cluster:
	$(GO) test -race -count=1 -run 'TestCluster|TestStoreWarmRestart|TestStoreCorruption|TestBatching|TestSyncAdmission' -v ./internal/server/
	$(GO) test -race -count=1 ./internal/store/... ./internal/shard/...

# Short coverage-guided fuzzing on top of the committed seed corpora under
# testdata/fuzz/. Each target needs its own invocation (go test limitation).
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/catio
	$(GO) test -run '^$$' -fuzz '^FuzzEvalPostfix$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzRoundToGrid$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzMaxRNMSE$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzNoiseProfile$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzCluster$$' -fuzztime $(FUZZTIME) ./internal/similarity
	$(GO) test -run '^$$' -fuzz '^FuzzPlatDef$$' -fuzztime $(FUZZTIME) ./internal/platdef
	$(GO) test -run '^$$' -fuzz '^FuzzLadderRequest$$' -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzTailWarmup$$' -fuzztime $(FUZZTIME) ./internal/cachesim
	$(GO) test -run '^$$' -fuzz '^FuzzTraversal$$' -fuzztime $(FUZZTIME) ./internal/cachesim
	$(GO) test -run '^$$' -fuzz '^FuzzCacheEngine$$' -fuzztime $(FUZZTIME) ./internal/cachesim

# Total statement coverage with a hard floor, so coverage can only ratchet up.
cover:
	$(GO) test -count=1 -coverprofile=cover.out ./...
	@$(GO) tool cover -func=cover.out | awk '/^total:/ { sub(/%/, "", $$3); \
		if ($$3 + 0 < $(COVER_FLOOR)) { printf "coverage %.1f%% is below the %.1f%% floor\n", $$3, $(COVER_FLOOR); exit 1 } \
		else { printf "coverage %.1f%% (floor %.1f%%)\n", $$3, $(COVER_FLOOR) } }'

# Rewrite every CLI golden snapshot after an intentional output change;
# review `git diff cmd/*/testdata` before committing.
golden:
	$(GO) test ./cmd/... -run Golden -update

# Smoke-run the table/figure/collection/projection/validation benchmarks once
# each and record the result as BENCH_7.json, so the performance trajectory is
# versioned alongside the code. -benchtime=1x keeps this cheap enough for CI;
# run `go test -bench 'Serial|Parallel' -benchtime=2s .` for real comparisons.
bench:
	$(GO) test -run '^$$' -bench 'Table|Figure|Collect|BuildX|NoiseFilter|Validate' -benchtime=1x -count=1 . | tee bench.out
	$(GO) run ./cmd/benchjson -out BENCH_7.json < bench.out
	@rm -f bench.out

# Regression guard for the collection hot path: re-run the DCache collection
# benchmark and fail if ns/op exceeds 2x the committed BENCH_7.json baseline,
# or B/op or allocs/op exceed it by more than 10% (they repeat within 0.3%
# across runs and -cpu 1,2,4). -benchtime=2x smooths one-shot jitter without
# making CI slow.
bench-guard:
	$(GO) test -run '^$$' -bench 'BenchmarkCollectDCache$$' -benchtime=2x -count=1 . | tee bench.out
	$(GO) run ./cmd/benchjson -guard BENCH_7.json < bench.out
	@rm -f bench.out

# CPU + heap profiles of the DCache collection hot path; inspect with
# `go tool pprof cpu.prof` / `go tool pprof mem.prof`. cmd/catrun grows the
# same -cpuprofile/-memprofile flags for profiling full benchmark runs.
profile:
	$(GO) test -run '^$$' -bench 'BenchmarkCollectDCache$$' -benchtime=3x -count=1 \
		-cpuprofile cpu.prof -memprofile mem.prof .
	@echo "wrote cpu.prof and mem.prof; inspect with: go tool pprof cpu.prof"

clean:
	rm -f bench.out cover.out cpu.prof mem.prof *.test
