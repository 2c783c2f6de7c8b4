# Developer entry points. Everything is standard library + go toolchain;
# `make tier1` is the gate every change must pass.

GO ?= go

RACE_PKGS = ./internal/propagate ./internal/graph ./internal/crf ./internal/graphner ./internal/features ./internal/serving

.PHONY: all build lint lint-json lint-sarif lint-baseline test race fuzz-smoke bench-smoke bench-lint-smoke bench-shard-smoke bench-lsh-smoke bench-serving-smoke bench-e2e-smoke debug-test ci tier1

all: tier1

build:
	$(GO) build ./...

# The repo's own analyzer suite (internal/analysis): the syntactic checks
# (poolescape, maporder, floatcmp, naninf, ctxloop), the flow-sensitive
# concurrency checks (lockbalance, sharedwrite, atomicmix,
# waitgroupbalance), the interprocedural checks (poollife, lockatcall,
# determinism, errdrop), and the performance-contract checks (noalloc,
# nonblocking, baddirective — `//graphner:` directives enforced over the
# call graph) — graphnerlint runs everything analysis.All() returns, so
# new analyzers are picked up here without Makefile changes. Results are
# cached under .graphnerlint-cache/ keyed on file-content hashes plus the
# analyzer sources themselves; an unchanged tree re-lints in milliseconds.
# Exit codes: 0 no findings, 1 findings, 2 internal error.
lint: build
	$(GO) vet ./...
	$(GO) run ./cmd/graphnerlint ./...

# Ratcheted lint: findings recorded in lint-baseline.json are tolerated,
# anything new fails. `-update-baseline` rewrites the file but refuses to
# let any per-symbol count grow — the baseline only shrinks as debt is
# paid down. The committed baseline is empty; keep it that way.
lint-baseline: build
	$(GO) run ./cmd/graphnerlint -baseline lint-baseline.json ./...

# Same suite, machine-readable: a JSON array of
# {file,line,col,analyzer,message} on stdout for editor/CI integration.
lint-json: build
	$(GO) run ./cmd/graphnerlint -json ./...

# Same suite as a SARIF 2.1.0 log on stdout, for code-scanning uploads
# and annotation tooling. Same exit codes as lint.
lint-sarif: build
	$(GO) run ./cmd/graphnerlint -sarif ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

# 10-second smoke of each fuzz target — catches shallow regressions
# without a long fuzzing budget — plus a deterministic pass over the
# interprocedural analyzer corpora (marker-checked buggy programs under
# internal/analysis/testdata).
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzTokenize -fuzztime=10s ./internal/tokenize
	$(GO) test -run='^$$' -fuzz=FuzzCompileSentence -fuzztime=10s ./internal/crf
	$(GO) test -run 'TestPoolLife|TestLockAtCall|TestDeterminism|TestErrDrop|TestDiffRoundTrip' -count=1 ./internal/analysis ./cmd/graphnerlint

# Fast performance-regression gate (<30s): the incremental-maintenance
# smoke and golden tests, the bit-identity check of the pair-once k-NN
# search against the per-query reference kernel, and the allocation
# guards on the propagation sweeps and pooled CRF decode paths
# (testing.AllocsPerRun bounds compiled into the tests themselves).
bench-smoke:
	$(GO) test -run 'TestIncrementalSmoke|TestKNNIncrementalOneBatchGolden|TestPatchCSRMatchesBuildCSR|TestKNNMatchesReference' -count=1 ./internal/graph
	$(GO) test -run 'TestSweepAllocGuard|TestWarmSweepAllocGuard' -count=1 ./internal/propagate
	$(GO) test -run 'TestDecodeAllocGuard|TestPosteriorsAllocGuard' -count=1 ./internal/crf

# Linter self-benchmark: cold and warm whole-module graphnerlint runs
# (wall time, packages analyzed, findings) written to BENCH_lint.json —
# a warm-time cliff here means the result cache broke.
bench-lint-smoke:
	$(GO) run ./cmd/benchtables -lint

# Sharded-path smoke (<2 s of test time): re-verifies that sharded k-NN
# construction and SPMD propagation with halo exchange are bit-identical
# to the single-index path on tiny corpora (shard counts up to 8,
# serialization round-trip included), plus the zero-alloc steady-state
# guard on the per-shard sweep.
bench-shard-smoke:
	$(GO) test -run 'TestShardedBuildMatchesBuild$$|TestShardGraphRoundTrip' -count=1 ./internal/graph
	$(GO) test -run 'TestRunShardedFlatMatchesRunFlat|TestRunShardedMatchesRun|TestShardedSweepAllocGuard' -count=1 ./internal/propagate

# LSH smoke (<2 s of test time): the recall floor gate for the banded-LSH
# builder across feature modes and K (recall@K >= 0.9 against the exact
# graph on a small corpus), the worker-count bit-identity check, and the
# zero-allocation guard on the steady-state candidate scan
# (testing.AllocsPerRun bound compiled into the test).
bench-lsh-smoke:
	$(GO) test -run 'TestLSHRecallRegression|TestLSHDeterministicAcrossWorkers|TestLSHCandidateAllocGuard' -count=1 ./internal/graph

# Serving smoke (<2 s of test time): in-process requests through the real
# batching server — the golden identity check (served tags == System.Test
# output), the p99 latency gate under a deliberately loose bound, and the
# zero-allocation warm-request guard.
bench-serving-smoke:
	$(GO) test -run 'TestServingGolden|TestServingSmoke|TestServingAllocGuard' -count=1 ./internal/serving

# Smoke test of the repository benchmark (~10 s): all four workloads at
# small sizes with their correctness checks, and the compare verdicts.
# bench/ is its own module, so the root `go test ./...` does not run it.
bench-e2e-smoke:
	cd bench && $(GO) test ./...

# Runtime assertions (internal/analysis/assert) compiled in: CSR shape,
# row-stochastic beliefs per sweep, NaN scans before Viterbi.
debug-test:
	$(GO) test -tags graphner_debug ./internal/analysis/assert ./internal/propagate ./internal/graph ./internal/graphner

# Full CI entry point: the tier-1 gate plus the fuzz smoke.
ci:
	scripts/ci.sh

tier1: build lint test race
