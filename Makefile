# Developer entry points. Everything is standard library + go toolchain;
# `make tier1` is the gate every change must pass.

GO ?= go

RACE_PKGS = ./internal/propagate ./internal/graph ./internal/crf ./internal/graphner ./internal/features ./internal/serving

.PHONY: all build lint lint-json lint-sarif lint-baseline test race fuzz-smoke bench-smoke bench-serving-smoke bench-e2e-smoke debug-test ci tier1

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
# without a long fuzzing budget; the three decoders of outside bytes
# (ReadArtifact, the /tag handler, the line protocol) each have one — plus a deterministic pass over the
# interprocedural analyzer corpora (marker-checked buggy programs under
# internal/analysis/testdata). FuzzReadArtifact's inputs are whole
# artifact payloads (~6.6 KB), so each newly interesting input is
# minimized for at most 100 runs instead of the default 60 s, which would
# use up the budget.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzTokenize -fuzztime=10s ./internal/tokenize
	$(GO) test -run='^$$' -fuzz=FuzzCompileSentence -fuzztime=10s ./internal/crf
	$(GO) test -run='^$$' -fuzz=FuzzExtractorMatchesReference -fuzztime=10s ./internal/features
	$(GO) test -run='^$$' -fuzz=FuzzReadArtifact -fuzztime=10s -fuzzminimizetime=100x ./internal/graphner
	$(GO) test -run='^$$' -fuzz=FuzzTagHandler -fuzztime=10s ./internal/serving
	$(GO) test -run='^$$' -fuzz=FuzzLineProtocol -fuzztime=10s ./internal/serving
	$(GO) test -run 'TestPoolLife|TestLockAtCall|TestDeterminism|TestErrDrop|TestDiffRoundTrip' -count=1 ./internal/analysis ./cmd/graphnerlint

# Fast performance-regression gate (<30s): the incremental-maintenance
# smoke and golden tests, the bit-identity checks of the pruned k-NN
# search (random vectors, a BC2GM build, and a stress test where the bounds
# decide rows and pruning must engage) and the byte feature-counting pass
# (every feature mode) against their reference implementations, the block-parallel counting pass at
# Workers 1/2/3/8 and the Updater's count runs against a fresh count, the
# block-parallel CRF compile against the serial one, the loss-schedule
# check of the propagation kernel, the streaming contracts (the streamer's
# initial pass equals System.Test, every fold equals a from-scratch
# fixed-sweep run and a full re-decode, and batch schedules agree bit for
# bit), the scaled CRF kernel against its log-space training reference and
# its pooled inference (posteriors, log-likelihood) against a 256-bit
# oracle, L-BFGS against its allocating reference loop and the objective's
# fused gradient fold against the unfused one, and the allocation guards
# on the propagation sweeps, the byte-interning CRF compile, the pooled
# CRF decode paths and the training kernel (testing.AllocsPerRun bounds
# compiled into the tests themselves).
bench-smoke:
	$(GO) test -run 'TestIncrementalSmoke|TestKNNIncrementalOneBatchGolden|TestPatchCSRMatchesBuildCSR|TestKNNMatchesReference|TestKNNPruningStress|TestBuildFeatureModesMatchReference|TestBuildWorkersIdentical|TestUpdaterRunsMatchFreshCount' -count=1 ./internal/graph
	$(GO) test -run 'TestSweepAllocGuard|TestLossEverySchedule' -count=1 ./internal/propagate
	$(GO) test -run 'TestStreamerInitialMatchesTest|TestStreamerFoldMatchesFromScratch|TestStreamerBatchOrderInvariance' -count=1 ./internal/graphner
	$(GO) test -run 'TestDecodeAllocGuard|TestPosteriorsAllocGuard|TestCompileSentenceAllocGuard|TestSentenceGradientAllocGuard|TestSentenceGradientMatchesReference|TestPooledInferenceMatchesExact|TestLBFGSMatchesReference|TestObjectiveEvalMatchesReference|TestCompileMatchesSerial|TestCompileMemoMatchesVisitor|TestCompileMemoConcurrent|TestCompileMemoBound' -count=1 ./internal/crf

# Serving smoke (~8 s of test time): in-process requests through the real
# server — the golden identity check (served tags == System.Test output),
# the p99 latency gate under a deliberately loose bound, the
# zero-allocation warm-request guard, fast-fail refusal at a full queue,
# and the -race chaos test (16 clients, random deadlines, a mid-flight
# Close: every call answered once, the counters account for every call).
bench-serving-smoke:
	$(GO) test -run 'TestServingGolden|TestServingSmoke|TestServingAllocGuard|TestServingOverload' -count=1 ./internal/serving
	$(GO) test -race -run 'TestServingChaos' -count=1 ./internal/serving

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
