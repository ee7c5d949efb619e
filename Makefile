GO ?= go

.PHONY: all build test check fmt vet lint vuln race bench bench-corpus bench-diff bench-module microbench diff diff-beyond chaos fuzz-smoke experiments serve gateway clean

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is what CI runs: build, formatting, static analysis (go vet + the
# pipelint invariant suite), full test suite.
check: build fmt lint test

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# lint runs go vet plus the repo-specific pipelint analyzer suite
# (internal/lint): memoalias, ctxflow, errclass, floatcmp, determinism.
# See internal/lint's package docs for the invariant each one guards and
# how to suppress a finding with a justification.
lint: vet
	$(GO) run ./cmd/pipelint ./...

# vuln scans dependencies for known vulnerabilities. govulncheck lives in
# golang.org/x/vuln, which this dependency-free module cannot pin via a
# go.mod tool directive without breaking offline builds, so the tool is
# expected on PATH (CI installs a pinned version; see the lint job).
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (CI runs it pinned)"; \
	fi

# race runs the race detector over the concurrent packages — the memo
# primitive, the serving counters (jobspec), the compiled plan layer, the
# batch engine and its consumers (pareto sweeps, the experiment table
# drivers, the HTTP server, the gateway fan-out, the public SolveBatch
# API) — plus the solver core, the annealing heuristic (its move tables
# are package-level and shared by concurrent searches, so they must stay
# read-only), the branch-and-bound search (its pooled searchers carry the
# caller's context and must drop it before reuse), the scenario
# generator, and the chaos injector, whose package tests exercise them
# from concurrent batch workers.
race:
	$(GO) test -race ./internal/core/ ./internal/algo/heur/ ./internal/algo/exact/ ./internal/gen/ ./internal/memo/ ./internal/jobspec/ ./internal/plan/ ./internal/batch/ ./internal/pareto/ ./internal/experiments/ ./internal/server/ ./internal/gateway/ ./internal/diffcheck/ ./internal/chaos/ .

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

# microbench runs each microbenchmark once — the solver's (BenchmarkAnneal,
# BenchmarkHeuristicSolve, BenchmarkSolveBeyondExactLimit, BenchmarkAssign),
# the plan tier's (BenchmarkPlanBoundClass), the canonical keys'
# (BenchmarkKey, BenchmarkPlanKey, BenchmarkCacheHit), the wire schema's
# (BenchmarkBatchJobs, BenchmarkEncodeOutput), the server's
# (BenchmarkServerSolveHit), the gateway's (BenchmarkRingRoute,
# BenchmarkGatewaySolveHit, BenchmarkGatewaySolveMiss,
# BenchmarkGatewaySolveRoute, BenchmarkGatewayMerge, and
# BenchmarkGatewayBatchSplit on per-job
# instances and on one file-level instance, the plan-sweep shape) and the
# simulator's, plain and replicated (the root BenchmarkSimulatorValidation)
# — so they keep compiling and running. Time them with -benchtime 1s
# -count 5 before and after a change to their package.
microbench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/algo/heur ./internal/algo/matching ./internal/core ./internal/plan ./internal/batch ./internal/jobspec ./internal/server ./internal/gateway
	$(GO) test -run '^$$' -bench SimulatorValidation -benchtime 1x .

# bench-corpus regenerates the committed solver baseline BENCH_solver.json
# (per-variant one-shot and plan-reuse ns/op + allocs + cache hit rate over
# the seeded corpus; 100 iterations keep the plan-speedup ratios stable).
bench-corpus:
	$(GO) test -bench=Corpus -benchtime=100x -run=^$$ .

# bench-diff is the performance regression gate: it times a fresh run of
# the corpus variants (same seeded workload as bench-corpus) and fails if
# any variant's ns/op exceeds 2x its committed BENCH_solver.json value.
# CI runs it before regenerating the baseline artifact.
bench-diff:
	$(GO) run ./cmd/pipebench -exp benchdiff

# bench-module runs the tests of the benchmark module (bench/, its own
# go.mod, so `go test ./...` at the root skips it). It compiles against
# the server, gateway, jobspec and batch APIs, so an API change that
# breaks the benchmark fails here instead of at the next benchmark run.
bench-module:
	cd bench && $(GO) test ./...

# diff runs the differential verification corpus (dispatcher vs brute
# force vs simulator; see EXPERIMENTS.md section DIFF).
diff:
	$(GO) run ./cmd/pipebench -exp diff -instances 1080

# diff-beyond runs the oracle past the exact limit: 3000 draws at the
# benchmark's generator sizes, every "infeasible" answer checked against a
# branch-and-bound search and every degraded value against its optimum.
diff-beyond:
	$(GO) test -count=1 -run '^TestBeyondExactLimit$$' -v ./internal/diffcheck

# chaos runs the fault-tolerance experiment (seeded fault chains, re-solve
# latency, degraded rate, shed burst; see EXPERIMENTS.md section CHAOS).
chaos:
	$(GO) run ./cmd/pipebench -exp chaos -instances 36

# fuzz-smoke runs each fuzz target briefly, as CI does: the jobspec
# schema's, the appending answer encoders against encoding/json, the
# gateway's cuts of /v1/solve bodies and /v1/batch documents against the
# replicas' decoders, and a replica's answers to /v1/solve (with and
# without a work ceiling), /v1/pareto and /v1/simulate requests built
# from fuzzed fields (never a 500). CI runs this target, so the list of
# targets lives here alone.
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=^FuzzFileRoundTrip$$ -fuzztime=30s ./internal/jobspec/
	$(GO) test -run=^$$ -fuzz=^FuzzFloatJSON$$ -fuzztime=30s ./internal/jobspec/
	$(GO) test -run=^$$ -fuzz=^FuzzResultBytes$$ -fuzztime=30s ./internal/jobspec/
	$(GO) test -run=^$$ -fuzz=^FuzzGatewaySplit$$ -fuzztime=30s ./internal/gateway/
	$(GO) test -run=^$$ -fuzz=^FuzzSolveStatus$$ -fuzztime=30s ./internal/server/
	$(GO) test -run=^$$ -fuzz=^FuzzParetoSimulateStatus$$ -fuzztime=30s ./internal/server/

# experiments regenerates the paper-versus-measured record (EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/pipebench

# serve runs the solver HTTP service locally (see cmd/pipeserved -h).
serve:
	$(GO) run ./cmd/pipeserved

# gateway runs the sharded front door locally against replicas named in
# REPLICAS, e.g.
#   make gateway REPLICAS="http://localhost:8081,http://localhost:8082"
# (see cmd/pipegateway -h for routing, retry, and stats-merging flags).
gateway:
	$(GO) run ./cmd/pipegateway -replicas "$(REPLICAS)"

clean:
	$(GO) clean ./...
