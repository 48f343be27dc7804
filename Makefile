GO ?= go

# COVER_FLOOR is the ratcheted minimum total statement coverage for
# `make cover` — raise it when coverage rises, never lower it.
COVER_FLOOR ?= 87.0

.PHONY: all build test vet fmt race equivalence serve-stress fuzz-short cover examples-run bench bench-json bench-serve bench-smoke bench-build bench-run bench-pairs ci

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt fails when `gofmt -l .` lists any file, that is, when gofmt would
# reformat one (or cannot parse it).
fmt:
	@out=$$(gofmt -l .) || exit 1; \
	if [ -n "$$out" ]; then echo "gofmt -l lists files that need formatting:"; echo "$$out"; exit 1; fi

# race runs the full suite under the race detector — the parallel
# solver kernels (internal/parallel, internal/solver) must stay
# race-clean at every worker count the tests exercise.
race:
	$(GO) vet ./...
	$(GO) test -race ./...

# equivalence re-runs the serial-vs-parallel equivalence and
# determinism suite twice (-count=2 catches run-to-run
# nondeterminism that a single pass would miss). Batch and Engine
# cover the multi-RHS solver and the persistent-pool path, which must
# stay bitwise identical to independent solves; Transient covers the
# integrator's per-Δt leased contexts; TraceResume pins the trace
# checkpoint/resume bitwise contract at every worker count and
# precision tier; Precision pins the f32 tier's contracts (every
# scheme bitwise equal at every Workers ≥ 2, its own cache entry);
# ZeroValuePrecond pins Multigrid as the zero-value preconditioner, and
# ZLine checks the explicit z-line scheme against it; ColdStart pins a
# solve without a guess (which starts from r = b and skips the initial
# SpMV) to the same solve seeded with zeros; ArrivalOrder pins
# the service's default config to answers that do not depend on which
# request came first. In
# internal/stack, Equivalence covers solves on arrays an earlier solve
# returned to the solver's free list: dirty buffers and concurrent
# private solves must give their fresh answers bit for bit. The rom
# conformance suite rides along: 200 randomized cross-fidelity
# problems whose certified bounds are a hard contract against the
# full solver.
equivalence:
	$(GO) test -race -run 'Equivalence|Batch|Engine|TraceResume|Family|Transient|Precision|ZLine|ZeroValuePrecond|ColdStart' -count=2 ./internal/solver/ ./internal/parallel/
	$(GO) test -race -run 'Equivalence' -count=2 ./internal/stack/
	$(GO) test -race -run 'Equivalence|Window|ArrivalOrder' -count=2 ./internal/serve/
	$(GO) test -race -run 'Conformance' -count=2 ./internal/rom/

# serve-stress hammers the evaluation service under the race detector:
# concurrent clients with random cancellations, coalescing bursts,
# cache evictions, drain, and goroutine-leak checks — doubled to catch
# run-to-run flakiness.
serve-stress:
	$(GO) test -race -count=2 -run 'Serve|Golden' ./internal/serve/ ./cmd/thermserve/

# fuzz-short runs each native fuzz target for a bounded burst — long
# enough to shake out validation panics, short enough for CI. The
# committed seed corpora (f.Add + testdata/fuzz) always replay in the
# plain test run too.
fuzz-short:
	$(GO) test -fuzz FuzzProblemValidate -fuzztime 10s -run '^$$' ./internal/solver/
	$(GO) test -fuzz FuzzFamilyAssembly -fuzztime 10s -run '^$$' ./internal/solver/
	$(GO) test -fuzz FuzzMeshNew -fuzztime 10s -run '^$$' ./internal/mesh/
	$(GO) test -fuzz FuzzEvalKey -fuzztime 10s -run '^$$' ./internal/serve/
	$(GO) test -fuzz FuzzROMReduce -fuzztime 10s -run '^$$' ./internal/rom/
	$(GO) test -fuzz FuzzTraceRequest -fuzztime 10s -run '^$$' ./internal/specio/

# cover enforces the ratcheted coverage floor (COVER_FLOOR).
cover:
	$(GO) test -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 >= f+0) ? 0 : 1 }' || \
		{ echo "coverage $$total% fell below the ratcheted floor $(COVER_FLOOR)%"; exit 1; }

# examples-run runs every program under examples/ and the quick pass
# over every paper figure, and fails on any non-zero exit. `go build
# ./...` only proves they compile; a solve that fails at run time
# (a preconditioner that stagnates, say) shows up only here. About
# 25 s; stdout is discarded, errors stay on stderr.
examples-run:
	@for d in examples/*/; do \
		echo "go run ./$$d"; \
		$(GO) run ./$$d > /dev/null || { echo "examples-run: $$d failed"; exit 1; }; \
	done
	$(GO) run ./cmd/paperfigs -quick -fig all > /dev/null

bench:
	$(GO) test -run xxx -bench . -benchtime=2x ./internal/solver/

# bench-json snapshots the solver benchmark suite into
# BENCH_solver.json. -count=5 repeats every benchmark five times;
# benchjson folds the repeats into min (ns_per_op — the least-noise
# estimate on a shared box) and median (median_ns_per_op), so
# successive PRs can track the performance trajectory without single
# -run noise swamping the signal. The rom suite rides along so the
# rc-vs-full speedup (x_vs_full) and certified bound (bound_K) land
# in the same snapshot as the full-fidelity rows they compare to.
bench-json:
	{ $(GO) test -run xxx -bench . -benchtime=2x -count=5 ./internal/solver/ && \
	  $(GO) test -run xxx -bench . -benchtime=100x -count=5 ./internal/rom/; } | $(GO) run ./cmd/benchjson > BENCH_solver.json

# bench-serve snapshots the 100-request mixed hot/cold service
# throughput pair (cache+coalescing vs cold-every-time) and the
# cold-family storm pair (micro-batching window off vs on) into
# BENCH_serve.json — the cached run must stay ≥5× the no-cache
# baseline, and the window=on run ≥1.5× faster than window=0 on the
# same storm. Same -count=5 min/median protocol as bench-json.
# The cold-family pair runs at a longer -benchtime: each op is a
# 32-request storm, and at 3x the one-time warmup (key memos, GC
# growth) still dominates the per-op signal.
bench-serve:
	{ $(GO) test -run xxx -bench 'Serve100|ServeBatch' -benchtime=3x -count=5 ./internal/serve/ && \
	  $(GO) test -run xxx -bench 'ServeColdFamily' -benchtime=8x -count=5 ./internal/serve/; } | $(GO) run ./cmd/benchjson > BENCH_serve.json

# bench-smoke is the CI guard against benchmark rot: one fast pass
# over a representative slice of every suite (the zline and the
# default multigrid preconditioners, fused solver kernels, small-n
# parallel overhead, batch vs independent, one private set-up and one
# V-cycle per workload shape, one fused SpMV per workload shape,
# placement loop, one Table I placement, service throughput). It checks the benchmarks still build
# and run — timing numbers on shared CI runners are not compared. The
# placement prints dispatches/op, the solver regions that woke helper
# goroutines (the paper flow's grids should read 0), and solves/op and
# iters/op, its thermal solves and their PCG iterations.
bench-smoke:
	$(GO) test -run xxx -bench 'SteadyPrecond/precond=zline/n=16|SteadyPrecond/precond=multigrid/n=16|SteadyBatch|SmallNReduce|SteadyMG96Workers/precision=f32/workers=1|MGCyclePrecision|SetupShapes|MGCycleShapes|SpMVShapes|TransientTrace/workers=1/segments=4' -benchtime=1x ./internal/solver/ ./internal/parallel/
	$(GO) test -run xxx -bench 'PlacementLoop|PlaceScaffold12' -benchtime=1x ./internal/pillar/
	$(GO) test -run xxx -bench 'Serve100Mixed|ServeColdFamily/window=on|SteadyFamily/cached=on' -benchtime=1x ./internal/serve/ ./internal/solver/
	$(GO) test -run xxx -bench 'ROMEval/n=16' -benchtime=1x ./internal/rom/

# bench-build vets and compiles the repository benchmark (perfbench/,
# its own Go module that replaces thermalscaffold with this checkout).
# The root `go build ./...` never sees that module, so without this an
# API change that breaks the benchmark would only surface when the
# benchmark runs.
bench-build:
	cd perfbench && GOWORK=off $(GO) vet ./... && GOWORK=off $(GO) build -o /dev/null .

# bench-run runs every BENCHMARK.json workload for one second through
# perfbench/run.sh and fails unless each one's result line reports
# "correct":true and "failed":0. bench-build only compiles the
# benchmark, so a workload broken at run time would otherwise pass.
# About 20 s after the build; timings are not compared.
bench-run:
	@workloads=$$(sed -n 's/.*"name": *"\([^"]*\)", *"why".*/\1/p' BENCHMARK.json); \
	test -n "$$workloads" || { echo "bench-run: no workloads found in BENCHMARK.json"; exit 1; }; \
	for w in $$workloads; do \
		line=$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 1 --trace 0 | tail -n 1); \
		echo "$$w: $$line"; \
		case "$$line" in \
		*'"correct":true,'*'"failed":0,'*) ;; \
		*) echo "bench-run: workload $$w did not answer correctly"; exit 1 ;; \
		esac; \
	done

# bench-pairs compares one BENCHMARK.json workload between revision
# BASE and this checkout: PAIRS alternating pairs of SECONDS-long runs
# through perfbench/run.sh, seeded by pair index, with BASE built in a
# git worktree under .bench_build that is removed afterwards. It prints
# each side's round_p50_ms and setup_s medians and quartiles and the
# checkout's win count, and fails on any run that does not answer
# correctly. Run it on an otherwise idle machine: 10 pairs of 10 s
# take about 5 minutes (6 for trace, whose set-up is slower).
#   make bench-pairs BASE=HEAD~ WORKLOAD=paperflow PAIRS=10 SECONDS=10
PAIRS ?= 10
SECONDS ?= 10
bench-pairs:
	@test -n "$(BASE)" && test -n "$(WORKLOAD)" || { echo "bench-pairs: set BASE=<rev> and WORKLOAD=<name>"; exit 2; }
	bash scripts/bench-pairs.sh "$(BASE)" "$(WORKLOAD)" "$(PAIRS)" "$(SECONDS)"

# ci is the gate: gofmt + vet + race-clean full suite + doubled
# equivalence (which also pins determinism with telemetry attached) +
# the service stress suite + fuzz bursts + the ratcheted coverage floor
# + a run of every example and quick figure + a build of the
# repository benchmark.
ci: fmt race equivalence serve-stress fuzz-short cover examples-run bench-build
