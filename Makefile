GO ?= go
BIN := bin

.PHONY: build test race bench bench-json scaling-gate backend-gate obs-gate memo-gate chaos fuzz lint raxmlvet trace fmt clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run=NONE -bench=. -benchmem ./...

# bench-json measures the compute-backend x search-worker matrix of the
# SPR search on the 42_SC stand-in workload and writes the result (timings,
# kernel counters, host metadata, speedup, newview-ratio, memo, and
# instrumentation-overhead cells) as schema-validated JSON. The committed
# snapshot is BENCH_PR10.json (BENCH_PR5/6/8/9.json are the retained
# schema/1, /2, /3 and /4 snapshots — PR6 documents the 1.7x pooled newview
# redundancy the shared vector store eliminated); CI regenerates a quick
# variant and validates both. Extra flags:
# make bench-json BENCHJSON_FLAGS="-quick -out /tmp/smoke.json"
BENCHJSON_FLAGS ?= -out BENCH_PR10.json
bench-json:
	$(GO) run ./cmd/benchjson $(BENCHJSON_FLAGS)

# scaling-gate is the local mirror of the CI job of the same name: rebuild
# the full bench matrix and hold it to the PR-8 acceptance budgets — pooled
# newview calls within 1.15x of serial (always enforced by -check) and, on
# hosts with >= 4 CPUs, a 4-worker wall-time speedup of at least
# MIN_SPEEDUP. On smaller hosts the speedup bar is skipped (the redundancy
# gate still applies; work counts do not depend on the CPU count), then a
# short fuzz session interleaves edits/invalidations/reads against the
# shared epoch-tagged store, auditing every epoch against a cold recompute.
MIN_SPEEDUP ?= 1.5
scaling-gate:
	@mkdir -p $(BIN)
	$(GO) run ./cmd/benchjson -reps 3 -out $(BIN)/bench-scaling.json
	@if [ "$$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)" -ge 4 ]; then \
		$(GO) run ./cmd/benchjson -check $(BIN)/bench-scaling.json -min-speedup $(MIN_SPEEDUP); \
	else \
		echo "scaling-gate: < 4 CPUs, skipping the $(MIN_SPEEDUP)x speedup bar"; \
		$(GO) run ./cmd/benchjson -check $(BIN)/bench-scaling.json; \
	fi
	$(GO) test -run=NONE -fuzz=FuzzEpochCacheEquivalence -fuzztime=$(FUZZTIME) ./internal/likelihood

# backend-gate is the local mirror of the CI compute-backend gate: every
# registered likelihood backend must reproduce the scalar reference on the
# 42_SC search (same accepted moves, logL within 1e-9), the per-kernel
# equivalence suite — the two Newton passes, the step, the stop rule against
# the parent's and the solve's entry-point safeguard included — the
# epoch-cache fuzz seeds (lazy-SPR scoring through both view tables against a
# fresh engine) and the absolute kernel-cost bounds must pass under the race
# detector, a short fuzz session hunts for alignment shapes where a backend
# diverges, and two traced 5-s runs hold the exact, host-independent call
# counts of the serial workloads (needs jq).
backend-gate:
	$(GO) test -count=1 -run 'TestBackendCrossValidation42SC' ./internal/search
	$(GO) test -race -count=1 -run 'TestBackend|TestNewton|TestTipProjection|FuzzBackendEquivalence|FuzzEpochCacheEquivalence' ./internal/likelihood
	$(GO) test -race -count=1 -run 'TestNewtonSafeguardShare42SC|TestSmoothingOneLogPerPatternPerSolve42SC|TestCandidateCost42SC|TestOptimizeAlphaCost42SC|TestBrentMax' ./internal/search
	$(GO) test -run=NONE -fuzz=FuzzBackendEquivalence -fuzztime=$(FUZZTIME) ./internal/likelihood
	$(GO) run ./benchmark --workload wide24 --seed 1 --seconds 5 --trace 1 | tail -n 1 | jq -e \
		'.failed == 0 and .metrics["likelihood.evaluate_calls"].value <= 12 and .metrics["likelihood.makenewz_calls"].value == 180 and .metrics["likelihood.newview_calls"].value == 506 and .metrics["likelihood.newton_iters"].value == 550'
	$(GO) run ./benchmark --workload search20-serial --seed 1 --seconds 5 --trace 1 | tail -n 1 | jq -e \
		'.failed == 0 and .metrics["likelihood.newview_calls"].value <= 5800 and .metrics["likelihood.newton_iters"].value <= 12000'

# obs-gate is the local mirror of the CI observability gate: the span
# tracer / flight recorder / Prometheus exposition / histogram suite under
# the race detector, the pinned-seed chaos flight post-mortem scenario, a
# real CLI run whose wall-trace and flight artifacts are re-validated on
# write, and the committed bench snapshot's instrumentation-overhead
# budget (wall-time ratio instrumented/baseline <= MAX_OBS_OVERHEAD; only
# trustworthy on a quiet host, hence a separate knob).
MAX_OBS_OVERHEAD ?= 1.02
obs-gate:
	@mkdir -p $(BIN)
	$(GO) test -race -count=1 \
		-run 'Span|Flight|Prom|Histogram|DebugServer|WallTrace|Instrumentation|KernelHists|MetricsContent' \
		./internal/obs/... ./internal/mw/... ./internal/search/... ./internal/core/...
	RAXML_CHAOS_SEED=$${RAXML_CHAOS_SEED:-42} $(GO) test -race -count=1 \
		-run 'TestFlightChaosDumpQuarantine|TestSupervisePanicRecovery' ./internal/mw
	$(GO) run ./cmd/seqgen -seed 4251 -taxa 12 -sites 400 -out $(BIN)/obs.phy
	$(GO) run ./cmd/raxml -in $(BIN)/obs.phy -inferences 1 -bootstraps 3 -workers 2 \
		-rounds 2 -radius 3 -trace-out $(BIN)/wall-trace.json -flight-out $(BIN)/flight.json
	$(GO) run ./cmd/benchjson -check BENCH_PR10.json -max-obs-overhead $(MAX_OBS_OVERHEAD)

# memo-gate is the local mirror of the CI topology-memo gate: the memo-on
# SPR search must replay the memo-off move sequence exactly (serial and
# pooled, 42_SC fixture) while skipping work, the memo's lock discipline
# must survive the race detector under concurrent probe/insert traffic and
# a deliberately tiny eviction-churning capacity, a short fuzz session
# round-trips random phylo2vec vectors through decode/encode, and the
# committed bench snapshot must show the memo-on serial cell no slower
# than its memo-off twin (only trustworthy on a quiet host, like the obs
# overhead budget).
memo-gate:
	$(GO) test -count=1 -run 'TestTopoMemoEquivalenceGate42SC' ./internal/search
	$(GO) test -race -count=1 -run 'TestTopoMemo' ./internal/search
	$(GO) test -run=NONE -fuzz=FuzzPhylo2VecRoundTrip -fuzztime=$(FUZZTIME) ./internal/phylotree
	$(GO) run ./cmd/benchjson -check BENCH_PR10.json -max-memo-ratio 1.0

# chaos replays the fault-injection campaigns under the race detector with a
# pinned seed, so a failure here is reproducible bit for bit. Override
# RAXML_CHAOS_SEED to explore other fault schedules.
chaos:
	RAXML_CHAOS_SEED=$${RAXML_CHAOS_SEED:-42} $(GO) test -race -count=1 \
		-run 'Chaos|Supervise|Quarantine|Retry|Hang|Backoff|Checkpoint|Resumed|Fault' \
		./internal/mw/... ./internal/fault/... ./internal/core/...

# fuzz throws random bytes at the checkpoint loaders for a short, CI-sized
# session; longer local runs: make fuzz FUZZTIME=10m
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzLoadCheckpoint -fuzztime=$(FUZZTIME) ./internal/mw

# lint mirrors the CI gates that need no network: gofmt, go vet, the
# seven-analyzer project invariant suite (cmd/raxmlvet) driven through
# the vet tool protocol, and the standalone self-lint of the commands and
# the lint engine itself (which also audits //lint:ignore directives).
# staticcheck/govulncheck run in CI where their pinned versions are
# installed.
lint: raxmlvet
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed for:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) vet -vettool=$(CURDIR)/$(BIN)/raxmlvet ./...
	$(BIN)/raxmlvet ./cmd/... ./internal/lint/...

raxmlvet:
	@mkdir -p $(BIN)
	$(GO) build -o $(BIN)/raxmlvet ./cmd/raxmlvet

# trace runs a small simulated MGPS campaign and writes its timeline as
# Chrome trace-event JSON (open in Perfetto or chrome://tracing). cellsim
# schema-validates the file before writing it; the same invocation runs in
# CI and uploads the trace as a build artifact. Byte-determinism of this
# file is pinned by the golden tests in internal/obs.
trace:
	@mkdir -p $(BIN)
	$(GO) run ./cmd/cellsim -stage all-offloaded -scheduler mgps \
		-bootstraps 8 -episodes 40 -trace $(BIN)/trace.json

fmt:
	gofmt -w .

clean:
	rm -rf $(BIN)
