GO ?= go
BIN := bin

.PHONY: build test race bench backend-gate obs-gate chaos fuzz lint raxmlvet trace fmt clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench runs the Go micro-benchmarks. The repository's benchmark — four
# workloads, end-to-end and per-layer metrics, paired comparison — is
# `go run ./benchmark` (BENCHMARK.json, benchmark/README.md).
bench:
	$(GO) test -run=NONE -bench=. -benchmem ./...

# backend-gate: every likelihood backend (likelihood.Backends lists them,
# newBackend resolves each) must reproduce the scalar reference on the 42_SC
# search (same accepted moves, logL within 1e-9), and TestTwinGates, the
# four no-worse gates a search that is not bit-identical with its parent
# passes through, as one table of parallel pairs: random-start searches that
# solve only the short list of each prune must end no lower than their
# exhaustive twins, searches whose regraft walks stop at the likelihood
# cutoff no lower than their full-walk twins, searches that solve no prescore
# which lost the cutoff no lower than their twins that list such prescores,
# and fits and searches that smooth each branch for its length only, at
# eps/n, no lower than their exactly smoothed twins (go test -race ./... runs
# the short-list row whole and a prefix of the others). The per-kernel
# equivalence suite — the
# two Newton passes, the step, the stop rule against the parent's, the
# solve's entry-point safeguard, the length-only solve against the full one,
# what the kernel timers bracket and the prescore against
# combine-then-evaluate included, and the newview set-up's bits (the
# unrolled transition matrices against model.GTR.TransitionMatrix, the tip
# tables' one-hot columns, a combine with a tip on either side against the
# scalar loops), the class tables' bits (a newview, an evaluate, a prescore
# and CarryAcross that read an inner child's class table against the scalar
# loops) — the vector-store fuzz seeds (FuzzEpochCacheEquivalence: lazy-SPR
# scoring, both stages, through the store against a fresh engine), the
# absolute kernel-cost bounds, the cutoff's rule on the walk and the short
# list (every 42_SC prune solves exactly the short list) and
# the site-repeat properties (TestRepeats*: one row per
# repeat class has the bits of one row per pattern, classes outlive length
# and model changes and fall exactly with the topology behind them), the range
# executor's (GOMAXPROCS 1 against 4 bit for bit, four engines publishing at
# once, adoption only of idle CPUs) and the short list's ties and non-finite
# scores (an error, never ranked) must pass under the race detector. Traced
# 5-s runs of wide24, search20-serial and campaign20 must then hold the
# exact, host-independent counts in the jq filters below (needs jq); wide24
# runs twice, with the range executor's helper and under GOMAXPROCS=1
# without it, and both must read the same counts, Newton iterations and
# flops. campaign20's bootstrap jobs run on the patterns their replicate drew
# while its replay runs them on the whole replicate and checks the logL bits
# of every traced job.
# Last, `raxml` on a 24 x 4 000 alignment (five blocks of
# patterns) must write byte-identical stdout and tree at GOMAXPROCS 1 and 2.
# The fuzz session that hunts for alignment shapes where a backend diverges is
# part of `make fuzz`.
backend-gate:
	@mkdir -p $(BIN)
	$(GO) test -count=1 -run 'TestBackendCrossValidation42SC|TestTwinGates' -v ./internal/search
	$(GO) test -race -count=1 -run 'TestBackend|TestNewton|TestTipProjection|TestParallel|TestExecutor|TestHelpers|TestPrescoreMatchesCombineThenEvaluate|TestRepeats|TestMakeNewzTo|TestKernelTime|TestTransitionMatricesBits|TestTipTableColumns|TestCombineLoneTipEitherSide|TestClassTables|FuzzBackendEquivalence|FuzzEpochCacheEquivalence' ./internal/likelihood
	$(GO) test -race -count=1 -run 'TestNewtonSafeguardShare42SC|TestSmoothingOneLogPerPatternPerSolve42SC|TestCandidateCost42SC|TestOptimizeAlphaCost42SC|TestBrentMax|TestResultBitsIndependentOfGOMAXPROCS|TestShortListTieBreak|TestCutoffRule|TestNonFiniteScoreNeverSteers' -v ./internal/search
	$(GO) run ./benchmark --workload wide24 --seed 1 --seconds 5 --trace 1 | tail -n 1 | tee $(BIN)/wide24.json | jq -e \
		'.failed == 0 and .metrics["likelihood.evaluate_calls"].value <= 16 and .metrics["likelihood.makenewz_calls"].value == 180 and .metrics["likelihood.newview_calls"].value == 506 and .metrics["likelihood.newton_iters"].value == 438 and .metrics["likelihood.flops"].value == 642232304'
	GOMAXPROCS=1 $(GO) run ./benchmark --workload wide24 --seed 1 --seconds 5 --trace 1 | tail -n 1 > $(BIN)/wide24-serial.json
	jq -e -n --slurpfile a $(BIN)/wide24.json --slurpfile b $(BIN)/wide24-serial.json \
		'def counts: [.failed, (.metrics | [."likelihood.newview_calls", ."likelihood.makenewz_calls", ."likelihood.evaluate_calls", ."likelihood.newton_iters", ."likelihood.flops"] | map(.value))]; ($$a[0] | counts) == ($$b[0] | counts)'
	$(GO) run ./benchmark --workload search20-serial --seed 1 --seconds 5 --trace 1 | tail -n 1 | jq -e \
		'.failed == 0 and .metrics["likelihood.newview_calls"].value == 3329 and .metrics["likelihood.makenewz_calls"].value == 787 and .metrics["likelihood.newton_iters"].value == 1967 and .metrics["likelihood.flops"].value == 100727322'
	$(GO) run ./benchmark --workload campaign20 --seed 1 --seconds 5 --trace 1 | tail -n 1 | jq -e \
		'.failed == 0 and .metrics["likelihood.newview_calls"].value == 20592 and .metrics["likelihood.makenewz_calls"].value == 4157 and .metrics["likelihood.newton_iters"].value == 9101 and .metrics["likelihood.flops"].value == 262605763'
	$(GO) build -o $(BIN)/raxml ./cmd/raxml
	$(GO) run ./cmd/seqgen -seed 4252 -taxa 24 -sites 4000 -mean-branch 0.1 -invariant 0.1 -out $(BIN)/wide.phy
	for p in 1 2; do GOMAXPROCS=$$p $(BIN)/raxml -in $(BIN)/wide.phy -inferences 1 -bootstraps 0 -seed 3 -rounds 2 -radius 3 \
		-quiet -out $(BIN)/wide.nwk > $(BIN)/wide-$$p.txt && mv $(BIN)/wide.nwk $(BIN)/wide-$$p.nwk || exit 1; done
	cmp $(BIN)/wide-1.txt $(BIN)/wide-2.txt && cmp $(BIN)/wide-1.nwk $(BIN)/wide-2.nwk

# obs-gate: the span tracer / flight recorder / histogram / debug-server
# suite under the race detector, the pinned-seed chaos flight post-mortem
# scenario, and a real CLI run whose wall-trace and flight artifacts are
# re-validated on write. The instrumentation-overhead ratio is the
# benchmark's obs.instrumented_ratio.
obs-gate:
	@mkdir -p $(BIN)
	$(GO) test -race -count=1 \
		-run 'Span|Flight|Histogram|DebugServer|WallTrace|Instrumentation|KernelHists|MetricsContent' \
		./internal/obs/... ./internal/mw/... ./internal/search/... ./internal/core/...
	RAXML_CHAOS_SEED=$${RAXML_CHAOS_SEED:-42} $(GO) test -race -count=1 \
		-run 'TestFlightChaosDumpQuarantine|TestSupervisePanicRecovery' ./internal/mw
	$(GO) run ./cmd/seqgen -seed 4251 -taxa 12 -sites 400 -out $(BIN)/obs.phy
	$(GO) run ./cmd/raxml -in $(BIN)/obs.phy -inferences 1 -bootstraps 3 -workers 2 \
		-rounds 2 -radius 3 -trace-out $(BIN)/wall-trace.json -flight-out $(BIN)/flight.json

# chaos replays the fault-injection campaigns under the race detector with a
# pinned seed, so a failure here is reproducible bit for bit, together with
# the stop tests: a deadline or an abort stops a search within one prune.
# Override RAXML_CHAOS_SEED to explore other fault schedules.
chaos:
	RAXML_CHAOS_SEED=$${RAXML_CHAOS_SEED:-42} $(GO) test -race -count=1 \
		-run 'Chaos|Supervise|Quarantine|Retry|Hang|Backoff|Checkpoint|Resumed|Fault|Stop' \
		./internal/mw/... ./internal/fault/... ./internal/core/... ./internal/search/...

# fuzz runs every fuzz target for a short, CI-sized session each: random
# bytes at the checkpoint loaders, edit/invalidate/read interleavings against
# the engine's vector store (every step audited against a cold recompute),
# alignment shapes where a backend could diverge from scalar,
# phylo2vec vectors through decode/encode, alignments (taxa, columns,
# ambiguity codes, bootstrap weights with zeros, seed) on which the bit-sliced
# stepwise addition must build the naive loop's start tree, and random bytes
# at the PHYLIP, FASTA, NEXUS and Newick parsers, each of which must return an
# error or a value its writer carries through unchanged. Longer local runs:
# make fuzz FUZZTIME=10m
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzLoadCheckpoint -fuzztime=$(FUZZTIME) ./internal/mw
	$(GO) test -run=NONE -fuzz=FuzzEpochCacheEquivalence -fuzztime=$(FUZZTIME) ./internal/likelihood
	$(GO) test -run=NONE -fuzz=FuzzBackendEquivalence -fuzztime=$(FUZZTIME) ./internal/likelihood
	$(GO) test -run=NONE -fuzz=FuzzPhylo2VecRoundTrip -fuzztime=$(FUZZTIME) ./internal/phylotree
	$(GO) test -run=NONE -fuzz=FuzzStepwiseMatchesNaive -fuzztime=$(FUZZTIME) ./internal/parsimony
	$(GO) test -run=NONE -fuzz=FuzzReadPhylip -fuzztime=$(FUZZTIME) ./internal/alignment
	$(GO) test -run=NONE -fuzz=FuzzReadFasta -fuzztime=$(FUZZTIME) ./internal/alignment
	$(GO) test -run=NONE -fuzz=FuzzReadNexus -fuzztime=$(FUZZTIME) ./internal/alignment
	$(GO) test -run=NONE -fuzz=FuzzParseNewick -fuzztime=$(FUZZTIME) ./internal/phylotree

# lint mirrors the CI gates that need no network: gofmt, go vet, go vet and
# go build for arm64 (the portable path the amd64 vector kernels leave), and
# the four-analyzer project invariant suite (cmd/raxmlvet) driven through the
# vet tool protocol over every package, the commands and the lint engine
# itself included (each run also audits //lint:ignore directives).
# staticcheck/govulncheck run in CI where their pinned versions are
# installed.
lint: raxmlvet
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed for:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./... && GOARCH=arm64 $(GO) build ./...
	$(GO) vet -vettool=$(CURDIR)/$(BIN)/raxmlvet ./...

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
