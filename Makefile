GO ?= go

# Markdown files whose links (and godoc-bearing packages) the docs gates
# cover.
DOCS = README.md DESIGN.md EXPERIMENTS.md PAPER_MAP.md \
       examples/quickstart/README.md examples/remoteswap/README.md \
       examples/multitenant/README.md examples/kvcache/README.md \
       examples/graphanalytics/README.md

.PHONY: all build vet test bench bench-check bench-check-recorded bench-smoke bench-e2e smoke race stress stress-check figures docs-check links-check examples

all: vet build test docs-check links-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Record the benchmark baseline to BENCH_1.json (see scripts/bench.sh).
bench:
	scripts/bench.sh

# Regression gate: A/B the gated hot-path benchmarks — baseline ref
# (BENCH_AB_BASE, default HEAD~1) in a throwaway worktree vs the working
# tree, both on THIS machine — and fail on >15% ns/op growth, any
# allocs/op increase, or any allocation on the Memory hit paths
# (scripts/bench_ab.sh).
bench-check:
	scripts/bench_ab.sh

# The old recorded-baseline gate: rerun the headline benchmarks and diff
# against BENCH_1.json. Only meaningful on the machine that recorded the
# baseline; bench-check (A/B at HEAD) is the portable gate.
bench-check-recorded:
	$(GO) test -run '^$$' -benchmem -count 1 -benchtime 2s \
	  -bench 'BenchmarkSimulatorThroughput$$|BenchmarkPredictorFaultPath$$' . \
	  | python3 scripts/bench2json.py > /tmp/leap_bench_fresh.json
	python3 scripts/bench_compare.py BENCH_1.json /tmp/leap_bench_fresh.json

# bench/ is a module of its own (the end-to-end benchmark, see
# bench/README.md), so `go test ./...` never reaches its tests: the smoke
# test runs every workload at 1/1000 and every probe once and holds the
# output against BENCHMARK.json.
bench-smoke:
	$(GO) test -C bench ./...

# One untraced end-to-end run of workload W, as the benchmark driver makes
# it: make bench-e2e W=seq_read_far
W ?= seq_read_far
bench-e2e:
	bash bench/run.sh --workload $(W) --seed 1 --seconds 20 --trace 0

# Quick end-to-end check: one figure at test scale.
smoke:
	$(GO) run ./cmd/leapbench -scale small -fig 1

# Every figure is held byte-for-byte to its recorded golden by
# TestFiguresMatchGolden (internal/experiments, part of `make test`); the
# two targets below are the race detector's.
race:
	$(GO) test -race ./...

# The suites whose interleavings want more than one roll, three times over:
# the Memory model (stress, read-your-writes and chaos over the option
# cross-product) and its per-feature slices, single-flight, the compressed
# tier, the control plane alone and wired into the runtime, the host model
# (op tapes against a page map) and its slices, the wall-clock, buffer-reuse,
# page-map-model and unacked-window tests of the wire path, and the scripted
# test link those are played on. The Memory model's corpus runs in a go test
# of its own: under the race detector it takes about as long as the rest of
# the root package's list, and each go test binary has its own timeout.
STRESS_MODEL = TestMemoryModel
STRESS = TestMemoryTransientOutageRecovers|TestMemoryConcurrent|TestMemoryReadYourWrites|TestMemorySharded|TestSharded|TestSingleFlight|TestMemoryZtier|TestMemoryWireCompression|TestMemoryPlaneSelfHeals|TestMemoryEnsembleStress|TestMemoryAdviseReadYourWritesProperty|TestPipelineDepthFollowsTheLink|TestTCPNoDeadlockWithSmallSocketBuffers|TestResponseBufferNotReusedBeforeLanding|TestLentResponseRevoked|TestHostModel|TestRangeWriteModel|TestStoreModel|TestWriteFramesStayInFlight|TestUnackedWindowBlocksWriter|TestLandingLandsOlderFlightsOfItsLink|TestWriteFailureSurfacesAtNextDoorbell|TestRepushLeavesPageToWriteInFlight|TestRepairOntoHotHolder|TestDropHotAfterRepairOntoHolder|TestWritebackHandoffNoAlias|TestReplicateHotRacingWrite|TestTrainOnTCP|TestIssueMovesInTrains|TestRunAheadCapIsHalfTheBudget|TestDetector|TestAutoscaler|TestHotPageReplication|TestActionStream|TestObserveDuringTick|TestOnActionReentrant|TestScriptedLink
STRESS_PKGS = . ./internal/runtime ./internal/remote ./internal/control
stress:
	$(GO) test -race -count 3 -run '^$(STRESS_MODEL)$$' .
	$(GO) test -race -count 3 -run '$(STRESS)' $(STRESS_PKGS)

# Fails when an alternative of STRESS_MODEL or STRESS matches no test of
# STRESS_PKGS: a test renamed or deleted would otherwise silently stop being
# stressed.
stress-check:
	@names=$$($(GO) test -list '.*' $(STRESS_PKGS)) || exit 1; status=0; \
	for alt in $$(echo '$(STRESS_MODEL)|$(STRESS)' | tr '|' ' '); do \
	  echo "$$names" | grep -Eq -- "$$alt" || { echo "STRESS: $$alt matches no test"; status=1; }; \
	done; exit $$status

# Regenerate every figure and table at full scale.
figures:
	$(GO) run ./cmd/leapbench

# Godoc gate: every exported symbol in every package must carry a doc
# comment (cmd/docscheck).
docs-check:
	$(GO) run ./cmd/docscheck . ./cmd/* ./examples/* ./internal/*

# Markdown link gate: relative links and anchors in the documentation set
# must resolve.
links-check:
	python3 scripts/check_links.py $(DOCS)

# Run every example: each one's output must equal its README's "Sample
# output" block, except remoteswap's, which only has to exit 0
# (scripts/check_examples.sh).
examples:
	GO=$(GO) scripts/check_examples.sh
