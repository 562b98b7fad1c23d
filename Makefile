# Build/verify entry points. `make verify` is the gate for changes
# touching the concurrent engine: vet plus the full test suite under
# the race detector (so the lock-free LiveLoads tracker and the fused
# parallel selection path stay race-clean) plus a short fuzz smoke of
# every fuzz target, seeded from testdata/fuzz corpora.

GO ?= go

# Per-target budget for `make fuzz`. The default keeps the smoke run
# under a minute; raise it for a real fuzzing session, e.g.
#   make fuzz FUZZTIME=10m FUZZ_ONLY=internal/invariant:FuzzCheckedPath
FUZZTIME ?= 5s

# pkg:target pairs; `go test -fuzz` accepts one target per invocation.
FUZZ_TARGETS := \
	internal/core:FuzzSelectorPath \
	internal/core:FuzzSelect \
	internal/core:FuzzKSampleSelect \
	internal/routetab:FuzzChainTable \
	internal/decomp:FuzzTypeContaining \
	internal/decomp:FuzzBridge \
	internal/mesh:FuzzStaircasePath \
	internal/mesh:FuzzRemoveCycles \
	internal/mesh:FuzzLoopErase \
	internal/mesh:FuzzEdgeBetween \
	internal/invariant:FuzzCheckedPath \
	internal/metrics:FuzzLiveLoadsRuns \
	internal/serial:FuzzLoadProblem \
	internal/serial:FuzzLoadRun \
	internal/serial:FuzzWireSegPaths \
	internal/serial:FuzzWireSegReframe \
	internal/server:FuzzBatchRequest \
	internal/workload:FuzzGenerators

FUZZ_ONLY ?= $(FUZZ_TARGETS)

.PHONY: build test vet race fuzz verify bench bench-json bench-smoke serve-smoke cluster-smoke cover

# Committed in-process benchmark baseline: headline
# Path/SelectAll/SelectAllSeg/KSample benchmarks, the loop-erasure
# kernel (Erase, per path at sides 64/256/1024), the OMP2 codec
# (WireSeg, per path on a recorded side-256 batch), the loopback
# ServerBatch, handler-level ServerBatchPipeline, and gateway-level
# GatewayBatch benchmarks rendered to JSON (ns/op, B/op, allocs/op and
# custom metrics) via cmd/benchjson. Earlier files (BENCH_PR3..23.json)
# form the trajectory.
BENCH_JSON ?= BENCH_PR25.json

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

fuzz:
	@set -e; for t in $(FUZZ_ONLY); do \
		pkg=$${t%%:*}; target=$${t##*:}; \
		echo "fuzz $$pkg $$target ($(FUZZTIME))"; \
		$(GO) test -run '^$$' -fuzz "^$$target$$" -fuzztime $(FUZZTIME) ./$$pkg; \
	done
	@echo "fuzz OK: $(words $(FUZZ_ONLY)) targets x $(FUZZTIME)"

verify: vet race fuzz
	@echo "verify OK: go vet + race-clean tests + fuzz smoke"

cover:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./...
	$(GO) tool cover -func=coverage.out | tail -1

bench:
	$(GO) test -run '^$$' -bench . -benchmem .

bench-json:
	$(GO) test -run '^$$' -bench 'BenchmarkPath|BenchmarkSelectAll|BenchmarkKSample|BenchmarkErase|BenchmarkWireSeg|BenchmarkServer|BenchmarkGateway' -benchmem \
		. ./internal/core ./internal/serial ./internal/server ./internal/gateway | $(GO) run ./cmd/benchjson -o $(BENCH_JSON)

# One-iteration pass over every benchmark: catches benchmarks that
# panic or no longer compile without paying for real measurements (the
# CI benchmark gate), then asserts the run-length hot path's allocation
# budget — PathSelect2D/side256 must stay under half the BENCH_PR4.json
# hop baseline (< 2909 B/op) — and the routing-table dispatch budget:
# warm SelectAllSeg on side 256 with the default chain backend (the
# compiled table) must beat the per-packet recompute reference
# (ChainSourceNone) by >= 1.4x — and the k-sample budget: best-of-4
# selection must cost <= 4.5x the k=1 baseline — and the serve-path
# budget: the pipelined wire2 handler must allocate <= 16 KiB per
# 2048-pair request on the side-256 mesh — and
# the splice budget: the gateway's zero-copy wire2 fan-in must allocate
# <= 80 KiB per 2048-pair side-256 batch over three shards — and the
# live booking
# budget: booking a side-256 permutation batch into LiveLoads with
# AddSegPath (two atomics per run) must cost <= 0.5x the non-atomic
# per-hop recount AccumulateEdgeLoadsSeg of the same paths — and the
# loop-erasure budget: erasing a recorded side-1024 Algorithm-H walk
# must cost <= 2.5x erasing a side-256 one per path (cost follows
# runs, which grow 1.3x, not hops, which grow 4.1x) — and the wire
# checksum budget: the folded FNV-64a hasher must cost <= 0.5x hash/fnv
# per recorded side-256 OMP2 path record (same values, same trailer).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
	$(GO) test -run '^TestBenchGatePathSelect2D$$' -v .
	$(GO) test -run '^TestBenchGateSelectAllSegTable$$' -v ./internal/core
	$(GO) test -run '^TestBenchGateKSample$$' -v ./internal/core
	$(GO) test -run '^TestBenchGateLiveBooking$$' -v ./internal/core
	$(GO) test -run '^TestBenchGateEraseScale$$' -v ./internal/core
	$(GO) test -run '^TestBenchGateWireChecksum$$' -v ./internal/serial
	$(GO) test -run '^TestBenchGateServerPipeline$$' -v ./internal/server
	$(GO) test -run '^TestBenchGateGatewaySplice$$' -v ./internal/gateway

# End-to-end daemon gate: builds the real meshrouted binary, boots it
# on a random port, routes a batch through the typed client over both
# transports, scrapes /metrics, then SIGTERMs it and requires a clean
# drain (exit 0). See cmd/meshrouted/smoke_test.go.
serve-smoke:
	MESHROUTED_SMOKE=1 $(GO) test -run '^TestServeSmoke$$' -v ./cmd/meshrouted

# End-to-end cluster gate: builds meshrouted and meshgate, boots three
# routing daemons plus one sharding gateway (hedging off, so the kill
# below must re-fan) as separate processes, streams ~19k routes
# through the gateway with golden verification against a local Router
# and asserts every batch's checksum-verified wire2 payload equals a
# single daemon's, SIGKILLs one backend mid-run (the remaining batches
# must still verify — re-fan, zero wrong bytes), checks the merged
# metrics books, then SIGTERMs everything and requires clean drains.
# See cmd/meshgate/cluster_smoke_test.go.
cluster-smoke:
	MESHGATE_SMOKE=1 $(GO) test -run '^TestClusterSmoke$$' -v ./cmd/meshgate
