GO ?= go

.PHONY: build test race verify check soak soak-cluster soak-rebalance soak-lifecycle vet serve report clean bench bench-serve bench-sweep fuzz

build:
	$(GO) build ./...

test: vet
	$(GO) test ./...

# race is the race detector over the simulator core and every package
# with state shared across goroutines: the sweep service and pool, the
# artifact/run memo (experiment, conc), the metrics registry (obs), and
# the cluster layer. verify and CI both run this one list.
race:
	$(GO) test -race ./internal/core/... ./internal/trace/... ./internal/sweep/... ./internal/faultinject/... ./internal/conc/... ./internal/experiment/... ./internal/obs/... ./internal/cluster/...

# verify is the full pre-merge gate: tier-1, the race detector over the
# simulator core and the concurrent subsystems, an explicit build/vet of
# the metrics layer, and the golden-stats suite (which pins that probes,
# when disabled, leave every fixture byte-identical).
verify: build vet
	$(GO) build ./internal/obs/... && $(GO) vet ./internal/obs/...
	$(GO) test ./...
	$(MAKE) race
	$(GO) test -count=1 -run 'TestGoldenStats' ./internal/core
	$(GO) test -count=1 ./scripts/benchdiff ./scripts/servediff ./scripts/sweepdiff
	$(GO) test -count=1 -run 'TestMcbench' ./cmd/mcbench
	$(MAKE) soak-lifecycle
	$(MAKE) soak-rebalance

# check is verify plus the perf gates: the core microbenchmarks compared
# against BENCH_baseline.json, and the sweep-cell throughput compared
# against BENCH_sweep_baseline.json, so any change that costs simulator
# or sweep throughput fails before merge.
check: verify bench bench-sweep

# bench runs the simulator-core microbenchmarks with -benchmem, writes the
# perf trajectory to BENCH_core.json, and fails when allocs/instr or
# ns/instr regress more than 10% against the committed BENCH_baseline.json
# (the wall-clock gate widens by the run's observed sample spread). After
# a deliberate perf change: cp BENCH_core.json BENCH_baseline.json.
bench:
	$(GO) run ./scripts/benchdiff -out BENCH_core.json -baseline BENCH_baseline.json

# bench-serve is the HTTP-path counterpart of bench: mcbench drives a
# self-hosted mcserved with deterministic open-loop traffic (mixed
# submits, polls, table2 calls, and NDJSON sweeps at a fixed seed),
# writes client-observed RPS / p50/p90/p99 / shed rates per traffic mix
# to BENCH_serve.json, and servediff fails on a >10% p99 or RPS
# regression against the committed BENCH_serve_baseline.json. After a
# deliberate service-perf change: cp BENCH_serve.json BENCH_serve_baseline.json.
bench-serve:
	$(GO) run ./cmd/mcbench -rate 120 -duration 30s -count 2 -concurrency 64 -seed 1 -instr 10000 -out BENCH_serve.json
	$(GO) run ./scripts/servediff -cur BENCH_serve.json -baseline BENCH_serve_baseline.json

# bench-sweep is the grid-throughput gate: the same cell group measured
# through the lazy per-cell pipeline and the batched shared-artifact
# pipeline, in cells/sec. It fails when the batched path falls below a
# 1.5x speedup over lazy (the ratio is intra-run, so machine speed
# cancels out) or when either benchmark's cells/sec drops more than 10%
# against the committed BENCH_sweep_baseline.json. After a deliberate
# perf change: cp BENCH_sweep.json BENCH_sweep_baseline.json.
bench-sweep:
	$(GO) run ./scripts/sweepdiff -out BENCH_sweep.json -baseline BENCH_sweep_baseline.json

# fuzz runs the simulator-core fuzzer for a short budget (seed corpus in
# internal/core/testdata/fuzz is always exercised by plain `make test`).
fuzz:
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzCore -fuzztime 30s

# soak runs the chaos suite under the race detector: fault injection at
# the simulation, cache, and journal boundaries, load shedding, and a
# crash/restart with journal replay.
soak:
	$(GO) test -race -count=1 -v -run 'Chaos' ./internal/sweep/...

# soak-cluster exercises the multi-node layer under the race detector:
# the two-node kill/rejoin (hinted handoff, zero loss) and the chaos
# sweep with the forward path randomly severed.
soak-cluster:
	$(GO) test -race -count=1 -v -run 'TestClusterKillRejoinZeroLoss|TestClusterSoak|TestTwoNodeTable2Identical' ./internal/cluster/...

# soak-lifecycle is the sweep-lifecycle / fair-queueing smoke under the
# race detector: the first-class sweep resource driven end to end
# (create, progress polls, cursor-resumed results, rotating tenants),
# the kill-and-restart journal-resume acceptance test, and the WFQ
# starvation check (an interactive tenant stays live behind a deep
# batch-tenant backlog).
soak-lifecycle:
	$(GO) test -race -count=1 -v -run 'TestMcbenchLifecycleSoak|TestWFQKeepsInteractiveTenantLive' ./cmd/mcbench
	$(GO) test -race -count=1 -v -run 'TestSweepKillRestartResume|TestSweepCursorResume|TestPoolWeightedFairness|TestPoolNoStarvation' ./internal/sweep

# soak-rebalance exercises the self-healing paths under the race
# detector: planned decommission mid-sweep (zero loss, byte-identical
# table2), anti-entropy convergence after a healed partition with a
# truncated hint log, a warm join that pulls its owned ranges without
# recomputation, and replica read-repair.
soak-rebalance:
	$(GO) test -race -count=1 -v -run 'TestDecommissionMidSweepZeroLoss|TestAntiEntropyHealsPartition|TestJoinPullsOwnedRangesNoRecompute|TestReadRepairRefreshesOwner' ./internal/cluster/...

vet:
	$(GO) vet ./...

serve:
	$(GO) run ./cmd/mcserved

report:
	$(GO) run ./cmd/mcreport

clean:
	$(GO) clean ./...
