# Development targets. CI (.github/workflows/ci.yml) runs `make ci`.

GO ?= go

.PHONY: all vet build test test-shuffle race bench bench-smoke bench-smoke-shards bench-json perfbench-test lint lint-json selfcheck telemetry-lint soak scenarios ci

all: ci

vet:
	$(GO) vet ./...

# Static-analysis suite (cmd/askcheck): PISA access legality, sim-clock
# determinism, lock-across-wait, and metric-name hygiene. See DESIGN.md's
# "Static verification" section.
lint:
	$(GO) run ./cmd/askcheck ./...

# Same diagnostics as `lint`, emitted as NDJSON (one JSON object per line:
# file/line/col/analyzer/message) for CI annotation tooling to stream-parse.
lint-json:
	$(GO) run ./cmd/askcheck -json ./...

# The analysis engine and driver pass their own analyzers: askcheck checks
# askcheck. Guards against the embarrassing failure mode of a lint suite
# that cannot survive its own rules.
selfcheck:
	$(GO) run ./cmd/askcheck ./internal/analysis/... ./cmd/askcheck

# Historical alias: the metric-name checks formerly lived in the standalone
# cmd/telemetrylint binary, now folded into askcheck's telemetrynames
# analyzer.
telemetry-lint:
	$(GO) run ./cmd/askcheck -run telemetrynames ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Shuffled test order catches inter-test state dependencies.
test-shuffle:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -run '^$$'

# One iteration of the headline macro-benchmarks: catches harness rot (a
# benchmark that no longer compiles or errors out) without paying full
# measurement time. CI runs this.
bench-smoke:
	$(GO) test -run='^$$' -bench='BenchmarkFig3$$|BenchmarkTable1$$|BenchmarkMultiRack$$|BenchmarkTenancy$$' -benchtime=1x .

# Parallel-scheduler smoke (DESIGN.md "Parallel DES"): a short MultiRack
# run at -shards 4 under the race detector — the sharded goldens assert
# byte-identical results while -race watches the lane goroutines — plus
# one iteration of the shard-sweep benchmarks. CI runs this.
bench-smoke-shards:
	$(GO) test -race -count=1 -run 'TestMultiRackSharded' ./ask
	$(GO) test -run='^$$' -bench='BenchmarkMultiRackShards|BenchmarkFatTreeShards' -benchtime=1x .

# Perf-trajectory artifact (see DESIGN.md "Performance engineering"): run
# the headline macro-benchmarks and serialize wall ns/op, allocs/op, and
# simulated throughput to JSON. Compare two checkouts by saving each
# phase's raw output and feeding both to benchjson (seed=… after=…), or
# point benchstat at the raw files directly.
BENCH_JSON ?= BENCH_current.json
BENCH_PAT  ?= BenchmarkFig3$$|BenchmarkFig7$$|BenchmarkMultiRack$$|BenchmarkScenarios$$|BenchmarkScaling$$|BenchmarkMultiRackShards|BenchmarkFatTreeShards
bench-json:
	$(GO) test -run='^$$' -bench='$(BENCH_PAT)' -benchmem . | tee bench_raw.txt
	$(GO) run ./cmd/benchjson -o $(BENCH_JSON) current=bench_raw.txt
	@rm -f bench_raw.txt
	@echo "wrote $(BENCH_JSON)"

# Repository benchmark at short scale (perfbench/README.md): every workload
# runs once and is checked for exact results, identical sim outputs across
# reps, and the declared metric names. perfbench is its own Go module, so it
# is tested from its directory.
perfbench-test:
	cd perfbench && $(GO) test -count=1 .

# Bounded chaos soak (README "Failure model"): 12 fixed seeds of randomized
# fault schedules — switch outages, black-holes, loss/corruption bursts,
# host stalls — each run end-to-end against the analytic ground truth with
# a continuous per-link corruption baseline, then a fat-tree smoke pass
# (spine/leaf outages over the multi-tenant fabric, EXPERIMENTS.md "Fabric
# soak"). Deterministic and fast (a few seconds); a failure prints a
# shrunken schedule and a reproducer line carrying the topology flags.
soak:
	$(GO) run ./cmd/asksim -soak -soak.seed=1 -soak.runs=12 -soak.corrupt=1e-3
	$(GO) run ./cmd/asksim -soak -topology fattree -soak.seed=1 -soak.runs=6 -soak.corrupt=1e-3
	$(GO) run ./cmd/asksim -soak -topology fattree -soak.seed=1 -soak.runs=1 -soak.corrupt=1e-3 -soak.shards=4

# Scenario-corpus round trip (README "Workloads & traces"): every committed
# scenario regenerated from its seed (byte-identical), encoded to the v2
# timed trace format, decoded back, and replayed through the full stack on
# the sim clock against a direct run. CI runs this.
scenarios:
	$(GO) test -count=1 -run 'TestCorpusDeterminism|TestTraceRoundTripCorpus' ./internal/workload/scenario
	$(GO) test -count=1 -run 'TestScenarioCorpus' ./ask

ci: vet build lint selfcheck test test-shuffle race soak scenarios bench-smoke-shards perfbench-test
