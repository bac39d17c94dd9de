# Development shortcuts; CI (.github/workflows/ci.yml) runs `make check`
# equivalents step by step.

GO ?= go

.PHONY: build vet test bench-module race check bench bench-json bench-smoke fmt-check fuzz-smoke fleet-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# bench-module vets and tests the benchmark, which is its own module
# (bench/go.mod): the root go test ./... never compiles it, yet it drives
# the platform through the noc, sim and repro APIs. CI runs this target.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Race-check the concurrent code paths: the bounded-parallelism helper, the
# experiment harness that fans simulations out over it, the simulation
# engine it drives, the recorder the parallel trace capture shares, the
# object slabs the pooled hot path recycles through, the lock kernel with
# its pluggable protocol implementations (./internal/kernel/... covers
# ./internal/kernel/protocol), and the fault/recovery layer. The second
# line runs the platform-level fault matrix, watchdog tests and the
# protocol determinism matrix — every lock protocol × both engines — under
# -race. CI runs this target.
race:
	$(GO) test -race ./internal/par/... ./internal/experiments/... ./internal/sim/... ./internal/obs/... ./internal/pool/... ./internal/noc/... ./internal/kernel/... ./internal/kernel/protocol/... ./internal/fault/... ./internal/checkpoint/... ./internal/fleet/... ./internal/journal/...
	$(GO) test -race -run 'TestFault|TestWatchdog|TestRecovery|TestRunWithTimeout|TestProtocolDeterminismMatrix|TestCheckpoint|TestWarmGrid|TestCommandGoldens|TestCellKeyPinned|TestKnobCellsRunCold' .

check: build vet fmt-check test bench-module race fuzz-smoke fleet-smoke

# fuzz-smoke gives each native fuzz target a short budget: enough to catch
# a codec or parser regression in CI without a real fuzzing campaign
# (-fuzz accepts one target per invocation, hence one line per target).
# The actSet target fuzzes the two-level activity bitmap every tick phase
# iterates — set/clear/iterate against a reference full scan. FuzzRestore
# decodes arbitrary checkpoint payloads through every layer's RestoreFrom;
# it skips minimising new inputs, which would otherwise take most of its
# budget (about 130,000 executions in 10 s on a 2-CPU host instead of
# about 200).
fuzz-smoke:
	$(GO) test ./internal/obs/ -run '^$$' -fuzz '^FuzzPriorityCodec$$' -fuzztime 10s
	$(GO) test ./internal/obs/ -run '^$$' -fuzz '^FuzzTraceRoundTrip$$' -fuzztime 10s
	$(GO) test ./internal/obs/ -run '^$$' -fuzz '^FuzzReadTrace$$' -fuzztime 10s
	$(GO) test ./internal/noc/ -run '^$$' -fuzz '^FuzzActSet$$' -fuzztime 10s
	$(GO) test ./internal/journal/ -run '^$$' -fuzz '^FuzzJournalRecover$$' -fuzztime 10s
	$(GO) test . -run '^$$' -fuzz '^FuzzRestore$$' -fuzztime 10s -fuzzminimizetime 0

# fleet-smoke is the CI crash-recovery gate: the chaos matrix kills the
# fleet coordinator mid-grid (optionally tearing the result journal's
# final line), reruns it over the same spool, and requires the recovered
# ordered emission to be byte-identical to an uninterrupted run — across
# two lock protocols, one and four workers, with seeded worker crashes
# and heartbeat stalls throughout. The spool protocol and supervision
# tests ride along under -race, as do cmd/sweep's checkpoint-directory
# resume tests, which drive the same fleet.
fleet-smoke:
	$(GO) test -race -run 'TestChaosRecoveryInvariant|TestSpool|TestFleet' ./internal/fleet/
	$(GO) test -race -run 'TestSweepFleet|TestSweepResume|TestSweepPartialResume|TestSweepInterrupted|TestSweepCheckpointDirIsSpool' ./cmd/sweep/

bench:
	$(GO) test -bench . -benchmem -run '^$$' ./internal/noc/ .

# bench-json regenerates the Fig. 2/10/11 experiments under the benchmark
# harness and writes their wall-clock and allocs/op, with the host's Go
# version, platform and CPU count, to BENCH_9.json. The NoC tick,
# mesh-scaling, tick-scaling, lock-arena and checkpoint blocks of
# BENCH_4.json to BENCH_8.json are no longer written: bench-smoke gates the
# NoC and checkpoint benchmarks, cmd/lockarena prints the arena report,
# and the bench's parallel-w2 and fleet-sweep workloads time the rest.
bench-json:
	$(GO) run ./cmd/benchjson -o BENCH_9.json

# bench-smoke is the CI performance gate: the steady-state step benchmark,
# its evicting variant (per 50-cycle window, with L1 write-backs in it)
# and the 8x8 NoC tick hot loop must not allocate more per op than their
# committed thresholds, and the 8x8 tick must stay under the committed
# ns/op ceiling (about 4.5x the measured tick, the headroom it was first
# set with over the BENCH_5 dispatch-floor numbers, so it catches
# order-of-magnitude regressions — a dropped active-set bitmap, an
# accidental allocation per flit — not CI-runner jitter). The sparse 32x32 gate guards the
# O(active) regime the same way: its threshold sits roughly 2x over the
# fast-forward number but well *below* the tick-every-busy-cycle cost, so
# losing idle-window fast-forward (or the hierarchical active sets) trips
# it even on a noisy runner. The construction gate holds the bytes New
# allocates for 16 threads on a 64x64 mesh under
# .github/new-bytes-threshold: L1s, lock clients and router input buffers
# are built only on the nodes that use them, and building the buffers on
# every router again (29 MB with the L1s still lazy) would trip it.
bench-smoke:
	@$(GO) test -run '^$$' -bench '^BenchmarkSteadyStateStep$$' -benchmem -benchtime 20000x . | tee /tmp/bench-smoke.out
	@max=$$(cat .github/alloc-threshold); \
	allocs=$$(awk '/^BenchmarkSteadyStateStep/ {for (i=1; i<=NF; i++) if ($$i == "allocs/op") print $$(i-1)}' /tmp/bench-smoke.out); \
	if [ -z "$$allocs" ]; then echo "bench-smoke: no allocs/op in output"; exit 1; fi; \
	if [ "$$allocs" -gt "$$max" ]; then \
		echo "bench-smoke: $$allocs allocs/op exceeds threshold $$max"; exit 1; \
	else \
		echo "bench-smoke: $$allocs allocs/op within threshold $$max"; \
	fi
	@$(GO) test -run '^$$' -bench '^BenchmarkSteadyStateWindowEvicting$$' -benchmem -benchtime 2000x . | tee /tmp/bench-smoke-evict.out
	@max=$$(cat .github/evict-alloc-threshold); \
	allocs=$$(awk '/^BenchmarkSteadyStateWindowEvicting/ {for (i=1; i<=NF; i++) if ($$i == "allocs/op") print $$(i-1)}' /tmp/bench-smoke-evict.out); \
	if [ -z "$$allocs" ]; then echo "bench-smoke: no allocs/op in evicting output"; exit 1; fi; \
	if [ "$$allocs" -gt "$$max" ]; then \
		echo "bench-smoke: evicting $$allocs allocs per window exceeds threshold $$max"; exit 1; \
	else \
		echo "bench-smoke: evicting $$allocs allocs per window within threshold $$max"; \
	fi
	@$(GO) test -run '^$$' -bench '^BenchmarkNewGiant$$' -benchmem -benchtime 10x . | tee /tmp/bench-smoke-new.out
	@max=$$(cat .github/new-bytes-threshold); \
	bytes=$$(awk '/^BenchmarkNewGiant/ {for (i=1; i<=NF; i++) if ($$i == "B/op") print $$(i-1)}' /tmp/bench-smoke-new.out); \
	if [ -z "$$bytes" ]; then echo "bench-smoke: no B/op in construction output"; exit 1; fi; \
	if [ "$$bytes" -gt "$$max" ]; then \
		echo "bench-smoke: New on 64x64 allocates $$bytes B, over threshold $$max (per-node construction back?)"; exit 1; \
	else \
		echo "bench-smoke: New on 64x64 allocates $$bytes B, within threshold $$max"; \
	fi
	@$(GO) test -run '^$$' -bench '^BenchmarkNetworkTick$$/^mesh=8x8$$' -benchmem -benchtime 20000x ./internal/noc/ | tee /tmp/bench-smoke-tick.out
	@max=$$(cat .github/tick-alloc-threshold); \
	allocs=$$(awk '/^BenchmarkNetworkTick/ {for (i=1; i<=NF; i++) if ($$i == "allocs/op") print $$(i-1)}' /tmp/bench-smoke-tick.out); \
	if [ -z "$$allocs" ]; then echo "bench-smoke: no allocs/op in tick output"; exit 1; fi; \
	if [ "$$allocs" -gt "$$max" ]; then \
		echo "bench-smoke: tick $$allocs allocs/op exceeds threshold $$max"; exit 1; \
	else \
		echo "bench-smoke: tick $$allocs allocs/op within threshold $$max"; \
	fi
	@max=$$(cat .github/tick-ns-threshold); \
	ns=$$(awk '/^BenchmarkNetworkTick/ {for (i=1; i<=NF; i++) if ($$i == "ns/op") printf "%d", $$(i-1)}' /tmp/bench-smoke-tick.out); \
	if [ -z "$$ns" ]; then echo "bench-smoke: no ns/op in tick output"; exit 1; fi; \
	if [ "$$ns" -gt "$$max" ]; then \
		echo "bench-smoke: tick $$ns ns/op exceeds threshold $$max"; exit 1; \
	else \
		echo "bench-smoke: tick $$ns ns/op within threshold $$max"; \
	fi
	@$(GO) test -run '^$$' -bench '^BenchmarkNetworkTickSparse/mesh=32x32$$' -benchmem -benchtime 3000x ./internal/noc/ | tee /tmp/bench-smoke-sparse.out
	@max=$$(cat .github/giant-tick-threshold); \
	ns=$$(awk '/^BenchmarkNetworkTickSparse/ {for (i=1; i<=NF; i++) if ($$i == "ns/op") printf "%d", $$(i-1)}' /tmp/bench-smoke-sparse.out); \
	if [ -z "$$ns" ]; then echo "bench-smoke: no ns/op in sparse tick output"; exit 1; fi; \
	if [ "$$ns" -gt "$$max" ]; then \
		echo "bench-smoke: sparse 32x32 $$ns ns/op exceeds threshold $$max (idle-window fast-forward regressed?)"; exit 1; \
	else \
		echo "bench-smoke: sparse 32x32 $$ns ns/op within threshold $$max"; \
	fi
	@max=$$(cat .github/tick-alloc-threshold); \
	allocs=$$(awk '/^BenchmarkNetworkTickSparse/ {for (i=1; i<=NF; i++) if ($$i == "allocs/op") print $$(i-1)}' /tmp/bench-smoke-sparse.out); \
	if [ -z "$$allocs" ]; then echo "bench-smoke: no allocs/op in sparse tick output"; exit 1; fi; \
	if [ "$$allocs" -gt "$$max" ]; then \
		echo "bench-smoke: sparse 32x32 $$allocs allocs/op exceeds threshold $$max"; exit 1; \
	else \
		echo "bench-smoke: sparse 32x32 $$allocs allocs/op within threshold $$max"; \
	fi
	@$(GO) test -run '^$$' -bench '^BenchmarkCheckpointRoundTrip$$' -benchmem -benchtime 100x . | tee /tmp/bench-smoke-ckpt.out
	@max=$$(cat .github/checkpoint-alloc-threshold); \
	allocs=$$(awk '/^BenchmarkCheckpointRoundTrip/ {for (i=1; i<=NF; i++) if ($$i == "allocs/op") print $$(i-1)}' /tmp/bench-smoke-ckpt.out); \
	if [ -z "$$allocs" ]; then echo "bench-smoke: no allocs/op in checkpoint output"; exit 1; fi; \
	if [ "$$allocs" -gt "$$max" ]; then \
		echo "bench-smoke: checkpoint round trip $$allocs allocs/op exceeds threshold $$max"; exit 1; \
	else \
		echo "bench-smoke: checkpoint round trip $$allocs allocs/op within threshold $$max"; \
	fi
	@$(GO) test -run '^$$' -bench '^BenchmarkProtocolDispatch$$' -benchmem -benchtime 20000x ./internal/kernel/protocol/ | tee /tmp/bench-smoke-proto.out
	@max=$$(cat .github/protocol-alloc-threshold); \
	allocs=$$(awk '/^BenchmarkProtocolDispatch/ {for (i=1; i<=NF; i++) if ($$i == "allocs/op" && $$(i-1) > worst) worst = $$(i-1)} END {print worst+0}' /tmp/bench-smoke-proto.out); \
	if [ -z "$$allocs" ]; then echo "bench-smoke: no allocs/op in protocol output"; exit 1; fi; \
	if [ "$$allocs" -gt "$$max" ]; then \
		echo "bench-smoke: protocol dispatch $$allocs allocs/op exceeds threshold $$max"; exit 1; \
	else \
		echo "bench-smoke: protocol dispatch $$allocs allocs/op within threshold $$max"; \
	fi
