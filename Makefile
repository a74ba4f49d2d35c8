# Developer entry points. `make ci` is what the checked-in code must pass.

GO ?= go

.PHONY: all build vet test race fuzz-smoke oracle-smoke chaos-smoke sweepd-smoke sample-smoke front-smoke perfbench-check shellcheck bench bench-smoke ci clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The race detector slows the simulator ~10x, so the race pass runs the
# short suite (the behavioural shape tests are skipped; the harness and
# pool concurrency tests are what it is for).
race:
	$(GO) test -race -short ./...

# A brief native-fuzz run of the core: random programs on random machine
# modes must complete under the differential oracle and the watchdog with
# paranoid invariant checks. Then the sweep service's job-spec decoding:
# any body it accepts must expand only to valid, runnable cases. Then the
# emulator's copy-on-write memory: random write/read/clone sequences over
# several live clones must match a plain map model of each.
fuzz-smoke:
	$(GO) test ./internal/core -run FuzzCore -fuzz FuzzCore -fuzztime 10s
	$(GO) test ./internal/sweepd -run FuzzJobSpec -fuzz FuzzJobSpec -fuzztime 5s
	$(GO) test ./internal/emu -run FuzzMemory -fuzz FuzzMemory -fuzztime 5s

# A short full-suite sweep with the lockstep differential oracle checking
# every retired uop against the functional emulator: zero divergences is
# the pass condition (a fixed seed keeps the run reproducible).
oracle-smoke: build
	$(GO) run ./cmd/cdfexperiments -exp fig13 -uops 20000 -seed 1 -oracle

# The crash-safety proof (DESIGN.md §10): a sweep run under seeded fault
# injection — panics, cache corruption, and repeated process kills — is
# resumed until it completes, and its table must be byte-identical to an
# uninterrupted run's. Deterministic: both the sweep and chaos seeds are
# fixed inside the script.
chaos-smoke:
	scripts/chaos_smoke.sh

# The sweep-service fault-isolation proof (DESIGN.md §11): a cdfsweepd
# server under seeded worker kills is SIGKILLed mid-job, restarted on the
# same cache dir, and must complete the recovered job with a table
# byte-identical to an uninterrupted server's; SIGTERM must drain with
# exit 0.
sweepd-smoke:
	scripts/sweepd_smoke.sh

# Sampled-simulation accuracy smoke (DESIGN.md §12): one kernel full vs
# sampled through the real cdfsim binary; the estimate must land within
# 5% of the full run and report a confidence interval.
sample-smoke:
	scripts/sample_smoke.sh

# Instruction-supply smoke (DESIGN.md §13): one frontend-bound kernel
# through cdfsim with the timed L1I alone and with FDIP+shadow-BTB; FDIP
# must recover IPC, and the frontend statistics must be reported. The
# timed path's exact statistics are pinned by TestFetchPathGolden.
front-smoke:
	scripts/front_smoke.sh

# The benchmark program (perfbench/, BENCHMARK.json) is a nested module,
# cdf/perfbench, that replaces cdf with this checkout, so the root build
# and test never compile it. This vets and tests it against the tree.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Lint the smoke scripts. Skips gracefully where shellcheck is not
# installed (CI's ubuntu runners have it).
shellcheck:
	@if command -v shellcheck >/dev/null 2>&1; then \
		shellcheck scripts/*.sh; \
	else \
		echo "shellcheck not installed; skipping"; \
	fi

# Simulator-throughput benchmarks (DESIGN.md §9): the full mode x kernel
# matrix, reporting uops/s, cycles/s, and allocations. To compare two
# revisions end to end, record each with the benchmark program and feed
# the pair to its comparator, which refuses cross-host pairs (see
# perfbench/README.md, "Provenance and comparing two commits"):
#   bash perfbench/run.sh --workload fig13-full --seed 3 --seconds 25 --trace 0 --out parent.jsonl
#   bash perfbench/run.sh ... --out change.jsonl   # in the other checkout
#   .bench_build/bin/perfbench compare -bench BENCHMARK.json parent.jsonl change.jsonl
# BenchmarkSimSpeedSlow is the same matrix on the -slowpath reference loop.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkSimSpeed$$' -benchmem -count 1 .

# One quick iteration per (mode, kernel) pair, then the per-cycle
# zero-allocation pin: a regression that makes the steady-state loop
# allocate fails this target, not just slows it down. CI runs this on every
# push and uploads bench-smoke.txt as the build's benchmark artifact.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkSimSpeed$$' -benchtime 1x -benchmem . | tee bench-smoke.txt
	$(GO) test ./internal/core -run TestSteadyStateAllocs -count 1

ci: vet build test race fuzz-smoke oracle-smoke chaos-smoke sweepd-smoke sample-smoke front-smoke perfbench-check shellcheck

clean:
	$(GO) clean ./...
