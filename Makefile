# The CI jobs (.github/workflows/ci.yml) run these targets, so the commands
# live here only: `make ci` runs the same gates as the workflow's jobs.

GO ?= go
PKGS := ./...
# Packages the parallel experiment engine and the intra-frame render farm
# exercise concurrently — the race detector's regression surface (telemetry:
# one shared Trace fed by the pool; raster: disjoint-tile FrameBuffer writes;
# sim: the render farm's cursor and rendezvous barrier).
RACE_PKGS := . ./internal/experiments ./internal/core ./internal/sim ./internal/telemetry ./internal/raster ./internal/resultstore
# Concurrency tests whose interleavings depend on the core count (the
# service's admission queue and concurrent /v1/run; the singleflight, pool
# and store-lock tests) run again under -race at 1, 2 and 4 CPUs, so a
# failure that needs a particular GOMAXPROCS cannot hide behind the core
# count of the machine that happens to run CI.
RACE_CPU_FLAGS := -race -cpu 1,2,4 -count 3
# Statement-coverage floor: just under the measured baseline (73.8% with the
# service layer and its uncovered cmd/libraserve + cmd/loadgen mains, which
# the serve-smoke job exercises end to end instead), enforced by the CI
# coverage job through `make cover`. This is its only copy.
COVERAGE_MIN ?= 73.5
# Where bench-gate writes the BENCH_ci.json record of its run (CI archives
# it as an artifact).
BENCH_RECORD ?= /tmp/libra-bench/BENCH_ci.json
# Where `make profile` keeps its CPU profile and the test binary pprof
# symbolizes it with.
PROFILE_DIR ?= /tmp/libra-profile
# The benchmark `make profile` runs: a steady-state frame by default;
# `make profile PROFILE_BENCH='^BenchmarkFrameReplay$$'` profiles the trace
# replay alone.
PROFILE_BENCH ?= ^BenchmarkFrame$$

.PHONY: build test race fmt vet lint lint-fix-check bench bench-json bench-gate bench-gate-update profile cover determinism trace-smoke store-smoke serve-smoke simbench-test fuzz ci

build:
	$(GO) build $(PKGS)

test:
	$(GO) test -shuffle=on $(PKGS)

race:
	$(GO) test -race $(RACE_PKGS)
	$(GO) test $(RACE_CPU_FLAGS) ./internal/serve
	$(GO) test $(RACE_CPU_FLAGS) -run 'Singleflight|Pool|Follower|Lock' ./internal/experiments ./internal/resultstore

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# simbench is a module of its own that calls internal packages, so the root
# module's vet does not compile it: vet it too, so an internal API change
# that breaks the benchmark fails here rather than in a benchmark run.
vet:
	$(GO) vet $(PKGS)
	$(GO) -C simbench vet ./...

# Machine-checked contracts, enforced by the in-repo analyzer suite
# (cmd/libralint: detlint, telemetrylint, seedlint, alloclint, retainlint,
# ctxlint — see DESIGN.md §13). Suppressions live in libralint.allow; stale
# entries fail the run. `-analyzer a,b` runs a subset.
lint:
	$(GO) run ./cmd/libralint $(PKGS)

# Allowlist hygiene gate: the suppression file must be exactly the reviewed
# set (TestAllowlistIsMinimal pins every entry), the repo must lint clean
# through the library path, and the hot-path closure must still cover every
# AllocsPerRun==0-gated function.
lint-fix-check:
	$(GO) test -count=1 -run 'TestRepoIsLintClean|TestAllowlistIsMinimal|TestHotPathSetCoversAllocGates' ./internal/analysis

bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' -timeout 0 $(PKGS)

# The Frame benchmarks behind BENCH_ci.json. A frame benchmark's allocs/op
# is the frame loop's occasional list growth spread over b.N frames, so it
# is comparable only between runs of equal b.N: -benchtime 10x fixes b.N
# instead of letting the host's speed choose it.
BENCH_FRAME_FLAGS := -bench 'Frame' -benchmem -benchtime 10x -count 5 -run '^$$' -timeout 0

# Timed benchmark runs converted to the BENCH_ci.json record CI archives.
bench-json:
	$(GO) test $(BENCH_FRAME_FLAGS) . | tee /tmp/libra-bench.txt
	$(GO) run ./cmd/benchjson -o BENCH_ci.json < /tmp/libra-bench.txt

# Allocation/perf regression gate against the committed BENCH_ci.json:
# allocs/op is a hard failure above a small tolerance (deterministic and
# machine-independent), ns/op and B/op only warn (runner noise). The same
# run is recorded to $(BENCH_RECORD) first, so one benchmark run feeds both
# the archived record and the gate. Refresh the baseline with
# `make bench-gate-update` after an intentional change.
bench-gate:
	$(GO) test $(BENCH_FRAME_FLAGS) . | tee /tmp/libra-bench.txt
	mkdir -p $(dir $(BENCH_RECORD))
	$(GO) run ./cmd/benchjson -o $(BENCH_RECORD) < /tmp/libra-bench.txt
	$(GO) run ./cmd/benchjson -check -baseline BENCH_ci.json < /tmp/libra-bench.txt

bench-gate-update:
	$(GO) test $(BENCH_FRAME_FLAGS) . | tee /tmp/libra-bench.txt
	$(GO) run ./cmd/benchjson -check -update -baseline BENCH_ci.json < /tmp/libra-bench.txt

# Where a steady-state frame's host time goes: BenchmarkFrame (SuS, LIBRA
# 2 RU, 640×384) under the CPU profiler, then the 25 heaviest functions by
# self time, with cumulative time beside them (DESIGN.md's cost tables).
# Open the profile further with
# `go tool pprof $(PROFILE_DIR)/libra.test $(PROFILE_DIR)/cpu.prof`.
profile:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -run '^$$' -bench '$(PROFILE_BENCH)' -benchtime 200x -timeout 0 \
		-cpuprofile $(PROFILE_DIR)/cpu.prof -o $(PROFILE_DIR)/libra.test .
	$(GO) tool pprof -top -nodecount 25 $(PROFILE_DIR)/libra.test $(PROFILE_DIR)/cpu.prof

# Statement coverage with the same floor the CI coverage job enforces.
cover:
	$(GO) test -coverprofile=/tmp/libra-coverage.out $(PKGS)
	@total=$$($(GO) tool cover -func=/tmp/libra-coverage.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (minimum $(COVERAGE_MIN)%)"; \
	awk -v t="$$total" -v m="$(COVERAGE_MIN)" 'BEGIN { exit !(t+0 >= m+0) }' \
		|| { echo "coverage $$total% is below the $(COVERAGE_MIN)% floor"; exit 1; }

# Byte-identical suite output across the experiment pool (-jobs) and the
# intra-frame render farm it sizes. Each simulation's farm gets the CPUs the
# pool leaves idle (experiments.SimWorkers), so GOMAXPROCS=4 pins the shapes
# on any host: -jobs 4 runs four serial simulations, -jobs 1 one 4-worker
# farm, -jobs 2 two 2-worker farms. Every farm must reproduce the serial
# engine, with Rendering Elimination off and on.
determinism:
	$(GO) build -o /tmp/libra-suite ./cmd/suite
	GOMAXPROCS=4 /tmp/libra-suite -suite mem -frames 4 -warmup 1 -jobs 4 -quiet > /tmp/libra-suite-serial.txt
	GOMAXPROCS=4 /tmp/libra-suite -suite mem -frames 4 -warmup 1 -jobs 1 -quiet > /tmp/libra-suite-farm4.txt
	GOMAXPROCS=4 /tmp/libra-suite -suite mem -frames 4 -warmup 1 -jobs 2 -quiet > /tmp/libra-suite-farm2x2.txt
	diff -u /tmp/libra-suite-serial.txt /tmp/libra-suite-farm4.txt
	diff -u /tmp/libra-suite-serial.txt /tmp/libra-suite-farm2x2.txt
	GOMAXPROCS=4 /tmp/libra-suite -suite mem -frames 4 -warmup 1 -jobs 4 -render-elim -quiet > /tmp/libra-suite-re-serial.txt
	GOMAXPROCS=4 /tmp/libra-suite -suite mem -frames 4 -warmup 1 -jobs 1 -render-elim -quiet > /tmp/libra-suite-re-farm4.txt
	diff -u /tmp/libra-suite-re-serial.txt /tmp/libra-suite-re-farm4.txt
	$(GO) build -o /tmp/librasim ./cmd/librasim
	GOMAXPROCS=4 /tmp/librasim -game AnB -rus 2 -frames 4 -json | grep -o '"FrameHash":[0-9]*' > /tmp/libra-hash-off.txt
	GOMAXPROCS=4 /tmp/librasim -game AnB -rus 2 -frames 4 -render-elim -json | grep -o '"FrameHash":[0-9]*' > /tmp/libra-hash-on.txt
	diff -u /tmp/libra-hash-off.txt /tmp/libra-hash-on.txt

# Capture a real trace and validate its Perfetto-loadable shape.
trace-smoke:
	$(GO) build -o /tmp/librasim ./cmd/librasim
	/tmp/librasim -game SuS -policy libra -rus 2 -frames 2 \
		-trace-out /tmp/libra-trace.json -metrics-out /tmp/libra-metrics.json > /dev/null
	$(GO) run ./cmd/tracecheck -rus 2 /tmp/libra-trace.json /tmp/libra-metrics.json

# Persistent result store, end to end: a cold suite run populates a fresh
# store, then warm runs — including one with a different parallelism shape,
# a lone simulation whose render farm has 4 workers — must print
# byte-identical tables while executing zero simulations (the stderr store
# line proves it: sims=0).
store-smoke:
	$(GO) build -o /tmp/libra-suite ./cmd/suite
	rm -rf /tmp/libra-store-smoke
	/tmp/libra-suite -suite mem -frames 3 -warmup 1 -jobs 4 -quiet \
		-result-dir /tmp/libra-store-smoke > /tmp/libra-store-cold.txt 2> /tmp/libra-store-cold.err
	/tmp/libra-suite -suite mem -frames 3 -warmup 1 -jobs 4 -quiet \
		-result-dir /tmp/libra-store-smoke > /tmp/libra-store-warm.txt 2> /tmp/libra-store-warm.err
	GOMAXPROCS=4 /tmp/libra-suite -suite mem -frames 3 -warmup 1 -jobs 1 -quiet \
		-result-dir /tmp/libra-store-smoke > /tmp/libra-store-warm2.txt 2> /tmp/libra-store-warm2.err
	diff -u /tmp/libra-store-cold.txt /tmp/libra-store-warm.txt
	diff -u /tmp/libra-store-cold.txt /tmp/libra-store-warm2.txt
	grep -q 'sims=0' /tmp/libra-store-warm.err
	grep -q 'sims=0' /tmp/libra-store-warm2.err
	$(GO) run ./cmd/resultstore -dir /tmp/libra-store-smoke verify

# Simulation service, end to end (the CI serve-smoke job runs this same
# script): boot libraserve on a fresh store, cold loadgen pass, graceful
# SIGTERM drain, warm 1000-client pass answered with zero simulations,
# byte-identical /v1/run body vs a direct `librasim -json` run, and a
# mid-flight cancellation that must leave the store verifiably clean.
serve-smoke:
	bash scripts/serve_smoke.sh

# simbench's own tests (~80 s): its planted-fault checks, and the replay
# check that re-encodes every decoded trace. simbench is a module of its own,
# so `make test` does not reach them.
simbench-test:
	$(GO) -C simbench test ./...

# Short coverage-guided fuzzing bursts on top of the committed seed corpora
# (which plain `go test` already replays on every run).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzWorkloadGen -fuzztime 15s ./internal/workloads
	$(GO) test -run '^$$' -fuzz FuzzSchedEquivalence -fuzztime 15s ./internal/sim
	$(GO) test -run '^$$' -fuzz FuzzResultKey -fuzztime 15s ./internal/experiments
	$(GO) test -run '^$$' -fuzz FuzzDecodeRunRequest -fuzztime 15s ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzTileSignature -fuzztime 15s ./internal/tiling
	$(GO) test -run '^$$' -fuzz FuzzTraceRead -fuzztime 15s ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzSpanWalk -fuzztime 15s ./internal/raster
	$(GO) test -run '^$$' -fuzz FuzzRendererReuse -fuzztime 15s ./internal/raster
	$(GO) test -run '^$$' -fuzz FuzzLRUReference -fuzztime 15s ./internal/mem/cache

ci: build vet fmt lint lint-fix-check test simbench-test race bench bench-gate determinism trace-smoke store-smoke serve-smoke fuzz cover
