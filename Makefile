# Streaming-pipeline build/test/bench entry points.

GO ?= go
BIN ?= bin

.PHONY: verify build lint test race bench bench-gate bench-history fuzz e2e e2e-fleet e2e-twin paper-digest profile

# Extra flags for the e2e binaries (CI passes E2E_BUILDFLAGS=-race to
# run the socket smokes under the race detector).
E2E_BUILDFLAGS ?=

# verify is the default local gate: compile, contract-lint, test.
verify: build lint test

build:
	$(GO) build ./...

# lint runs lsmvet, the repo's contract checker (DESIGN.md "Enforced
# invariants"): determinism, hotpath allocations, entry retention, and
# seed-lane uniqueness, with //lsm: directives for audited exceptions.
lint:
	$(GO) run ./cmd/lsmvet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# BENCH_MATRIX selects the benchmarks that run the -cpu 1,2,4,8
# matrix: the parallel serve path, sharded generation (plus its
# sequential baseline, which speedup_vs_sequential divides by at the
# same GOMAXPROCS), and the fused end-to-end RunStreamed pipeline.
BENCH_MATRIX := BenchmarkStreamingServe|BenchmarkStreamingGenerate(Sequential|Shards)|BenchmarkRunStreamed

# BENCH_SET is what bench and bench-gate run at the default
# GOMAXPROCS: every streaming benchmark plus the analysis kernels — the
# Figure 8 autocorrelation, the Figure 9 timeout sweep and the full
# Sections 3–5 characterization.
BENCH_SET := BenchmarkStreaming|BenchmarkFigure8Autocorrelation|BenchmarkFigure9SessionsVsTimeout|BenchmarkPipelineFullCharacterization

# bench runs the streaming-pipeline benchmarks (sequential vs sharded
# generation, streamed serving) and the analysis kernels of BENCH_SET,
# and renders BENCH_streaming.json —
# ns/op and bytes/op per benchmark — seeding the perf trajectory. The
# serve, generate, and end-to-end benchmarks additionally run a -cpu
# 1,2,4,8 matrix so each parallel path's scaling
# (metrics.speedup_vs_sequential, computed per GOMAXPROCS against its
# sequential baseline) is part of the record.
# The bench output is written to a file first so a failing `go test`
# fails the target instead of being masked by a pipe; every failing
# step deletes the intermediate so a rerun never ingests stale output,
# and the committed baseline is replaced atomically (write to .tmp,
# then mv) so a failed render cannot truncate it.
bench:
	$(GO) test -run '^$$' -bench '$(BENCH_SET)' -benchmem -count 1 . > bench_streaming.txt || { rm -f bench_streaming.txt; exit 1; }
	$(GO) test -run '^$$' -bench '$(BENCH_MATRIX)' -benchmem -count 1 -cpu 1,2,4,8 . >> bench_streaming.txt || { rm -f bench_streaming.txt; exit 1; }
	cat bench_streaming.txt
	$(GO) run ./cmd/benchjson < bench_streaming.txt > BENCH_streaming.json.tmp || { rm -f bench_streaming.txt BENCH_streaming.json.tmp; exit 1; }
	mv BENCH_streaming.json.tmp BENCH_streaming.json
	@rm -f bench_streaming.txt
	@echo "wrote BENCH_streaming.json"

# bench-gate is the CI perf gate: run the benchmarks fresh (including
# the -cpu matrix), write the result to bench_fresh.json (uploaded as
# an artifact; lowercase so it can never be mistaken for a committed
# BENCH_*.json baseline), and fail if any benchmark variant's ns/op
# regressed more than 25% — or its speedup_vs_sequential dropped more
# than 15% — against the committed BENCH_streaming.json baseline. The
# gate first refuses to run unless BENCH_streaming.json is the one and
# only BENCH_*.json in the repo root, so it can never silently compare
# against a stray duplicate baseline. On a runner with fewer than 4
# cores the multi-core variants and the speedup metric are skipped
# with a visible warning instead of gated. Three runs per benchmark;
# the compare gates on each variant's best run, damping shared-runner
# noise. The comparison table (pass or fail) is kept in
# bench_compare.txt so CI can publish it to the job's step summary.
bench-gate:
	@baselines="$$(ls BENCH_*.json 2>/dev/null)"; \
	    if [ "$$baselines" != "BENCH_streaming.json" ]; then \
	        echo "bench-gate: expected exactly one baseline (BENCH_streaming.json), found:" >&2; \
	        echo "$${baselines:-  (none)}" >&2; \
	        exit 1; \
	    fi
	$(GO) test -run '^$$' -bench '$(BENCH_SET)' -benchmem -count 3 . > bench_streaming.txt || { rm -f bench_streaming.txt; exit 1; }
	$(GO) test -run '^$$' -bench '$(BENCH_MATRIX)' -benchmem -count 3 -cpu 1,2,4,8 . >> bench_streaming.txt || { rm -f bench_streaming.txt; exit 1; }
	cat bench_streaming.txt
	$(GO) run ./cmd/benchjson < bench_streaming.txt > bench_fresh.json || { rm -f bench_streaming.txt; exit 1; }
	$(GO) run ./cmd/benchjson -compare BENCH_streaming.json -threshold 0.25 -min-cores 4 < bench_streaming.txt > bench_compare.txt 2>&1; \
	    status=$$?; cat bench_compare.txt; rm -f bench_streaming.txt; exit $$status

# bench-history renders the perf trajectory of the committed baseline
# (every BENCH_streaming.json revision in git, oldest → newest) as a
# markdown trend table; CI appends it to the bench-gate step summary.
bench-history:
	$(GO) run ./cmd/benchjson -history BENCH_streaming.json

# fuzz runs the wmslog codec fuzzers: the text AppendEntry/ParseAppend
# round trip and the framed-binary round trip. `go test` runs one fuzz
# target per invocation, hence the two steps; new failing inputs are
# minimized into internal/wmslog/testdata/fuzz/ and reproduce with a
# plain `go test ./internal/wmslog`.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzAppendEntryRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/wmslog
	$(GO) test -run '^$$' -fuzz '^FuzzBinaryRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/wmslog

# e2e exercises the full socket path: build lsmserve, lsmload and
# lsmlog, start the server, replay a generated workload (with a
# flash-crowd scenario) over real TCP in compressed time, shut the
# server down, verify the served log matches the offered workload
# exactly, and round-trip the log through the binary format.
e2e:
	$(GO) build $(E2E_BUILDFLAGS) -o $(BIN)/lsmserve ./cmd/lsmserve
	$(GO) build $(E2E_BUILDFLAGS) -o $(BIN)/lsmload ./cmd/lsmload
	$(GO) build $(E2E_BUILDFLAGS) -o $(BIN)/lsmlog ./cmd/lsmlog
	BIN=$(BIN) ./scripts/e2e.sh

# e2e-twin exercises the calibration loop: generate a workload, fit a
# model to its characterization, regenerate a twin and KS-validate it
# strictly, then feed the fitted spec back through lsmgen and check the
# spec round-trips byte-identically.
e2e-twin:
	$(GO) build $(E2E_BUILDFLAGS) -o $(BIN)/lsmgen ./cmd/lsmgen
	$(GO) build $(E2E_BUILDFLAGS) -o $(BIN)/lsmcal ./cmd/lsmcal
	BIN=$(BIN) ./scripts/e2e_twin.sh

# paper-digest runs lsmgen -stream at paper scale (seed 1, 28 days) on
# one serve lane and on the default lane count, and fails unless both
# daily-log sets hash to the committed realization digest.
paper-digest:
	$(GO) build $(E2E_BUILDFLAGS) -o $(BIN)/lsmgen ./cmd/lsmgen
	BIN=$(BIN) ./scripts/paper_digest.sh

# e2e-fleet exercises the horizontal axis: three lsmserve nodes behind
# the lsmfleet redirector serve a replayed flash-crowd workload (hash
# policy, merged-log MATCH, md5 parity with a single-node serve), then
# a second pass SIGKILLs a node mid-replay and validates failover.
e2e-fleet:
	$(GO) build $(E2E_BUILDFLAGS) -o $(BIN)/lsmserve ./cmd/lsmserve
	$(GO) build $(E2E_BUILDFLAGS) -o $(BIN)/lsmload ./cmd/lsmload
	$(GO) build $(E2E_BUILDFLAGS) -o $(BIN)/lsmfleet ./cmd/lsmfleet
	BIN=$(BIN) ./scripts/e2e_fleet.sh

# profile captures pprof/trace artifacts from a representative
# streaming run (the generate → simulate → log pipeline at bench-like
# density) under profiles/. Inspect with `go tool pprof
# profiles/cpu.pprof` / `go tool trace profiles/trace.out`; CI uploads
# the directory on demand (workflow_dispatch with profile=true).
PROFILE_ARGS ?= -stream -scale 5 -days 7 -seed 1
profile:
	$(GO) build -o $(BIN)/lsmgen ./cmd/lsmgen
	mkdir -p profiles
	rm -rf profiles/logs
	$(BIN)/lsmgen -out profiles/logs $(PROFILE_ARGS) \
		-cpuprofile profiles/cpu.pprof \
		-memprofile profiles/mem.pprof \
		-trace profiles/trace.out
	@ls -l profiles/
