# Tier-1 verification and development targets. `make ci` is the one-command
# tier-1 gate (build, vet, full test suite); `make check` is the default
# developer gate: ci plus a race-detector pass over the whole suite and a
# short-budget fuzz run.

GO ?= go

.PHONY: all build test vet bench bench-codec bench-smoke bench-check chaos flake fuzz fuzz-ci race ci check docs-check api-check api-snapshot smoke-daemon

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# ci is the tier-1 verify: everything must build, vet clean and pass.
ci: build vet test

# race runs the whole test suite under the race detector (about 2 minutes
# on 2 vCPUs, most of it in internal/bench).
race:
	$(GO) test -race -count=1 ./...

# check is the default gate: tier-1 plus race, the chaos suite, a short fuzz
# budget, the documentation and API gates, the perf smoke pass, the
# regression-benchmark harness, the daemon smoke test and, last because it
# is the longest, the chaos suite's repeat-run flake hunt.
check: ci race chaos fuzz-ci docs-check api-check bench-smoke bench-check smoke-daemon flake

# smoke-daemon builds the real graphhd binary, serves a generated dataset on
# a loopback port, submits PageRank through the typed Go client, asserts the
# paginated remote result is bit-identical to the in-process Run, and checks
# SIGTERM drains gracefully (exit 0, session closed). The service package's
# own e2e suite runs under the race detector as well.
smoke-daemon:
	$(GO) test . -run TestDaemonSmoke -count=1
	$(GO) test -race -count=1 ./internal/service/

# chaos runs the fault-injection and crash-recovery suite under the race
# detector: the crash-at-every-superstep sweep (serial and with two
# concurrent jobs in flight), the step rows a recovered job keeps, the
# kill-then-rejoin sweep (the job finishes without the server, the next job
# runs with it back), the join's admission pause in serial and multi-tenant
# sessions, the abandoned receive a recovery settles, hang detection, wire
# drop/duplicate tolerance, session death semantics and the disk failure
# hooks. Every test asserts recovered results are bit-identical to the
# fault-free run.
chaos:
	$(GO) test -race -count=1 \
		-run 'Recovery|Fault|Wire|Kill|Checkpoint|SessionRecovers|SessionDead|AllServersDie|Rejoin|JoinBetweenJobs|JoinWhileSerialJobRuns|JoinValidation|JoinPausesAdmission|CloseWithJoinPending|JobBarrierNoLeak|StepCrew' \
		./internal/core/ ./internal/disk/ .

# flake repeats the chaos tests that once flaked a hundred times each,
# without and with the race detector (the schedules differ): the multi-job
# crash sweep, the between-jobs rejoin sweeps (serial and with two jobs in
# flight), the session-killing disk fault, the shared-sweep tile loads and
# hang detection. Each once failed a run in tens to hundreds — a torn tile
# read, a second runner voting in a rejoined rank's barrier slot, jobs that
# never overlapped, a barrier timeout deposing a survivor still receiving
# from the hung server — so any failure is a regression.
FLAKE_TESTS = TestMultiJobCrashRecoverySweep|TestMultiJobRejoin|TestRejoinSweep|TestMultiJobSessionDead|TestMultiJobSharedLoads|TestHangRecovery

flake:
	$(GO) test -count=100 -run '$(FLAKE_TESTS)' ./internal/core/
	$(GO) test -race -count=100 -run '$(FLAKE_TESTS)' ./internal/core/

# bench-check covers the regression benchmark, which tier-1 cannot see:
# benchmark/ is a module of its own (`go test ./...` skips it) that imports
# this repository's internal packages directly, so a signature change here
# can break it silently. Vet and test the harness, then run all four
# workloads end to end on tiny graphs (< 10 s) exactly as the driver builds
# and runs them. BENCHMARK.json and benchmark/ change only in a PR that
# claims no gain.
bench-check:
	cd benchmark && $(GO) vet . && $(GO) test .
	bash benchmark/run.sh -smoke

# bench-smoke is the fast perf sanity pass: the smallest point of the
# out-of-core sweep (prefetch off vs on at a 25% cache budget), the two-job
# multi-tenant session vs back-to-back (checks bit-identity and that the
# shared sweep beats serial), the allocation guards on the pipelined send,
# receive, prefetch-hit and whole-superstep paths, and one short pass of the
# per-tile gather kernels (dense grid, selective scan, dense PageRank).
bench-smoke:
	GRAPHH_BENCH_SCALE=0.05 GRAPHH_OOC_BUDGETS=25 $(GO) run ./cmd/graphh-bench -exp ooc -supersteps 6
	GRAPHH_BENCH_SCALE=0.05 $(GO) run ./cmd/graphh-bench -exp multijob -supersteps 8
	$(GO) test ./internal/cluster/ -run TestRecvSteadyStateAllocs -count=1
	$(GO) test ./internal/core/ -run 'TestProcessTileSteadyStateAllocs|TestPrefetchSteadyStateAllocs|TestRunStepSteadyStateAllocs' -count=1
	$(GO) test ./internal/core/ -run xxx -bench BenchmarkRecovery4Servers -benchtime 1x -count=1
	$(GO) test ./internal/core/ -run xxx -bench BenchmarkProcessTile -benchtime 100x -count=1

# api-check surfaces accidental public-API breaks: the root package's
# `go doc -all` output must match the committed snapshot in docs/API.txt.
# After an intentional API change, run `make api-snapshot` and commit the
# refreshed file (the diff doubles as the API-review artifact).
api-check:
	@$(GO) doc -all . | diff -u docs/API.txt - \
		|| { echo "public API drifted from docs/API.txt;"; \
		     echo "run 'make api-snapshot' if the change is intentional"; exit 1; }

api-snapshot:
	$(GO) doc -all . > docs/API.txt

# docs-check keeps the documentation honest: every example and command must
# compile, gofmt must be clean repo-wide, and every `make <target>` command
# quoted in README.md must exist as a target in this Makefile.
docs-check:
	$(GO) build ./examples/... ./cmd/...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	@missing=0; \
	for t in $$(awk '/^```/{in_code=!in_code;next} in_code' README.md | \
		grep -ohE '(^|[ \t])make [a-z][a-z0-9-]*' | sed 's/.*make //' | sort -u); do \
		grep -qE "^$$t:" Makefile || { echo "README references missing make target: $$t"; missing=1; }; \
	done; \
	[ "$$missing" -eq 0 ]

# bench runs the experiment-harness benchmarks plus the end-to-end PageRank
# hot-path benchmark (see PERF.md).
bench:
	$(GO) test . -run xxx -bench . -benchmem

# bench-codec tracks the serialization hot paths against the per-word
# reference implementation (the PERF.md table).
bench-codec:
	$(GO) test ./internal/csr/ -run xxx -bench 'TileDecode|TileEncode|TileAppend|BuildFilter' -benchmem
	$(GO) test ./internal/comm/ -run xxx -bench 'Encode|DecodeInto' -benchmem

# fuzz gives the tile-codec fuzzer a short budget; raise -fuzztime at will.
fuzz:
	$(GO) test ./internal/csr/ -run xxx -fuzz FuzzDecode -fuzztime 30s

# fuzz-ci runs every fuzz target with a CI-sized budget.
fuzz-ci:
	$(GO) test ./internal/csr/ -run xxx -fuzz FuzzDecode -fuzztime 10s
	$(GO) test ./internal/comm/ -run xxx -fuzz FuzzDecodeInto -fuzztime 10s
	$(GO) test ./internal/comm/ -run xxx -fuzz FuzzDecodeJobFrame -fuzztime 10s
	$(GO) test ./internal/core/ -run xxx -fuzz FuzzDecodeEndHeader -fuzztime 10s
	$(GO) test ./internal/disk/ -run xxx -fuzz FuzzDecodeBatchFrame -fuzztime 10s
	$(GO) test ./api/ -run xxx -fuzz FuzzDecodeJobRequest -fuzztime 10s
	$(GO) test ./api/ -run xxx -fuzz FuzzDecodeResultPageInto -fuzztime 10s
