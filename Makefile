GO ?= go

# Per-target budget for the CI fuzz smoke (FUZZTIME=5s for a quick local run).
FUZZTIME ?= 30s

# Minimum total statement coverage `make cover` accepts. The repo measures
# 75.7% as of the aimd daemon change (the new server/loadgen packages and
# the aimd main are counted; the full fleet suite is env-gated out of plain
# `go test`); the floor sits just below to absorb counting noise while still
# catching real coverage regressions.
COVER_BASELINE ?= 75.2

.PHONY: check fmtcheck vet benchvet build test race benchsmoke metricssmoke telemetrysmoke benchstorage benchstoragesmoke benchexec benchexecsmoke bench fuzzsmoke faultsuite scenariosuite servesuite servesoak cover clean

# check is the tier-1 gate: everything here must pass before a change lands.
check: fmtcheck vet benchvet build race benchsmoke metricssmoke telemetrysmoke benchstoragesmoke benchexecsmoke

# Every Go file, the aimdbench module's included, must be gofmt-clean.
fmtcheck:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l lists unformatted files:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# aimdbench is its own module, so the root `go vet ./...` and `go build ./...`
# never compile it; vetting it here catches API changes that break it.
benchvet:
	cd aimdbench && $(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One iteration of each advisor benchmark as a smoke test — exercises the
# full pipeline (candidates, cache, parallel costing) without the cost of a
# real benchmarking run — and of the JOB-deck planning benchmark, whose
# allocation gate (TestPlanJOBDeckAllocs) runs with the unit tests. '^$$'
# skips unit tests; only benchmarks execute.
benchsmoke:
	$(GO) test -run '^$$' -bench BenchmarkAdvisor -benchtime 1x .
	$(GO) test -run '^$$' -bench BenchmarkPlanJOBDeck -benchtime 1x ./internal/workloads/job/

# Observability + failpoint + audit overhead gate: a fully instrumented
# advisor run must stay within 5% of an uninstrumented one, an advisor run
# with failpoints armed-but-unmatched within 1% of one with injection off,
# and a run with the audit journal attached plus a live /metricsz scraper
# within 5% of a bare run. Wall-clock sensitive, so all three are env-gated
# out of plain `go test ./...`.
metricssmoke:
	AIM_METRICS_SMOKE=1 $(GO) test -run 'TestMetricsOverheadSmoke|TestFailpointOverheadSmoke|TestAuditOverheadSmoke' ./internal/core/
	AIM_METRICS_SMOKE=1 $(GO) test -run TestRecorderOverheadSmoke ./internal/server/

# Telemetry server smoke: boots a real loopback server and validates
# /metricsz (exposition format), /statusz (JSON sections), /healthz and
# /debug/pprof over actual TCP. Env-gated because it binds a socket.
telemetrysmoke:
	AIM_TELEMETRY_SMOKE=1 $(GO) test -run TestTelemetrySmoke -v ./internal/telemetry/

# Short budgeted runs of every native fuzz target: the bulk-load, COW
# snapshot, merge and DNF equivalence properties, the failpoint spec parser,
# scenario determinism, the exec scan and join oracles and the wire decoder.
# Go allows one -fuzz pattern per invocation, hence one line per target.
fuzzsmoke:
	$(GO) test -run '^$$' -fuzz 'FuzzBulkLoadEquivalence$$' -fuzztime $(FUZZTIME) ./internal/btree/
	$(GO) test -run '^$$' -fuzz 'FuzzCOWSnapshotEquivalence$$' -fuzztime $(FUZZTIME) ./internal/btree/
	$(GO) test -run '^$$' -fuzz 'FuzzMergeCandidatesPairwise$$' -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run '^$$' -fuzz 'FuzzDNFSemanticEquivalence$$' -fuzztime $(FUZZTIME) ./internal/queryinfo/
	$(GO) test -run '^$$' -fuzz 'FuzzFailpointSpec$$' -fuzztime $(FUZZTIME) ./internal/failpoint/
	$(GO) test -run '^$$' -fuzz 'FuzzScenarioDeterminism$$' -fuzztime $(FUZZTIME) ./internal/scenarios/
	$(GO) test -run '^$$' -fuzz 'FuzzExecScanOracle$$' -fuzztime $(FUZZTIME) ./internal/exec/
	$(GO) test -run '^$$' -fuzz 'FuzzExecJoinOracle$$' -fuzztime $(FUZZTIME) ./internal/exec/
	$(GO) test -run '^$$' -fuzz 'FuzzWireFrame$$' -fuzztime $(FUZZTIME) ./internal/server/

# The fault-injection acceptance sweep: 1000 tuning cycles at fault rates
# {1%, 5%, 20%} with a fixed seed, asserting no ungated adoptions, no
# partial-index leaks and convergence to the fault-free recommendation set.
faultsuite:
	AIM_FAULT_SUITE=1 $(GO) test -run TestTuningLoopUnderFaults -v ./internal/experiments/

# The adversarial-scenario acceptance sweep: five seeded workload scenarios
# (diurnal mix shifts, flash crowds, mid-stream migration, drifting range
# predicates, write-amplification traps) run at their full cycle counts,
# asserting bounded adopt/revert flips, bounded time-to-revert after each
# trap, zero ungated adoptions and a reconstructable audit lineage for every
# adopted-then-reverted index.
scenariosuite:
	AIM_SCENARIO_SUITE=1 $(GO) test -run 'TestTuningLoopUnderScenarios|TestScenarioExplainGoldenDrift' -v ./internal/experiments/

# Live-serving acceptance suite, under the race detector. A real aimd server
# on loopback is driven by a 16-client seeded fleet over TCP, with the
# advisor worker sweep {1,2,4}. Asserts zero statement errors, a clean
# drain, zero ungated adoptions, complete adoption lineage, and
# byte-identical verdicts, journals and adopted index sets across worker
# counts AND against the one offline reference: a single-threaded
# server.Tuner replay of the same statement stream. It also runs every
# adversarial scenario at full cycles through a live server
# (TestServeSuiteScenarioParity): journal and stability transitions must
# equal the offline scenario run, which drives the same Tuner cycle.
servesuite:
	AIM_SERVE_SUITE=1 $(GO) test -race -run TestServeSuite -v ./internal/experiments/

# Nightly soak variant: a longer fleet run (40 tuned rounds) that leaves the
# normalized decision journal behind as aimd-soak.jsonl and the flight
# recorder's per-round time-series ring as aimd-soak-timeseries.json for the
# artifact upload.
servesoak:
	AIM_SERVE_SOAK=1 AIM_SERVE_JOURNAL=$(CURDIR)/aimd-soak.jsonl AIM_SERVE_TIMESERIES=$(CURDIR)/aimd-soak-timeseries.json $(GO) test -race -run TestServeSuite -v ./internal/experiments/

# Coverage gate: full-repo statement coverage must not drop below
# COVER_BASELINE. Writes coverage.out + coverage.html at the repo root.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -html=coverage.out -o coverage.html
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVER_BASELINE)%)"; \
	awk -v t="$$total" -v f="$(COVER_BASELINE)" 'BEGIN { exit (t+0 >= f+0) ? 0 : 1 }' || \
	{ echo "coverage $$total% fell below the $(COVER_BASELINE)% floor"; exit 1; }

# Storage fast-path benchmarks (bulk tree construction, shadow clones) vs
# their incremental-Put baselines at 100k rows; writes BENCH_storage.json at
# the repo root. Wall-clock sensitive, so the report run is env-gated.
benchstorage:
	AIM_BENCH_STORAGE=1 $(GO) test -run TestBenchStorageReport -v ./internal/storage/

# One iteration of each storage fast-path benchmark as a smoke test (no
# baselines, no report) — keeps `make check` fast while still exercising the
# bulk clone/build paths end to end.
benchstoragesmoke:
	$(GO) test -run '^$$' -bench 'BenchmarkStoreClone$$|BenchmarkBuildIndex$$' -benchtime 1x ./internal/storage/

# Replay/serving executor benchmark: row engine vs vectorized batch engine on
# a 100k-row products workload, and nested loops vs hash probes on the JOB
# deck over a database with no secondary index, with a statement-level parity
# gate before any timing. Writes BENCH_exec.json at the repo root and fails
# under 2x speedup on either. Wall-clock sensitive, so the report run is
# env-gated.
benchexec:
	AIM_BENCH_EXEC=1 $(GO) test -run TestBenchExecReport -v ./internal/experiments/

# Scaled-down exec benchmark (2k rows, 8+2 statements, the JOB deck at 1%
# scale) — runs the full parity-gate + measure pipeline in a few seconds for
# `make check`.
benchexecsmoke:
	$(GO) test -run TestExecBenchSmoke -v ./internal/experiments/

bench:
	$(GO) test -run '^$$' -bench . -benchtime 3x .

clean:
	$(GO) clean ./...
