GO ?= go

.PHONY: all build vet fmt-check test race pool-stress collector-stress cross-check check docs-check bench bench-rowpath bench-smoke quality figures examples ops-smoke fuzz-short corpus crash-test clean

all: build check

# check is the gate the default flow runs: formatting and static analysis
# (gofmt, as CI enforces it; go vet over every package, internal/obs
# included), the documentation gate, the full test suite under the race
# detector (WAL and collector included), the four example programs run end
# to end, the nested benchmark module's own smoke tests, one iteration of
# the row-path, networked-fabric and scoring-loop micro-benchmarks, the kill -9
# recovery gate and a bounded fuzzing pass over the wire-format, WAL and
# checkpoint decoders, the scoring helpers' hand-off under the race
# detector at several core counts, and the cross-platform builds with the
# portable row kernels' run of the trajectory fingerprint.
# Performance is gated by BENCHMARK.json (`bash bench/run.sh`), not here.
# `make corpus` is not part of check: run it after changing
# manager.CheckpointMagic or any record a checkpoint or WAL segment holds,
# and commit the seeds it rewrites under testdata/fuzz.
check: fmt-check vet docs-check race pool-stress collector-stress cross-check examples bench-rowpath bench-smoke crash-test fuzz-short

# docs-check fails on undocumented exported identifiers, packages without
# a package comment, and broken relative links in *.md. OPERATIONS.md
# flag/metric coverage is enforced separately by TestOperationsDocCoverage.
docs-check:
	$(GO) run ./cmd/docschk

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt-check fails, naming the files, when gofmt would change any.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# pool-stress runs the tests that hand jobs between managers and the
# process's scoring helpers — managers stepping side by side, helpers woken
# from parked, GOMAXPROCS changing under a fleet, every worker count, the
# in-process shardnet workers — three times each at 1, 2 and 4 Ps under the
# race detector, so a hand-off that is only wrong at one core count, or
# only sometimes, shows.
pool-stress:
	$(GO) test -race -count=3 -cpu 1,2,4 -run 'TestPool|TrajectoryIndependentOfWorkers|Concurrent|ShardNetBitIdenticalToManager' ./internal/manager ./internal/shardnet

# collector-stress runs the reliable agent's tests twenty times each at 1
# and 2 Ps under the race detector: its single-flight flusher and the Sends
# that append behind the in-flight prefix meet only under scheduling luck.
collector-stress:
	$(GO) test -race -count=20 -cpu 1,2 -run 'TestReliableAgent' ./internal/collector

# cross-check builds and vets for the architectures without the amd64 row
# kernels (they take the portable loops in internal/core), builds for
# darwin and windows, and runs the scoring packages' tests as 386 binaries:
# an amd64 host runs those natively, so TestTrajectoryFingerprint checks
# the portable loops against the same committed constant the vector
# kernels meet. 386 is built, not vetted: a test of internal/wal shifts
# past a 32-bit int.
cross-check:
	for arch in arm64 ppc64le s390x riscv64; do GOARCH=$$arch $(GO) vet ./... || exit 1; done
	GOARCH=386 $(GO) build ./...
	GOOS=darwin $(GO) build ./...
	GOOS=windows $(GO) build ./...
	GOARCH=386 $(GO) test ./internal/core ./internal/manager

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-rowpath runs the row-path micro-benchmarks once each — one ingested
# row at l=48 and l=600, one batch through the loopback wire path (agent →
# TCP → collector server → store), one row read beside its QueryAll
# yardstick, one append at the retention cap, one round of the networked
# fabric, one row of the scoring loop's own benchmark at its largest fleet
# with one worker and with two, one fused pair step on each of its hot rows
# and one growth of a fully stored matrix — so they keep compiling and
# running (~25 s, most of it training fleets). For numbers, drop
# -benchtime.
bench-rowpath:
	$(GO) test -run '^$$' -bench '^Benchmark(MonitorIngest|CollectorThroughput|ShardNetStep)$$' -benchtime=1x -benchmem .
	$(GO) test -run '^$$' -bench '^BenchmarkManagerStep$$/^l=64$$' -benchtime=1x -cpu 1,2 .
	$(GO) test -run '^$$' -bench '^BenchmarkTransitionStep$$' -benchtime=1x .
	$(GO) test -run '^$$' -bench '^BenchmarkMatrixGrow$$' -benchtime=1x -benchmem .
	$(GO) test -run '^$$' -bench '^BenchmarkStore(RowAt|AppendAtRetention)$$' -benchtime=1x -benchmem ./internal/tsdb

# bench-smoke builds and runs the pipeline benchmark's own tests (the tiny
# traced pass of all four workloads plus the BENCHMARK.json consistency
# check) under the race detector, ~70 s. bench/ is a nested module with
# `replace mcorr => ../`, so build/test/race above never compile it: this
# is the target that catches an API break against it.
bench-smoke:
	cd bench && $(GO) test -race ./...

# ops-smoke boots the live pipeline demo with the ops server — two
# tenants on one collector — scrapes /metrics and /healthz while rows
# stream, and asserts the collector and manager counters are moving,
# per-tenant series stay isolated under their tenant label, and the
# serving tier answers tenant listing, correlate queries and the
# incident API for each tenant. The end-to-end observability gate.
OPS_SMOKE_ADDR ?= 127.0.0.1:6464
ops-smoke:
	$(GO) build -o /tmp/mcorr-smoke-mccollect ./cmd/mccollect
	@set -e; \
	/tmp/mcorr-smoke-mccollect -tenant alpha,beta -machines 3 -rows 240 -pace 50ms -ops-addr $(OPS_SMOKE_ADDR) >/tmp/mcorr-smoke.log 2>&1 & \
	pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	sleep 3; \
	curl -fsS http://$(OPS_SMOKE_ADDR)/healthz | grep -q '^ok' || { echo 'ops-smoke: /healthz failed'; exit 1; }; \
	curl -fsS http://$(OPS_SMOKE_ADDR)/metrics > /tmp/mcorr-smoke-metrics.txt; \
	grep -Eq '^mcorr_collector_samples_total [1-9]' /tmp/mcorr-smoke-metrics.txt || { echo 'ops-smoke: collector samples counter not moving'; exit 1; }; \
	grep -Eq '^mcorr_manager_step_seconds_count [1-9]' /tmp/mcorr-smoke-metrics.txt || { echo 'ops-smoke: manager step histogram not moving'; exit 1; }; \
	grep -q '^# TYPE mcorr_alarm_raised_total counter' /tmp/mcorr-smoke-metrics.txt || { echo 'ops-smoke: alarm counter family missing'; exit 1; }; \
	grep -q '^mcorr_build_info{' /tmp/mcorr-smoke-metrics.txt || { echo 'ops-smoke: build info series missing'; exit 1; }; \
	grep -Eq '^mcorr_tenant_count 2' /tmp/mcorr-smoke-metrics.txt || { echo 'ops-smoke: tenant count gauge not 2'; exit 1; }; \
	for tn in alpha beta; do \
		grep -Eq "^mcorr_flow_tenant_samples_total\{tenant=\"$$tn\"\} [1-9]" /tmp/mcorr-smoke-metrics.txt || { echo "ops-smoke: no flow samples labeled tenant=$$tn"; exit 1; }; \
		grep -Eq "^mcorr_tenant_rows_total\{tenant=\"$$tn\"\} [1-9]" /tmp/mcorr-smoke-metrics.txt || { echo "ops-smoke: no scored rows labeled tenant=$$tn"; exit 1; }; \
		curl -fsS -X POST -d "{\"tenant\":\"$$tn\",\"anchor\":\"cpuUtil@L-srv-00\",\"window\":{\"last\":20}}" \
			http://$(OPS_SMOKE_ADDR)/api/v1/correlate > /tmp/mcorr-smoke-correlate-$$tn.json; \
		grep -q '"results"' /tmp/mcorr-smoke-correlate-$$tn.json || { echo "ops-smoke: correlate returned no results for $$tn"; exit 1; }; \
		grep -q "\"tenant\": \"$$tn\"" /tmp/mcorr-smoke-correlate-$$tn.json || { echo "ops-smoke: correlate engine block names the wrong tenant for $$tn"; exit 1; }; \
		curl -fsS "http://$(OPS_SMOKE_ADDR)/api/v1/incidents?tenant=$$tn" | grep -q '"total"' || { echo "ops-smoke: /api/v1/incidents not answering for $$tn"; exit 1; }; \
	done; \
	curl -fsS http://$(OPS_SMOKE_ADDR)/api/v1/tenants | grep -q '"total": 2' || { echo 'ops-smoke: /api/v1/tenants does not list both tenants'; exit 1; }; \
	curl -fsS http://$(OPS_SMOKE_ADDR)/statusz | grep -q 'manager.step' || { echo 'ops-smoke: /statusz has no manager.step spans'; exit 1; }; \
	curl -fsS http://$(OPS_SMOKE_ADDR)/debug/spans | grep -q '"spans"' || { echo 'ops-smoke: /debug/spans not answering'; exit 1; }; \
	echo 'ops-smoke OK'

# fuzz-short runs each decoder fuzz target, and the exactness targets of the
# row sweep, of the vector row kernels and of the lazy row layout, for a
# bounded time (go only allows one -fuzz target per invocation). The
# checked-in corpora under testdata/fuzz seed the search; any crasher go
# finds is written there and replayed by plain `go test` forever after.
FUZZTIME ?= 30s
fuzz-short:
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime $(FUZZTIME) ./internal/collector
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSamples$$' -fuzztime $(FUZZTIME) ./internal/collector
	$(GO) test -run '^$$' -fuzz '^FuzzReadSegment$$' -fuzztime $(FUZZTIME) ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzReadRecord$$' -fuzztime $(FUZZTIME) ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeWALRecord$$' -fuzztime $(FUZZTIME) ./internal/tsdb
	$(GO) test -run '^$$' -fuzz '^FuzzSketchOps$$' -fuzztime $(FUZZTIME) ./internal/discover
	$(GO) test -run '^$$' -fuzz '^FuzzShardFrames$$' -fuzztime $(FUZZTIME) ./internal/shardnet
	$(GO) test -run '^$$' -fuzz '^FuzzCorrelateRequest$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzCheckpointRecords$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 5s .
	$(GO) test -run '^$$' -fuzz '^FuzzLoadModel$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 5s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzRowSweep$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzRowKernels$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzMatrixGrowth$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 5s ./internal/core

# corpus regenerates the checked-in fuzz seeds that are built from real
# files: the checkpoint corpus (real, torn and lying checkpoints)
# and the WAL segment corpus. A seed from before a format bump dies at the
# magic and leaves the fuzzer nothing to mutate;
# TestCheckpointCorpusIsCurrent and TestWALCorpusIsCurrent fail until this
# has been run.
corpus:
	$(GO) run gen_checkpoint_corpus.go
	cd internal/wal && $(GO) run gen_corpus.go

# crash-test is the durability gate: build mcdetect, SIGKILL it mid-stream,
# restart from the same -data-dir, and require the per-step fitness
# trajectory to match an uninterrupted run bit for bit — one manager, several
# tenants, and a networked fleet with a SIGKILLed mcshard worker.
crash-test:
	$(GO) test -race -count=1 -run '^TestCrashRecovery' -v ./internal/testkit

# quality runs the detection-quality harness: the incident acceptance
# scenario at a sweep of pair budgets (full, 50%, 25%, 10%), scored for
# recall, precision, time-to-detect and localization rank. QUALITY.json
# is the committed budget-tuning reference; CI uploads a fresh copy as an
# advisory artifact.
quality:
	$(GO) run ./cmd/mcquality -out QUALITY.json

# Regenerate every paper figure against the default environment.
figures:
	$(GO) run ./cmd/mcfigures

# examples runs the four example programs (~4 s): `go build ./...` compiles
# them, but only running them shows that the public constructors they call
# still work — examples/streaming is the one caller of NewMonitor outside
# cmd/ and the tests. quickstart, datacenter and baselines are deterministic,
# so their output must equal examples/testdata/<name>.golden byte for byte;
# streaming's listener port varies, so it only has to run.
EXAMPLES_GOLDEN = quickstart datacenter baselines
examples:
	@set -e; for ex in $(EXAMPLES_GOLDEN); do \
		echo "$(GO) run ./examples/$$ex | diff -u examples/testdata/$$ex.golden -"; \
		$(GO) run ./examples/$$ex | diff -u examples/testdata/$$ex.golden -; \
	done
	$(GO) run ./examples/streaming

clean:
	$(GO) clean ./...
