# Mirrors .github/workflows/ci.yml so contributors can run the same checks
# locally: `make ci` is the full gate, individual targets below.

GO ?= go

.PHONY: all ci fmt fmt-fix vet build test test-shuffle race experiments-diff bench-smoke bench-race-smoke bench-e2e-smoke obs-smoke fault-smoke crash-smoke membership-smoke load-smoke staticcheck vuln fuzz-smoke

all: build

ci: fmt vet build test test-shuffle race experiments-diff bench-smoke bench-race-smoke bench-e2e-smoke obs-smoke fault-smoke crash-smoke membership-smoke load-smoke

# fmt fails if any file needs formatting (what CI runs); fmt-fix rewrites.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "files need gofmt:"; echo "$$out"; exit 1; fi

fmt-fix:
	gofmt -w .

vet:
	$(GO) vet ./...

# The second line compiles internal/service where int is 32 bits.
build:
	$(GO) build ./...
	GOARCH=386 $(GO) vet ./internal/service

test:
	$(GO) test ./...

# Randomize test execution order (mirrors the CI shuffle job), to catch
# inter-test ordering assumptions — e.g. state the engine refactor could
# accidentally share across conformance subtests.
test-shuffle:
	$(GO) test -shuffle=on -count=1 ./...

# The second line repeats the tests that put several goroutines on one
# tenant's gate (concurrent producers, delete/recreate and reconfigure under
# fire), so a single-writer violation cannot land on a lucky schedule; the
# third repeats the quantile and allq bootstrap reads against concurrent
# arrivals (the first read after an arrival sorts the bootstrap list, which
# is safe only under the quiescent lock set); the fourth repeats the
# engine's concurrent conformance laws on the mock policy, where an arrival
# straddling the bootstrap handoff shows 1 run in 6-12, plus the slow path's
# bootstrap drain budget driven by one long batch, the bootstrap drain (one
# hold per bootstrap batch), the sampled slow-path hold timing and the
# two-tier hold (a report locks only its own site until All); the fifth
# repeats the three kinds' concurrent conformance laws, where a report or
# cascade that touches another site without Engine.All races with that
# site's fast path (deleting one All call per kind fails this line); the sixth
# repeats the forwarder's producers-against-the-ticker test, which caught a
# buffer being taken out and enqueued in two steps (reordered or late
# batches; at -count=40 under -race it failed every time), and the cluster's
# senders against a cancelled context (no sender blocks, every accepted
# value is counted once as processed or dropped).
race:
	$(GO) test -race ./...
	$(GO) test -race -count=20 -run 'TestReconfigureUnderFire|TestDeleteRecreateUnderFire|TestConcurrentProducersOneTenant' ./internal/service
	$(GO) test -race -count=10 -run TestBootstrapReadsChangeNoState ./internal/core/quantile ./internal/core/allq
	$(GO) test -race -count=20 -run 'TestEngineConformanceMockPolicy/(ConcurrentStress|ConcurrentBatchStress)|TestSlowPathBudgets|TestBootstrapBatchDrain|TestSlowPathHoldSampled|TestReportHoldsOnlyItsSite' ./internal/core/engine
	$(GO) test -race -count=10 -run 'TestEngineConformance/.*/(ConcurrentStress|ConcurrentBatchStress)' ./internal/core/quantile ./internal/core/allq ./internal/core/hh
	$(GO) test -race -count=40 -run 'TestForwarderConcurrentProducers|TestStopUnderLoad' ./internal/runtime

# The quick experiment tables are a pure function of the protocols' decisions
# (every wire.Meter count, round, split and served answer on seeded streams):
# any change to a site store or a policy that alters one of them shows up as a
# diff against the committed output. Regenerate the file only with a change
# that means to move the protocol, and say so.
experiments-diff:
	$(GO) run ./cmd/experiments -quick -csv | cmp - testdata/experiments_quick.csv

# Run every benchmark exactly once so they cannot bit-rot.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Exercise the batched ingest fast path (FeedLocalBatch, alone and under
# the concurrent runtime) once under the race detector (docs/perf.md), so
# every PR runs it with checking on. The FeedBatch pattern also matches the
# metrics-enabled *Obs twins and the burst-heavy benchmark, so the
# instrumented fast path and a crossing-dense slow path run with checking on
# too; ServiceMacro drives the whole service the same way. A -bench pattern
# that matches nothing exits 0, so race-bench also counts the benchmarks that
# ran and fails on zero (a rename must not turn this step into a no-op).
define race-bench
	@out=$$($(GO) test -race -run '^$$' -bench $(1) -benchtime 1x $(2)) || { echo "$$out"; exit 1; }; \
	echo "$$out"; echo "$$out" | grep -c '^Benchmark' || { echo "no benchmark matches $(1) in $(2)"; exit 1; }
endef

bench-race-smoke:
	$(call race-bench,'FeedBatch|ClusterSendBatchParallel',.)
	$(call race-bench,'^BenchmarkIngest|ServiceMacro',./internal/service/)

# bench/ is its own module, so build/test above do not see it: compile it and
# run its smoke tests (~5 s), so a change to internal/service that breaks the
# repository's benchmark (BENCHMARK.json) fails here and not after merge.
bench-e2e-smoke:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

# End-to-end metrics-plane smoke: boot a live coord + site pair, push data
# through the networked ingest path and grep both /metrics endpoints for
# the required families (docs/observability.md).
obs-smoke:
	./scripts/obs_smoke.sh

# Fault-tolerance smoke: live run of the docs/operations.md runbook —
# per-tenant 429 throttling, kill -9 a site, degraded-but-serving
# coordinator, exactly-once reconvergence after restart.
fault-smoke:
	./scripts/fault_smoke.sh

# Durability smoke: live run of the docs/durability.md crash-recovery
# walkthrough — kill -9 a durable trackd mid-stream, restart on the same
# -data-dir, verify exactly-once totals from WAL replay, then a SIGTERM
# cycle whose final checkpoint makes the next boot replay nothing.
crash-smoke:
	./scripts/crash_smoke.sh

# Elastic-membership smoke: live site add under the networked ingest path,
# then kill -9 the durable coordinator and verify
# exactly-once totals and membership-epoch continuity after restart
# (docs/operations.md scaling runbook).
membership-smoke:
	./scripts/membership_smoke.sh

# Load-harness smoke: drive a live coord + site pair with cmd/loadgen over
# both ingest planes (HTTP and TCP delta frames), asserting nonzero
# throughput, clean exactly-once totals, and a working ETag conditional-GET
# path.
load-smoke:
	./scripts/load_smoke.sh

# Short fuzz pass over the wire-protocol and durability decoders — every
# byte format that crosses a trust boundary (TFrame network frames, WAL
# records, checkpoint frames, POST /v1/ingest bodies) — and over the exact
# site store against a sorted-slice reference and the slot table (hh's
# counters and the perturbation counters) against a map.
fuzz-smoke:
	$(GO) test ./internal/service/ -run '^$$' -fuzz FuzzDecodeIngest -fuzztime 10s
	$(GO) test ./internal/remote/ -run '^$$' -fuzz FuzzReadTFrame -fuzztime 10s
	$(GO) test ./internal/summary/gk/ -run '^$$' -fuzz Fuzz -fuzztime 10s
	$(GO) test ./internal/durable/ -run '^$$' -fuzz FuzzWALRecord -fuzztime 10s
	$(GO) test ./internal/durable/ -run '^$$' -fuzz FuzzCursorTable -fuzztime 10s
	$(GO) test ./internal/core/hh/ -run '^$$' -fuzz FuzzRestore -fuzztime 10s
	$(GO) test ./internal/core/quantile/ -run '^$$' -fuzz FuzzRestore -fuzztime 10s
	$(GO) test ./internal/core/allq/ -run '^$$' -fuzz FuzzRestore -fuzztime 10s
	$(GO) test ./internal/sitestore/ -run '^$$' -fuzz FuzzExactStore -fuzztime 10s
	$(GO) test ./internal/slots/ -run '^$$' -fuzz FuzzSlotTable -fuzztime 10s

# Optional: require the tools only when the target is invoked.
staticcheck:
	@command -v staticcheck >/dev/null || { \
		echo "staticcheck not installed: go install honnef.co/go/tools/cmd/staticcheck@latest"; exit 1; }
	staticcheck ./...

vuln:
	@command -v govulncheck >/dev/null || { \
		echo "govulncheck not installed: go install golang.org/x/vuln/cmd/govulncheck@latest"; exit 1; }
	govulncheck ./...
