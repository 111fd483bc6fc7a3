# The one list of checks: every .github/workflows/ci.yml job runs these
# targets (CI adds only tool installs and the Go version matrix), so `make
# ci` locally is the full gate.

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

# Randomize test execution order (the CI shuffle job runs it), to catch
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
# hold per bootstrap batch), the sampled slow-path hold timing, the
# two-tier hold (a report locks only its own site until All) and the cascade
# timing; the fifth repeats the three kinds' concurrent conformance laws,
# where a report or cascade that touches another site without Engine.All
# races with that site's fast path (deleting one All call per kind fails this
# line); the sixth repeats the site node's producers-against-the-ticker
# test, which catches a buffer shipped after the node's lock is released
# (reordered or lost values; under -race about a third of runs fail);
# the seventh repeats the cluster's senders against a cancelled context (no
# sender blocks, every accepted value is counted once as processed or
# dropped); the eighth repeats the site node client's redial loop, whose
# backoff wait races Close through a channel, beside the coordinator's
# per-node breaker that damps a flapping node; the ninth repeats stats
# requests against membership changes that swap k between 8 and 1 (a stats
# loop bounded by the wrong k panics with every protocol lock held); the
# tenth repeats every query shape of an hh and an allq tenant, through the
# one snapshot cache all four shapes share and the HTTP ETag path, against
# two producers and membership changes that swap k between 2 and 3 (a race
# in the cache would corrupt served answers; the served versions must never
# decrease).
race:
	$(GO) test -race ./...
	$(GO) test -race -count=20 -run 'TestReconfigureUnderFire|TestDeleteRecreateUnderFire|TestConcurrentProducersOneTenant' ./internal/service
	$(GO) test -race -count=10 -run TestBootstrapReadsChangeNoState ./internal/core/quantile ./internal/core/allq
	$(GO) test -race -count=20 -run 'TestEngineConformanceMockPolicy/(ConcurrentStress|ConcurrentBatchStress)|TestSlowPathBudgets|TestBootstrapBatchDrain|TestSlowPathHoldSampled|TestReportHoldsOnlyItsSite|TestCascadesCounted' ./internal/core/engine
	$(GO) test -race -count=10 -run 'TestEngineConformance/.*/(ConcurrentStress|ConcurrentBatchStress)' ./internal/core/quantile ./internal/core/allq ./internal/core/hh
	$(GO) test -race -count=40 -run TestSiteNodeConcurrentProducers ./internal/service
	$(GO) test -race -count=40 -run TestStopUnderLoad ./internal/runtime
	$(GO) test -race -count=20 -run 'TestClientRedialPartitionAndHeal|TestCloseDuringBackoff|TestServerBreakerRefusesFlappingNode' ./internal/remote
	$(GO) test -race -count=20 -run TestStatsRacingReconfigure ./internal/service
	$(GO) test -race -count=20 -run TestQueryCacheUnderFire ./internal/service

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

# Live smokes: cmd/smoke builds trackd, boots real processes on 127.0.0.1:0
# and compares JSON fields and /metrics samples exactly (each takes ~1 s
# after the first build; they can run in parallel).
#   obs: a coord + site pair, the families docs/observability.md promises on
#     both /metrics endpoints and the dedicated -metrics listener.
#   fault: the docs/operations.md runbook — per-tenant 429 throttling, kill
#     -9 a site, degraded-but-serving coordinator, exactly-once after restart.
#   crash: the docs/durability.md walkthrough — kill -9 a durable trackd, WAL
#     replay, then a SIGTERM cycle whose final checkpoint replays nothing.
#   membership: live site add, then kill -9 the durable coordinator; exact
#     totals and membership-epoch continuity after restart.
#   load: fixed HTTP batches and remote.DialNode frames (the live check that
#     both ends speak one frame version), exactly-once totals, ETag 304s.
obs-smoke fault-smoke crash-smoke membership-smoke load-smoke:
	$(GO) run ./cmd/smoke $(@:-smoke=)

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
