#!/bin/sh
# Elastic-membership smoke test (make membership-smoke; mirrored in ci.yml).
#
# Live version of the docs/operations.md scaling runbook against a durable
# coordinator + site-node pair:
#
#   1. boot a durable coord (-data-dir) and a site node, ingest a known
#      total through the networked path;
#   2. add a site mid-stream (POST /v1/admin/membership k 2 -> 3): the
#      membership epoch bumps, the node fleet re-handshakes, and further
#      ingest lands exactly-once on the reconfigured tenant;
#   3. kill -9 the coordinator and restart it on the same -data-dir: the
#      durable seq cursors and the membership epoch survive — the node
#      resyncs without a single lost or doubled record, /healthz shows
#      epoch continuity, and the membership metric families are live.
set -eu

COORD_HTTP=127.0.0.1:18093
COORD_INGEST=127.0.0.1:17273
SITE_HTTP=127.0.0.1:18094

workdir=$(mktemp -d)
coord_pid=""
site_pid=""
cleanup() {
    [ -n "$site_pid" ] && kill "$site_pid" 2>/dev/null || true
    [ -n "$coord_pid" ] && kill "$coord_pid" 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

echo "== building trackd"
go build -o "$workdir/trackd" ./cmd/trackd

# wait_http URL: poll until the endpoint answers (or fail after ~5s).
wait_http() {
    i=0
    until curl -fsS -o /dev/null "$1" 2>/dev/null; do
        i=$((i + 1))
        if [ "$i" -ge 50 ]; then
            echo "timeout waiting for $1" >&2
            echo "--- coord.log"; cat "$workdir/coord.log" >&2 || true
            echo "--- site.log"; cat "$workdir/site.log" >&2 || true
            exit 1
        fi
        sleep 0.1
    done
}

# wait_health PATTERN: poll the coordinator /healthz until it matches.
wait_health() {
    i=0
    until curl -fsS "http://$COORD_HTTP/healthz" 2>/dev/null | grep -q "$1"; do
        i=$((i + 1))
        if [ "$i" -ge 100 ]; then
            echo "timeout waiting for /healthz to match $1" >&2
            curl -fsS "http://$COORD_HTTP/healthz" >&2 || true
            exit 1
        fi
        sleep 0.1
    done
}

# The 1h checkpoint interval keeps the background checkpointer out of the
# picture: the cursor table is persisted only by the membership operation
# itself, so the post-crash resync below genuinely exercises the
# cursor-file ∨ WAL-provenance merge.
start_coord() {
    "$workdir/trackd" -role coord -listen "$COORD_HTTP" -ingest-listen "$COORD_INGEST" \
        -data-dir "$workdir/data" -checkpoint-interval 1h -fsync always \
        -breaker-fail 3 -breaker-open 300ms \
        -log-format json >>"$workdir/coord.log" 2>&1 &
    coord_pid=$!
    wait_http "http://$COORD_HTTP/healthz"
}

start_site() {
    "$workdir/trackd" -role site -node edge-1 -listen "$SITE_HTTP" -upstream "$COORD_INGEST" \
        -forward-delay 5ms -breaker-fail 3 -breaker-open 300ms \
        -log-format json >>"$workdir/site.log" 2>&1 &
    site_pid=$!
    wait_http "http://$SITE_HTTP/healthz"
}

# ingest_site COUNT BASE: push COUNT records (sites alternating 0/1) through
# the site node, then flush so the totals below are settled.
ingest_site() {
    records='{"records":['
    i=0
    while [ "$i" -lt "$1" ]; do
        [ "$i" -gt 0 ] && records="$records,"
        records="$records{\"tenant\":\"clicks\",\"site\":$((i % 2)),\"value\":$((($2 + i) % 13 + 1))}"
        i=$((i + 1))
    done
    records="$records]}"
    curl -fsS -X POST "http://$SITE_HTTP/v1/ingest" -d "$records" >/dev/null
    curl -fsS -X POST "http://$SITE_HTTP/v1/flush" >/dev/null
}

# expect_counts PATTERN: the tenant's exact per-site counts — nothing lost,
# nothing doubled, shrink folds accounted.
expect_counts() {
    curl -fsS "http://$COORD_HTTP/v1/tenants/clicks" | grep -q "\"site_counts\":\[$1\]" || {
        echo "expected site_counts [$1]" >&2
        curl -fsS "http://$COORD_HTTP/v1/tenants/clicks" >&2; exit 1; }
}

echo "== starting durable coord + site"
start_coord
start_site
curl -fsS -X POST "http://$COORD_HTTP/v1/tenants" \
    -d '{"name":"clicks","kind":"hh","k":2,"eps":0.05}' >/dev/null

echo "== baseline ingest through the site node (k=2)"
ingest_site 200 0
expect_counts "100,100"
curl -fsS "http://$COORD_HTTP/healthz" | grep -q '"epoch":1' || {
    echo "fresh coordinator should be at epoch 1" >&2; exit 1; }

echo "== live site add (k 2 -> 3): epoch bump, fleet re-handshake"
curl -fsS -X POST "http://$COORD_HTTP/v1/admin/membership" \
    -d '{"tenant":"clicks","k":3}' | grep -q '"epoch":2' || {
    echo "membership change should report epoch 2" >&2; exit 1; }
wait_health '"epoch":2'
# The node was disconnected by the epoch bump; it re-handshakes under the
# new epoch and ingest continues exactly-once onto the grown site set.
ingest_site 100 7
expect_counts "150,150,0"

echo "== membership metric families"
curl -fsS "http://$COORD_HTTP/metrics" >"$workdir/coord.metrics"
for fam in \
    disttrack_membership_epoch \
    disttrack_membership_changes_total; do
    grep -q "^# TYPE $fam " "$workdir/coord.metrics" || {
        echo "coordinator /metrics missing family $fam" >&2; exit 1; }
done
grep -q '^disttrack_membership_epoch 2' "$workdir/coord.metrics" || {
    echo "membership epoch gauge should read 2" >&2
    grep '^disttrack_membership' "$workdir/coord.metrics" >&2 || true; exit 1; }
grep -q '^disttrack_membership_changes_total 1' "$workdir/coord.metrics" || {
    echo "membership changes counter should read 1" >&2; exit 1; }

echo "== kill -9 the coordinator, restart on the same -data-dir"
kill -9 "$coord_pid"
wait "$coord_pid" 2>/dev/null || true
coord_pid=""
start_coord
# Epoch continuity + durable cursors: the restarted coordinator resumes at
# epoch 2 with edge-1's seq cursor recovered, so the node's replayed tail
# (if any) is deduplicated and the totals stay exact.
wait_health '"epoch":2'
curl -fsS "http://$COORD_HTTP/healthz" >"$workdir/health.json"
grep -q '"durable_cursors":true' "$workdir/health.json" || {
    echo "/healthz should report the recovered cursor table" >&2
    cat "$workdir/health.json" >&2; exit 1; }
grep -q '"cursor_nodes":1' "$workdir/health.json" || {
    echo "/healthz should report 1 cursor node" >&2
    cat "$workdir/health.json" >&2; exit 1; }
expect_counts "150,150,0"

echo "== the reconnected node keeps streaming exactly-once"
wait_health '"degraded":false'
ingest_site 100 11
expect_counts "200,200,0"
curl -fsS "http://$COORD_HTTP/v1/tenants/clicks/heavy?phi=0.2" | grep -q '"items"' || {
    echo "restarted coordinator not serving queries" >&2; exit 1; }

echo "membership smoke OK"
