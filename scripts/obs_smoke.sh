#!/bin/sh
# End-to-end metrics-plane smoke test (make obs-smoke; mirrored in ci.yml).
#
# Boots a live coordinator + site-node pair of trackd processes, pushes data
# through the networked ingest path (site HTTP -> delta frames -> coord TCP),
# and greps both /metrics endpoints for the families docs/observability.md
# promises. Families are emitted with HELP/TYPE headers even before their
# first sample, so a missing grep means the catalog regressed, not that the
# workload was too small.
set -eu

COORD_HTTP=127.0.0.1:18080
COORD_INGEST=127.0.0.1:17171
SITE_HTTP=127.0.0.1:18081

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

echo "== starting coord"
"$workdir/trackd" -role coord -listen "$COORD_HTTP" -ingest-listen "$COORD_INGEST" \
    -log-format json >"$workdir/coord.log" 2>&1 &
coord_pid=$!
# The coord brings up its TCP ingest listener before the HTTP one, so a
# healthy /v1/healthz means the site can dial upstream.
wait_http "http://$COORD_HTTP/v1/healthz"

echo "== starting site"
"$workdir/trackd" -role site -node edge-1 -listen "$SITE_HTTP" -upstream "$COORD_INGEST" \
    -forward-delay 5ms -log-format json >"$workdir/site.log" 2>&1 &
site_pid=$!
wait_http "http://$SITE_HTTP/healthz"

echo "== creating tenant and ingesting through the site node"
curl -fsS -X POST "http://$COORD_HTTP/v1/tenants" \
    -d '{"name":"clicks","kind":"hh","k":4,"eps":0.05}' >/dev/null
records='{"records":['
i=0
while [ "$i" -lt 200 ]; do
    [ "$i" -gt 0 ] && records="$records,"
    records="$records{\"tenant\":\"clicks\",\"site\":$((i % 4)),\"value\":$((i % 13))}"
    i=$((i + 1))
done
records="$records]}"
curl -fsS -X POST "http://$SITE_HTTP/v1/ingest" -d "$records" >/dev/null
# Site flush pushes buffered frames upstream and fences the coordinator, so
# everything above is applied before we scrape.
curl -fsS -X POST "http://$SITE_HTTP/v1/flush" >/dev/null
curl -fsS -X POST "http://$COORD_HTTP/v1/flush" >/dev/null

echo "== scraping coordinator /metrics"
curl -fsS "http://$COORD_HTTP/metrics" >"$workdir/coord.metrics"
for fam in \
    disttrack_engine_feeds_total \
    disttrack_cluster_processed_total \
    disttrack_tenant_sent_total \
    disttrack_wire_msgs_total \
    disttrack_wire_words_total \
    disttrack_ingest_accepted_total \
    disttrack_remote_frames_total \
    disttrack_remote_bytes_in_total \
    disttrack_remote_wire_msgs_total \
    disttrack_http_requests_total \
    disttrack_query_cache_hits_total \
    disttrack_tenants \
    disttrack_uptime_seconds \
    disttrack_build_info; do
    grep -q "^# TYPE $fam " "$workdir/coord.metrics" || {
        echo "coordinator /metrics missing family $fam" >&2; exit 1; }
done
# The networked path actually carried the data: frames and values are live
# samples, not just catalog entries.
grep -Eq '^disttrack_remote_values_total [1-9]' "$workdir/coord.metrics" || {
    echo "coordinator saw no remote values:" >&2
    grep '^disttrack_remote' "$workdir/coord.metrics" >&2 || true
    exit 1
}
grep -Eq "^disttrack_engine_feeds_total\{tenant=\"clicks\"\} [1-9]" "$workdir/coord.metrics" || {
    echo "engine feeds for clicks did not move" >&2; exit 1; }

echo "== scraping site /metrics"
curl -fsS "http://$SITE_HTTP/metrics" >"$workdir/site.metrics"
for fam in \
    disttrack_node_accepted_total \
    disttrack_node_batches_total \
    disttrack_node_reconnects_total \
    disttrack_node_bytes_total \
    disttrack_node_pending_frames \
    disttrack_node_window_occupancy \
    disttrack_node_uptime_seconds \
    disttrack_build_info; do
    grep -q "^# TYPE $fam " "$workdir/site.metrics" || {
        echo "site /metrics missing family $fam" >&2; exit 1; }
done
grep -Eq '^disttrack_node_accepted_total [1-9]' "$workdir/site.metrics" || {
    echo "site node accepted no records" >&2; exit 1; }

# The dedicated -metrics listener path is exercised by cmd/trackd flag tests;
# here we also confirm a query against the ingested data round-trips.
curl -fsS "http://$COORD_HTTP/v1/tenants/clicks/heavy?phi=0.2" | grep -q '"items"' || {
    echo "heavy-hitter query failed" >&2; exit 1; }

echo "obs smoke OK"
