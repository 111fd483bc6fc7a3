#!/bin/sh
# End-to-end load-harness smoke test (make load-smoke; mirrored in ci.yml).
#
# Boots a live coordinator + site-node pair of trackd processes and drives
# them with cmd/loadgen over both ingest planes: HTTP POST /v1/ingest at the
# coordinator, then TCP delta frames at the coordinator's site-node ingest
# listener. Each run must report nonzero throughput and pass loadgen's own
# -check-total fence (sent == tenant processed — the live exactly-once
# check), and the ETag conditional-GET path must answer 304.
set -eu

COORD_HTTP=127.0.0.1:18090
COORD_INGEST=127.0.0.1:17181
SITE_HTTP=127.0.0.1:18091

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

echo "== building trackd and loadgen"
go build -o "$workdir/trackd" ./cmd/trackd
go build -o "$workdir/loadgen" ./cmd/loadgen

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
wait_http "http://$COORD_HTTP/v1/healthz"

echo "== starting site"
"$workdir/trackd" -role site -node edge-1 -listen "$SITE_HTTP" -upstream "$COORD_INGEST" \
    -forward-delay 5ms -log-format json >"$workdir/site.log" 2>&1 &
site_pid=$!
wait_http "http://$SITE_HTTP/healthz"

# run_loadgen NAME ARGS...: run loadgen with its output in $workdir/NAME.out,
# fail on its own exit status (printing the output first), then require the
# exactly-once fence and a nonzero "sent N records" summary line.
run_loadgen() {
    out="$workdir/$1.out"
    shift
    "$workdir/loadgen" "$@" >"$out" 2>&1 || {
        cat "$out"; echo "loadgen exited nonzero" >&2; exit 1; }
    cat "$out"
    grep -q 'exactly-once check ok' "$out"
    grep -Eq '^  sent +[1-9][0-9]* records' "$out" || {
        echo "loadgen sent no records" >&2; exit 1; }
}

echo "== loadgen over HTTP (coordinator ingest API)"
run_loadgen http -url "http://$COORD_HTTP" -mode http -tenant lg-http \
    -conns 2 -batch 128 -duration 2s -check-total

echo "== loadgen over TCP (site-node delta frames)"
run_loadgen tcp -url "http://$COORD_HTTP" -mode tcp -tcp "$COORD_INGEST" -tenant lg-tcp \
    -conns 2 -batch 128 -duration 2s -check-total

echo "== ETag conditional GET round-trip"
curl -fsS -D "$workdir/heavy.hdrs" -o /dev/null "http://$COORD_HTTP/v1/tenants/lg-http/heavy?phi=0.2"
etag=$(tr -d '\r' <"$workdir/heavy.hdrs" | sed -n 's/^[Ee][Tt][Aa][Gg]: //p')
[ -n "$etag" ] || { echo "heavy query carried no ETag" >&2; exit 1; }
code=$(curl -fsS -o /dev/null -w '%{http_code}' \
    -H "If-None-Match: $etag" "http://$COORD_HTTP/v1/tenants/lg-http/heavy?phi=0.2")
[ "$code" = "304" ] || { echo "conditional GET answered $code, want 304" >&2; exit 1; }
curl -fsS "http://$COORD_HTTP/metrics" \
    | grep -Eq '^disttrack_query_cache_etag_hits_total [1-9]' || {
    echo "etag hit counter did not move" >&2; exit 1; }

echo "load smoke OK"
