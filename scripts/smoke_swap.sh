#!/usr/bin/env bash
# smoke_swap.sh — end-to-end smoke test of multi-city serving and
# zero-downtime snapshot hot-swap.
#
# Builds the two binaries, prepares snapshots offline with aqquery -save,
# starts aqserver with two city tenants and the snapshot store pointed at
# them, then: routes queries per city (aqquery -server round-trips the city
# field), hot-swaps coventry's engine via POST
# /v1/cities/{name}/snapshots/{id}:activate while traffic is running and
# asserts zero failed requests, checks the epoch bump and that a query
# cached before the swap runs again on the new epoch, and reloads via
# SIGHUP. Used by CI; runnable locally with no
# arguments.
set -euo pipefail

ADDR="127.0.0.1:18331"
BASE="http://$ADDR"
WORKDIR="$(mktemp -d)"
SERVER_PID=""
TRAFFIC_PID=""
trap 'kill "$SERVER_PID" "$TRAFFIC_PID" 2>/dev/null || true; rm -rf "$WORKDIR"' EXIT

cd "$(dirname "$0")/.."
go build -o "$WORKDIR/aqserver" ./cmd/aqserver
go build -o "$WORKDIR/aqquery" ./cmd/aqquery

# Offline pre-processing: two coventry generations (the second is the swap
# target) and one birmingham, all tiny.
"$WORKDIR/aqquery" -city coventry -scale 0.06 -save "$WORKDIR/covA.snap" 2>/dev/null
"$WORKDIR/aqquery" -city coventry -scale 0.07 -save "$WORKDIR/covB.snap" 2>/dev/null
"$WORKDIR/aqquery" -city birmingham -scale 0.05 -save "$WORKDIR/bham.snap" 2>/dev/null

# The result cache is sized so that step 5's few seconds of fresh-seed
# traffic (hundreds of distinct queries on these tiny cities) cannot evict
# the entry step 4 seeds: step 6's miss must come from the epoch key, not
# from LRU eviction.
"$WORKDIR/aqserver" -cities "coventry=$WORKDIR/covA.snap,birmingham=$WORKDIR/bham.snap" \
    -snapshot-dir "$WORKDIR" -addr "$ADDR" -workers 4 -cache-size 4096 >"$WORKDIR/server.log" 2>&1 &
SERVER_PID=$!

for i in $(seq 1 60); do
    curl -sf "$BASE/healthz" >/dev/null 2>&1 && break
    if ! kill -0 "$SERVER_PID" 2>/dev/null; then
        echo "FAIL: server exited during startup" >&2
        cat "$WORKDIR/server.log" >&2
        exit 1
    fi
    sleep 1
done
curl -sf "$BASE/healthz" >/dev/null || {
    echo "FAIL: server never became healthy" >&2
    cat "$WORKDIR/server.log" >&2
    exit 1
}

# 1. Both tenants are listed at epoch 1 with coventry as the default.
curl -sf "$BASE/v1/cities" | python3 -c '
import json, sys
body = json.load(sys.stdin)
assert body["default"] == "coventry", body
cities = {c["name"]: c for c in body["cities"]}
assert set(cities) == {"coventry", "birmingham"}, cities
assert all(c["epoch"] == 1 for c in cities.values()), cities
print(f"cities ok: {sorted(cities)} at epoch 1")
'

# 2. aqquery -server round-trips the city field: the birmingham tenant
# answers and the CSV comes back with data rows.
"$WORKDIR/aqquery" -server "$BASE" -city birmingham -category school \
    -budget 0.2 -model OLS >"$WORKDIR/bham.csv" 2>"$WORKDIR/bham.summary"
grep -q 'city birmingham epoch 1' "$WORKDIR/bham.summary" || {
    echo "FAIL: remote summary lacks birmingham provenance" >&2
    cat "$WORKDIR/bham.summary" >&2
    exit 1
}
[ "$(wc -l <"$WORKDIR/bham.csv")" -gt 1 ] || {
    echo "FAIL: remote CSV has no data rows" >&2
    exit 1
}
echo "aqquery -server ok: $(($(wc -l <"$WORKDIR/bham.csv") - 1)) zones from birmingham"

# 3. An unknown city is a 404 with the stable error code.
CODE=$(curl -s -o "$WORKDIR/unknown.json" -w '%{http_code}' -X POST \
    -H 'Content-Type: application/json' \
    -d '{"category": "school", "city": "atlantis"}' "$BASE/v1/query")
[ "$CODE" = "404" ] || { echo "FAIL: unknown city returned $CODE, want 404" >&2; exit 1; }
python3 -c '
import json, sys
err = json.load(open(sys.argv[1]))["error"]
assert err["code"] == "unknown_city", err
print("unknown city ok: 404 unknown_city")
' "$WORKDIR/unknown.json"

# 4. Seed a coventry cache entry on epoch 1; after the swap the same query
# must not be answered from it.
curl -sf -X POST -H 'Content-Type: application/json' \
    -d '{"category": "school", "budget": 0.2, "model": "OLS", "seed": 500}' \
    "$BASE/v1/query" | python3 -c '
import json, sys
cache = json.load(sys.stdin)["cache"]
assert cache == {"hit": False, "city": "coventry", "epoch": 1}, cache
'

# 5. Hot-swap under load: continuous coventry traffic with fresh seeds
# (cache misses, so runs race the swap) while the engine is replaced.
: >"$WORKDIR/traffic.codes"
(
    i=0
    while :; do
        i=$((i + 1))
        curl -s -o /dev/null -w '%{http_code}\n' -X POST \
            -H 'Content-Type: application/json' \
            -d "{\"category\": \"school\", \"budget\": 0.2, \"model\": \"OLS\", \"seed\": $((1000 + i))}" \
            "$BASE/v1/query" >>"$WORKDIR/traffic.codes"
    done
) &
TRAFFIC_PID=$!
sleep 2

curl -sf -X POST "$BASE/v1/cities/coventry/snapshots/covB:activate" >"$WORKDIR/swap.json"
python3 -c '
import json, sys
body = json.load(open(sys.argv[1]))
assert body["city"]["epoch"] == 2, body
assert body["retired_epoch"] == 1, body
print("swap ok: epoch 1 -> 2")
' "$WORKDIR/swap.json"

sleep 2
kill "$TRAFFIC_PID" 2>/dev/null || true
wait "$TRAFFIC_PID" 2>/dev/null || true
TRAFFIC_PID=""

TOTAL=$(wc -l <"$WORKDIR/traffic.codes")
BAD=$(grep -cv '^200$' "$WORKDIR/traffic.codes" || true)
[ "$TOTAL" -ge 3 ] || { echo "FAIL: only $TOTAL requests ran during the swap window" >&2; exit 1; }
[ "$BAD" -eq 0 ] || {
    echo "FAIL: $BAD/$TOTAL requests failed across the hot-swap" >&2
    sort "$WORKDIR/traffic.codes" | uniq -c >&2
    exit 1
}
echo "swap under load ok: $TOTAL/$TOTAL requests answered 200"

# 6. Step 4's query runs again on epoch 2, and its repeat hits that run.
for want in False True; do
    curl -sf -X POST -H 'Content-Type: application/json' \
        -d '{"category": "school", "budget": 0.2, "model": "OLS", "seed": 500}' \
        "$BASE/v1/query" | python3 -c '
import json, sys
cache = json.load(sys.stdin)["cache"]
assert cache == {"hit": sys.argv[1] == "True", "city": "coventry", "epoch": 2}, cache
' "$want"
done
echo "post-swap rerun ok: the epoch-1 entry is not served on epoch 2"

# 7. SIGHUP reloads tenants whose snapshot changed on disk: overwrite
# coventry's current source and expect epoch 3; birmingham stays at 1.
cp "$WORKDIR/covA.snap" "$WORKDIR/covB.snap"
kill -HUP "$SERVER_PID"
for i in $(seq 1 30); do
    EPOCH=$(curl -sf "$BASE/v1/cities" | python3 -c '
import json, sys
print({c["name"]: c["epoch"] for c in json.load(sys.stdin)["cities"]}["coventry"])
')
    [ "$EPOCH" = "3" ] && break
    sleep 1
done
[ "$EPOCH" = "3" ] || { echo "FAIL: coventry epoch $EPOCH after SIGHUP, want 3" >&2; exit 1; }
curl -sf "$BASE/v1/cities/birmingham" | python3 -c '
import json, sys
assert json.load(sys.stdin)["epoch"] == 1
print("sighup reload ok: coventry at epoch 3, birmingham untouched")
'

echo "PASS: multi-city swap smoke test"
