#!/usr/bin/env bash
# smoke_scenario.sh — end-to-end smoke test of incremental network deltas
# (/v1/cities/{name}/scenario).
#
# Builds aqserver and aqquery, starts a two-city preset server, then:
# closes a route via POST /v1/cities/coventry/scenario while query traffic
# is running and asserts zero failed requests, checks the scenario epoch
# bump and a strictly-partial blast radius (fewer hop trees rebuilt than
# the city total, incremental rebuild faster than the measured full prep),
# stacks a second delta through aqquery -scenario, lists both via GET and
# aqquery -scenario-status, and reverts via DELETE. Used by CI; runnable
# locally with no arguments.
set -euo pipefail

ADDR="127.0.0.1:18341"
BASE="http://$ADDR"
WORKDIR="$(mktemp -d)"
SERVER_PID=""
TRAFFIC_PID=""
trap 'kill "$SERVER_PID" "$TRAFFIC_PID" 2>/dev/null || true; rm -rf "$WORKDIR"' EXIT

cd "$(dirname "$0")/.."
go build -o "$WORKDIR/aqserver" ./cmd/aqserver
go build -o "$WORKDIR/aqquery" ./cmd/aqquery

# Preset tenants (no snapshots: scenario baselines are runtime state).
"$WORKDIR/aqserver" -cities "coventry,birmingham" -scale 0.05 \
    -addr "$ADDR" -workers 4 >"$WORKDIR/server.log" 2>&1 &
SERVER_PID=$!

for i in $(seq 1 120); do
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

# 1. No scenario is active on a fresh tenant.
curl -sf "$BASE/v1/cities/coventry/scenario" | python3 -c '
import json, sys
st = json.load(sys.stdin)
assert st["city"] == "coventry" and not st["active"] and st["epoch"] == 1, st
print("initial scenario status ok: inactive at epoch 1")
'

# 2. Continuous coventry traffic with fresh seeds (cache misses, so runs
# race the scenario swap) while the route closure is applied.
: >"$WORKDIR/traffic.codes"
(
    i=0
    while :; do
        i=$((i + 1))
        curl -s -o /dev/null -w '%{http_code}\n' -X POST \
            -H 'Content-Type: application/json' \
            -d "{\"category\": \"school\", \"budget\": 0.2, \"model\": \"OLS\", \"seed\": $((2000 + i))}" \
            "$BASE/v1/query" >>"$WORKDIR/traffic.codes"
    done
) &
TRAFFIC_PID=$!
sleep 2

# 3. Close a route under live traffic. 201, a Location header, and a
# strictly-partial blast radius: some hop trees rebuilt, fewer than the
# city total; some zones touched, fewer than all. That is what makes the
# apply incremental, and it is deterministic; the two timings are printed
# for information only (on this tiny city both round to a few ms).
CODE=$(curl -s -o "$WORKDIR/apply.json" -w '%{http_code}' -X POST \
    -H 'Content-Type: application/json' \
    -d '{"mutations": [{"kind": "close_route", "route": "RT_X1"}]}' \
    "$BASE/v1/cities/coventry/scenario")
[ "$CODE" = "201" ] || {
    echo "FAIL: scenario apply returned $CODE, want 201" >&2
    cat "$WORKDIR/apply.json" >&2
    exit 1
}
python3 -c '
import json, sys
body = json.load(open(sys.argv[1]))
assert body["city"]["epoch"] == 2, body
delta = body["delta"]
assert delta["id"] == 1 and delta["epoch"] == 2, delta
br = delta["blast_radius"]
assert 0 < br["hop_trees_rebuilt"] < br["hop_trees_total"], br
assert 0 < br["zones_touched"] < body["city"]["zones"], (br, body["city"]["zones"])
assert br["stops_affected"] > 0, br
assert br["router_rebuilt"], br
zt, tr, tt = br["zones_touched"], br["hop_trees_rebuilt"], br["hop_trees_total"]
rm, fm = br["rebuild_ms"], br["est_full_rebuild_ms"]
print(f"scenario apply ok: epoch 2, {zt} zones touched, {tr}/{tt} trees rebuilt, rebuild {rm}ms vs full {fm}ms")
' "$WORKDIR/apply.json"

sleep 2
kill "$TRAFFIC_PID" 2>/dev/null || true
wait "$TRAFFIC_PID" 2>/dev/null || true
TRAFFIC_PID=""

TOTAL=$(wc -l <"$WORKDIR/traffic.codes")
BAD=$(grep -cv '^200$' "$WORKDIR/traffic.codes" || true)
[ "$TOTAL" -ge 3 ] || { echo "FAIL: only $TOTAL requests ran during the scenario window" >&2; exit 1; }
[ "$BAD" -eq 0 ] || {
    echo "FAIL: $BAD/$TOTAL requests failed across the scenario swap" >&2
    sort "$WORKDIR/traffic.codes" | uniq -c >&2
    exit 1
}
echo "scenario under load ok: $TOTAL/$TOTAL requests answered 200"

# 4. New queries serve from the scenario epoch.
curl -sf -X POST -H 'Content-Type: application/json' \
    -d '{"category": "school", "budget": 0.2, "model": "OLS", "seed": 9001}' \
    "$BASE/v1/query" | python3 -c '
import json, sys
cache = json.load(sys.stdin)["cache"]
assert cache["city"] == "coventry" and cache["epoch"] == 2, cache
print("post-delta query ok: answered by epoch 2")
'

# 5. Stack a second delta through the CLI (query-time-only POI reweight).
"$WORKDIR/aqquery" -server "$BASE" -city coventry \
    -scenario '[{"kind": "reweight_poi", "category": "school", "poi": 0, "factor": 0.5}]' \
    >"$WORKDIR/cli-apply.out"
grep -q 'now serving epoch 3' "$WORKDIR/cli-apply.out" || {
    echo "FAIL: aqquery -scenario output missing epoch bump" >&2
    cat "$WORKDIR/cli-apply.out" >&2
    exit 1
}
echo "aqquery -scenario ok: $(head -1 "$WORKDIR/cli-apply.out")"

# 6. GET lists both deltas; the CLI status echoes the blast radii.
curl -sf "$BASE/v1/cities/coventry/scenario" | python3 -c '
import json, sys
st = json.load(sys.stdin)
assert st["active"] and st["baseline_epoch"] == 1 and st["epoch"] == 3, st
assert [d["id"] for d in st["deltas"]] == [1, 2], st
print("scenario status ok: 2 deltas over baseline epoch 1")
'
"$WORKDIR/aqquery" -server "$BASE" -city coventry -scenario-status >"$WORKDIR/status.out"
grep -q 'blast radius' "$WORKDIR/status.out" || {
    echo "FAIL: aqquery -scenario-status missing blast radius summary" >&2
    cat "$WORKDIR/status.out" >&2
    exit 1
}
sed 's/^/  /' "$WORKDIR/status.out"

# 7. An invalid mutation is refused with 422 and the epoch holds.
CODE=$(curl -s -o "$WORKDIR/bad.json" -w '%{http_code}' -X POST \
    -H 'Content-Type: application/json' \
    -d '{"mutations": [{"kind": "close_route", "route": "RT_NOPE"}]}' \
    "$BASE/v1/cities/coventry/scenario")
[ "$CODE" = "422" ] || { echo "FAIL: bad mutation returned $CODE, want 422" >&2; exit 1; }
python3 -c '
import json, sys
err = json.load(open(sys.argv[1]))["error"]
assert err["code"] == "bad_mutation" and not err["retryable"], err
print("bad mutation ok: 422 bad_mutation")
' "$WORKDIR/bad.json"

# 8. DELETE reverts to the pinned baseline as a fresh epoch.
curl -sf -X DELETE "$BASE/v1/cities/coventry/scenario" | python3 -c '
import json, sys
body = json.load(sys.stdin)
assert body["city"]["epoch"] == 4 and body["retired_epoch"] == 3, body
print("scenario revert ok: baseline serving as epoch 4")
'
curl -sf "$BASE/v1/cities/coventry/scenario" | python3 -c '
import json, sys
st = json.load(sys.stdin)
assert not st["active"] and not st.get("deltas"), st
'

# 9. Delta metrics are exposed.
curl -sf "$BASE/v1/metrics" >"$WORKDIR/metrics.out"
for m in aq_delta_batches_total aq_delta_trees_rebuilt_total aq_delta_trees_spared_total aq_delta_reverts_total; do
    grep -q "$m" "$WORKDIR/metrics.out" || {
        echo "FAIL: metrics missing $m" >&2
        exit 1
    }
done
echo "delta metrics ok"

echo "PASS: scenario delta smoke test"
