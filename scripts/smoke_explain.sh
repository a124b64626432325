#!/usr/bin/env bash
# smoke_explain.sh — end-to-end smoke test of the tracing/explain surface.
#
# Builds aqserver, starts it on a tiny synthetic city, runs one query with
# ?explain=1, and asserts the execution report and the async job's report
# (its typed fields and span tree) are populated. Exercises the same path an operator debugging a
# slow query would take. Used by CI; runnable locally with no arguments.
set -euo pipefail

ADDR="127.0.0.1:18321"
BASE="http://$ADDR"
WORKDIR="$(mktemp -d)"
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -rf "$WORKDIR"' EXIT

cd "$(dirname "$0")/.."
go build -o "$WORKDIR/aqserver" ./cmd/aqserver

"$WORKDIR/aqserver" -cities coventry -scale 0.08 -addr "$ADDR" \
    -slow-query 1ms >"$WORKDIR/server.log" 2>&1 &
SERVER_PID=$!

# Wait for readiness: pre-processing the tiny city takes a few seconds.
for i in $(seq 1 120); do
    if curl -sf "$BASE/healthz" >/dev/null 2>&1; then
        break
    fi
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

QUERY='{"category": "school", "budget": 0.2, "model": "OLS", "seed": 11}'

# 1. Sync query with ?explain=1 must return a populated execution report.
curl -sf -X POST -H 'Content-Type: application/json' -d "$QUERY" \
    "$BASE/v1/query?explain=1" >"$WORKDIR/explain.json"
python3 - "$WORKDIR/explain.json" <<'EOF'
import json, sys
resp = json.load(open(sys.argv[1]))
ex = resp.get("explain")
assert ex, "no explain object in ?explain=1 response"
assert ex.get("trace_id"), "explain has no trace_id"
assert ex.get("spqs", 0) > 0, f"spqs = {ex.get('spqs')}"
assert ex.get("labeled_zones", 0) > 0, "no labeled_zones"
assert ex.get("matrix_full_trips", 0) > ex.get("matrix_trips", 0) > 0, "TODAM sizes missing"
stages = {s["name"] for s in ex.get("stages", [])}
want = {"matrix", "sampling", "labeling", "features", "training"}
assert want <= stages, f"stages missing {want - stages}"
assert ex.get("trace", {}).get("spans"), "explain carries no span tree"
print(f"explain ok: {len(stages)} stages, {ex['spqs']} SPQs, "
      f"{ex.get('matrix_reduction_pct', 0):.1f}% TODAM reduction")
EOF

# 2. Async job: the trace endpoint must serve the same execution report,
# with the run's numbers as typed fields and its span tree under "trace".
curl -sf -X POST -H 'Content-Type: application/json' \
    -d '{"category": "school", "budget": 0.2, "model": "OLS", "seed": 12}' \
    "$BASE/v1/query?async=1" >"$WORKDIR/accepted.json"
JOB_URL="$BASE$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["status_url"])' "$WORKDIR/accepted.json")"

for i in $(seq 1 120); do
    STATE=$(curl -sf "$JOB_URL" | python3 -c 'import json,sys; print(json.load(sys.stdin)["state"])')
    [ "$STATE" = "done" ] && break
    if [ "$STATE" = "failed" ]; then
        echo "FAIL: async job failed" >&2
        exit 1
    fi
    sleep 1
done

curl -sf "$JOB_URL/trace" >"$WORKDIR/trace.json"
python3 - "$WORKDIR/trace.json" <<'EOF'
import json, sys
rep = json.load(open(sys.argv[1]))
assert rep.get("spqs", 0) > 0, f"spqs = {rep.get('spqs')}"
assert rep.get("labeled_zones", 0) > 0, "no labeled_zones"
assert rep.get("matrix_full_trips", 0) > rep.get("matrix_trips", 0) > 0, "TODAM sizes missing"
tr = rep.get("trace") or {}
assert tr.get("trace_id"), "trace has no trace_id"
spans = tr.get("spans") or []
assert spans, "trace endpoint returned an empty span tree"
names = set()
def walk(nodes):
    for n in nodes:
        names.add(n["name"])
        walk(n.get("children") or [])
walk(spans)
want = {"job", "query", "matrix", "sampling", "labeling", "features", "training"}
assert want <= names, f"span tree missing {want - names}"
print(f"trace ok: {len(names)} distinct spans, root {spans[0]['name']!r}, "
      f"{rep['spqs']} SPQs")
EOF

# 3. One detailed journey: /v1/journey runs the same bounded search as
# labeling, with predecessor recording on. Its legs must be contiguous in
# time, end at the journey's arrival, and ride once per boarding.
curl -sf "$BASE/v1/journey?from=13&to=32&depart=08:00:00" >"$WORKDIR/journey.json"
python3 - "$WORKDIR/journey.json" <<'EOF'
import json, sys
j = json.load(open(sys.argv[1]))
legs = j.get("legs") or []
assert legs, f"journey has no legs: {j}"
assert legs[0]["depart"] >= j["depart"], "first leg departs before the journey"
for prev, leg in zip(legs, legs[1:]):
    assert leg["depart"] >= prev["arrive"], f"legs not contiguous: {prev} then {leg}"
assert legs[-1]["arrive"] == j["arrive"], f"last leg arrives {legs[-1]['arrive']}, journey {j['arrive']}"
rides = sum(1 for leg in legs if leg["mode"] == "ride")
assert rides == j["boardings"], f"{rides} ride legs but {j['boardings']} boardings"
print(f"journey ok: {len(legs)} legs, {rides} rides, {j['depart']} -> {j['arrive']}")
EOF

# 4. Every line the server wrote is one JSON object, and the 1ms
# slow-query threshold produced a warn line with the trace ID and the
# per-stage breakdown.
python3 - "$WORKDIR/server.log" <<'EOF' || { cat "$WORKDIR/server.log" >&2; exit 1; }
import json, re, sys
lines = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
slow = [l for l in lines if l.get("msg") == "slow query"]
assert slow, "no slow-query log line in server output"
line = slow[0]
assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\.\d{3}Z", line.get("ts", "")), f"ts = {line.get('ts')!r}"
assert line.get("level") == "warn", f"level = {line.get('level')!r}"
assert line.get("trace_id"), "slow-query line has no trace_id"
stages = [k for k in line if re.fullmatch(r"stage_\w+_seconds", k)]
assert stages, f"slow-query line has no stage_*_seconds: {line}"
print(f"server log ok: {len(lines)} JSON lines, slow query with {len(stages)} stages")
EOF
echo "PASS: explain/trace smoke test"
