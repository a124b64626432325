#!/usr/bin/env bash
# chaos.sh — robustness smoke test of aqserver under deterministic fault
# injection.
#
# Starts the server with -fault-spec "seed=42;spq:fail=<rate>" on a tiny
# synthetic city, fires N consecutive /v1/query calls with distinct seeds
# (so each one runs the engine rather than the cache), and asserts:
#
#   1. zero 5xx responses — SPQ faults degrade answers, they never crash
#      the serving path;
#   2. every 200 body is valid JSON carrying the query summary, and any
#      degraded answer says so in its `degraded` block;
#   3. the fault accounting identity holds on /v1/metrics:
#      spq retries + spq abandons == injected spq faults.
#
# Usage: scripts/chaos.sh [fail-rate] [num-queries]   (defaults 0.05, 100)
# Used by CI; runnable locally with no arguments.
set -euo pipefail

RATE="${1:-0.05}"
N="${2:-100}"
ADDR="127.0.0.1:18331"
BASE="http://$ADDR"
WORKDIR="$(mktemp -d)"
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -rf "$WORKDIR"' EXIT

cd "$(dirname "$0")/.."
go build -o "$WORKDIR/aqserver" ./cmd/aqserver

"$WORKDIR/aqserver" -cities coventry -scale 0.06 -addr "$ADDR" \
    -fault-spec "seed=42;spq:fail=$RATE" -workers 2 \
    >"$WORKDIR/server.log" 2>&1 &
SERVER_PID=$!

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

# Fire N consecutive queries, each with a fresh seed so the cache and the
# in-flight dedup cannot mask engine behaviour. Record every status code
# and keep every body for the validation pass below.
mkdir "$WORKDIR/bodies"
: >"$WORKDIR/codes"
for i in $(seq 1 "$N"); do
    CODE=$(curl -s -o "$WORKDIR/bodies/$i.json" -w '%{http_code}' \
        -X POST -H 'Content-Type: application/json' \
        -d "{\"category\": \"school\", \"budget\": 0.1, \"model\": \"OLS\", \"seed\": $i}" \
        "$BASE/v1/query")
    echo "$CODE" >>"$WORKDIR/codes"
done

python3 - "$WORKDIR" "$N" <<'EOF'
import json, sys, pathlib
workdir, n = pathlib.Path(sys.argv[1]), int(sys.argv[2])
codes = workdir.joinpath("codes").read_text().split()
assert len(codes) == n, f"expected {n} responses, got {len(codes)}"
fives = [c for c in codes if c.startswith("5")]
assert not fives, f"{len(fives)} 5xx responses under fault injection: {fives}"
ok = degraded = 0
for i, code in enumerate(codes, 1):
    body = json.load(open(workdir / "bodies" / f"{i}.json"))
    if code == "200":
        ok += 1
        assert "fairness" in body and "spqs" in body and "elapsed_ms" in body, \
            f"query {i}: 200 body missing summary fields: {sorted(body)}"
        if body.get("degraded"):
            degraded += 1
            assert body["degraded"].get("rungs"), f"query {i}: empty degraded block"
    else:
        err = body.get("error") or {}
        assert err.get("code") and err.get("retryable") is True, \
            f"query {i}: non-200 ({code}) must be a retryable envelope: {body}"
print(f"queries ok: {ok}/{n} answered, {degraded} degraded, zero 5xx")
EOF

# Accounting: every injected SPQ fault must be visible as either a retry
# or an abandon on the engine's counters.
curl -sf "$BASE/v1/metrics" >"$WORKDIR/metrics.txt"
python3 - "$WORKDIR/metrics.txt" <<'EOF'
import sys
injected = retries = abandoned = degraded = 0.0
for line in open(sys.argv[1]):
    if line.startswith("#"):
        continue
    parts = line.split()
    if len(parts) != 2:
        continue
    name, value = parts[0], float(parts[1])
    if name.startswith('aq_fault_injected_total{site="spq"'):
        injected += value
    elif name == "aq_engine_spq_retries_total":
        retries += value
    elif name == "aq_engine_spq_abandoned_total":
        abandoned += value
    elif name.startswith("aq_engine_degraded_total"):
        degraded += value
assert injected > 0, "no spq faults injected — is -fault-spec wired?"
assert retries + abandoned == injected, \
    f"accounting broken: {retries} retries + {abandoned} abandons != {injected} injected"
print(f"accounting ok: {injected:.0f} injected = {retries:.0f} retried + "
      f"{abandoned:.0f} abandoned; {degraded:.0f} degradation rungs fired")
EOF

echo "PASS: chaos smoke test (rate $RATE, $N queries)"
