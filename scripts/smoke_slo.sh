#!/usr/bin/env bash
# smoke_slo.sh — end-to-end smoke test of the SLO burn-rate engine, the
# per-tenant cost accounting, and the automatic slow-query capture.
#
# Starts aqserver with two city tenants under injected SPQ faults and an
# asymmetric SLO spec: coventry gets an impossible 1ms p99 so every one of
# its queries burns latency budget, birmingham keeps a tolerant objective
# and must stay at zero burn. Asserts the /v1/slo asymmetry, fetches a
# slow job's capture from /v1/jobs/{id}/profile, checks the cost block in
# /v1/stats and the aq_slo_*/aq_cost_* metric families, and finishes by
# proving the disabled path (no -slo, no captures) adds zero allocations
# per query. Used by CI; runnable locally with no arguments.
set -euo pipefail

ADDR="127.0.0.1:18341"
BASE="http://$ADDR"
WORKDIR="$(mktemp -d)"
SERVER_PID=""
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -rf "$WORKDIR"' EXIT

cd "$(dirname "$0")/.."
go build -o "$WORKDIR/aqserver" ./cmd/aqserver
go build -o "$WORKDIR/aqquery" ./cmd/aqquery

"$WORKDIR/aqquery" -city coventry -scale 0.06 -save "$WORKDIR/cov.snap" 2>/dev/null
"$WORKDIR/aqquery" -city birmingham -scale 0.05 -save "$WORKDIR/bham.snap" 2>/dev/null

# Burn tripping is disabled (-slo-burn-trip 0) so coventry's deliberately
# impossible objective keeps answering queries instead of opening the
# breaker mid-smoke; the trip path is covered by the serve package tests.
"$WORKDIR/aqserver" -cities "coventry=$WORKDIR/cov.snap,birmingham=$WORKDIR/bham.snap" \
    -addr "$ADDR" -workers 4 \
    -fault-spec "seed=42;spq:fail=0.05" \
    -slo "p99=30m,avail=99.9;coventry:p99=1ms,avail=99.9" -slo-burn-trip 0 \
    -slow-query 1ms -captures 8 -capture-dir "$WORKDIR/captures" \
    >"$WORKDIR/server.log" 2>&1 &
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

# 1. Drive traffic at both tenants (distinct seeds defeat the cache).
for seed in 1 2 3 4 5 6; do
    for city in coventry birmingham; do
        curl -sf -X POST -H 'Content-Type: application/json' \
            -d "{\"category\": \"school\", \"budget\": 0.2, \"model\": \"OLS\", \"seed\": $seed, \"city\": \"$city\"}" \
            "$BASE/v1/query" >/dev/null
    done
done
echo "traffic ok: 12 queries across two tenants"

# 2. /v1/slo must show the asymmetry: every coventry query misses its 1ms
# p99 (burn ~100 against the 1% latency budget); birmingham stays at zero.
curl -sf "$BASE/v1/slo" >"$WORKDIR/slo.json"
python3 - "$WORKDIR/slo.json" <<'EOF'
import json, sys
body = json.load(open(sys.argv[1]))
assert body["enabled"], "slo tracking not enabled"
tenants = {t["city"]: t for t in body["tenants"]}
assert set(tenants) == {"coventry", "birmingham"}, sorted(tenants)
cov, bham = tenants["coventry"], tenants["birmingham"]
assert cov["fast_burn"] > 10, f"coventry fast_burn = {cov['fast_burn']}, want > 10"
assert bham["fast_burn"] == 0, f"birmingham fast_burn = {bham['fast_burn']}, want 0"
w5 = next(w for w in cov["windows"] if w["window"] == "5m")
assert w5["total"] >= 6 and w5["slow"] >= 6, f"coventry 5m window = {w5}"
print(f"slo ok: coventry burns {cov['fast_burn']:.1f}, birmingham {bham['fast_burn']:.1f}")
EOF

# 3. An async coventry query over the 1ms slow-query threshold must leave
# a capture fetchable at /v1/jobs/{id}/profile.
curl -sf -X POST -H 'Content-Type: application/json' \
    -d '{"category": "school", "budget": 0.2, "model": "OLS", "seed": 99, "city": "coventry"}' \
    "$BASE/v1/query?async=1" >"$WORKDIR/accepted.json"
JOB_ID=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["job_id"])' "$WORKDIR/accepted.json")

PROFILE_OK=""
for i in $(seq 1 60); do
    if curl -sf "$BASE/v1/jobs/$JOB_ID/profile" >"$WORKDIR/profile.json" 2>/dev/null; then
        PROFILE_OK=1
        break
    fi
    sleep 1
done
[ -n "$PROFILE_OK" ] || {
    echo "FAIL: no capture appeared for job $JOB_ID" >&2
    cat "$WORKDIR/server.log" >&2
    exit 1
}
python3 - "$WORKDIR/profile.json" <<'EOF'
import json, sys
c = json.load(open(sys.argv[1]))
assert c["reason"] in ("slow_query", "deadline"), c["reason"]
assert c["city"] == "coventry", c["city"]
assert c.get("trace_id"), "capture has no trace"
assert c.get("num_goroutines", 0) > 0 and c.get("goroutines"), "capture has no goroutine dump"
assert c.get("elapsed_seconds", 0) > 0, f"capture elapsed = {c.get('elapsed_seconds')}"
print(f"capture ok: {c['id']} reason={c['reason']} "
      f"{c['num_goroutines']} goroutines, elapsed {c['elapsed_seconds']*1000:.1f}ms")
EOF
ls "$WORKDIR"/captures/*.json >/dev/null || {
    echo "FAIL: -capture-dir mirrored no captures to disk" >&2
    exit 1
}
echo "capture dir ok"

# 4. The stats cost block must attribute jobs to both tenants, and the
# metric families must expose burn rates and cost counters.
curl -sf "$BASE/v1/stats" >"$WORKDIR/stats.json"
python3 - "$WORKDIR/stats.json" <<'EOF'
import json, sys
body = json.load(open(sys.argv[1]))
cost = {c["city"]: c for c in body.get("cost") or []}
assert {"coventry", "birmingham"} <= set(cost), sorted(cost)
for city in ("coventry", "birmingham"):
    c = cost[city]
    assert c["jobs"] >= 6, f"{city} jobs = {c['jobs']}"
    assert c["wall_seconds"] > 0 and c["stage_seconds"], f"{city} cost = {c}"
caps = body.get("captures") or {}
assert caps.get("stored", 0) >= 1, f"captures = {caps}"
print(f"cost ok: coventry {cost['coventry']['jobs']} jobs, "
      f"birmingham {cost['birmingham']['jobs']} jobs, {caps['stored']} captures stored")
EOF
curl -sf "$BASE/v1/metrics" >"$WORKDIR/metrics.txt"
for fam in aq_slo_burn_rate aq_cost_jobs_total aq_cost_wall_micros_total aq_capture_total; do
    grep -q "^$fam" "$WORKDIR/metrics.txt" || {
        echo "FAIL: metric family $fam missing from /v1/metrics" >&2
        exit 1
    }
done
echo "metrics ok: slo/cost/capture families exposed"

# 5. Observation must stay cheap: with no accountant, no SLO engine and no
# capture store, m.observe allocates nothing per served query, and cost
# accounting plus SLO tracking add nothing either.
go test -run 'TestDisabledObservabilityHooksZeroAlloc|TestObserveAllocsWithAccountantAndSLO' -count=1 ./internal/serve/ >/dev/null
go test -run TestDisabledPathZeroAlloc -count=1 ./internal/obs/account/ ./internal/obs/slo/ >/dev/null
echo "zero-alloc disabled path ok"

echo "PASS: slo/cost/capture smoke test"
