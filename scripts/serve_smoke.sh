#!/usr/bin/env bash
# Black-box smoke of a real gnnserve process: start → query → reject a
# corrupt reload → accept a good reload → reload onto a 4-shard snapshot
# (one open serves either kind) → /v1/stats agrees with /metrics →
# SIGTERM drain → clean exit,
# then a second run exercising the write path: inserts through
# /v1/insert, background compaction rotating the serving snapshot, and a
# SIGTERM that waits out the compactor (exit 0, no temp-file orphan, the
# rotated file serves the written points on restart).
# The in-process fault suite (internal/server/faults_test.go) covers the
# hard races; this script pins what only a real process can — signal
# handling, the HTTP listener lifecycle, and exit status.
#
# Usage: scripts/serve_smoke.sh [port]   (default 18080)
set -euo pipefail

PORT="${1:-18080}"
URL="http://127.0.0.1:${PORT}"
DIR="$(mktemp -d)"
BIN="${DIR}/bin"
SRV_PID=""
mkdir -p "${BIN}"

cleanup() {
    [ -n "${SRV_PID}" ] && kill -9 "${SRV_PID}" 2>/dev/null || true
    rm -rf "${DIR}"
}
trap cleanup EXIT

fail() { echo "serve_smoke: FAIL: $*" >&2; exit 1; }

# http VERB URL [BODY] → status code on stdout, body in ${DIR}/resp.
http() {
    local verb="$1" url="$2" body="${3:-}"
    if [ -n "${body}" ]; then
        curl -s -o "${DIR}/resp" -w '%{http_code}' -X "${verb}" -d "${body}" "${url}"
    else
        curl -s -o "${DIR}/resp" -w '%{http_code}' -X "${verb}" "${url}"
    fi
}

echo "== build"
go build -o "${BIN}/gnnserve" ./cmd/gnnserve
go build -o "${BIN}/gnngen" ./cmd/gnngen

echo "== generate snapshots"
"${BIN}/gnngen" -dataset clustered -n 50000 -seed 1 -format snapshot -out "${DIR}/v1.snap"
"${BIN}/gnngen" -dataset clustered -n 60000 -seed 2 -format snapshot -out "${DIR}/v2.snap"
"${BIN}/gnngen" -dataset clustered -n 40000 -seed 3 -format snapshot -shards 4 -out "${DIR}/s4.snap"
# A corrupt candidate: one bit flipped mid-payload.
python3 - "$DIR" <<'PY'
import sys, pathlib
d = pathlib.Path(sys.argv[1])
raw = bytearray((d / "v2.snap").read_bytes())
raw[len(raw) // 2] ^= 0x40
(d / "broken.snap").write_bytes(raw)
PY

echo "== start daemon"
"${BIN}/gnnserve" -snapshot "${DIR}/v1.snap" -addr "127.0.0.1:${PORT}" \
    -drain-timeout 5s >"${DIR}/serve.log" 2>&1 &
SRV_PID=$!
for i in $(seq 1 50); do
    [ "$(http GET "${URL}/readyz" || true)" = "200" ] && break
    kill -0 "${SRV_PID}" 2>/dev/null || { cat "${DIR}/serve.log" >&2; fail "daemon died on startup"; }
    sleep 0.1
done
[ "$(http GET "${URL}/readyz")" = "200" ] || fail "daemon never became ready"

echo "== query"
code=$(http POST "${URL}/v1/groupnn" '{"query":[[2000,3000],[2500,3500]],"k":3,"timeout_ms":1000}')
[ "${code}" = "200" ] || { cat "${DIR}/resp" >&2; fail "query: HTTP ${code}"; }
grep -q '"generation":1' "${DIR}/resp" || fail "query not answered by generation 1"

echo "== corrupt reload is rejected, daemon keeps serving"
code=$(http POST "${URL}/admin/reload" "{\"path\":\"${DIR}/broken.snap\"}")
[ "${code}" = "409" ] || fail "corrupt reload: want 409, got ${code}"
code=$(http POST "${URL}/v1/groupnn" '{"query":[[2000,3000]],"k":1}')
[ "${code}" = "200" ] || fail "query after rejected reload: HTTP ${code}"
grep -q '"generation":1' "${DIR}/resp" || fail "rejected reload changed the generation"

echo "== good reload swaps generations"
code=$(http POST "${URL}/admin/reload" "{\"path\":\"${DIR}/v2.snap\"}")
[ "${code}" = "200" ] || { cat "${DIR}/resp" >&2; fail "good reload: HTTP ${code}"; }
code=$(http POST "${URL}/v1/groupnn" '{"query":[[2000,3000]],"k":1}')
[ "${code}" = "200" ] || fail "query after reload: HTTP ${code}"
grep -q '"generation":2' "${DIR}/resp" || fail "query not answered by generation 2"

echo "== SIGHUP re-reads the live file in place"
kill -HUP "${SRV_PID}"
sleep 0.5
code=$(http GET "${URL}/v1/stats")
[ "${code}" = "200" ] || fail "stats after SIGHUP: HTTP ${code}"
grep -q '"ok":2' "${DIR}/resp" || fail "SIGHUP reload not counted (want reload.ok=2)"

echo "== reload across kinds: a plain daemon swaps onto a 4-shard snapshot"
code=$(http POST "${URL}/admin/reload" "{\"path\":\"${DIR}/s4.snap\"}")
[ "${code}" = "200" ] || { cat "${DIR}/resp" >&2; fail "sharded reload: HTTP ${code}"; }
code=$(http GET "${URL}/v1/stats")
[ "${code}" = "200" ] || fail "stats after sharded reload: HTTP ${code}"
grep -q '"generation":4' "${DIR}/resp" || fail "sharded reload did not bump the generation to 4"
grep -q '"shards":4' "${DIR}/resp" || fail "stats after sharded reload do not report 4 shards"
code=$(http POST "${URL}/v1/groupnn" '{"query":[[2000,3000],[2500,3500]],"k":3}')
[ "${code}" = "200" ] || { cat "${DIR}/resp" >&2; fail "query on the sharded snapshot: HTTP ${code}"; }
grep -q '"generation":4' "${DIR}/resp" || fail "query not answered by the sharded generation"
code=$(http POST "${URL}/v1/batch" '{"queries":[[[2000,3000]],[[2500,3500]]],"k":1}')
[ "${code}" = "200" ] || { cat "${DIR}/resp" >&2; fail "batch on the sharded snapshot: HTTP ${code}"; }

echo "== /v1/stats reads the counts /metrics exports"
code=$(http GET "${URL}/v1/stats")
[ "${code}" = "200" ] || fail "stats: HTTP ${code}"
mv "${DIR}/resp" "${DIR}/stats.json"
code=$(http GET "${URL}/metrics")
[ "${code}" = "200" ] || fail "metrics: HTTP ${code}"
python3 - "${DIR}/stats.json" "${DIR}/resp" <<'PY' || fail "/v1/stats disagrees with /metrics"
import json, re, sys
stats = json.load(open(sys.argv[1]))
served = reloads = None
for line in open(sys.argv[2]):
    m = re.fullmatch(r'(\w+)(?:\{(.*)\})? (\S+)', line.strip())
    if not m:
        continue
    name, value = m.group(1), int(float(m.group(3)))
    labels = dict(re.findall(r'(\w+)="([^"]*)"', m.group(2) or ""))
    if name == "gnn_requests_total" and labels["outcome"] == "ok" and labels["endpoint"] in ("groupnn", "batch"):
        served = (served or 0) + value
    elif name == "gnn_reloads_total":
        reloads = value
want = {"requests.served": (stats["requests"]["served"], served),
        "reload.ok": (stats["reload"]["ok"], reloads)}
bad = False
for field, (got, scraped) in want.items():
    print(f"   {field}: /v1/stats {got}, /metrics {scraped}")
    bad |= scraped is None or got == 0 or got != scraped
sys.exit(1 if bad else 0)
PY

echo "== SIGTERM drains and exits zero"
kill -TERM "${SRV_PID}"
for i in $(seq 1 50); do
    kill -0 "${SRV_PID}" 2>/dev/null || break
    sleep 0.2
done
if kill -0 "${SRV_PID}" 2>/dev/null; then fail "daemon still alive after SIGTERM"; fi
wait "${SRV_PID}" && rc=0 || rc=$?
SRV_PID=""
[ "${rc}" = "0" ] || { cat "${DIR}/serve.log" >&2; fail "daemon exited ${rc}"; }
grep -q "draining" "${DIR}/serve.log" || fail "drain not logged"

echo "== writes under traffic: compaction rotates the serving snapshot"
cp "${DIR}/v1.snap" "${DIR}/live.snap"
"${BIN}/gnnserve" -snapshot "${DIR}/live.snap" -addr "127.0.0.1:${PORT}" \
    -drain-timeout 5s -compact-threshold 8 -compact-interval 20ms \
    >"${DIR}/serve2.log" 2>&1 &
SRV_PID=$!
for i in $(seq 1 50); do
    [ "$(http GET "${URL}/readyz" || true)" = "200" ] && break
    kill -0 "${SRV_PID}" 2>/dev/null || { cat "${DIR}/serve2.log" >&2; fail "write daemon died on startup"; }
    sleep 0.1
done

for i in $(seq 1 24); do
    code=$(http POST "${URL}/v1/insert" "{\"point\":[${i}.5,${i}.5],\"id\":$((900000 + i))}")
    [ "${code}" = "200" ] || { cat "${DIR}/resp" >&2; fail "insert ${i}: HTTP ${code}"; }
done
code=$(http POST "${URL}/v1/delete" '{"point":[1.5,1.5],"id":900001}')
[ "${code}" = "200" ] || fail "delete: HTTP ${code}"
grep -q '"deleted":true' "${DIR}/resp" || fail "delete did not remove the inserted point"

echo "== wait for background compaction"
for i in $(seq 1 100); do
    code=$(http GET "${URL}/v1/stats")
    [ "${code}" = "200" ] || fail "stats: HTTP ${code}"
    if grep -q '"compaction_gen":0' "${DIR}/resp"; then sleep 0.1; else break; fi
done
grep -q '"compaction_gen":0' "${DIR}/resp" && fail "compaction never ran"
grep -q '"last_compaction_error"' "${DIR}/resp" && fail "compaction reported an error"

# The written point is still served after the fold.
code=$(http POST "${URL}/v1/groupnn" '{"query":[[24.5,24.5]],"k":1}')
[ "${code}" = "200" ] || fail "query after compaction: HTTP ${code}"
grep -q '"id":900024' "${DIR}/resp" || fail "compacted index lost an inserted point"

echo "== SIGTERM waits out the compactor: clean exit, no temp orphan"
kill -TERM "${SRV_PID}"
for i in $(seq 1 50); do
    kill -0 "${SRV_PID}" 2>/dev/null || break
    sleep 0.2
done
wait "${SRV_PID}" && rc=0 || rc=$?
SRV_PID=""
[ "${rc}" = "0" ] || { cat "${DIR}/serve2.log" >&2; fail "write daemon exited ${rc}"; }
[ -e "${DIR}/live.snap.tmp" ] && fail "rotation temp file orphaned after drain"

echo "== restart serves the rotated snapshot"
"${BIN}/gnnserve" -snapshot "${DIR}/live.snap" -addr "127.0.0.1:${PORT}" \
    -drain-timeout 5s >"${DIR}/serve3.log" 2>&1 &
SRV_PID=$!
for i in $(seq 1 50); do
    [ "$(http GET "${URL}/readyz" || true)" = "200" ] && break
    sleep 0.1
done
code=$(http POST "${URL}/v1/groupnn" '{"query":[[24.5,24.5]],"k":1}')
[ "${code}" = "200" ] || fail "query after restart: HTTP ${code}"
grep -q '"id":900024' "${DIR}/resp" || fail "rotated snapshot lost a written point across restart"
kill -TERM "${SRV_PID}"
for i in $(seq 1 50); do
    kill -0 "${SRV_PID}" 2>/dev/null || break
    sleep 0.2
done
wait "${SRV_PID}" && rc=0 || rc=$?
SRV_PID=""
[ "${rc}" = "0" ] || { cat "${DIR}/serve3.log" >&2; fail "restart daemon exited ${rc}"; }

echo "serve_smoke: PASS"
