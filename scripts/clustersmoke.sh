#!/bin/sh
# clustersmoke drives the multi-node serving tier end to end: a shmtrouterd
# router fronting two shmtserved backends, all on ephemeral ports. It asserts
#
#   (1) concurrent request volleys through the router all answer 200, with
#       key affinity (same tenant/op/shape -> same X-SHMT-Backend),
#   (2) SIGKILLing one backend mid-volley loses zero client requests — the
#       router fails over to the surviving replica (at most one client retry
#       per request is allowed for the in-flight instant of the kill),
#   (3) the kill is visible in the exposition: shmt_router_rehash_total and
#       shmt_router_breaker_opens_total advance, healthy-backend count drops,
#   (4) restarting the dead backend on its original port re-admits it through
#       a half-open health probe (shmt_router_readmissions_total > 0),
#   (5) a fresh backend can join at runtime via -register (self-registration);
#       it runs a seeded -chaos plan of transient GPU faults, and requests it
#       serves still answer 200 while its shmt_hlop_retries_total advances
#       (the engine's fault, retry and reroute path),
#   (6) a large eligible VOP scatter-gathers across backends
#       (X-SHMT-Scatter header, shmt_router_scatter_requests_total > 0) and
#       reassembles the right answer,
#   (7) a tenant over its -tenant-limit in-flight quota is shed with 429 at
#       the router (shmt_router_tenant_shed_total > 0) while uncapped tenants
#       stay all-200,
#   (8) SIGTERM drains router and backends to clean exits.
#
# Router /statusz and /metrics snapshots land in ARTIFACT_DIR for CI upload.
# Every scratch file lives in a private mktemp dir and every port is
# ephemeral, so this can run concurrently with servesmoke.sh on one host.
#
# Needs only a POSIX shell, curl and awk. Run via `make clustersmoke`.
set -eu

WORKDIR=$(mktemp -d "${TMPDIR:-/tmp}/clustersmoke.XXXXXX")
ARTIFACT_DIR=${ARTIFACT_DIR:-$WORKDIR}
CONCURRENCY=${CONCURRENCY:-6}
VOLLEYS=${VOLLEYS:-3}
SERVED="$WORKDIR/shmtserved"
ROUTERD="$WORKDIR/shmtrouterd"

mkdir -p "$ARTIFACT_DIR"
go build -o "$SERVED" ./cmd/shmtserved
go build -o "$ROUTERD" ./cmd/shmtrouterd

PIDS=""
cleanup() {
    for p in $PIDS; do kill "$p" 2>/dev/null || true; done
    rm -rf "$WORKDIR"
}
trap cleanup EXIT

# wait_listen LOG NAME -> prints the bound ADDR once the daemon logs it.
wait_listen() {
    log=$1; name=$2; addr=""
    for _ in $(seq 1 100); do
        addr=$(awk -v n="^$name listening on http://" \
            '$0 ~ n {sub(/^.*http:\/\//,""); print $1; exit}' "$log" || true)
        [ -n "$addr" ] && break
        sleep 0.1
    done
    [ -n "$addr" ] || { echo "FAIL: no listen line from $name:" >&2; cat "$log" >&2; exit 1; }
    echo "$addr"
}

start_backend() { # start_backend LOG [extra flags...]
    log=$1; shift
    "$SERVED" -addr 127.0.0.1:0 -max-batch 8 -max-linger 20ms -tracing=false \
        -log-format json "$@" >"$log" 2>&1 &
    echo $!
}

B1PID=$(start_backend "$WORKDIR/b1.log")
B2PID=$(start_backend "$WORKDIR/b2.log")
PIDS="$B1PID $B2PID"
B1=$(wait_listen "$WORKDIR/b1.log" shmtserved)
B2=$(wait_listen "$WORKDIR/b2.log" shmtserved)
echo "backends up on $B1 and $B2"

# Tight probe/breaker settings so the smoke sees quarantine and re-admission
# inside seconds; a scatter threshold small enough for a 64x64 add to fan out.
# The capped tenant gets one in-flight slot so the quota section below can
# observe router-side shedding without touching any backend.
"$ROUTERD" -addr 127.0.0.1:0 -backends "$B1,$B2" \
    -probe-interval 100ms -probe-timeout 1s \
    -breaker-threshold 2 -breaker-cooldown 300ms \
    -scatter-threshold 4096 -max-fanout 4 \
    -tenant-limit capped:1 \
    -log-format json >"$WORKDIR/router.log" 2>&1 &
RPID=$!
PIDS="$PIDS $RPID"
ROUTER=$(wait_listen "$WORKDIR/router.log" shmtrouterd)
echo "router up on $ROUTER"

for _ in $(seq 1 50); do
    curl -s "http://$ROUTER/healthz" | grep -q '"status":"ok"' && break
    sleep 0.1
done
curl -s "http://$ROUTER/healthz" | grep -q '"status":"ok"' || {
    echo "FAIL: router never became healthy"; curl -s "http://$ROUTER/healthz"; exit 1; }

BODY='{"op":"add","inputs":[{"rows":2,"cols":2,"data":[1,2,3,4]},{"rows":2,"cols":2,"data":[5,6,7,8]}]}'

# fire_volley TAG [TENANT [TRIES]]: CONCURRENCY concurrent requests, distinct
# tenants (TENANT-1 … TENANT-n, default tenant-…) so keys spread over the
# backends. Each request may retry twice (covers the in-flight instant of a
# SIGKILL; TRIES=1 allows no retry); a request with no 200 after retries fails
# the smoke — that would be a lost client request, which failover forbids.
fire_volley() {
    tag=$1; tenant=${2:-tenant}; tries=${3:-3}
    i=0
    VPIDS=""
    while [ "$i" -lt "$CONCURRENCY" ]; do
        i=$((i + 1))
        (
            ok=""
            for _try in $(seq 1 "$tries"); do
                code=$(curl -s -o "$WORKDIR/v-$tag-$i.json" -w '%{http_code}' \
                    -H "X-SHMT-Tenant: $tenant-$i" -d "$BODY" \
                    "http://$ROUTER/v1/execute" || echo 000)
                if [ "$code" = "200" ] && grep -q '"output"' "$WORKDIR/v-$tag-$i.json"; then
                    ok=1; break
                fi
                sleep 0.2
            done
            [ -n "$ok" ] || { echo "request $tag/$i failed (last HTTP $code)" >"$WORKDIR/v-$tag-$i.fail"; }
        ) &
        VPIDS="$VPIDS $!"
    done
    for vp in $VPIDS; do wait "$vp" || true; done
    if ls "$WORKDIR"/v-"$tag"-*.fail >/dev/null 2>&1; then
        echo "FAIL: lost client requests in volley $tag:"
        cat "$WORKDIR"/v-"$tag"-*.fail
        exit 1
    fi
}

# metric NAME [ADDR] -> summed value of the family (labelled series add up)
# on the router, or on the daemon at ADDR. Exact family match: "name value"
# or "name{...} value", never a prefix.
metric() {
    curl -s "http://${2:-$ROUTER}/metrics" | awk -v m="$1" \
        '$1 == m || index($1, m "{") == 1 { s += $2 } END { printf "%d\n", s }'
}

v=0
while [ "$v" -lt "$VOLLEYS" ]; do
    v=$((v + 1))
    fire_volley "warm$v"
done
echo "warmup volleys clean"

# Key affinity: the same tenant/op/shape lands on the same backend. The
# header value is host:port, so strip up to the first ": " only.
backend_header() {
    awk 'tolower($0) ~ /^x-shmt-backend:/ {sub(/^[^:]*:[ \t]*/,""); sub(/\r$/,""); print; exit}'
}
A1=$(curl -s -D - -o /dev/null -H 'X-SHMT-Tenant: sticky' -d "$BODY" "http://$ROUTER/v1/execute" | backend_header)
A2=$(curl -s -D - -o /dev/null -H 'X-SHMT-Tenant: sticky' -d "$BODY" "http://$ROUTER/v1/execute" | backend_header)
[ -n "$A1" ] && [ "$A1" = "$A2" ] || {
    echo "FAIL: key affinity broken: '$A1' then '$A2'"; exit 1; }
echo "key affinity holds on $A1"

# --- tenant quota: the capped tenant (max 1 in flight) must shed with 429 ---
# Fire concurrent capped-tenant requests until two overlap at the router;
# the overflow answers 429 + Retry-After without touching a backend, and the
# shed shows up in shmt_router_tenant_shed_total. The uncapped tenant-$i
# volleys before and after stay all-200.
CAPPED_SHED=0
qr=0
while [ "$qr" -lt 10 ]; do
    qr=$((qr + 1))
    QPIDS=""
    i=0
    while [ "$i" -lt 8 ]; do
        i=$((i + 1))
        curl -s -o /dev/null -w '%{http_code}\n' -H 'X-SHMT-Tenant: capped' \
            -d "$BODY" "http://$ROUTER/v1/execute" >"$WORKDIR/qcode.$i" &
        QPIDS="$QPIDS $!"
    done
    for qp in $QPIDS; do wait "$qp" || true; done
    i=0
    while [ "$i" -lt 8 ]; do
        i=$((i + 1))
        qc=$(cat "$WORKDIR/qcode.$i")
        case "$qc" in
            200) ;;
            429) CAPPED_SHED=$((CAPPED_SHED + 1)) ;;
            *) echo "FAIL: capped request $i got HTTP $qc (want 200 or 429)"; exit 1 ;;
        esac
    done
    [ "$CAPPED_SHED" -gt 0 ] && break
done
rm -f "$WORKDIR"/qcode.*
[ "$CAPPED_SHED" -gt 0 ] || {
    echo "FAIL: capped tenant (limit 1) never shed a 429 in $qr volleys"; exit 1; }
[ "$(metric shmt_router_tenant_shed_total)" -ge 1 ] || {
    echo "FAIL: router tenant shed not counted in exposition"; exit 1; }
fire_volley postquota
echo "tenant quota: capped shed $CAPPED_SHED request(s) at the router, other tenants clean"

# Scatter-gather: a 64x64 add clears the 4096-element threshold; it must fan
# out (X-SHMT-Scatter >= 2) and still sum correctly.
BIGDATA=$(awk 'BEGIN{printf "["; for(i=0;i<4096;i++) printf "%s%d", (i?",":""), i%7; printf "]"}')
printf '{"op":"add","inputs":[{"rows":64,"cols":64,"data":%s},{"rows":64,"cols":64,"data":%s}]}' \
    "$BIGDATA" "$BIGDATA" >"$WORKDIR/big.json"
SC=$(curl -s -D - -o "$WORKDIR/bigout.json" -d @"$WORKDIR/big.json" "http://$ROUTER/v1/execute" |
    awk -F': *' 'tolower($1)=="x-shmt-scatter"{sub(/\r$/,"",$2); print $2; exit}')
[ -n "$SC" ] && [ "$SC" -ge 2 ] || {
    echo "FAIL: large VOP did not scatter (X-SHMT-Scatter='$SC')"
    cat "$WORKDIR/bigout.json"; echo; exit 1; }
grep -q '"output"' "$WORKDIR/bigout.json" || {
    echo "FAIL: scattered response has no output"; exit 1; }
# Spot-check the reassembly: element 5 must be 5+5=10 (data[i] = i%7 twice).
grep -q '\[0,2,4,6,8,10' "$WORKDIR/bigout.json" || {
    echo "FAIL: scattered output wrong:"; head -c 200 "$WORKDIR/bigout.json"; echo; exit 1; }
[ "$(metric shmt_router_scatter_requests_total)" -ge 1 ] || {
    echo "FAIL: scatter not counted in exposition"; exit 1; }
echo "scatter-gather fanned out over $SC partitions"

# --- failover: SIGKILL backend 2 mid-volley -------------------------------
B2PORT=${B2##*:}
fire_volley kill &
KVPID=$!
sleep 0.05
kill -9 "$B2PID"
wait "$KVPID" || exit 1
fire_volley after1
fire_volley after2
echo "zero lost requests across the SIGKILL"

# The breaker must have opened on the dead backend and keys rehashed to the
# survivor; fleet gauges reflect one healthy of two registered.
for _ in $(seq 1 50); do
    [ "$(metric shmt_router_breaker_opens_total)" -ge 1 ] && break
    sleep 0.1
done
[ "$(metric shmt_router_breaker_opens_total)" -ge 1 ] || {
    echo "FAIL: breaker never opened for the killed backend"; exit 1; }
[ "$(metric shmt_router_rehash_total)" -ge 1 ] || {
    echo "FAIL: no rehash recorded after backend death"; exit 1; }
HEALTHY=$(metric shmt_router_backends_healthy)
[ "$HEALTHY" = "1" ] || { echo "FAIL: backends_healthy=$HEALTHY, want 1"; exit 1; }
echo "breaker open + rehash visible in exposition"

# --- re-admission: restart the dead backend on its original port ----------
# Also exercises runtime self-registration (-register is idempotent for an
# already-known addr); the half-open probe is what must close the breaker.
B2PID=$(start_backend "$WORKDIR/b2b.log" -register "http://$ROUTER" -advertise "127.0.0.1:$B2PORT" -addr "127.0.0.1:$B2PORT")
PIDS="$PIDS $B2PID"
READMITTED=""
for _ in $(seq 1 100); do
    if [ "$(metric shmt_router_readmissions_total)" -ge 1 ] &&
        [ "$(metric shmt_router_backends_healthy)" = "2" ]; then
        READMITTED=1; break
    fi
    sleep 0.1
done
[ -n "$READMITTED" ] || {
    echo "FAIL: restarted backend never re-admitted"
    curl -s "http://$ROUTER/statusz"; echo; exit 1; }
fire_volley readmit
echo "killed backend re-admitted after restart"

# --- runtime self-registration of a brand-new backend ---------------------
# It is never killed, and it runs a seeded plan of transient GPU faults: a
# failed dispatch is retried on a fallback device, so its clients still get
# their 200s.
B3PID=$(start_backend "$WORKDIR/b3.log" -register "http://$ROUTER" \
    -chaos 'gpu:transient=0.3' -chaos-seed 7)
PIDS="$PIDS $B3PID"
B3=$(wait_listen "$WORKDIR/b3.log" shmtserved)
for _ in $(seq 1 100); do
    [ "$(metric shmt_router_backends)" = "3" ] && break
    sleep 0.1
done
[ "$(metric shmt_router_backends)" = "3" ] || {
    echo "FAIL: self-registered backend never joined"; exit 1; }
fire_volley grown
echo "fresh backend self-registered; fleet of 3 serving"

# --- fault path: volleys of fresh tenants until the chaos backend retried --
# Each volley's keys are new, so about a third of them hash to the chaos
# backend; every request of every volley must answer 200 at its first try.
cv=0
while [ "$(metric shmt_hlop_retries_total "$B3")" -lt 1 ] && [ "$cv" -lt 20 ]; do
    cv=$((cv + 1))
    fire_volley "chaos$cv" "chaos$cv" 1
done
RETRIES=$(metric shmt_hlop_retries_total "$B3")
[ "$RETRIES" -ge 1 ] || {
    echo "FAIL: the chaos backend retried no HLOP in $cv volleys"; exit 1; }
echo "chaos backend retried $RETRIES HLOP dispatch(es); $cv volley(s) all 200"

# Artifacts: router snapshots for CI upload.
curl -s "http://$ROUTER/statusz" >"$ARTIFACT_DIR/clustersmoke-statusz.json"
curl -s "http://$ROUTER/metrics" >"$ARTIFACT_DIR/clustersmoke-metrics.prom"
grep -q '"service":"shmtrouterd"' "$ARTIFACT_DIR/clustersmoke-statusz.json" || {
    echo "FAIL: statusz artifact malformed"; exit 1; }
echo "artifacts saved to $ARTIFACT_DIR"

# --- drain ----------------------------------------------------------------
kill -TERM "$RPID"
DEADLINE=$(( $(date +%s) + 15 ))
while kill -0 "$RPID" 2>/dev/null; do
    [ "$(date +%s)" -lt "$DEADLINE" ] || { echo "FAIL: router no exit within 15s of SIGTERM"; exit 1; }
    sleep 0.2
done
wait "$RPID" 2>/dev/null && rc=0 || rc=$?
[ "$rc" -eq 0 ] || { echo "FAIL: router exit status $rc:"; cat "$WORKDIR/router.log"; exit 1; }

for p in $B1PID $B2PID $B3PID; do
    kill -TERM "$p" 2>/dev/null || true
done
for p in $B1PID $B2PID $B3PID; do
    DEADLINE=$(( $(date +%s) + 15 ))
    while kill -0 "$p" 2>/dev/null; do
        [ "$(date +%s)" -lt "$DEADLINE" ] || { echo "FAIL: backend $p no exit within 15s"; exit 1; }
        sleep 0.2
    done
done
echo "router and backends drained cleanly"

echo "clustersmoke OK"
