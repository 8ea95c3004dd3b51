#!/bin/sh
# servesmoke drives shmtserved end to end: boot on a free port, fire
# concurrent requests, and assert (1) every request got a 200 with a sane
# output, (2) the micro-batcher coalesces the backlog that builds up behind a
# running round — requests fired while a GEMM wedge keeps the dispatcher busy
# share rounds, proven from the Prometheus exposition alone (over that phase
# shmt_serve_batch_size_sum grows by more than shmt_serve_batch_size_count,
# since every round's size is >= 1), (3) /healthz answers ok, (4) SIGTERM
# drains to a clean exit.
#
# With tracing on (the default) it additionally asserts (5) an inbound
# X-SHMT-Trace-Id round-trips onto the response and into a non-empty stage
# breakdown retrievable from /debug/requests, and it leaves two artifacts in
# ARTIFACT_DIR for CI upload: a /statusz snapshot and the daemon's Perfetto
# trace (written at drain via -trace-out).
#
# Two tenant QoS checks ride along: (6) a quota-limited tenant (weight 1,
# queue depth 1) sheds 429s under concurrent overload while a premium tenant
# in the same volleys stays all-200, reconciled against the
# shmt_serve_tenant_* exposition; (7) a request whose timeout_ms is far
# inside -critical-deadline reports deadline pressure and a critical-majority
# HLOP placement in its trace block.
#
# The listen address comes from SHMT_SERVE_ADDR (default 127.0.0.1:0, an
# ephemeral port) and every scratch file lives in a private mktemp dir, so
# several smoke runs — this one and clustersmoke.sh included — can run on the
# same host at the same time without colliding.
#
# Needs only a POSIX shell, curl and awk. Run via `make servesmoke`.
set -eu

WORKDIR=$(mktemp -d "${TMPDIR:-/tmp}/servesmoke.XXXXXX")
BIN=${BIN:-$WORKDIR/shmtserved}
LOG=${LOG:-$WORKDIR/shmtserved.log}
ADDR_FLAG=${SHMT_SERVE_ADDR:-127.0.0.1:0}
CONCURRENCY=${CONCURRENCY:-8}
VOLLEYS=${VOLLEYS:-5}
ARTIFACT_DIR=${ARTIFACT_DIR:-$WORKDIR}
TRACE_OUT="$ARTIFACT_DIR/servesmoke-trace.json"
STATUSZ_OUT="$ARTIFACT_DIR/servesmoke-statusz.json"

mkdir -p "$ARTIFACT_DIR"
go build -o "$BIN" ./cmd/shmtserved

# Two tenants exercise the weighted-fair queues: burst is quota-limited
# (weight 1, queue depth 1, so overload sheds), premium gets weight 4. A 2s
# critical-deadline lets the criticality check below drive QAWS with a tight
# timeout_ms.
"$BIN" -addr "$ADDR_FLAG" -max-batch 8 \
    -tenant burst:1:1 -tenant premium:4 -critical-deadline 2s \
    -log-format json -trace-out "$TRACE_OUT" >"$LOG" 2>&1 &
PID=$!
trap 'kill "$PID" 2>/dev/null || true; rm -rf "$WORKDIR"' EXIT

# The daemon prints "shmtserved listening on http://ADDR (...)" once bound.
ADDR=""
for _ in $(seq 1 50); do
    ADDR=$(awk '/^shmtserved listening on http:\/\//{sub(/^.*http:\/\//,""); print $1; exit}' "$LOG" || true)
    [ -n "$ADDR" ] && break
    kill -0 "$PID" 2>/dev/null || { echo "FAIL: shmtserved died:"; cat "$LOG"; exit 1; }
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "FAIL: no listen line in log:"; cat "$LOG"; exit 1; }
echo "shmtserved up on $ADDR"

BODY='{"op":"add","inputs":[{"rows":2,"cols":2,"data":[1,2,3,4]},{"rows":2,"cols":2,"data":[5,6,7,8]}]}'

# fire_volley launches CONCURRENCY requests at once and leaves their pids in
# CURL_PIDS, bodies in resp.N and status codes in code.N; check_volley NAME
# waits for them and fails unless every one answered 200 with an output.
fire_volley() {
    i=0
    CURL_PIDS=""
    while [ "$i" -lt "$CONCURRENCY" ]; do
        i=$((i + 1))
        curl -s -o "$WORKDIR/resp.$i" -w '%{http_code}\n' \
            -d "$BODY" "http://$ADDR/v1/execute" >"$WORKDIR/code.$i" &
        CURL_PIDS="$CURL_PIDS $!"
    done
}
check_volley() {
    for cp in $CURL_PIDS; do
        wait "$cp" || true
    done
    i=0
    while [ "$i" -lt "$CONCURRENCY" ]; do
        i=$((i + 1))
        code=$(cat "$WORKDIR/code.$i")
        if [ "$code" != "200" ]; then
            echo "FAIL: $1 request $i: HTTP $code"
            cat "$WORKDIR/resp.$i"; echo
            exit 1
        fi
        grep -q '"output"' "$WORKDIR/resp.$i" || {
            echo "FAIL: $1 request $i: no output in response"
            cat "$WORKDIR/resp.$i"; echo
            exit 1
        }
    done
}

# Several volleys of concurrent requests. On an idle server these mostly run
# in rounds of one: the dispatcher is work-conserving and a curl takes longer
# to start than a 2x2 add takes to run, so they rarely overlap.
v=0
while [ "$v" -lt "$VOLLEYS" ]; do
    v=$((v + 1))
    fire_volley
    check_volley "volley $v"
done
rm -f "$WORKDIR"/resp.* "$WORKDIR"/code.*
echo "all $((VOLLEYS * CONCURRENCY)) requests answered 200"

# A 256x256 GEMM is heavy enough (tens of ms per round) to keep the
# dispatcher busy while other requests arrive.
GEMM_BODY="$WORKDIR/gemm.json"
awk 'BEGIN{
    printf "{\"op\":\"gemm\",\"inputs\":["
    for (m = 0; m < 2; m++) {
        printf "%s{\"rows\":256,\"cols\":256,\"data\":[", (m ? "," : "")
        for (i = 0; i < 65536; i++) printf "%s1", (i ? "," : "")
        printf "]}"
    }
    printf "]}"
}' >"$GEMM_BODY"

# wait_busy polls /statusz until a round is in flight, and fails if none
# shows within 50 polls (the round it waited for may already be over).
wait_busy() {
    for _ in $(seq 1 50); do
        curl -s "http://$ADDR/statusz" | grep -q '"inflight_rounds":1' && return 0
    done
    return 1
}

# batch_totals prints "rounds requests" from the exposition.
batch_totals() {
    curl -s "http://$ADDR/metrics" | awk '
        /^shmt_serve_batch_size_sum/   { sum = $2 }
        /^shmt_serve_batch_size_count/ { count = $2 }
        END { printf "%d %d\n", count, sum }'
}

# Coalescing: four GEMM wedges go in together; once /statusz shows a round in
# flight, a volley of small requests is fired behind it. Whatever queues up
# while a round runs must share the next round, so over this phase more
# requests than rounds are batched. If the wedges finish before a poll sees
# them running (a very fast host), the phase is tried again.
COALESCED=0
attempt=0
while [ "$attempt" -lt 5 ] && [ "$COALESCED" -eq 0 ]; do
    attempt=$((attempt + 1))
    set -- $(batch_totals); ROUNDS0=$1; REQS0=$2
    WEDGE_PIDS=""
    i=0
    while [ "$i" -lt 4 ]; do
        i=$((i + 1))
        curl -s -o /dev/null -w '%{http_code}\n' \
            -d @"$GEMM_BODY" "http://$ADDR/v1/execute" >"$WORKDIR/wcode.$i" &
        WEDGE_PIDS="$WEDGE_PIDS $!"
    done
    busy=0
    wait_busy && busy=1
    if [ "$busy" -eq 1 ]; then
        fire_volley
        check_volley "coalescing volley"
    fi
    for wp in $WEDGE_PIDS; do
        wait "$wp" || true
    done
    i=0
    while [ "$i" -lt 4 ]; do
        i=$((i + 1))
        wc=$(cat "$WORKDIR/wcode.$i")
        [ "$wc" = "200" ] || { echo "FAIL: GEMM wedge $i got HTTP $wc"; exit 1; }
    done
    [ "$busy" -eq 1 ] || continue
    set -- $(batch_totals); ROUNDS=$(($1 - ROUNDS0)); REQS=$(($2 - REQS0))
    [ "$REQS" -eq $((CONCURRENCY + 4)) ] || {
        echo "FAIL: $REQS requests batched behind the wedge, want $((CONCURRENCY + 4))"; exit 1; }
    [ "$REQS" -gt "$ROUNDS" ] || {
        echo "FAIL: $REQS requests queued behind a busy dispatcher ran in $ROUNDS rounds: nothing coalesced"; exit 1; }
    COALESCED=1
done
rm -f "$WORKDIR"/resp.* "$WORKDIR"/code.* "$WORKDIR"/wcode.*
[ "$COALESCED" -eq 1 ] || {
    echo "FAIL: never caught the dispatcher busy in $attempt attempts"; exit 1; }
echo "coalescing: $REQS requests behind a busy dispatcher ran in $ROUNDS rounds (attempt $attempt)"

# Tenant QoS: the burst tenant (queue depth 1) must shed under concurrent
# overload while every premium request in the same volley still answers 200.
# Shedding needs the dispatcher busy with a burst request already queued, so
# premium's wedge requests are the GEMMs and the burst volley piles into its
# one-slot queue — fired only once /statusz shows a premium round in flight,
# the coalescing phase's gate, since a burst request that finds the
# dispatcher idle runs at once instead of queueing. A volley whose wedges
# finish before a poll sees them running is tried again.
BURST_SHED=0
qos_round=0
while [ "$qos_round" -lt 10 ]; do
    qos_round=$((qos_round + 1))
    CURL_PIDS=""
    i=0
    while [ "$i" -lt 4 ]; do
        i=$((i + 1))
        curl -s -o /dev/null -w '%{http_code}\n' -H 'X-SHMT-Tenant: premium' \
            -d @"$GEMM_BODY" "http://$ADDR/v1/execute" >"$WORKDIR/pcode.$i" &
        CURL_PIDS="$CURL_PIDS $!"
    done
    nburst=0
    if wait_busy; then
        nburst=16
    fi
    i=0
    while [ "$i" -lt "$nburst" ]; do
        i=$((i + 1))
        curl -s -o /dev/null -w '%{http_code}\n' -H 'X-SHMT-Tenant: burst' \
            -d "$BODY" "http://$ADDR/v1/execute" >"$WORKDIR/bcode.$i" &
        CURL_PIDS="$CURL_PIDS $!"
    done
    for cp in $CURL_PIDS; do
        wait "$cp" || true
    done
    i=0
    while [ "$i" -lt 4 ]; do
        i=$((i + 1))
        pc=$(cat "$WORKDIR/pcode.$i")
        [ "$pc" = "200" ] || {
            echo "FAIL: premium request $i got HTTP $pc during burst overload"; exit 1; }
    done
    i=0
    while [ "$i" -lt "$nburst" ]; do
        i=$((i + 1))
        bc=$(cat "$WORKDIR/bcode.$i")
        case "$bc" in
            200) ;;
            429) BURST_SHED=$((BURST_SHED + 1)) ;;
            *) echo "FAIL: burst request $i got HTTP $bc (want 200 or 429)"; exit 1 ;;
        esac
    done
    [ "$BURST_SHED" -gt 0 ] && break
done
rm -f "$WORKDIR"/pcode.* "$WORKDIR"/bcode.*
[ "$BURST_SHED" -gt 0 ] || {
    echo "FAIL: burst tenant (queue depth 1) never shed a 429 in $qos_round overload volleys"; exit 1; }
echo "tenant QoS: burst shed $BURST_SHED request(s), premium unaffected ($qos_round volley(s))"

# Deadline-driven criticality: a timeout_ms far inside the 2s critical
# deadline must surface as deadline pressure in the trace block, with at
# least half the request's HLOPs flagged critical (kept on high-accuracy
# devices). A 64x64 input partitions into many HLOPs, so the critical
# majority is a real scheduling outcome, not a single-partition tautology.
TIGHT="$WORKDIR/tight.json"
awk 'BEGIN{
    printf "{\"op\":\"add\",\"timeout_ms\":200,\"inputs\":["
    for (m = 0; m < 2; m++) {
        printf "%s{\"rows\":64,\"cols\":64,\"data\":[", (m ? "," : "")
        for (i = 0; i < 4096; i++) printf "%s%d", (i ? "," : ""), i % 5
        printf "]}"
    }
    printf "]}"
}' >"$WORKDIR/tightbody.json"
TCODE=$(curl -s -o "$TIGHT" -w '%{http_code}' \
    -d @"$WORKDIR/tightbody.json" "http://$ADDR/v1/execute")
[ "$TCODE" = "200" ] || { echo "FAIL: tight-deadline request: HTTP $TCODE"; cat "$TIGHT"; exit 1; }
awk '
    {
        if (match($0, /"deadline_pressure":[0-9.]+/))
            pressure = substr($0, RSTART + 20, RLENGTH - 20) + 0
        if (match($0, /"critical_hlops":[0-9]+/))
            critical = substr($0, RSTART + 17, RLENGTH - 17) + 0
        if (match($0, /"hlops":[0-9]+/))
            hlops = substr($0, RSTART + 8, RLENGTH - 8) + 0
    }
    END {
        if (pressure < 0.8) { printf "FAIL: deadline_pressure %s, want >= 0.8\n", pressure; exit 1 }
        if (hlops < 1) { print "FAIL: no hlops in response"; exit 1 }
        if (critical * 2 < hlops) {
            printf "FAIL: only %d of %d HLOPs critical under deadline pressure\n", critical, hlops; exit 1 }
        printf "deadline pressure %.2f: %d of %d HLOPs critical\n", pressure, critical, hlops
    }' "$TIGHT"
rm -f "$TIGHT"

EXPO=$(curl -s "http://$ADDR/metrics")
echo "$EXPO" | grep -q '^shmt_serve_batches_total' || {
    echo "FAIL: /metrics not scrapeable or missing serve metrics"; exit 1; }
echo "$EXPO" | awk '
    /^shmt_serve_batch_size_sum/   { sum = $2 }
    /^shmt_serve_batch_size_count/ { count = $2 }
    END {
        if (count == "" || sum == "") { print "FAIL: batch-size series missing"; exit 1 }
        printf "batch rounds: %d, requests batched: %d (mean %.2f)\n", count, sum, sum / count
    }'

# Tenant accounting must reconcile with the volley outcomes above: burst's
# shed counter matches its 429s, and premium shed nothing.
echo "$EXPO" | awk -v shed="$BURST_SHED" '
    /^shmt_serve_tenant_shed_total\{tenant="burst"\}/    { bshed = $2 }
    /^shmt_serve_tenant_shed_total\{tenant="premium"\}/  { pshed = $2 }
    /^shmt_serve_tenant_requests_total\{tenant="premium"\}/ { preq = $2 }
    END {
        if (bshed + 0 < 1) { print "FAIL: shmt_serve_tenant_shed_total{tenant=\"burst\"} missing or zero"; exit 1 }
        if (bshed + 0 != shed + 0) { printf "FAIL: burst shed counter %d != observed 429s %d\n", bshed, shed; exit 1 }
        if (pshed + 0 != 0) { printf "FAIL: premium shed %d requests\n", pshed; exit 1 }
        if (preq + 0 < 1) { print "FAIL: no shmt_serve_tenant_requests_total{tenant=\"premium\"} series"; exit 1 }
        printf "tenant metrics: burst shed %d, premium %d requests none shed\n", bshed, preq
    }'

# Trace round-trip: an inbound X-SHMT-Trace-Id must come back on the
# response header and in a trace block whose stage breakdown is non-empty
# (encoding/json renders a zero stage as exactly ":0", so its absence on
# execute_seconds proves a real measurement).
TRACED="$WORKDIR/traced.json"
THDR=$(curl -s -o "$TRACED" -D - -H 'X-SHMT-Trace-Id: smoke-trace-1' \
    -d "$BODY" "http://$ADDR/v1/execute" |
    awk -F': *' 'tolower($1)=="x-shmt-trace-id"{sub(/\r$/,"",$2); print $2; exit}')
[ "$THDR" = "smoke-trace-1" ] || {
    echo "FAIL: trace header did not round-trip (got '$THDR')"; exit 1; }
grep -q '"trace_id":"smoke-trace-1"' "$TRACED" || {
    echo "FAIL: no trace block in response:"; cat "$TRACED"; echo; exit 1; }
grep -q '"stages"' "$TRACED" || {
    echo "FAIL: no stage breakdown in trace block:"; cat "$TRACED"; echo; exit 1; }
if grep -q '"execute_seconds":0[,}]' "$TRACED"; then
    echo "FAIL: execute stage is zero:"; cat "$TRACED"; echo; exit 1
fi
rm -f "$TRACED"

# The flight recorder must serve the trace back on /debug/requests.
DEBUGREQ=$(curl -s "http://$ADDR/debug/requests")
echo "$DEBUGREQ" | grep -q '"trace_id":"smoke-trace-1"' || {
    echo "FAIL: trace missing from /debug/requests: $DEBUGREQ"; exit 1; }
echo "trace smoke-trace-1 round-tripped with stage breakdown"

# Artifact: live /statusz snapshot.
curl -s "http://$ADDR/statusz" >"$STATUSZ_OUT"
grep -q '"status":"ok"' "$STATUSZ_OUT" || {
    echo "FAIL: statusz: $(cat "$STATUSZ_OUT")"; exit 1; }
echo "statusz snapshot saved to $STATUSZ_OUT"

HEALTH=$(curl -s "http://$ADDR/healthz")
echo "$HEALTH" | grep -q '"status":"ok"' || { echo "FAIL: healthz: $HEALTH"; exit 1; }

kill -TERM "$PID"
DEADLINE=$(( $(date +%s) + 15 ))
while kill -0 "$PID" 2>/dev/null; do
    [ "$(date +%s)" -lt "$DEADLINE" ] || { echo "FAIL: no exit within 15s of SIGTERM"; exit 1; }
    sleep 0.2
done
wait "$PID" 2>/dev/null && rc=0 || rc=$?
[ "$rc" -eq 0 ] || { echo "FAIL: exit status $rc after SIGTERM:"; cat "$LOG"; exit 1; }

# Artifact: the daemon wrote its Perfetto trace at drain; the request lane
# for the traced request must be in it.
[ -s "$TRACE_OUT" ] || { echo "FAIL: no Perfetto trace at $TRACE_OUT:"; cat "$LOG"; exit 1; }
grep -q '"traceEvents"' "$TRACE_OUT" || {
    echo "FAIL: $TRACE_OUT is not a Chrome trace file"; exit 1; }
grep -q 'smoke-trace-1' "$TRACE_OUT" || {
    echo "FAIL: request lane smoke-trace-1 missing from $TRACE_OUT"; exit 1; }
echo "Perfetto trace saved to $TRACE_OUT"

echo "servesmoke OK"
