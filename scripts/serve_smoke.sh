#!/bin/sh
# serve_smoke.sh — end-to-end crash-safety smoke for dynex-serve, run by
# `make serve-smoke` and CI. Race-enabled build; exercises the full
# journey a production interruption takes:
#
#   1. start the server, check healthz/readyz
#   2. submit a job big enough to still be mid-run seconds later
#   3. SIGTERM the server mid-run (short drain grace: the job is
#      checkpointed, not finished)
#   4. restart over the same data directory, wait for the job to finish
#   5. assert the served CSV is byte-identical to a direct dynex-sweep
#      run of the same grid
#
# Along the way it scrapes GET /metrics (DESIGN.md §13) and asserts the
# admission, completion, and queue-depth series exist and count up, and
# that the restarted server booked one checkpoint write per completed
# cell.
#
# Stdlib-only dependencies: curl + the go toolchain.
set -eu

WORK="$(mktemp -d)"
DATA="$WORK/data"
PORT="${SERVE_SMOKE_PORT:-18321}"
BASE="http://127.0.0.1:$PORT"
SRV_PID=""

cleanup() {
    [ -n "$SRV_PID" ] && kill "$SRV_PID" 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

say() { echo "serve-smoke: $*"; }
die() { echo "serve-smoke: FAIL: $*" >&2; exit 1; }

scrape() { curl -sf "$BASE/metrics" >"$1" || die "GET /metrics failed"; }

# metric NAME FILE — sum every sample of NAME in a Prometheus scrape
# (labelled series collapse, so per-tenant counters sum across tenants).
metric() {
    awk -v name="$1" 'index($0, name " ") == 1 || index($0, name "{") == 1 { s += $NF } END { printf "%.0f\n", s + 0 }' "$2"
}

# has_family NAME FILE — the family is declared even with zero series.
has_family() { grep -q "^# TYPE $1 " "$2"; }

say "building (race-enabled)"
go build -race -o "$WORK/dynex-serve" ./cmd/dynex-serve
go build -o "$WORK/dynex-sweep" ./cmd/dynex-sweep

start_server() {
    "$WORK/dynex-serve" -addr "127.0.0.1:$PORT" -data "$DATA" \
        -workers 1 -drain-grace 200ms 2>"$WORK/server.log" &
    SRV_PID=$!
    for _ in $(seq 1 100); do
        if curl -sf "$BASE/healthz" >/dev/null 2>&1; then return 0; fi
        sleep 0.1
    done
    cat "$WORK/server.log" >&2
    die "server did not come up on $BASE"
}

say "starting server"
start_server
curl -sf "$BASE/readyz" >/dev/null || die "readyz not ready on idle server"

say "scraping /metrics on the idle server"
scrape "$WORK/m0.prom"
for m in dynex_serve_jobs_admitted_total dynex_serve_cells_completed_total dynex_serve_queue_depth \
    dynex_checkpoint_writes_total; do
    has_family "$m" "$WORK/m0.prom" || die "metric family $m missing from /metrics"
done
ADMITTED0="$(metric dynex_serve_jobs_admitted_total "$WORK/m0.prom")"

# A grid that takes a few seconds single-worker: 8 cells x 2M refs.
SPEC='{"benches":["gcc"],"kind":"instr","refs":2000000,"sizes":[4096,8192,16384,32768],"lines":[4],"policies":["dm","de"]}'
say "submitting job"
RESP="$(curl -s -X POST -H 'X-Tenant: smoke' -d "$SPEC" "$BASE/v1/jobs")"
case "$RESP" in
*'"id":"j000000"'*) JOB=j000000 ;;
*) die "unexpected submit response: $RESP" ;;
esac

# Give it a moment to start simulating, then interrupt mid-run.
sleep 1

say "scraping /metrics mid-run"
scrape "$WORK/m1.prom"
ADMITTED1="$(metric dynex_serve_jobs_admitted_total "$WORK/m1.prom")"
[ "$ADMITTED1" -gt "$ADMITTED0" ] ||
    die "jobs_admitted did not increase across submit ($ADMITTED0 -> $ADMITTED1)"
grep -q "^dynex_serve_queue_depth " "$WORK/m1.prom" ||
    die "queue_depth gauge has no sample mid-run"
say "SIGTERM mid-run"
kill -TERM "$SRV_PID"
wait "$SRV_PID" 2>/dev/null || true
SRV_PID=""

STATE="$(cat "$DATA/jobs/$JOB/manifest.json")"
RESUMED=0
case "$STATE" in
*'"state":"running"'* | *'"state":"queued"'*)
    say "job checkpointed mid-run"
    RESUMED=1
    ;;
*'"state":"done"'*) say "WARNING: job finished before the SIGTERM landed; resume path not exercised" ;;
*) die "unexpected manifest after drain: $STATE" ;;
esac

say "restarting over the same data directory"
start_server
scrape "$WORK/m2.prom"
CELLS0="$(metric dynex_serve_cells_completed_total "$WORK/m2.prom")"

say "waiting for the job to finish"
for _ in $(seq 1 600); do
    STATUS="$(curl -s "$BASE/v1/jobs/$JOB")"
    case "$STATUS" in
    *'"state":"done"'*) break ;;
    *'"state":"failed"'* | *'"state":"cancelled"'*) die "job ended badly: $STATUS" ;;
    esac
    sleep 0.1
done
case "$STATUS" in
*'"state":"done"'*) ;;
*) die "job did not finish in time: $STATUS" ;;
esac

say "scraping /metrics after the job finished"
scrape "$WORK/m3.prom"
CELLS1="$(metric dynex_serve_cells_completed_total "$WORK/m3.prom")"
if [ "$RESUMED" = "1" ]; then
    [ "$CELLS1" -gt "$CELLS0" ] ||
        die "cells_completed did not increase across the resumed run ($CELLS0 -> $CELLS1)"
fi
# Every cell the restarted server completed went through the job's
# journal, and serve books each append on the shared checkpoint series.
WRITES="$(metric dynex_checkpoint_writes_total "$WORK/m3.prom")"
[ "$WRITES" = "$CELLS1" ] ||
    die "checkpoint_writes ($WRITES) != cells_completed ($CELLS1)"

say "comparing served CSV against a direct dynex-sweep run"
curl -s "$BASE/v1/jobs/$JOB/csv" >"$WORK/served.csv"
"$WORK/dynex-sweep" -bench gcc -kind instr -refs 2000000 \
    -sizes 4096,8192,16384,32768 -lines 4 -policies dm,de >"$WORK/direct.csv"
cmp "$WORK/served.csv" "$WORK/direct.csv" ||
    die "served CSV differs from the direct sweep (crash-resume changed the results)"

# The restarted server must have resumed, not re-run: the journal holds
# each of the 8 cells exactly once.
CELLS="$(wc -l <"$DATA/jobs/$JOB/cells.jsonl" | tr -d ' ')"
[ "$CELLS" = "8" ] || die "journal has $CELLS records for 8 cells (lost or duplicated work)"

say "PASS: byte-identical CSV after SIGTERM + restart, no duplicated cells"
