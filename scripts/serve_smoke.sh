#!/bin/sh
# Serve smoke: drive the examples corpus through a live daemon twice,
# then kill it and restart from the on-disk snapshot.
#
#   pass 1 (cold)    every unit computed, responses captured
#   pass 2 (warm)    100% unit-cache hits, responses byte-identical
#   concurrent       4 parallel clients, responses byte-identical to
#                    the sequential passes
#   restart          snapshot restored, responses byte-identical,
#                    zero dependence-test misses (the memo store came
#                    back warm)
#   chaos            restart with seeded server.conn/server.request
#                    faults: dropped connections kill only their own
#                    connection (the client exits 1 or 2, never a
#                    crash), the daemon stays up and sheds clean
#   worker death     restart with a seeded runtime.pool.worker fault:
#                    the first client's connection worker dies (exit
#                    2), the next submit respawns it, the next client
#                    gets pass 1's bytes and the daemon exits 0
#
# The daemon must answer a one-shot `explain --json` byte-for-byte, so
# pass 1 is also diffed against the ordinary CLI.  Outputs land in
# $OUT (default serve_smoke_out/) for CI artifact upload.  Exits
# non-zero on the first violated invariant.

set -eu

BIN=${BIN:-_build/default/bin/parinline.exe}
OUT=${OUT:-serve_smoke_out}
SRC=${SRC:-examples/cli/matmlt.f}
ANNOT=${ANNOT:-examples/cli/matmlt.annot}
MODES="none conventional annotation demand"
N_MODES=4

SOCK=$(mktemp -u "${TMPDIR:-/tmp}/parinline-smoke-XXXXXX.sock")
CACHE=$(mktemp -d "${TMPDIR:-/tmp}/parinline-smoke-cache-XXXXXX")
mkdir -p "$OUT"
PID=

fail() {
  echo "serve_smoke: FAIL: $*" >&2
  exit 1
}

cleanup() {
  [ -n "$PID" ] && kill "$PID" 2>/dev/null
  rm -f "$SOCK"
  rm -rf "$CACHE"
  return 0
}
trap cleanup EXIT INT TERM

# counter NAME FILE -- pull an integer counter out of a stats response
counter() {
  grep -o "\"$1\":[0-9]*" "$2" | head -n 1 | cut -d: -f2
}

start_daemon() { # start_daemon LABEL [EXTRA_SERVE_ARGS...]
  label=$1
  shift
  "$BIN" serve --socket "$SOCK" --cache-dir "$CACHE" \
    --conn-jobs 4 --backlog 32 \
    --log "$OUT/requests-$label.ndjson" --log-level debug \
    "$@" \
    >"$OUT/serve-$label.out" 2>"$OUT/serve-$label.log" &
  PID=$!
  i=0
  while [ ! -S "$SOCK" ]; do
    i=$((i + 1))
    [ $i -le 100 ] || {
      cat "$OUT/serve-$label.log" >&2
      fail "daemon did not come up ($label)"
    }
    kill -0 "$PID" 2>/dev/null || {
      cat "$OUT/serve-$label.log" >&2
      fail "daemon exited during startup ($label)"
    }
    sleep 0.1
  done
}

stop_daemon() {
  "$BIN" client --socket "$SOCK" --op shutdown >/dev/null 2>&1
  wait "$PID" 2>/dev/null || true
  PID=
}

drive() { # drive PASSNAME -- one analyze per mode, outputs captured
  for mode in $MODES; do
    "$BIN" client --socket "$SOCK" "$SRC" --annot "$ANNOT" --mode "$mode" \
      >"$OUT/$1-$mode.json" 2>"$OUT/$1-$mode.err" ||
      fail "client analyze --mode $mode failed on $1 (see $OUT/$1-$mode.err)"
  done
}

stats() { # stats FILE
  "$BIN" client --socket "$SOCK" --op stats >"$1" 2>/dev/null ||
    fail "client --op stats failed"
}

identical() { # identical PASS_A PASS_B
  for mode in $MODES; do
    cmp -s "$OUT/$1-$mode.json" "$OUT/$2-$mode.json" ||
      fail "$1/$2 responses differ for --mode $mode"
  done
}

echo "serve_smoke: pass 1 (cold daemon, cache-dir $CACHE)"
start_daemon boot
drive pass1
stats "$OUT/stats-pass1.json"
served=$(counter requests_served "$OUT/stats-pass1.json")
hits=$(counter unit_cache_hits "$OUT/stats-pass1.json")
[ "$served" = "$N_MODES" ] || fail "pass 1 served $served, want $N_MODES"
[ "$hits" = 0 ] || fail "pass 1 had $hits unit hits, want 0"
grep -q '"conn_jobs":4' "$OUT/stats-pass1.json" ||
  fail "stats does not surface conn_jobs=4"
grep -q '"backlog":32' "$OUT/stats-pass1.json" ||
  fail "stats does not surface backlog=32"

# the daemon's annotation-mode verdicts must match the one-shot CLI
"$BIN" explain "$SRC" --annot "$ANNOT" --mode annotation --json \
  >"$OUT/oneshot-annotation.json" 2>/dev/null
cmp -s "$OUT/pass1-annotation.json" "$OUT/oneshot-annotation.json" ||
  fail "daemon response differs from one-shot explain --json"

echo "serve_smoke: pass 2 (warm daemon: 100% unit hits, byte-identical)"
drive pass2
stats "$OUT/stats-pass2.json"
served=$(counter requests_served "$OUT/stats-pass2.json")
hits=$(counter unit_cache_hits "$OUT/stats-pass2.json")
[ "$served" = $((2 * N_MODES)) ] ||
  fail "pass 2 total served $served, want $((2 * N_MODES))"
[ "$hits" = "$N_MODES" ] ||
  fail "pass 2 unit hits $hits, want $N_MODES (100% of the second pass)"
identical pass1 pass2
grep -q "unit-cache hit" "$OUT/pass2-annotation.err" ||
  fail "pass 2 client did not report a unit-cache hit"

echo "serve_smoke: telemetry (metrics scrape + request log, mid-run)"
"$BIN" client --socket "$SOCK" --op metrics >"$OUT/metrics.txt" 2>/dev/null ||
  fail "client --op metrics failed"
"$BIN" client --socket "$SOCK" --op metrics --json >"$OUT/metrics.json" \
  2>/dev/null || fail "client --op metrics --json failed"
sh "$(dirname "$0")/check_metrics.sh" "$OUT/metrics.txt" ||
  fail "metrics exposition rejected by check_metrics.sh"
grep -q '"parinline_request_duration_seconds{' "$OUT/metrics.json" ||
  fail "metrics --json lost the request-duration histogram"
# the warm pass must show up as cache="hit" request samples
grep -q 'parinline_requests_total{op="analyze",status="ok"}' "$OUT/metrics.txt" ||
  fail "no analyze request counter in the exposition"
grep -q 'parinline_request_duration_seconds_bucket{cache="hit",op="analyze"' \
  "$OUT/metrics.txt" || fail "warm pass left no cache=hit latency samples"
LOG="$OUT/requests-boot.ndjson"
[ -s "$LOG" ] || fail "daemon wrote no request log at $LOG"
n_analyze=$(grep -c '"op":"analyze"' "$LOG") || true
[ "$n_analyze" = $((2 * N_MODES)) ] ||
  fail "request log has $n_analyze analyze lines, want $((2 * N_MODES))"
grep -q '"cache":"miss"' "$LOG" || fail "request log lost the cold-pass misses"
grep -q '"cache":"hit"' "$LOG" || fail "request log lost the warm-pass hits"
grep -q '"request_id":"r' "$LOG" || fail "request log lines carry no request_id"

echo "serve_smoke: concurrent pass (4 parallel clients, byte-identical)"
client_pids=
for mode in $MODES; do
  "$BIN" client --socket "$SOCK" "$SRC" --annot "$ANNOT" --mode "$mode" \
    >"$OUT/conc-$mode.json" 2>"$OUT/conc-$mode.err" &
  client_pids="$client_pids $!"
done
for p in $client_pids; do
  wait "$p" || fail "a concurrent client exited non-zero"
done
identical pass1 conc
stats "$OUT/stats-conc.json"
served=$(counter requests_served "$OUT/stats-conc.json")
hits=$(counter unit_cache_hits "$OUT/stats-conc.json")
[ "$served" = $((3 * N_MODES)) ] ||
  fail "after concurrent pass served $served, want $((3 * N_MODES))"
[ "$hits" = $((2 * N_MODES)) ] ||
  fail "after concurrent pass unit hits $hits, want $((2 * N_MODES))"

echo "serve_smoke: shutdown (snapshot written to cache-dir)"
stop_daemon
[ -f "$CACHE/warm.snapshot" ] || fail "no snapshot written to $CACHE"
head -n 1 "$CACHE/warm.snapshot" >"$OUT/snapshot-header.txt"

echo "serve_smoke: restart from snapshot (warm start, zero dep-test misses)"
start_daemon restart
drive pass3
stats "$OUT/stats-pass3.json"
restores=$(counter snapshot_restores "$OUT/stats-pass3.json")
hits=$(counter unit_cache_hits "$OUT/stats-pass3.json")
dep_misses=$(counter dep_cache_misses "$OUT/stats-pass3.json")
dep_run=$(counter dep_tests_run "$OUT/stats-pass3.json")
[ "$restores" = 1 ] || fail "snapshot_restores $restores, want 1"
[ "$hits" = "$N_MODES" ] ||
  fail "restarted daemon had $hits unit hits, want $N_MODES"
[ "$dep_misses" = 0 ] ||
  fail "restarted daemon ran $dep_misses dependence-cache misses, want 0"
[ "$dep_run" = 0 ] ||
  fail "restarted daemon ran $dep_run dependence tests, want 0"
identical pass1 pass3
stop_daemon

echo "serve_smoke: chaos pass (seeded server.conn + server.request faults)"
start_daemon chaos --chaos "7:server.conn=2,server.request=5"
# drive enough requests that both seeded faults fire: connection #2 is
# dropped pre-protocol, request #5 degrades.  Individual clients may
# fail; the daemon itself must survive all of it.
chaos_failures=0
for round in 1 2; do
  for mode in $MODES; do
    code=0
    "$BIN" client --socket "$SOCK" "$SRC" --annot "$ANNOT" --mode "$mode" \
      >"$OUT/chaos-$round-$mode.json" 2>"$OUT/chaos-$round-$mode.err" ||
      code=$?
    case $code in
    0) ;;
    1 | 2) chaos_failures=$((chaos_failures + 1)) ;;
    *) fail "chaos pass: client exited $code, want 0, 1 or 2 (see $OUT/chaos-$round-$mode.err)" ;;
    esac
  done
done
[ "$chaos_failures" -ge 1 ] ||
  fail "chaos pass: seeded faults fired no client-visible failure"
[ "$chaos_failures" -le 2 ] ||
  fail "chaos pass: $chaos_failures client failures, want at most 2 (one dropped connection, one degraded request)"
"$BIN" client --socket "$SOCK" --op ping >"$OUT/chaos-ping.json" 2>/dev/null ||
  fail "daemon did not survive the chaos pass (ping failed)"
grep -q '"ok":true' "$OUT/chaos-ping.json" ||
  fail "post-chaos ping not ok"
"$BIN" client --socket "$SOCK" --op shutdown >/dev/null 2>&1 ||
  fail "post-chaos shutdown request failed"
chaos_exit=0
wait "$PID" || chaos_exit=$?
PID=
[ "$chaos_exit" = 0 ] ||
  fail "chaos daemon exited $chaos_exit, want a clean 0"

echo "serve_smoke: worker-death pass (seeded runtime.pool.worker fault)"
start_daemon death --chaos "7:runtime.pool.worker=1"
# arrival 1 at the worker site kills the connection worker that takes
# the first connection; its connection is closed unserved
code=0
"$BIN" client --socket "$SOCK" "$SRC" --annot "$ANNOT" --mode annotation \
  >"$OUT/death-1.json" 2>"$OUT/death-1.err" || code=$?
[ "$code" = 2 ] ||
  fail "worker-death pass: first client exited $code, want 2 (see $OUT/death-1.err)"
"$BIN" client --socket "$SOCK" "$SRC" --annot "$ANNOT" --mode annotation \
  >"$OUT/death-2.json" 2>"$OUT/death-2.err" ||
  fail "worker-death pass: the client after the death failed (see $OUT/death-2.err)"
cmp -s "$OUT/pass1-annotation.json" "$OUT/death-2.json" ||
  fail "worker-death pass: response differs from pass 1"
stats "$OUT/stats-death.json"
grep -q '"worker_deaths":1,"worker_respawns":1' "$OUT/stats-death.json" ||
  fail "worker-death pass: stats lack one death and one respawn"
"$BIN" client --socket "$SOCK" --op shutdown >/dev/null 2>&1 ||
  fail "worker-death shutdown request failed"
death_exit=0
wait "$PID" || death_exit=$?
PID=
[ "$death_exit" = 0 ] ||
  fail "worker-death daemon exited $death_exit, want a clean 0"

echo "serve_smoke: OK (cold, warm, concurrent, snapshot-restored, chaos and worker-death passes agree)"
