#!/bin/sh
# Perf-counter CI gate for the dependence memo cache.
#
# Runs the full suite matrix single-job (per-point hit/miss counters
# are only deterministic when one domain analyzes every point — see
# lib/dependence/memo.ml) and pins the result against the committed
# baseline with `bench/main.exe check-counters`:
#
#   - every baseline point must still be present,
#   - verdicts (par/loss/extra) must not drift,
#   - dep_tests_run must match exactly (the tester asks the same
#     questions; caching only changes who answers),
#   - dep_cache_misses must not regress above the baseline,
#   - suite-wide, the demand configuration's dep_cache_misses must
#     not exceed the baseline's (the planner's probe re-analyses replay
#     memoized dependence questions; a rise means recomputation),
#   - counter keys absent from either side (older/newer schema) are
#     skipped with a warning, never failed.
#
# A drop in misses is reported as a note: refresh the baseline with
#   dune exec bench/main.exe -- table2 --json bench/baseline_counters.json
#
# Usage: scripts/check_perf_counters.sh [BASELINE]
#   BASELINE defaults to bench/baseline_counters.json.
#
# Exit: 0 when pinned, non-zero on any violation.

set -eu

root="$(dirname "$0")/.."
baseline="${1:-$root/bench/baseline_counters.json}"
out="${TMPDIR:-/tmp}/perf_counters.$$.json"
trap 'rm -f "$out"' EXIT

dune exec --root "$root" bench/main.exe -- table2 --json "$out" >/dev/null
dune exec --root "$root" bench/main.exe -- check-counters "$out" "$baseline"
