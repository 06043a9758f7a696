#!/bin/sh
# Regression budget on bare failure points in lib/.
#
# Structured diagnostics via Diag are the sanctioned failure channel
# (DESIGN.md, "Failure semantics"); bare `failwith` / `assert false`
# bypass salvage and the 0/1/2 exit contract.  The count may go down,
# it must not go up.
#
# Usage: scripts/failwith_budget.sh [BUDGET]
#   BUDGET defaults to $FAILWITH_BUDGET or 13.
#
# Exit: 0 within budget, 1 over budget (with a per-file breakdown).

set -eu

budget="${1:-${FAILWITH_BUDGET:-13}}"
root="$(dirname "$0")/.."

total=0
report=""
for f in "$root"/lib/*/*.ml; do
  case "$f" in
  */diag.ml) continue ;; # Diag itself implements the failure channel
  esac
  n=$(grep -c 'failwith\|assert false' "$f" 2>/dev/null) || n=0
  if [ "$n" -gt 0 ]; then
    total=$((total + n))
    rel=${f#"$root"/}
    report="$report  $n	$rel
"
  fi
done

if [ "$total" -gt "$budget" ]; then
  echo "FAIL: $total bare failwith/assert-false in lib/ (budget $budget) — raise a Diag instead"
  printf '%s' "$report"
  exit 1
fi
echo "failwith budget OK ($total/$budget)"
