# Development driver.  `make check` is the tier-1 gate: full build
# (warnings are errors in the dev profile — see the root `dune` env
# stanza), the test suite, and a regression budget on bare failure
# points in lib/ (structured diagnostics via Diag are the sanctioned
# channel; see DESIGN.md, "Failure semantics").

# Bare `failwith` / `assert false` occurrences allowed in lib/ outside
# the Diag modules.  May go down, must not go up.
FAILWITH_BUDGET := 13

BENCH_JOBS ?= 2
BENCH_JSON ?= BENCH_table2.json

.PHONY: all test failwith-budget check bench bench-compare perf-gate serve-smoke

# Two bench JSON documents to diff with `make bench-compare`.
BENCH_OLD ?= bench/baseline_counters.json
BENCH_NEW ?= $(BENCH_JSON)

all:
	dune build @all

test:
	dune runtest

failwith-budget:
	@FAILWITH_BUDGET=$(FAILWITH_BUDGET) sh scripts/failwith_budget.sh

# Full suite matrix with the profiled parallel driver; emits the
# machine-readable point set CI archives as an artifact.
bench:
	dune exec bench/main.exe -- table2 --jobs $(BENCH_JOBS) --json $(BENCH_JSON)

# Side-by-side wall-clock / cache-miss / exec-time diff of two bench
# JSON documents (schema v2-v9).  Informational, never fails.
bench-compare:
	dune exec bench/main.exe -- compare $(BENCH_OLD) $(BENCH_NEW)

# Pin verdicts, dep_tests_run, and cache-miss counts against the
# committed baseline (single-job for deterministic counters).
perf-gate:
	sh scripts/check_perf_counters.sh

# End-to-end daemon gate: two passes over the examples corpus through a
# live `parinline serve` socket (second pass 100% unit-cache hits and
# byte-identical), then a kill + restart from the --cache-dir snapshot
# (same bytes, zero dependence tests executed).
serve-smoke: all
	sh scripts/serve_smoke.sh

check: all test failwith-budget
