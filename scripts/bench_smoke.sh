#!/bin/sh
# Perf smoke gate over the committed bench baselines.
#
# Runs the hotpath and sweep criterion benches with a reduced iteration
# count (quick, not publication-grade), checks that each fresh
# target/BENCH_*.json they write carries its schema and every field the
# committed baseline promises, and fails if a freshly measured
# throughput regressed more than the tolerance against the committed
# numbers. The committed BENCH_*.json files are only read, so a run
# that fails midway leaves the tree untouched. CI hosts are noisy
# and shared, so the tolerance is deliberately loose: this gate catches
# "someone made the engine 2x slower", not single-digit drift.
# Deterministic counters (storm events, kernel sims and dedup counts)
# are gated exactly — they move only when the simulation or the
# sharing layer itself changes.
#
# Usage:
#   scripts/bench_smoke.sh            # 20% tolerance, 50 iters
#   BB_BENCH_ITERS=200 BB_BENCH_TOLERANCE=10 scripts/bench_smoke.sh
#
# Re-blessing a baseline is a copy of the fresh document over the
# committed one, after a full-length bench run:
#   cargo bench -p bb-bench --bench hotpath
#   cp target/BENCH_hotpath.json BENCH_hotpath.json
set -eu

cd "$(dirname "$0")/.."

TOLERANCE="${BB_BENCH_TOLERANCE:-20}"
ITERS="${BB_BENCH_ITERS:-50}"

# Field extractor for the flat one-value-per-key JSON our emitters
# write (no jq dependency).
field() {
    sed -n "s/^.*\"$1\": *\([0-9.]*\).*$/\1/p" "$2" | head -n 1
}

# check_schema FILE SCHEMA FIELD...
check_schema() {
    f="$1" schema="$2"
    shift 2
    grep -q "\"schema\": \"$schema\"" "$f" || {
        echo "bench_smoke: $f lacks the $schema schema stamp" >&2
        exit 1
    }
    for key in "$@"; do
        v="$(field "$key" "$f")"
        [ -n "$v" ] || {
            echo "bench_smoke: $f is missing field \"$key\"" >&2
            exit 1
        }
    done
}

# fresh >= committed * (100 - TOLERANCE)%, in awk (sh has no floats).
gate() {
    name="$1" fresh="$2" committed="$3"
    awk -v f="$fresh" -v c="$committed" -v tol="$TOLERANCE" -v n="$name" 'BEGIN {
        floor = c * (100 - tol) / 100
        if (f < floor) {
            printf "bench_smoke: %s regressed: %.1f vs committed %.1f (floor %.1f, tolerance %d%%)\n",
                n, f, c, floor, tol
            exit 1
        }
        printf "    %s: %.1f vs committed %.1f (floor %.1f) ok\n", n, f, c, floor
    }' || exit 1
}

# exact NAME FRESH COMMITTED HINT — deterministic counters must not move.
exact() {
    name="$1" fresh="$2" committed="$3" hint="$4"
    [ "$fresh" = "$committed" ] || {
        echo "bench_smoke: $name changed ($committed -> $fresh); $hint" >&2
        exit 1
    }
}

HOTPATH_FIELDS="storm_events events_per_sec full_boots_per_sec \
    hotpath_boots_per_sec baseline_events_per_sec \
    baseline_full_boots_per_sec baseline_hotpath_boots_per_sec \
    speedup_full speedup_hotpath"
SWEEP_FIELDS="cells boots cells_per_sec cells_per_sec_no_dedup \
    baseline_plain_cells_per_sec baseline_forked_cells_per_sec \
    speedup speedup_no_dedup kernel_sims cells_deduped"

for b in hotpath sweep; do
    [ -f "BENCH_$b.json" ] || {
        echo "bench_smoke: BENCH_$b.json missing — run 'cargo bench -p bb-bench --bench $b', copy target/BENCH_$b.json to the repo root and commit it" >&2
        exit 1
    }
done

# ---------------------------------------------------------------- hotpath
BASELINE=BENCH_hotpath.json
echo "==> validating committed $BASELINE"
# shellcheck disable=SC2086
check_schema "$BASELINE" bb-hotpath-v1 $HOTPATH_FIELDS

committed_full="$(field full_boots_per_sec "$BASELINE")"
committed_hot="$(field hotpath_boots_per_sec "$BASELINE")"
committed_events="$(field storm_events "$BASELINE")"

echo "==> running hotpath bench ($ITERS iters)"
rm -f "target/$BASELINE"
BB_BENCH_ITERS="$ITERS" cargo bench -p bb-bench --bench hotpath

echo "==> validating fresh target/$BASELINE"
# shellcheck disable=SC2086
check_schema "target/$BASELINE" bb-hotpath-v1 $HOTPATH_FIELDS

fresh_full="$(field full_boots_per_sec "target/$BASELINE")"
fresh_hot="$(field hotpath_boots_per_sec "target/$BASELINE")"
fresh_events="$(field storm_events "target/$BASELINE")"

# The storm is deterministic: its event count must not move at all.
exact storm_events "$fresh_events" "$committed_events" \
    "the simulation itself changed, re-bless BENCH_hotpath.json deliberately (see the header)"

echo "==> hotpath regression gate (${TOLERANCE}% tolerance)"
gate full_boots_per_sec "$fresh_full" "$committed_full"
gate hotpath_boots_per_sec "$fresh_hot" "$committed_hot"

# ------------------------------------------------------------------ sweep
BASELINE=BENCH_sweep.json
echo "==> validating committed $BASELINE"
# shellcheck disable=SC2086
check_schema "$BASELINE" bb-sweep-v1 $SWEEP_FIELDS

committed_cells="$(field cells_per_sec "$BASELINE")"
committed_nodedup="$(field cells_per_sec_no_dedup "$BASELINE")"
committed_sims="$(field kernel_sims "$BASELINE")"
committed_deduped="$(field cells_deduped "$BASELINE")"

echo "==> running sweep bench ($ITERS iters)"
rm -f "target/$BASELINE"
BB_BENCH_ITERS="$ITERS" cargo bench -p bb-bench --bench sweep

echo "==> validating fresh target/$BASELINE"
# shellcheck disable=SC2086
check_schema "target/$BASELINE" bb-sweep-v1 $SWEEP_FIELDS

fresh_cells="$(field cells_per_sec "target/$BASELINE")"
fresh_nodedup="$(field cells_per_sec_no_dedup "target/$BASELINE")"
fresh_sims="$(field kernel_sims "target/$BASELINE")"
fresh_deduped="$(field cells_deduped "target/$BASELINE")"

# The sharing layer is deterministic on a 1-worker pool: the work
# counters must not move at all.
blesshint="the sharing layer changed, re-bless BENCH_sweep.json deliberately (see the header)"
exact kernel_sims "$fresh_sims" "$committed_sims" "$blesshint"
exact cells_deduped "$fresh_deduped" "$committed_deduped" "$blesshint"

echo "==> sweep regression gate (${TOLERANCE}% tolerance)"
gate cells_per_sec "$fresh_cells" "$committed_cells"
gate cells_per_sec_no_dedup "$fresh_nodedup" "$committed_nodedup"

echo "bench smoke passed."
