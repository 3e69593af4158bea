#!/usr/bin/env bash
# Regression gate over the QUICK sweep benchmarks.
#
# Re-runs the benchmarks pinned to the thread counts recorded in the
# committed BENCH_baseline.json, then compares the fresh rows in
# BENCH_sweeps.json against the baseline row by row:
#
#   * every *simulated* field (all but wall_ms and trials_per_sec) is an
#     exact expectation — the simulator is deterministic, so any difference
#     is a behaviour change and fails the gate, naming the fields that moved;
#   * the wall-clock trials_per_sec is printed beside the baseline's, with
#     the ratio, and never fails: on a shared host one binary's wall time
#     spreads 2x run to run (it failed here at unchanged commits), and exact
#     counts — allocations, polls, spawns per op under benchmark/ — are the
#     instrument that resolves a host-cost question.
#
# Usage:
#   scripts/perf_gate.sh            # run benches, compare, exit non-zero on a moved field
#   scripts/perf_gate.sh --update   # run benches, then REWRITE the baseline
#
# Updating the baseline: with the change that meant to move a simulated
# figure, run `scripts/perf_gate.sh --update` and commit the new
# BENCH_baseline.json with it, so the diff review sees both. Never update
# the baseline to paper over an unexplained difference.
#
# Environment:
#   PERF_GATE_SKIP_RUN=1  compare existing BENCH_sweeps.json without re-running
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE=BENCH_baseline.json
FRESH=BENCH_sweeps.json
UPDATE=0
if [[ "${1:-}" == "--update" ]]; then
    UPDATE=1
fi

if [[ ! -f "$BASELINE" ]]; then
    echo "perf_gate: no $BASELINE committed — run 'scripts/perf_gate.sh --update' once" >&2
    exit 1
fi

# Each baseline row names the `figures` entry that produced it; re-run
# exactly those, pinned to the baseline's thread count so the comparison is
# like-for-like even on machines with different core counts.
if [[ "${PERF_GATE_SKIP_RUN:-0}" != "1" ]]; then
    cargo build --release -p rapilog-bench 2>&1 | tail -n 1
    while IFS=$'\t' read -r bench threads; do
        echo "perf_gate: running $bench (QUICK, threads=$threads)"
        QUICK=1 RAPILOG_BENCH_THREADS="$threads" ./target/release/figures "$bench" >/dev/null
    done < <(jq -r '[.bench, (.threads // 1)] | @tsv' "$BASELINE")
fi

if [[ "$UPDATE" == "1" ]]; then
    benches=$(jq -r '.bench' "$BASELINE" | paste -sd'|' -)
    grep -E "\"bench\":\"(${benches})\"" "$FRESH" > "$BASELINE.tmp"
    mv "$BASELINE.tmp" "$BASELINE"
    echo "perf_gate: baseline rewritten from fresh $FRESH:"
    jq -r '"  \(.bench): \(.trials_per_sec) trials/sec (threads=\(.threads // 1))"' "$BASELINE"
    exit 0
fi

# The simulated part of a row, leaf by leaf ("rows.0.mean_recovery_ms"):
# everything but the host's clock.
simulated='del(.wall_ms, .trials_per_sec)
    | [paths(scalars) as $p | {key: ($p | map(tostring) | join(".")), value: getpath($p)}]
    | from_entries'
fail=0
while IFS=$'\t' read -r bench base_tps threads; do
    fresh=$(jq -c --arg b "$bench" 'select(.bench == $b)' "$FRESH" | tail -n 1)
    if [[ -z "$fresh" ]]; then
        echo "perf_gate: FAIL  $bench: no fresh row in $FRESH" >&2
        fail=1
        continue
    fi
    base=$(jq -c --arg b "$bench" 'select(.bench == $b)' "$BASELINE")
    fresh_tps=$(jq -r '.trials_per_sec' <<<"$fresh")
    ratio=$(jq -n --argjson f "$fresh_tps" --argjson b "$base_tps" '$f / $b * 100 | round / 100')
    moved=$(jq -rn --argjson base "$base" --argjson fresh "$fresh" "
        (\$base | $simulated) as \$a | (\$fresh | $simulated) as \$b
        | [(\$a + \$b | keys[]) | select(\$a[.] != \$b[.])
           | \"\(.): \(\$a[.] | tojson) -> \(\$b[.] | tojson)\"] | join(\"; \")")
    if [[ -n "$moved" ]]; then
        echo "perf_gate: FAIL  $bench: simulated fields moved: $moved" >&2
        fail=1
    else
        echo "perf_gate: ok    $bench: simulated fields exact; $fresh_tps trials/sec vs baseline $base_tps (ratio $ratio, informational, threads=$threads)"
    fi
done < <(jq -r '[.bench, .trials_per_sec, (.threads // 1)] | @tsv' "$BASELINE")

if [[ "$fail" != "0" ]]; then
    echo "perf_gate: a simulated figure differs from its committed expectation" >&2
    echo "perf_gate: if intentional, refresh with 'scripts/perf_gate.sh --update' and commit the new baseline" >&2
    exit 1
fi
echo "perf_gate: all benches match their expectations"
