#!/usr/bin/env bash
# Benchmark numbers under CI, first slice: the simulated-time metrics of the
# five BENCHMARK.json workloads repeat exactly for a seed, so they are pinned.
#
# Runs each workload at seeds 1 and 7 (`benchmark/run.sh --workload <w>
# --seed <s> --seconds 10 --trace 0`; two seeds, so a change that is
# bit-identical on one by luck still shows) and compares its four
# simulated-time end-to-end metrics and its failed-operation count, as
# printed, against the committed BENCH_expect.json, one row per workload and
# seed. Any difference prints expected and now, and fails: a change that
# means to move a number commits the new row with it (`--update`), so the
# diff review sees which rows moved — and that the others did not.
#
# Usage:
#   scripts/bench_expect.sh            # run, compare, exit non-zero on any diff
#   scripts/bench_expect.sh --update   # run, then REWRITE BENCH_expect.json
set -euo pipefail
cd "$(dirname "$0")/.."

EXPECT=BENCH_expect.json
WORKLOADS=(storm_hdd saturate_nvme4 tpcc_mixed crash_recover pair_failover)
SEEDS=(1 7)
METRICS=(op_mean_us op_p90_us op_tail_us ops_per_sim_s)

fresh=$(mktemp)
trap 'rm -f "$fresh"' EXIT
for w in "${WORKLOADS[@]}"; do
    for s in "${SEEDS[@]}"; do
        echo "bench_expect: running $w, seed $s" >&2
        # The last line of a run is its JSON document; the numbers are taken
        # as text, never through a float.
        doc=$(benchmark/run.sh --workload "$w" --seed "$s" --seconds 10 --trace 0 | tail -n 1)
        row="{\"workload\":\"$w\",\"seed\":$s"
        row+=",\"failed\":$(grep -oP '"failed": \K[0-9]+' <<<"$doc")"
        for m in "${METRICS[@]}"; do
            row+=",\"$m\":$(grep -oP "\"$m\": \{\"value\": \K[^,]+" <<<"$doc")"
        done
        echo "$row}" >>"$fresh"
    done
done

if [[ "${1:-}" == "--update" ]]; then
    cp "$fresh" "$EXPECT"
    echo "bench_expect: $EXPECT rewritten:"
    cat "$EXPECT"
    exit 0
fi

fail=0
while IFS= read -r now; do
    # A row's key is how it starts: {"workload":"<w>","seed":<s>,
    key=$(grep -oP '^\{"workload":"[^"]+","seed":[0-9]+,' <<<"$now")
    name=$(tr -d '{"' <<<"${key%,}")
    expected=$(grep -F "$key" "$EXPECT" || true)
    if [[ "$now" == "$expected" ]]; then
        echo "bench_expect: ok    $name"
    else
        echo "bench_expect: FAIL  $name" >&2
        echo "  expected ${expected:-(no row)}" >&2
        echo "  now      $now" >&2
        fail=1
    fi
done <"$fresh"
if [[ "$fail" != "0" ]]; then
    echo "bench_expect: simulated-time metrics moved; if intended, commit the rows" >&2
    echo "bench_expect: 'scripts/bench_expect.sh --update' writes with the change" >&2
    exit 1
fi
echo "bench_expect: all five workloads read as committed on both seeds"
