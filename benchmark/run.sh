#!/usr/bin/env bash
# Builds the benchmark package offline and runs it.
#
#   benchmark/run.sh                      every workload, then every traced run;
#                                         one JSON document on stdout
#   benchmark/run.sh --check              do two sets of runs of the same code agree?
#   benchmark/run.sh --workload <name> --seed <n> --seconds <n> --trace <0|1>
#                                         one run (what BENCHMARK.json's command does)
#
# Run it from the repository root. The package builds against ../crates and
# touches no file outside benchmark/ and the cargo target directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Share the root workspace's target directory unless the caller chose one.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target}"

# cargo's progress goes to stderr; stdout is the benchmark's alone.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

if [ "$#" -eq 0 ]; then
    set -- --all
fi
exec "$CARGO_TARGET_DIR/release/rapilog-benchmark" "$@"
