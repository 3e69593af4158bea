#!/usr/bin/env bash
# The full local gate: everything CI runs, in the order that fails fastest.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> design gate (one request path: no provided BlockDevice read/write/flush/write_buf/wait re-implemented, no inherent Disk read/write/write_segments/flush, no completions/Completion, no BlkReq/service.rs/ipc.rs; each crates/*/src non-test lines <= its line in scripts/src_lines.budget; no RecoveryMode/fuzzy_checkpoints/flush_all; bytes move by the run: no enum Held, no per-sector media map; the buffer is the log's read cache: no reads_hold_disk/stand_aside/defer_to_reads/read_defers/const KEPT; one explorer: no explore_crash_points/replay_crash_point/explore_failovers/FailoverCounterexample/*_parallel; no pub fn that only tests call (only call-shaped uses count) unless scripts/pub_census.allow says why, and no stale line there; the disk is write-through: no CacheSpec/writeback_loop/cache_write_hits; one figures binary: no other bin runs run_perf, no per-figure bin back; no config field that only its default or one preset sets unless scripts/pub_census.allow says why, and no stale line there; log shipping is one stream: no ReplTenantStatus/StandbyTenantStatus/TenantApply/record_replicated/replicated_seq; the key index is per table: no BTreeMap<(TableId, Key) in crates/dbengine/src; recovery keeps the log bytes: no Vec<(Lsn, Record)>/FastMap<Lsn, &Record> in crates/dbengine/src/recovery.rs; the key index packs rows into full sorted leaves: no BTreeMap<Key, u32> in crates/dbengine/src; the bench crate is one binary: crates/bench/src/bin/ holds only figures; one audited guest writer: no slot_payload/tenant_fill/SLOTS_PER_CLIENT/TENANT_SLOT_COUNT/struct Load in crates/faultsim/src; the superblock lives in the catalog page: no Superblock::read or .write(..log_dev..) in crates/dbengine/src, no RecoverySweep::superblock; the power budget is one rule in time: no max_buffer_bytes/aggregate_fits/DRAIN_STARTUP in crates/*/src, src/ or examples/; (s) the trusted path keeps only what runs: no window_widens/window_narrows, parked permits, tenant weight, has_sections or separate fn record_commit( in crates/*/src; (t) a request's result comes back through its JoinHandle: no IoQueue/fn discard/fn oneshot/OnceSender/fn bounded in crates/*/src, no fn abandon in crates/dbengine/src/wal.rs; (u) the drain learns nothing: no LATENCY_BUDGET/fn retarget/take_stalled/grow_ref_bps/regime_start_ns/ewma_run_bps in crates/rapilog/src)"
scripts/design_gate.sh

echo "==> cargo build --release --workspace --all-targets"
cargo build --release --workspace --all-targets

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> known-red replays (the ignored open-finding replays that fail are exactly scripts/known_red.list)"
scripts/known_red.sh

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "==> crash-point sweep (200 trials + broken-drain control)"
./target/release/figures crashpoint_sweep

echo "==> failover sweep (replicated pair: sync/async x 4 failure kinds; sync commit <= 1.1x link round trip)"
./target/release/figures failover_sweep

echo "==> every figures entry at QUICK size (figures, ablations and fault gates: each entry's checks, claim 3 on every virt-sync/RapiLog pair)"
QUICK=1 ./target/release/figures >/dev/null

echo "==> hot-path bench + allocation budget (check mode)"
BENCH_CHECK=1 cargo bench -q -p rapilog-bench --bench hotpaths

echo "==> QUICK sweeps vs BENCH_baseline.json (simulated fields exact; trials/sec printed)"
scripts/perf_gate.sh

echo "==> benchmark's simulated-time metrics, five workloads at seeds 1 and 7 (vs BENCH_expect.json)"
scripts/bench_expect.sh

echo "==> all checks passed"
