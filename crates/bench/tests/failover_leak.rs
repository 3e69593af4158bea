//! Leak repro for the failover harness: a dropped `run_failover_trial`
//! world must free everything it allocated.
//!
//! Power-kind trials once leaked ~100–260 KB each — an `Rc` cycle supply →
//! death hook → `Replicator` → `Audit` → supply kept every unacknowledged
//! frame of the trial alive — and `pair_failover` peaked above 600 MiB.
//! This binary installs the counting allocator and demands a live-bytes
//! delta of exactly zero across every mode × kind — each trial now builds
//! two RapiLog instances and two supplies, so the standby side is under the
//! same demand. It runs without the test harness (`harness = false`): the
//! counter is process-wide, and the harness's main thread allocates a few
//! hundred bytes of its own bookkeeping while the test thread runs, which
//! a sub-millisecond trial loses the race against often enough to flake.

use rapilog::ReplicationMode;
use rapilog_bench::alloc::{live_bytes, CountingAlloc};
use rapilog_faultsim::{run_failover_trial, FailoverConfig, FailoverKind};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    for mode in [ReplicationMode::Sync, ReplicationMode::Async] {
        for kind in FailoverKind::all() {
            let trial = |seed| {
                let r = run_failover_trial(seed, FailoverConfig::new(mode, kind));
                assert!(r.ok, "violations: {:?}", r.violations);
            };
            // One trial first: lazily initialised process state (thread
            // locals, the test harness's own buffers) is not a leak.
            trial(0x1EAC);
            let before = live_bytes();
            for seed in 0..8 {
                trial(0x1EAD + seed);
            }
            assert_eq!(
                live_bytes(),
                before,
                "{mode:?} / {} trials leaked",
                kind.label()
            );
        }
    }
    println!("failover trials free everything they allocate: ok");
}
