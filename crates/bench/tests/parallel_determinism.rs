//! The explorer's one promise about threads: the count never changes
//! results.
//!
//! Every trial is a closed deterministic simulation, and `run_parallel` and
//! `explore` merge results in job (grid) order — so a sweep on N threads
//! must be **bit-identical** to the same sweep on 1 thread, per-trial
//! outcomes and merged aggregate alike, for every trial kind. These tests
//! check exactly that for the crash-point and failover grids; the full
//! 200-trial gate-sized crash variant is `#[ignore]`d for regular runs
//! (`cargo test -- --ignored` runs it).

use rapilog_faultsim::{
    explore, run_parallel, Exploration, ExplorerConfig, FailoverExplorerConfig, Trial, TrialResult,
};

/// Field-wise equality for `TrialResult` (which deliberately does not
/// implement `PartialEq`: latency attribution carries floats that tests
/// compare bit-wise only here, where identical inputs are guaranteed).
fn assert_same_trial(a: &TrialResult, b: &TrialResult, ctx: &str) {
    assert_eq!(a.ok, b.ok, "{ctx}: ok");
    assert_eq!(a.violations, b.violations, "{ctx}: violations");
    assert_eq!(a.total_acked, b.total_acked, "{ctx}: total_acked");
    assert_eq!(a.fault_stats, b.fault_stats, "{ctx}: fault_stats");
    assert_eq!(a.recovered, b.recovered, "{ctx}: recovered rows");
    assert_eq!(a.journals.len(), b.journals.len(), "{ctx}: journal count");
    for (ja, jb) in a.journals.iter().zip(&b.journals) {
        assert_eq!(ja.acked, jb.acked, "{ctx}: journal acked");
        assert_eq!(ja.attempted, jb.attempted, "{ctx}: journal attempted");
    }
    assert_eq!(
        a.recovery.scanned_records, b.recovery.scanned_records,
        "{ctx}: recovery scan"
    );
    assert_eq!(
        a.recovery.redo_applied, b.recovery.redo_applied,
        "{ctx}: recovery redo"
    );
}

/// Two explorations of one grid agree: trial count, the kind's sums (every
/// scalar, and each histogram's count, min, mean, p99 and max, through
/// their `Debug` form) and every counterexample's replay line, in order.
fn assert_same_exploration<T>(a: &Exploration<T>, b: &Exploration<T>)
where
    T: Trial,
    T::Report: std::fmt::Debug,
{
    assert_eq!(a.trials, b.trials, "trial count");
    assert_eq!(
        format!("{:?}", a.report),
        format!("{:?}", b.report),
        "aggregate"
    );
    let lines = |e: &Exploration<T>| -> Vec<String> {
        e.counterexamples.iter().map(|c| c.replay_line()).collect()
    };
    assert_eq!(lines(a), lines(b), "counterexamples");
}

fn reduced_config() -> ExplorerConfig {
    let mut cfg = ExplorerConfig::rapilog_default();
    cfg.seeds = vec![0x5EED, 0x5EED + 101];
    cfg.fault_times_ms = vec![120];
    cfg
}

#[test]
fn per_trial_outcomes_identical_on_one_and_many_threads() {
    let cfg = reduced_config();
    let seq = run_parallel(cfg.grid(), 1, |p| cfg.run(&p));
    let par = run_parallel(cfg.grid(), 4, |p| cfg.run(&p));
    assert_eq!(seq.len(), par.len());
    for (i, (a, b)) in seq.iter().zip(&par).enumerate() {
        assert_same_trial(a, b, &format!("grid point {i}"));
    }
}

#[test]
fn merged_report_identical_to_sequential_sweep() {
    let cfg = reduced_config();
    let seq = explore(&cfg, 1);
    let par = explore(&cfg, 4);
    assert_eq!(seq.trials, cfg.grid().len() as u64);
    assert_same_exploration(&seq, &par);
}

/// The failover grid through the same explorer: two seeds × both modes ×
/// all four kinds, on 1 and 4 threads.
#[test]
fn failover_aggregate_identical_on_one_and_four_threads() {
    let mut cfg = FailoverExplorerConfig::rapilog_default();
    cfg.seeds = vec![0xFA11, 0xFA11 + 131];
    let seq = explore(&cfg, 1);
    let par = explore(&cfg, 4);
    assert_eq!(seq.trials, 2 * 2 * 4);
    assert!(
        seq.report.ship_dropped > 0 && seq.report.partition_async_lagged > 0,
        "the grid's adversaries did something: {:?}",
        seq.report
    );
    assert_same_exploration(&seq, &par);
}

/// The broken drain's counterexamples, found on 4 threads, are the 1-thread
/// ones and replay to the same violations.
#[test]
fn counterexamples_identical_on_one_and_four_threads() {
    let mut cfg = ExplorerConfig::broken_drain();
    cfg.seeds = vec![0x5EED, 0x5EED + 101];
    cfg.fault_times_ms = vec![150];
    let seq = explore(&cfg, 1);
    let par = explore(&cfg, 4);
    assert!(!seq.clean(), "the planted bug was found");
    assert_same_exploration(&seq, &par);
    let ce = &par.counterexamples[0];
    assert_eq!(ce.replay(&cfg).violations, ce.violations);
}

/// The gate-sized sweep (8 seeds × 5 instants × 5 kinds = 200 trials),
/// sequential vs. every-core. Minutes of CPU, so opt-in:
/// `cargo test -p rapilog-bench -- --ignored`.
#[test]
#[ignore = "gate-sized sweep; run with -- --ignored"]
fn full_sweep_identical_across_thread_counts() {
    let mut cfg = ExplorerConfig::rapilog_default();
    cfg.seeds = (0..8).map(|i| 0x5EED + i * 101).collect();
    cfg.fault_times_ms = vec![80, 160, 240, 330, 420];
    let seq = explore(&cfg, 1);
    let par = explore(&cfg, rapilog_bench::thread_count());
    assert_eq!(seq.trials, 200);
    assert_same_exploration(&seq, &par);
}
