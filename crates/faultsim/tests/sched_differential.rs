//! Differential determinism: the production executor core
//! (`SchedulerKind::TimerWheel`) vs the reference scheduler.
//!
//! The production core (slab task arena, single-threaded ready ring,
//! binary-heap timers) is only admissible if it is *observationally
//! identical* to the straightforward reference core — same poll
//! interleaving, same timer firing order, same everything. This suite
//! proves it the strong way: a seeded matrix of full durability trials
//! (guest crash, power cut, disk-error burst) runs once on each core, and
//! the two runs must agree on
//!
//! * the complete trace event stream (every begin/end/instant, in order,
//!   with payloads and timestamps),
//! * the executor's [`RunReport`] (final virtual time, pending tasks, and
//!   the total poll count — the most scheduling-sensitive number there is),
//! * the audited outcome: acked-commit counts, per-client journals,
//!   recovered register values, violations, and fault-handling counters.
//!
//! Trials here are deliberately short (tens of virtual milliseconds of
//! load) so the matrix stays fast in debug builds; the crash-point sweep
//! and Table 2 cover long trials on the default core.

use rapilog_faultsim::{
    run_trial_traced, FaultKind, MachineConfig, Setup, TrialConfig, TrialResult,
};
use rapilog_simcore::trace::TraceSnapshot;
use rapilog_simcore::{RunReport, SchedulerKind, SimDuration};
use rapilog_simdisk::specs;
use rapilog_simpower::supplies;

/// Seeds per fault kind. 3 kinds × 7 seeds = 21 seeded trials ≥ the
/// 20-seed floor, each run on both cores.
const SEEDS_PER_KIND: u64 = 7;

fn cfg(fault: FaultKind) -> TrialConfig {
    let mut machine = MachineConfig::new(
        Setup::RapiLog,
        specs::instant(256 << 20),
        specs::hdd_7200(128 << 20),
    );
    machine.supply = Some(supplies::atx_psu());
    TrialConfig {
        machine,
        fault,
        clients: 3,
        fault_after: SimDuration::from_millis(60),
        think_time: SimDuration::from_micros(200),
    }
}

fn faults() -> Vec<FaultKind> {
    vec![
        FaultKind::GuestCrash,
        FaultKind::PowerCut,
        FaultKind::DiskErrorBurst {
            burst: SimDuration::from_millis(20),
            slack: SimDuration::from_millis(30),
        },
    ]
}

/// Asserts every observable of the two runs is identical.
fn assert_identical(
    ctx: &str,
    (wheel, wheel_report, wheel_trace): &(TrialResult, RunReport, TraceSnapshot),
    (refr, ref_report, ref_trace): &(TrialResult, RunReport, TraceSnapshot),
) {
    assert_eq!(
        wheel_report, ref_report,
        "{ctx}: RunReport diverged (now/pending/polls)"
    );
    assert_eq!(
        wheel_trace.total, ref_trace.total,
        "{ctx}: trace event counts diverged"
    );
    assert_eq!(
        wheel_trace.dropped, ref_trace.dropped,
        "{ctx}: trace drop counts diverged"
    );
    // Compare streams event-by-event so a divergence reports its position,
    // not a megabyte Debug dump of both rings.
    for (i, (w, r)) in wheel_trace
        .events
        .iter()
        .zip(ref_trace.events.iter())
        .enumerate()
    {
        assert_eq!(w, r, "{ctx}: trace stream diverged at event {i}");
    }
    assert_eq!(
        wheel_trace.events.len(),
        ref_trace.events.len(),
        "{ctx}: trace stream lengths diverged"
    );
    assert_eq!(wheel.ok, refr.ok, "{ctx}: verdict diverged");
    assert_eq!(
        wheel.violations, refr.violations,
        "{ctx}: violations diverged"
    );
    assert_eq!(
        wheel.total_acked, refr.total_acked,
        "{ctx}: acked commits diverged"
    );
    assert_eq!(
        wheel.recovered, refr.recovered,
        "{ctx}: recovered registers diverged"
    );
    for (i, (w, r)) in wheel.journals.iter().zip(refr.journals.iter()).enumerate() {
        assert_eq!(
            (w.acked, w.attempted),
            (r.acked, r.attempted),
            "{ctx}: client {i} journal diverged"
        );
    }
    assert_eq!(
        wheel.fault_stats, refr.fault_stats,
        "{ctx}: fault counters diverged"
    );
    assert_eq!(
        wheel.rapilog_guarantee, refr.rapilog_guarantee,
        "{ctx}: guarantee verdict diverged"
    );
}

fn run_matrix_for(fault: FaultKind) {
    for seed in 0..SEEDS_PER_KIND {
        let seed = 0xD1FF_0000 + seed;
        let ctx = format!("seed {seed:#x} fault {}", fault.label());
        let wheel = run_trial_traced(seed, cfg(fault), SchedulerKind::TimerWheel);
        let refr = run_trial_traced(seed, cfg(fault), SchedulerKind::Reference);
        assert!(
            wheel.0.total_acked > 0,
            "{ctx}: trial too short to exercise the commit path"
        );
        assert!(
            wheel.2.total > 0,
            "{ctx}: trial recorded no trace events — comparison is vacuous"
        );
        assert_identical(&ctx, &wheel, &refr);
    }
}

#[test]
fn wheel_matches_reference_on_guest_crash_matrix() {
    run_matrix_for(faults()[0]);
}

#[test]
fn wheel_matches_reference_on_power_cut_matrix() {
    run_matrix_for(faults()[1]);
}

#[test]
fn wheel_matches_reference_on_disk_burst_matrix() {
    run_matrix_for(faults()[2]);
}

/// The same seed on the same core is bit-identical run-to-run (the
/// baseline determinism property the differential tests build on).
#[test]
fn same_core_is_reproducible() {
    for kind in [SchedulerKind::TimerWheel, SchedulerKind::Reference] {
        let a = run_trial_traced(0xABCD, cfg(faults()[0]), kind);
        let b = run_trial_traced(0xABCD, cfg(faults()[0]), kind);
        assert_identical(&format!("reproducibility on {kind:?}"), &a, &b);
    }
}
