//! Crash recovery reads the log back in one sequential sweep.
//!
//! A rotation (8.3 ms at 7200 rpm) is the tax the whole design exists to
//! avoid, and recovery used to inflict it on itself: one at every chunk
//! boundary, one to re-read the tail sector the scan had just parsed, and a
//! wait for read-ahead nobody needed. These tests recover real crash images
//! through the full `Machine` RapiLog stack (engine → retry wrapper →
//! virtio ring → RapiLog device → `hdd_7200`) and read the disk's own
//! trace to pin what the rotating log disk was asked to do.

use rapilog_suite::dbengine::recovery::{RecoveryReport, CHUNK};
use rapilog_suite::faultsim::{run_trial_traced, ExplorerConfig, FaultKind, RecoverySweep};
use rapilog_suite::prelude::*;
use rapilog_suite::simcore::SchedulerKind;

const ROTATION: SimDuration = SimDuration::from_nanos(60_000_000_000 / 7200);
const CHUNK_SECTORS: u64 = (CHUNK / SECTOR_SIZE) as u64;

/// Runs one stock single-tenant trial (the benchmark's `crash_recover`
/// cell, minus the background transient-fault lottery so the read pattern
/// is the scan's alone) and checks what holds for a log of any length:
/// after the superblock the log disk serves whole chunks only — no short
/// read for a tail sector, no header probe — in one sequential sweep, the
/// scan consumes exactly the chunks the log covers, and at most
/// `queue_depth` read-ahead is left in flight.
fn recover_after(fault: FaultKind, fault_ms: u64) -> (RecoveryReport, RecoverySweep) {
    let seed = 0x1234 + fault_ms;
    let mut cfg = ExplorerConfig::rapilog_default();
    cfg.log_fault = None;
    let trial = cfg.trial(seed, fault, SimDuration::from_millis(fault_ms));
    let (result, _, trace) = run_trial_traced(seed, trial, SchedulerKind::TimerWheel);
    assert!(result.ok, "violations: {:?}", result.violations);
    let report = result.recovery;
    let sweep = RecoverySweep::from_trace(&trace).expect("the recover span is in the ring");
    for r in &sweep.reads {
        assert_eq!(r.sectors, CHUNK_SECTORS, "not a chunk read: {r:?}");
    }
    assert!(
        sweep
            .reads
            .windows(2)
            .all(|w| w[1].sector == w[0].sector + w[0].sectors),
        "one sequential sweep: {:?}",
        sweep.reads
    );
    // The trial never checkpoints after install, so the scan starts in
    // the log's first sectors and `log_end` is the scanned length.
    assert_eq!(
        sweep.consumed as u64,
        report.log_end.0.div_ceil(CHUNK as u64),
        "the scan consumed exactly the chunks the log covers"
    );
    assert!(sweep.reads.len() - sweep.consumed <= 1);
    (report, sweep)
}

/// The power cut leaves the drain nothing to do by the time the machine is
/// back: the emergency drain emptied the buffer, so the scan has the disk
/// to itself.
fn recover_after_power_cut(fault_ms: u64) -> (RecoveryReport, RecoverySweep) {
    recover_after(FaultKind::PowerCut, fault_ms)
}

fn rotations_paid(sweep: &RecoverySweep) -> usize {
    sweep.reads[..sweep.consumed]
        .iter()
        .filter(|r| !r.rotation.is_zero())
        .count()
}

#[test]
fn a_two_chunk_log_recovers_without_a_single_avoidable_rotation() {
    let (report, sweep) = recover_after_power_cut(270);
    assert_eq!(sweep.consumed, 2);
    assert_eq!(rotations_paid(&sweep), 0, "{:?}", sweep.reads);
    assert!(
        report.duration <= SimDuration::from_millis(12),
        "recovery took {:?}",
        report.duration
    );
}

#[test]
fn a_600_kb_log_recovers_in_one_rotation_plus_its_transfer_time() {
    let (report, sweep) = recover_after_power_cut(420);
    assert!(
        report.log_end.0 >= 600_000,
        "the trial must leave ≥ 600 KB of un-checkpointed log, got {}",
        report.log_end.0
    );
    // The drive model absorbs the controller overhead of two back-to-back
    // continuations; the third drifts out of its window and pays once.
    assert!(rotations_paid(&sweep) <= 1, "{:?}", sweep.reads);
    let bound = sweep.time_bound(ROTATION);
    assert!(
        report.duration <= bound,
        "recovery took {:?}, bound {bound:?} (superblock {:?} + one rotation + 1.5 × {:?})",
        report.duration,
        sweep.superblock,
        sweep.transfer(),
    );
}

/// The same log after a *guest crash*: the instance lives on, and the drain
/// still holds acknowledged bytes when the rebooted guest starts reading.
/// Nobody is waiting for those writes, so they stand aside: the one already
/// on the media finishes, then the superblock and both chunks go through as
/// one sweep with no drain write between them, and recovery costs what it
/// costs with an idle drain.
#[test]
fn after_a_guest_crash_the_drain_stands_aside_for_the_recovery_sweep() {
    let (_, idle) = recover_after_power_cut(270);
    let (report, sweep) = recover_after(FaultKind::GuestCrash, 270);
    assert_eq!(sweep.consumed, 2);
    assert_eq!(
        sweep.interleaved_writes, 0,
        "a drain write cut into the sweep: superblock {:?}, reads {:?}",
        sweep.superblock, sweep.reads
    );
    assert_eq!(rotations_paid(&sweep), 0, "{:?}", sweep.reads);
    let bound = idle.time_bound(ROTATION) + sweep.inflight_write;
    assert!(
        report.duration <= bound,
        "recovery took {:?}, bound {bound:?} (the idle-drain budget + {:?} of in-flight write)",
        report.duration,
        sweep.inflight_write,
    );
}
