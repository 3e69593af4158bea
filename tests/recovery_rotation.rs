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
/// is the scan's alone) with a buffer of `capacity`, and returns what the
/// engine reported and what the log disk did meanwhile.
fn trial(
    fault: FaultKind,
    fault_ms: u64,
    capacity: CapacitySpec,
) -> (RecoveryReport, RecoverySweep) {
    let seed = 0x1234 + fault_ms;
    let mut cfg = ExplorerConfig::rapilog_default();
    cfg.log_fault = None;
    let mut trial = cfg.trial(seed, fault, SimDuration::from_millis(fault_ms));
    trial.machine.rapilog.capacity = capacity;
    let (result, _, trace) = run_trial_traced(seed, trial, SchedulerKind::TimerWheel);
    assert!(result.ok, "violations: {:?}", result.violations);
    let sweep = RecoverySweep::from_trace(&trace).expect("the recover span is in the ring");
    (result.recovery, sweep)
}

/// What holds for a log of any length that has to come from the disk:
/// after the superblock the log disk serves whole chunks only — no short
/// read for a tail sector, no header probe — in one sequential sweep, the
/// scan consumes exactly the chunks the log covers, and at most
/// `queue_depth` read-ahead is left in flight.
fn read_from_the_disk(report: &RecoveryReport, sweep: &RecoverySweep) {
    assert!(!sweep.superblock.is_zero(), "the superblock too");
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
}

fn recover_after(fault: FaultKind, fault_ms: u64) -> (RecoveryReport, RecoverySweep) {
    let (report, sweep) = trial(fault, fault_ms, CapacitySpec::FromSupply);
    read_from_the_disk(&report, &sweep);
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

/// The same log after a *guest crash*: the instance lives on, and it still
/// holds what it landed for this guest. Superblock and log come back from
/// its memory; the disk is asked once, for the sectors between the log's
/// tail and the end of the chunk the tail sits in — which the scan cannot
/// know to leave out — and the drain, still holding acknowledged bytes
/// nobody is waiting for, stands aside for that one read.
#[test]
fn after_a_guest_crash_the_drain_stands_aside_for_the_recovery_sweep() {
    let (report, sweep) = trial(FaultKind::GuestCrash, 270, CapacitySpec::FromSupply);
    assert!(
        sweep.superblock.is_zero(),
        "the log disk served the superblock"
    );
    assert!(sweep.consumed <= 1, "{:?}", sweep.reads);
    // Sector 0 is the superblock's; the log starts in sector 1.
    let tail_sector = 1 + report.log_end.0 / SECTOR_SIZE as u64;
    for r in &sweep.reads[..sweep.consumed] {
        assert!(r.sectors < CHUNK_SECTORS, "a whole chunk: {r:?}");
        assert!(r.sector > tail_sector, "log the instance had landed: {r:?}");
    }
    assert!(
        sweep.from_memory > report.log_end.0,
        "{} bytes from memory, log of {}",
        sweep.from_memory,
        report.log_end.0
    );
    assert_eq!(
        sweep.interleaved_writes, 0,
        "a drain write cut into the sweep: {:?}",
        sweep.reads
    );
    let bound = sweep.inflight_write + sweep.time_bound(ROTATION);
    assert!(
        report.duration <= bound,
        "recovery took {:?}, bound {bound:?} ({:?} of in-flight write + one rotation + 1.5 × {:?})",
        report.duration,
        sweep.inflight_write,
        sweep.transfer(),
    );
}

/// A log longer than the instance can keep — here because the buffer, and
/// with it the kept set, is 160 KiB against 442 KiB of log; the trial up to
/// the crash is the stock one, event for event — costs what recovery cost
/// before anything was kept. The instance holds the log's last 150 KiB or
/// so, all inside the second chunk, which saves no read: one read spans
/// from the first to the last sector not held, so the disk serves the
/// superblock and whole chunks in one sweep, with the drain standing aside.
#[test]
fn a_log_longer_than_the_kept_set_is_read_from_the_disk_as_before() {
    let (report, sweep) = trial(FaultKind::GuestCrash, 270, CapacitySpec::Fixed(160 << 10));
    read_from_the_disk(&report, &sweep);
    assert_eq!(sweep.consumed, 2);
    assert_eq!(sweep.interleaved_writes, 0, "{:?}", sweep.reads);
    assert_eq!(rotations_paid(&sweep), 0, "{:?}", sweep.reads);
    // This trial at the commit before landed sectors were kept: 9.288 ms.
    let before = SimDuration::from_micros(9_289);
    assert!(
        report.duration <= before,
        "recovery took {:?}, {before:?} before",
        report.duration
    );
}
