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
use rapilog_suite::faultsim::{
    run_trial_traced, ExplorerConfig, FaultKind, MachineConfig, RecoverySweep,
};
use rapilog_suite::prelude::*;
use rapilog_suite::simcore::SchedulerKind;

const ROTATION: SimDuration = SimDuration::from_nanos(60_000_000_000 / 7200);
const CHUNK_SECTORS: u64 = (CHUNK / SECTOR_SIZE) as u64;

/// Runs one stock single-tenant trial (the benchmark's `crash_recover`
/// cell, minus the background transient-fault lottery so the read pattern
/// is the scan's alone) on the machine `tweak` leaves, and returns what the
/// engine reported and what the log disk did meanwhile.
fn trial_on(
    fault: FaultKind,
    fault_ms: u64,
    tweak: impl FnOnce(&mut MachineConfig),
) -> (RecoveryReport, RecoverySweep) {
    let seed = 0x1234 + fault_ms;
    let mut cfg = ExplorerConfig::rapilog_default();
    cfg.log_fault = None;
    let mut trial = cfg.trial(seed, fault, SimDuration::from_millis(fault_ms));
    tweak(&mut trial.machine);
    let (result, _, trace) = run_trial_traced(seed, trial, SchedulerKind::TimerWheel);
    assert!(result.ok, "violations: {:?}", result.violations);
    let sweep = RecoverySweep::from_trace(&trace).expect("the recover span is in the ring");
    (result.recovery, sweep)
}

/// That trial with a buffer of `capacity`.
fn trial(
    fault: FaultKind,
    fault_ms: u64,
    capacity: CapacitySpec,
) -> (RecoveryReport, RecoverySweep) {
    trial_on(fault, fault_ms, |machine| {
        machine.rapilog.capacity = capacity
    })
}

/// What holds for a log of any length that has to come from the disk: the
/// log disk serves whole chunks and nothing else — no superblock (it comes
/// with the catalog page, from the data device), no short read for a tail
/// sector, no header probe — in one sequential sweep, except
/// that the sweep's last read may stop short, where what a surviving
/// instance answers for itself begins: the log's kept tail, then the
/// trimmed space behind it. The scan consumes exactly the chunks the log
/// covers, and at most `queue_depth` read-ahead is left in flight.
fn read_from_the_disk(report: &RecoveryReport, sweep: &RecoverySweep) {
    assert!(
        sweep.reads.iter().all(|r| r.sector >= 1),
        "the log disk served a superblock: {:?}",
        sweep.reads
    );
    assert!(!sweep.positioning.is_zero());
    let (last, whole) = sweep.reads.split_last().expect("a sweep");
    for r in whole {
        assert_eq!(r.sectors, CHUNK_SECTORS, "not a chunk read: {r:?}");
    }
    assert!(
        last.sectors == CHUNK_SECTORS || last.sector % CHUNK_SECTORS == 1,
        "neither a chunk nor the front of one: {last:?}"
    );
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

/// Rotations the scan's consumed continuations paid. The first read is
/// positioned; its rotation is part of `positioning`.
fn rotations_paid(sweep: &RecoverySweep) -> usize {
    sweep.reads[1..sweep.consumed]
        .iter()
        .filter(|r| !r.rotation.is_zero())
        .count()
}

#[test]
fn a_two_chunk_log_recovers_without_a_single_avoidable_rotation() {
    let (report, sweep) = recover_after_power_cut(520);
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
    let (report, sweep) = recover_after_power_cut(1200);
    assert!(
        report.log_end.0 >= 600_000,
        "the trial must leave ≥ 600 KB of un-checkpointed log, got {}",
        report.log_end.0
    );
    // The drive model absorbs the controller overhead of two back-to-back
    // continuations, and the three chunks the log covers are the first
    // read and two continuations: they stream.
    assert_eq!(sweep.consumed, 3);
    assert_eq!(rotations_paid(&sweep), 0, "{:?}", sweep.reads);
    let bound = sweep.time_bound(ROTATION);
    assert!(
        report.duration <= bound,
        "recovery took {:?}, bound {bound:?} (positioning {:?} + one rotation + 1.5 × {:?})",
        report.duration,
        sweep.positioning,
        sweep.transfer(),
    );
}

/// The same log after a *guest crash*: the instance lives on, and it still
/// holds what it landed for this guest. The log comes back from its memory,
/// and so does everything between the log's tail and the end of
/// the chunk the tail sits in, and the read-ahead chunk behind that — the
/// engine trimmed the region before it wrote a byte of log, so the instance
/// answers for those sectors without looking. The log disk is not asked at
/// all, so the drain, still landing acknowledged bytes, keeps it to itself.
#[test]
fn after_a_guest_crash_the_log_disk_is_not_asked_at_all() {
    let (report, sweep) = trial(FaultKind::GuestCrash, 270, CapacitySpec::FromSupply);
    assert!(sweep.reads.is_empty(), "{:?}", sweep.reads);
    assert!(sweep.positioning.is_zero());
    assert!(
        sweep.from_memory > report.log_end.0,
        "{} bytes from memory, log of {}",
        sweep.from_memory,
        report.log_end.0
    );
    assert!(
        report.duration <= SimDuration::from_millis(1),
        "recovery took {:?}",
        report.duration
    );
}

/// The kept room is the buffer's idle room, `capacity − occupancy`: 18 MB
/// on the stock `atx_psu` + `hdd_7200` machine. More than 1 MiB of log
/// comes back after a guest crash with no read of the log disk at all.
#[test]
fn a_log_of_more_than_a_mebibyte_recovers_from_memory_after_a_guest_crash() {
    let (report, sweep) = trial(FaultKind::GuestCrash, 2100, CapacitySpec::FromSupply);
    assert!(
        report.log_end.0 > 1 << 20,
        "the trial must leave more than 1 MiB of log, got {}",
        report.log_end.0
    );
    assert!(sweep.reads.is_empty(), "{:?}", sweep.reads);
    assert!(sweep.positioning.is_zero());
    assert!(sweep.from_memory > report.log_end.0);
    assert!(
        report.duration <= SimDuration::from_millis(1),
        "recovery took {:?}",
        report.duration
    );
}

/// A log longer than the instance can keep — here because the buffer, and
/// with it the kept room, is 160 KiB against 441 KB of log at 820 ms; the
/// trial up to the crash is the stock one, event for event — costs what
/// recovery cost before anything was kept, less what it no longer reads.
/// The instance holds the log's last 100 KiB or so, all inside the second
/// chunk, and answers for the trimmed space behind the tail: the disk
/// serves the first chunk and the front of the second, up to where the
/// kept tail begins, in one sweep. Nothing holds the drain back, and on
/// this trajectory it has no write to begin between those reads.
#[test]
fn a_log_longer_than_the_kept_set_is_read_from_the_disk_as_before() {
    let (report, sweep) = trial(FaultKind::GuestCrash, 820, CapacitySpec::Fixed(160 << 10));
    read_from_the_disk(&report, &sweep);
    assert_eq!(sweep.consumed, 2);
    assert_eq!(sweep.interleaved_writes, 0, "{:?}", sweep.reads);
    assert_eq!(rotations_paid(&sweep), 0, "{:?}", sweep.reads);
    // What this scan cannot be spared: the drain write already on the
    // media when the guest died (how much of it is left is the crash
    // instant's phase against the drain — 8.1 ms of a rotation-long write
    // here, and it moves with anything that moves the trajectory), one
    // positioning for the first chunk, which a rotation bounds, and the
    // transfer with half again for command overheads. The mechanism is the
    // three assertions above; this one says nothing else crept in.
    let bound = sweep.inflight_write + ROTATION + sweep.transfer().mul_f64(1.5);
    assert!(
        report.duration <= bound,
        "recovery took {:?}, bound {bound:?} (in-flight write {:?} + one rotation + 1.5 × {:?})",
        report.duration,
        sweep.inflight_write,
        sweep.transfer(),
    );
}

/// The control for the two tests above: trims are the instance's memory,
/// not the disk's state, so the instance rebuilt after a power cut knows
/// none and reads the media exactly as the commit before `IoReq::Trim` did
/// — this list, sector for sector and rotation for rotation, read-ahead past
/// the torn tail included, and not a byte from memory.
#[test]
fn a_rebuilt_instance_knows_no_trims() {
    let (report, sweep) = recover_after_power_cut(1200);
    assert_eq!(sweep.from_memory, 0);
    // Every chunk the log covers and one of read-ahead, whole, in order;
    // the first chunk is positioned, the drive model absorbs the controller
    // overhead of two back-to-back continuations, and every third
    // continuation pays a rotation.
    let chunks = report.log_end.0.div_ceil(CHUNK as u64);
    assert!(chunks >= 3, "a log of {} bytes", report.log_end.0);
    let expected: Vec<(u64, u64, bool)> = (0..=chunks)
        .map(|i| (1 + i * CHUNK_SECTORS, CHUNK_SECTORS, i % 3 != 0))
        .collect();
    let reads: Vec<(u64, u64, bool)> = sweep
        .reads
        .iter()
        .map(|r| (r.sector, r.sectors, r.rotation.is_zero()))
        .collect();
    assert_eq!(reads, expected);
}

/// The invariant the engine keeps — every whole sector of the log region
/// outside `[recovery_start, end]` is trimmed — where it is hardest to
/// keep: a 384 KiB log device the log has wrapped once by the crash at
/// 720 ms, cut back by a checkpoint every 100 ms, each trimming what its
/// horizon left behind (split at the wrap) while new log punches its way
/// into space trimmed a lap ago. A trim over live log, or one that outlives a rewrite,
/// would read acknowledged commits back as zeros and fail the trial's
/// audit; a sector the instance cannot answer for would send the scan to
/// the disk.
#[test]
fn a_wrapped_and_twice_truncated_log_recovers_without_the_log_disk() {
    let log_device = 384 << 10;
    let (report, sweep) = trial_on(FaultKind::GuestCrash, 720, |machine| {
        machine.log_spec = specs::hdd_7200(log_device);
        machine.db.checkpoint_interval = SimDuration::from_millis(100);
    });
    assert!(report.log_end.0 > log_device, "{:?}", report.log_end);
    assert!(sweep.reads.is_empty(), "{:?}", sweep.reads);
    // One circle of the region (the scan cannot know where the log ends):
    // the whole device but sector 0, which lies outside it.
    assert_eq!(sweep.from_memory, log_device - SECTOR_SIZE as u64);
}
