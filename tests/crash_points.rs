//! End-to-end crash-point exploration, including the counterexample
//! replay workflow.
//!
//! The explorer's promise is twofold: a clean sweep over the crash-point
//! grid for the real drain, and — just as important — a *replayable*
//! counterexample when the drain is deliberately broken. These tests
//! exercise the full loop a developer would follow: sweep, read the
//! replay line, re-run the single trial from its coordinates, and watch
//! the identical violations reappear.

use rapilog_suite::faultsim::{explore, run_trial, ExplorerConfig, FaultKind};
use rapilog_suite::prelude::*;
use rapilog_suite::rapilog::AuditReport;
use rapilog_suite::simdisk::DiskSpec;

#[test]
fn crash_point_grid_is_clean_for_the_resilient_drain() {
    let mut cfg = ExplorerConfig::rapilog_default();
    // A compact grid (integration-test budget); `figures crashpoint_sweep`
    // runs the full one.
    cfg.seeds = vec![0xC0FFEE, 0xC0FFEE + 101];
    cfg.fault_times_ms = vec![100, 300];
    let found = explore(&cfg, 1);
    assert_eq!(found.trials, 2 * 2 * 5);
    assert!(
        found.clean(),
        "lost acked commits: {:?}",
        found
            .counterexamples
            .iter()
            .map(|c| c.replay_line())
            .collect::<Vec<_>>()
    );
    assert!(found.report.total_acked > 0, "the workload actually ran");
}

#[test]
fn counterexample_replays_from_its_coordinates() {
    // A drain with retries disabled loses acked commits under a disk-error
    // burst; the explorer must find that and hand back coordinates that
    // reproduce the exact failure.
    let mut cfg = ExplorerConfig::broken_drain();
    cfg.seeds = vec![0x0BAD];
    cfg.fault_times_ms = vec![200];
    let found = explore(&cfg, 1);
    assert!(
        !found.clean(),
        "the planted bug (retry disabled) must be caught"
    );
    let ce = &found.counterexamples[0];
    assert!(matches!(ce.point.kind, FaultKind::DiskErrorBurst { .. }));
    assert_eq!(ce.point.fault_after, SimDuration::from_millis(200));
    assert!(
        ce.violations.iter().any(|v| v.contains("durability")),
        "violations name the lost commits: {:?}",
        ce.violations
    );
    assert!(
        ce.replay_line().contains("seed=2989"),
        "replay line carries the seed: {}",
        ce.replay_line()
    );

    // First replay: identical trial, identical verdict.
    let replay = ce.replay(&cfg);
    assert!(!replay.ok);
    assert_eq!(replay.violations, ce.violations, "replay must be exact");

    // Second replay: determinism is not single-shot.
    let again = ce.replay(&cfg);
    assert_eq!(again.violations, ce.violations);
}

#[test]
fn fixing_the_drain_fixes_the_counterexample() {
    // The counterexample workflow ends with a fix: the same coordinates
    // under the *default* (resilient) policy must pass.
    let broken = {
        let mut cfg = ExplorerConfig::broken_drain();
        cfg.seeds = vec![0x0BAD];
        cfg.fault_times_ms = vec![200];
        cfg
    };
    let found = explore(&broken, 1);
    let ce = &found.counterexamples[0];

    let mut fixed = broken.clone();
    fixed.retry = rapilog_suite::rapilog::RetryPolicy::default();
    let r = ce.replay(&fixed);
    assert!(
        r.ok,
        "resilient drain survives the exact crash point that broke the \
         crippled one: {:?}",
        r.violations
    );
}

/// Open finding 1 (`benchmark/README.md`, ROADMAP's first item): four
/// tenants on one instance lose acknowledged writes to a power cut late in
/// the load. These are counterexamples of today's drain, replayed from
/// their coordinates: red cells of fresh-seed campaigns
/// (`ExplorerConfig::multi_tenant()`, seeds from `0xC0FFEE` by
/// `0x9E3779B97F4A7C15`, power cut and 100 ms flicker), one for each form
/// the loss takes (a tenant slot behind its ack, a client's acknowledged
/// commit, a missed emergency deadline) and one at each instant the
/// crash-point sweep's multi-tenant grids sample late in the load. They
/// assert what the fix has to make true, so they are red, and ignored
/// until it lands: `cargo test --test crash_points -- --ignored` is where
/// that fix starts.
///
/// Which seeds are red is a property of the trajectory, not of the defect:
/// a change that shifts install or drain timing turns some replays green
/// while the campaign's failure rate stays where it was, and they are then
/// re-pointed at red cells of a fresh campaign, keeping kind and instant
/// (`scripts/known_red.list` names the ones that are red). A replay going
/// green is evidence of a fix only if the campaign agrees. The compact WAL
/// encoding was such a shift: it turned all five green, with the campaign
/// at 330, 370 and 420 ms still reading 22 of 1 200 failed (54 before).
/// The six-byte frame header was another: it turned all five green again,
/// and the campaign read 6 of 1 200, all at 420 ms. The delta-encoded
/// update was a third: it turned the two replays at seed 20 green, and the
/// campaign read 2 of 1 200, both at 420 ms.
///
/// `form` starts the violation the replay's name claims. A replay red in
/// another form fails with "red without its form", which
/// `scripts/known_red.sh` refuses: its name would claim a loss the replay
/// no longer shows.
fn open_finding_1(seed: u64, kind: FaultKind, form: &str) {
    open_finding_1_at(seed, kind, 420, form);
}

fn open_finding_1_at(seed: u64, kind: FaultKind, ms: u64, form: &str) {
    let cfg = ExplorerConfig::multi_tenant();
    let r = run_trial(seed, cfg.trial(seed, kind, SimDuration::from_millis(ms)));
    let shown = r.violations.iter().filter(|v| v.starts_with(form)).count();
    assert!(
        r.ok || shown > 0,
        "red without its form: none of {} violations starts {form:?}, first: {:?}",
        r.violations.len(),
        r.violations.first()
    );
    assert!(
        r.ok,
        "{} violations, {shown} starting {form:?}, first: {:?}",
        r.violations.len(),
        r.violations.first()
    );
}

/// Today: 26 violations, all tenant slots but the guarantee, first "tenant
/// 1: slot 3 media seq 1348 outside acked..attempted [1412, 1412]". The
/// first red power-cut cell at 420 ms of the 200-seed campaign (seed 143
/// of it, its one red power cut), taken when the delta-encoded update
/// turned the seed pinned before, `0x5c55_827d_f292_b192`, green.
#[test]
#[ignore = "open finding 1"]
fn open_finding_1_power_cut_leaves_a_tenant_slot_behind_its_ack() {
    open_finding_1(0x60fc_fe9e_1b5c_4fa9, FaultKind::PowerCut, "tenant");
}

/// Today: 42 violations, 3 of them clients, first "client 0: durability
/// violated: acked 1130 but recovered 1071". No red power-cut cell of the
/// 200-seed campaign loses a client's commit any more, so this is the first
/// that does in the same campaign run to 1 000 seeds (seed 294; 14 of 1 000
/// failed at 420 ms), taken when the six-byte frame header turned the seed
/// pinned before, `0xd533_6963_efbc_a1e6`, green.
#[test]
#[ignore = "open finding 1"]
fn open_finding_1_power_cut_loses_acknowledged_commits() {
    open_finding_1(0xb3b5_cb08_304b_800c, FaultKind::PowerCut, "client");
}

/// Today: 1 violation, "rapilog internal guarantee violated". The first red
/// flicker cell at 420 ms of the 200-seed campaign (seed 143), re-pointed
/// with the tenant-slot replay above.
#[test]
#[ignore = "open finding 1"]
fn open_finding_1_power_flicker_misses_the_emergency_deadline() {
    let flicker = SimDuration::from_millis(100);
    open_finding_1(
        0x60fc_fe9e_1b5c_4fa9,
        FaultKind::PowerFlicker { flicker },
        "rapilog internal guarantee violated",
    );
}

/// A power cut at 330 ms, the late instant of the crash-point sweep's
/// QUICK multi-tenant grid. This replay tracked the grid's own cell
/// (`0x7E2A`, 330 ms) until the compact WAL encoding turned it, and the
/// whole grid, green. When the six-byte frame header turned the seed
/// pinned then, `0xaf8c_18bc_e24c_d112`, green, the first 1 000 seeds of
/// the campaign read 0 failed at this instant; this is the first red
/// power-cut cell of the campaign run to 2 500 seeds (seed 1 109; 3 of
/// 2 500 failed).
/// Today: 6 violations, first "tenant 3: slot 14 media seq 1039 outside
/// acked..attempted [1103, 1103]".
#[test]
#[ignore = "open finding 1"]
fn open_finding_1_power_cut_at_330_ms() {
    open_finding_1_at(0x6652_5094_6e6c_86e7, FaultKind::PowerCut, 330, "tenant");
}

/// A power cut at 360 ms, the late instant of the sweep's full
/// multi-tenant grid, whose cell (`0x7F4D`, 360 ms) this replay tracked
/// until the compact WAL encoding turned it green. When the six-byte frame
/// header turned the seed pinned then, `0xed92_1b80_ad16_319c`, green, the
/// first 1 000 seeds of the campaign read 0 failed at this instant; this is
/// the first red power-cut cell of the campaign run to 2 500 seeds (seed
/// 1 097; 6 of 2 500 failed).
/// Today: 21 violations, first "tenant 3: slot 24 media seq 1113 outside
/// acked..attempted [1177, 1177]".
#[test]
#[ignore = "open finding 1"]
fn open_finding_1_power_cut_at_360_ms() {
    open_finding_1_at(0xfbb8_9be2_76ee_b5eb, FaultKind::PowerCut, 360, "tenant");
}

/// One guest task on a single-tenant instance — `disk`, `atx_psu`, buffer
/// `capacity` — writing `sectors` sectors with FUA every 22 µs at the
/// sector `place(i)` names, until the mains go at `cut_ms`. Returns the
/// audit once the episode has run its course.
fn one_writer_until_the_mains_go(
    disk: fn(u64) -> DiskSpec,
    capacity: CapacitySpec,
    cut_ms: u64,
    sectors: usize,
    place: fn(u64) -> u64,
) -> AuditReport {
    let mut sim = Sim::new(0xF1);
    let ctx = sim.ctx();
    let hv = Hypervisor::new(&ctx);
    let cell = hv.create_cell("rapilog", Trust::Trusted);
    let disk = Disk::new(&ctx, disk(1 << 30));
    let psu = PowerSupply::new(&ctx, supplies::atx_psu());
    let rl = RapiLog::builder(&ctx)
        .cell(&cell)
        .disk(disk.clone())
        .supply(&psu)
        .capacity(capacity)
        .build();
    psu.on_death(move || disk.power_cut());
    let dev = rl.device();
    let c2 = ctx.clone();
    sim.spawn(async move {
        for i in 0.. {
            let data = vec![i as u8; sectors * SECTOR_SIZE];
            if dev.write(place(i), &data, true).await.is_err() {
                break; // frozen: the warning has fired
            }
            c2.sleep(SimDuration::from_micros(22)).await;
        }
    });
    let p2 = psu.clone();
    sim.spawn(async move {
        ctx.sleep(SimDuration::from_millis(cut_ms)).await;
        p2.cut_mains();
    });
    sim.run_until(SimTime::from_secs(2));
    std::mem::forget(cell);
    rl.audit_report()
}

/// Asserts that the episode's emergency drain met its deadline and lost
/// no acknowledged byte.
fn drained_in_time(audit: &AuditReport, at: &str) {
    let emergency = &audit.emergencies[0];
    assert!(emergency.met(), "{at}: {emergency:?}");
    assert!(audit.guarantee_held(), "{at}");
    assert_eq!(audit.bytes_lost_at_failure, 0, "{at}");
}

/// Open finding 1's single-tenant form, for a guest that scatters its
/// writes — `sector = i × 7919 mod 2 000 000` — closed: each sector costs
/// the drain a positioning (a seek and a rotation on a disk, a write
/// command on flash), and the buffer admits only while those positionings,
/// one more for the operation in flight at the warning, and the bytes'
/// transfer fit the supply's window, whatever the capacity says. While
/// the budget was counted in bytes this writer held 2 561 024 B on
/// `hdd_7200` at a 120 ms cut and lost 2 534 912 B (1 302 016 B and
/// 1 276 416 B at 60 ms); a 64 MiB `Fixed` buffer, then not checked
/// against the supply at all, lost as much. Now, at either cut and under
/// either capacity, it holds nine sectors, 4 608 B, on `hdd_7200` at the
/// warning and drains them in about 32 ms of the 198 ms window; on
/// `ssd_sata`, at 70 µs a sector, it holds 1 267 200 B at the 120 ms cut
/// and drains them in 178 ms. The same writer appending sequentially is
/// the control beside it.
#[test]
fn one_tenant_scattering_its_writes_drains_inside_the_power_budget() {
    for disk in [specs::hdd_7200, specs::ssd_sata] {
        for capacity in [CapacitySpec::FromSupply, CapacitySpec::Fixed(64 << 20)] {
            for cut_ms in [120, 60] {
                let audit = one_writer_until_the_mains_go(disk, capacity, cut_ms, 1, |i| {
                    i * 7919 % 2_000_000
                });
                let at = format!("{}, {capacity:?}, mains cut at {cut_ms} ms", disk(0).name);
                drained_in_time(&audit, &at);
            }
        }
    }
}

/// The sequential control, and beside it the swapped-pairs writer on
/// `ssd_sata`, the one placement of open finding 1's census that already
/// drains in time (by about 187 ms, against a 320 ms deadline).
#[test]
fn one_tenant_appending_drains_inside_the_power_budget() {
    for capacity in [CapacitySpec::FromSupply, CapacitySpec::Fixed(64 << 20)] {
        for cut_ms in [120, 60] {
            let audit = one_writer_until_the_mains_go(specs::hdd_7200, capacity, cut_ms, 1, |i| i);
            drained_in_time(&audit, &format!("{capacity:?}, mains cut at {cut_ms} ms"));
        }
    }
    let audit = one_writer_until_the_mains_go(
        specs::ssd_sata,
        CapacitySpec::FromSupply,
        120,
        1,
        swapped_pairs,
    );
    drained_in_time(&audit, "ssd_sata, swapped pairs");
}

/// Write `i` of a writer that descends through one region.
fn descending(i: u64) -> u64 {
    1_000_000 - i
}

/// Write `i` of a nearly sequential writer: each second write lands one
/// sector below the one before it.
fn swapped_pairs(i: u64) -> u64 {
    (i ^ 1) + 10
}

/// Open finding 1's placement form (ROADMAP measurement t1): the region
/// count charges one positioning per stretch of contiguous dirty sectors,
/// but the drain writes in sequence order and `consolidate` only extends a
/// run with an extent that starts at its end, so a writer placing each FUA
/// sector just below the last one fills a one-region budget with runs of a
/// sector or two. One writer, `FromSupply`, mains cut at 120 ms. Each
/// replay asserts what the fix has to deliver, the deadline met and 0 B
/// lost, and is red until it lands; one that fails without losing bytes is
/// "red without its form".
fn open_finding_1_placement(disk: fn(u64) -> DiskSpec, place: fn(u64) -> u64) {
    let audit = one_writer_until_the_mains_go(disk, CapacitySpec::FromSupply, 120, 1, place);
    let (lost, emergency) = (audit.bytes_lost_at_failure, &audit.emergencies[0]);
    assert!(
        lost > 0 || (emergency.met() && audit.guarantee_held()),
        "red without its form: 0 B lost, {emergency:?}"
    );
    assert!(emergency.met() && lost == 0, "{lost} B lost, {emergency:?}");
}

/// Today: 2 556 416 B lost.
#[test]
#[ignore = "open finding 1"]
fn open_finding_1_descending_writer_loses_acked_bytes_on_hdd_7200() {
    open_finding_1_placement(specs::hdd_7200, descending);
}

/// Today: 2 534 912 B lost.
#[test]
#[ignore = "open finding 1"]
fn open_finding_1_descending_writer_loses_acked_bytes_on_hdd_15k() {
    open_finding_1_placement(specs::hdd_15k, descending);
}

/// Today: 299 008 B lost.
#[test]
#[ignore = "open finding 1"]
fn open_finding_1_descending_writer_loses_acked_bytes_on_ssd_sata() {
    open_finding_1_placement(specs::ssd_sata, descending);
}

/// Today: 2 468 864 B lost.
#[test]
#[ignore = "open finding 1"]
fn open_finding_1_swapped_pairs_lose_acked_bytes_on_hdd_7200() {
    open_finding_1_placement(specs::hdd_7200, swapped_pairs);
}

/// Today: 2 353 152 B lost.
#[test]
#[ignore = "open finding 1"]
fn open_finding_1_swapped_pairs_lose_acked_bytes_on_hdd_15k() {
    open_finding_1_placement(specs::hdd_15k, swapped_pairs);
}

/// A writer that keeps a `FromSupply` buffer full with sequential 64 KiB
/// writes until the mains go at 300 ms: the drain of everything the one
/// region may hold — its transfer, track skew included on a disk — meets
/// the deadline on each disk.
#[test]
fn a_full_buffer_drains_inside_the_power_budget_on_every_disk() {
    for disk in [specs::hdd_7200, specs::hdd_15k, specs::ssd_sata] {
        let audit =
            one_writer_until_the_mains_go(disk, CapacitySpec::FromSupply, 300, 128, |i| i * 128);
        drained_in_time(&audit, disk(0).name.as_str());
        let held = audit.emergencies[0].occupancy_at_warning;
        assert!(held > 10 << 20, "{}: {held} B held, not full", disk(0).name);
    }
}
