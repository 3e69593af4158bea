//! Trace determinism: two runs of the same seeded scenario must produce
//! byte-identical structured traces.
//!
//! This is the property the whole observability layer rests on — a trace
//! that differs run to run cannot be diffed, bisected, or attached to a
//! bug report. Because the executor is single-threaded with deterministic
//! tie-breaking and all randomness flows from the master seed, both the
//! JSON-lines and the Chrome exports must match exactly, not just
//! statistically.

use std::cell::RefCell;
use std::rc::Rc;

use rapilog_simnet::{Link, LinkSpec};
use rapilog_suite::prelude::*;
use rapilog_suite::simcore::trace::Phase;

/// Drives a small but layer-rich scenario: a RapiLog stack over an HDD
/// with a real power supply, a burst of writes, an emergency-drain power
/// episode, and returns both trace exports.
fn traced_run(seed: u64) -> (String, String) {
    let mut sim = Sim::new(seed);
    let ctx = sim.ctx();
    ctx.tracer().set_enabled(true);
    let c2 = ctx.clone();
    sim.spawn(async move {
        let hv = Hypervisor::new(&c2);
        let cell = hv.create_cell("rapilog", Trust::Trusted);
        let disk = Disk::new(&c2, specs::hdd_7200(1 << 30));
        let psu = PowerSupply::new(&c2, supplies::atx_psu());
        let rl = RapiLog::builder(&c2)
            .cell(&cell)
            .disk(disk.clone())
            .supply(&psu)
            .build();
        let dev = rl.device();
        for i in 0..32u64 {
            let data = vec![i as u8; 2 * SECTOR_SIZE];
            dev.write(i * 4, &data, true).await.unwrap();
            c2.sleep(SimDuration::from_micros(200)).await;
        }
        // A power episode exercises the warning, freeze and emergency
        // drain events.
        psu.cut_mains();
        std::mem::forget(cell);
    });
    sim.run_until(SimTime::from_secs(5));
    let snap = ctx.tracer().snapshot();
    assert!(snap.total > 0, "the scenario must have recorded events");
    (snap.to_jsonl(), snap.to_chrome())
}

#[test]
fn same_seed_runs_produce_byte_identical_traces() {
    let (jsonl_a, chrome_a) = traced_run(0x7ACE);
    let (jsonl_b, chrome_b) = traced_run(0x7ACE);
    assert_eq!(jsonl_a, jsonl_b, "JSON-lines export must be byte-identical");
    assert_eq!(chrome_a, chrome_b, "Chrome export must be byte-identical");
}

/// The drain never stands aside: it does not arbitrate the log disk, so no
/// run — the power episode above, or a guest that reads back what it just
/// wrote, served from the buffer's overlay — emits a `defer_to_reads`
/// event. The buffer's `read` event says where a guest read of the log
/// device was served: none without such a read, one per request with one,
/// naming the buffer for all of it here.
#[test]
fn a_run_with_no_backing_disk_read_never_stands_aside() {
    const READ: &str = "\"layer\":\"buffer\",\"name\":\"read\"";
    let (jsonl, _) = traced_run(0x7ACE);
    assert!(jsonl.contains("drain_batch") && !jsonl.contains("defer_to_reads"));
    assert!(jsonl.contains("\"name\":\"admit\"") && !jsonl.contains(READ));

    let mut sim = Sim::new(0x7ACE);
    let ctx = sim.ctx();
    ctx.tracer().set_enabled(true);
    let hv = Hypervisor::new(&ctx);
    let cell = hv.create_cell("rapilog", Trust::Trusted);
    let disk = Disk::new(&ctx, specs::hdd_7200(1 << 30));
    let rl = RapiLog::builder(&ctx)
        .cell(&cell)
        .disk(disk.clone())
        .build();
    let (dev, c2) = (rl.device(), ctx.clone());
    sim.spawn(async move {
        for i in 0..32u64 {
            let data = vec![i as u8; 2 * SECTOR_SIZE];
            dev.write(i * 4, &data, true).await.unwrap();
            let mut back = vec![0u8; 2 * SECTOR_SIZE];
            dev.read(i * 4, &mut back).await.unwrap();
            assert_eq!(back, data);
            c2.sleep(SimDuration::from_micros(200)).await;
        }
    });
    sim.run_until(SimTime::from_secs(5));
    std::mem::forget(cell);
    assert_eq!(disk.stats().reads, 0, "every read was an overlay hit");
    let snap = rl.snapshot();
    assert_eq!(snap.occupancy, 0);
    let reads = (snap.buffer.read_memory_bytes, snap.buffer.read_disk_bytes);
    assert_eq!(reads, (32 * 2 * SECTOR_SIZE as u64, 0));
    let jsonl = ctx.tracer().snapshot().to_jsonl();
    assert!(!jsonl.contains("defer_to_reads"));
    let served: Vec<&str> = jsonl.lines().filter(|l| l.contains(READ)).collect();
    assert_eq!(served.len(), 32, "one event per request");
    assert!(served
        .iter()
        .all(|l| l.contains("\"memory\":1024,\"disk\":0")));
}

#[test]
fn different_seeds_may_diverge_but_stay_well_formed() {
    // Different seeds: not required to differ (the scenario is mostly
    // deterministic), but every line must stay parseable JSON-ish.
    let (jsonl, chrome) = traced_run(0xBEEF);
    for line in jsonl.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "line: {line}");
        assert!(line.contains("\"t_ns\":"), "line: {line}");
    }
    assert!(chrome.starts_with('[') && chrome.trim_end().ends_with(']'));
}

#[test]
fn trial_attribution_is_deterministic() {
    use rapilog_suite::faultsim::{FaultKind, MachineConfig, Setup, TrialConfig};
    let cfg = || {
        let mut machine = MachineConfig::new(
            Setup::RapiLog,
            specs::instant(128 << 20),
            specs::hdd_7200(64 << 20),
        );
        machine.supply = Some(supplies::atx_psu());
        TrialConfig {
            machine,
            fault: FaultKind::GuestCrash,
            clients: 2,
            fault_after: SimDuration::from_millis(200),
            think_time: SimDuration::from_micros(300),
        }
    };
    let a = rapilog_suite::faultsim::run_trial(42, cfg());
    let b = rapilog_suite::faultsim::run_trial(42, cfg());
    assert!(a.ok, "violations: {:?}", a.violations);
    assert_eq!(a.total_acked, b.total_acked);
    assert_eq!(a.attribution, b.attribution, "attribution must be stable");
    assert!(
        !a.attribution.layers.is_empty(),
        "a traced trial must attribute busy time to some layer"
    );
}

#[test]
fn recovery_phase_spans_equal_the_recovery_report() {
    use rapilog_suite::faultsim::{run_trial_traced, ExplorerConfig, FaultKind};
    use rapilog_suite::simcore::SchedulerKind;
    // One crash point of the stock grid (it leaves a loser for undo).
    let trial = ExplorerConfig::rapilog_default().trial(
        0x5EED,
        FaultKind::GuestCrash,
        SimDuration::from_millis(260),
    );
    let (result, _, trace) = run_trial_traced(0x5EED, trial, SchedulerKind::TimerWheel);
    assert!(result.ok, "violations: {:?}", result.violations);
    let report = &result.recovery;
    let (outer_begin, outer_end) = trace
        .span(Layer::Fault, "recover")
        .expect("faultsim's recover span");
    let mut cursor = outer_begin;
    for (name, expected) in [
        ("recover_scan", report.scan_time),
        ("recover_redo", report.redo_time),
        ("recover_undo", report.undo_time),
        ("recover_finish", report.finish_time),
    ] {
        let (begin, end) = trace
            .span(Layer::Engine, name)
            .unwrap_or_else(|| panic!("no {name} span"));
        assert_eq!(
            begin, cursor,
            "{name} starts where the previous phase ended"
        );
        assert_eq!(end - begin, expected, "{name} duration");
        cursor = end;
    }
    assert_eq!(cursor, outer_end, "the phases tile the recover span");
    assert_eq!(outer_end - outer_begin, report.duration);
}

/// A synchronously replicated pair on fault-free LAN links: the primary
/// logs to `primary_disk`; the standby has an `ssd_sata` and applies either
/// straight into it — what every standby did before it could be a RapiLog —
/// or into a second RapiLog instance over it. Returns the primary.
fn sync_pair(ctx: &SimCtx, primary_disk: Disk, rapilog_standby: bool) -> RapiLog {
    let hv = Hypervisor::new(ctx);
    let pcell = hv.create_cell("primary", Trust::Trusted);
    let scell = hv.create_cell("standby", Trust::Trusted);
    let ship = Link::new(ctx, LinkSpec::lan("ship"));
    let acks = Link::new(ctx, LinkSpec::lan("acks"));
    let repl = Replicator::new(ctx, ReplicationMode::Sync, ship.clone(), acks.clone());
    let standby_disk = Disk::new(ctx, specs::ssd_sata(1 << 24));
    let device: Rc<dyn BlockDevice> = if rapilog_standby {
        let instance = RapiLog::builder(ctx)
            .cell(&scell)
            .disk(standby_disk)
            .build();
        Rc::new(instance.device())
    } else {
        Rc::new(standby_disk)
    };
    Standby::start(ctx, &scell, device, ship, acks);
    RapiLog::builder(ctx)
        .cell(&pcell)
        .disk(primary_disk)
        .replicate(&repl)
        .build()
}

/// One synchronous write through a pair whose primary is on the paper's
/// rotating log disk and whose standby applies straight into its SSD.
fn traced_sync_write(seed: u64) -> TraceSnapshot {
    let mut sim = Sim::new(seed);
    let ctx = sim.ctx();
    ctx.tracer().set_enabled(true);
    let c2 = ctx.clone();
    sim.spawn(async move {
        let rl = sync_pair(&c2, Disk::new(&c2, specs::hdd_7200(1 << 30)), false);
        rl.device()
            .write(64, &vec![0x5Cu8; 4 * SECTOR_SIZE], true)
            .await
            .unwrap();
        rl.quiesce().await;
    });
    sim.run_until(SimTime::from_secs(1));
    ctx.tracer().snapshot()
}

#[test]
fn sync_commit_decomposes_into_ship_apply_ack() {
    let trace = traced_sync_write(0x51C);
    let again = traced_sync_write(0x51C);
    assert_eq!(trace.to_jsonl(), again.to_jsonl(), "JSON-lines export");
    assert_eq!(trace.to_chrome(), again.to_chrome(), "Chrome export");
    let span = |name| {
        trace
            .span(Layer::Net, name)
            .unwrap_or_else(|| panic!("no {name} span"))
    };
    let (wait, ship, apply) = (span("repl_wait"), span("ship"), span("standby_apply"));
    // repl_wait ⊇ ship ⊇ standby_apply: the guest waits from the offer to
    // the covering ack; inside that, the frame crosses the link, is
    // applied, and the ack crosses back.
    assert!(wait.0 <= ship.0 && ship.1 <= wait.1, "{wait:?} ⊉ {ship:?}");
    assert!(
        ship.0 < apply.0 && apply.1 < ship.1,
        "a link crossing on each side of the apply: {ship:?} vs {apply:?}"
    );
    // The primary's own (rotating) media write is not inside the wait.
    let (_, media_done) = trace
        .span(Layer::Drain, "drain_batch")
        .expect("the drain ran");
    assert!(wait.1 < media_done, "the ack did not wait for the disk");
}

/// Mean simulated time of each stage of a synchronous replicated commit,
/// in microseconds, folded from the trace of [`COMMITS`] back-to-back
/// writes by one client.
#[derive(Debug)]
struct CommitStages {
    /// Client call → admitted to the primary's buffer (where the frame is
    /// offered and the wait for the standby begins).
    admit: f64,
    /// Offer → the standby starts applying: the ship link.
    ship_out: f64,
    /// The `standby_apply` span.
    apply: f64,
    /// Apply done → the covering ack is back at the primary: the ack link.
    ack_back: f64,
    /// What the client saw, call to return.
    commit: f64,
}

const COMMITS: usize = 400;

/// The failover pair's hardware (`ssd_sata` on both sides, LAN links),
/// with either kind of standby.
fn sync_commit_stages(rapilog_standby: bool) -> CommitStages {
    let mut sim = Sim::new(0x57A6);
    let ctx = sim.ctx();
    ctx.tracer().set_enabled(true);
    let commits = Rc::new(RefCell::new(Vec::new()));
    let (c2, log) = (ctx.clone(), Rc::clone(&commits));
    sim.spawn(async move {
        let primary_disk = Disk::new(&c2, specs::ssd_sata(1 << 24));
        let dev = sync_pair(&c2, primary_disk, rapilog_standby).device();
        for i in 0..COMMITS as u64 {
            let t0 = c2.now();
            dev.write(i, &vec![0x5Cu8; SECTOR_SIZE], true)
                .await
                .unwrap();
            log.borrow_mut().push((t0, c2.now()));
        }
    });
    sim.run_until(SimTime::from_secs(1));
    let trace = ctx.tracer().snapshot();
    assert_eq!(trace.dropped, 0, "the ring must hold the whole run");
    // One client, one write at a time: the i-th begin and end of each span
    // name belong to the i-th commit.
    let times = |name: &str, phase: Phase| -> Vec<SimTime> {
        trace
            .events
            .iter()
            .filter(|e| e.layer == Layer::Net && e.name == name && e.phase == phase)
            .map(|e| e.time)
            .collect()
    };
    let (wait_b, wait_e) = (
        times("repl_wait", Phase::Begin),
        times("repl_wait", Phase::End),
    );
    let (ship_b, ship_e) = (times("ship", Phase::Begin), times("ship", Phase::End));
    let (apply_b, apply_e) = (
        times("standby_apply", Phase::Begin),
        times("standby_apply", Phase::End),
    );
    let commits = commits.borrow();
    assert_eq!(commits.len(), COMMITS, "every write was acknowledged");
    let mut sums = [0u64; 5];
    for (i, &(t0, t1)) in commits.iter().enumerate() {
        // repl_wait ⊇ ship ⊇ standby_apply, for every commit.
        assert!(t0 <= wait_b[i] && wait_b[i] == ship_b[i], "commit {i}");
        assert!(
            ship_b[i] < apply_b[i] && apply_b[i] <= apply_e[i],
            "commit {i}"
        );
        assert!(
            apply_e[i] < ship_e[i] && ship_e[i] == wait_e[i],
            "commit {i}"
        );
        assert_eq!(wait_e[i], t1, "nothing after the standby's ack, commit {i}");
        let stages = [
            wait_b[i] - t0,
            apply_b[i] - ship_b[i],
            apply_e[i] - apply_b[i],
            ship_e[i] - apply_e[i],
            t1 - t0,
        ];
        for (sum, stage) in sums.iter_mut().zip(stages) {
            *sum += stage.as_nanos();
        }
    }
    let [admit, ship_out, apply, ack_back, commit] =
        sums.map(|ns| ns as f64 / 1e3 / COMMITS as f64);
    CommitStages {
        admit,
        ship_out,
        apply,
        ack_back,
        commit,
    }
}

/// The per-layer row of a replicated commit (`--nocapture` prints it): the
/// stages tile the commit exactly, and making the standby a RapiLog takes
/// the media write — and nothing else — out of it.
#[test]
fn sync_commit_stages_sum_to_the_commit_and_the_apply_is_an_admission() {
    let disk = sync_commit_stages(false);
    let rapilog = sync_commit_stages(true);
    for (standby, s) in [("Rc<Disk>", &disk), ("RapiLogDevice", &rapilog)] {
        println!(
            "standby {standby:<13} admit {:6.2} + ship-out {:6.2} + standby_apply {:6.2} + \
             ack-back {:6.2} = {:7.2} us; commit {:7.2} us",
            s.admit,
            s.ship_out,
            s.apply,
            s.ack_back,
            s.admit + s.ship_out + s.apply + s.ack_back,
            s.commit
        );
        let sum = s.admit + s.ship_out + s.apply + s.ack_back;
        assert!(
            (sum - s.commit).abs() < 0.001,
            "the stages tile the commit: {s:?}"
        );
    }
    // An ssd_sata media write (70 us + transfer) against one admission.
    assert!((71.0..74.0).contains(&disk.apply), "{disk:?}");
    assert!((2.0..3.0).contains(&rapilog.apply), "{rapilog:?}");
    // The saving end to end is the saving in that one stage.
    let saved = disk.commit - rapilog.commit;
    assert!(
        (saved - (disk.apply - rapilog.apply)).abs() < 1.0,
        "commit fell {saved:.2} us, standby_apply {:.2} us",
        disk.apply - rapilog.apply
    );
    // What is left is the two link crossings and the two admissions.
    assert!(rapilog.commit < 130.0, "{rapilog:?}");
    assert!(
        rapilog.commit / (rapilog.ship_out + rapilog.ack_back) < 1.1,
        "a disk is back on the replicated commit path: {rapilog:?}"
    );
}

/// Four writers appending 64 KiB extents to private regions through a
/// 2 MiB buffer on a 4-channel NVMe: blocked on space almost from the
/// start. Returns `snapshot().drain.run_bound_bytes` at idle (before the
/// first write), under back-pressure (when the first writer is done and the
/// others still push) and at the end, with the names of the drain's trace
/// instants.
fn run_bounds(policy: BatchPolicy) -> ([u64; 3], Vec<&'static str>) {
    let mut sim = Sim::new(0xB0B);
    let ctx = sim.ctx();
    ctx.tracer().set_capacity(1 << 18);
    ctx.tracer().set_enabled(true);
    let hv = Hypervisor::new(&ctx);
    let cell = hv.create_cell("rapilog", Trust::Trusted);
    let rl = RapiLog::builder(&ctx)
        .cell(&cell)
        .disk(Disk::new(&ctx, specs::ssd_nvme(1 << 30).with_channels(4)))
        .capacity(CapacitySpec::Fixed(2 << 20))
        .drain_config(
            DrainConfig::new()
                .ordering(OrderingMode::PartiallyConstrained)
                .batch_policy(policy),
        )
        .build();
    std::mem::forget(cell);
    let idle = rl.snapshot().drain.run_bound_bytes;
    let loaded = Rc::new(RefCell::new(None));
    for w in 0..4u64 {
        let (dev, rl, loaded) = (rl.device(), rl.clone(), Rc::clone(&loaded));
        sim.spawn(async move {
            for i in 0..200u64 {
                let data = vec![(i % 251 + 1) as u8; 64 << 10];
                dev.write((w << 18) + i * 128, &data, true).await.unwrap();
            }
            loaded
                .borrow_mut()
                .get_or_insert(rl.snapshot().drain.run_bound_bytes);
        });
    }
    sim.run_until(SimTime::from_secs(2));
    assert_eq!(rl.occupancy(), 0);
    assert!(rl.stats().backpressure_events > 100, "writers were blocked");
    let snap = ctx.tracer().snapshot();
    assert_eq!(snap.dropped, 0, "the ring must hold the whole run");
    let mut instants: Vec<&'static str> = snap
        .events
        .iter()
        .filter(|e| e.layer == Layer::Drain && e.phase == Phase::Instant)
        .map(|e| e.name)
        .collect();
    instants.sort_unstable();
    instants.dedup();
    let loaded = loaded.borrow().expect("a writer finished");
    (
        [idle, loaded, rl.snapshot().drain.run_bound_bytes],
        instants,
    )
}

#[test]
fn the_run_bound_is_the_disk_specs_closed_form_at_idle_and_under_back_pressure() {
    // ssd_nvme: (100 µs hold − 15 µs command) × 2 GiB/s, down to 4 KiB.
    let (bounds, instants) = run_bounds(BatchPolicy::Adaptive(AdaptiveBatchConfig));
    assert_eq!(
        bounds,
        [176 << 10; 3],
        "learned nothing, from the first pop"
    );
    // Nothing moves, so nothing is traced: no batch target, no run bound.
    for gone in ["batch_target", "run_bound"] {
        assert!(!instants.contains(&gone), "{gone} in {instants:?}");
    }
    // Fixed bounds no run, blocked writers or not.
    let (bounds, instants) = run_bounds(BatchPolicy::Fixed);
    assert_eq!(bounds, [0; 3]);
    for gone in ["batch_target", "run_bound"] {
        assert!(!instants.contains(&gone), "{gone} in {instants:?}");
    }
}
