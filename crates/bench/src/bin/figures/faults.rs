//! The fault gates: the crash-point and failover sweeps, the durability
//! campaign (Table 2) and media faults on the log disk (Table 4).

use super::*;

use rapilog::{AuditReport, OrderingMode, RetryPolicy};
use rapilog_faultsim::{
    explore, Counterexample, CrashPoint, Exploration, ExplorerConfig, FailoverExplorerConfig,
    FailoverKind, FailoverReport, FaultStats, TrialConfig,
};
use rapilog_simcore::stats::Histogram;
use rapilog_simdisk::FaultProfile;
use rapilog_workload::micro;
use rapilog_workload::session::{job, outcome_from, JobOutcome};

/// Multi-tenant cells (seed, instant in ms) that are counterexamples of
/// **open finding 1** (ROADMAP's first item: the power budget counts bytes,
/// the emergency drain pays a rotation per co-tenant lap) under a power cut
/// or flicker. Which seeds carry that defect moves with every trajectory
/// shift, so a cell the grid has always sampled can turn red under a change
/// that never touched the drain; it is then listed here and committed as an
/// `#[ignore]`d red replay in `tests/crash_points.rs` instead of the grid
/// being moved off it. A listed cell is printed and counted
/// (`mt_counterexamples` in the `BENCH_baseline.json` row, so it going green
/// moves a gated field); any other counterexample fails the sweep. The list
/// is deleted with the finding, and is empty while no grid cell is red.
const OPEN_FINDING_1: &[(u64, u64)] = &[];

fn is_open_finding_1(ce: &Counterexample<CrashPoint>) -> bool {
    let p = &ce.point;
    matches!(p.kind, FaultKind::PowerCut | FaultKind::PowerFlicker { .. })
        && OPEN_FINDING_1.contains(&(p.seed, p.fault_after.as_millis()))
}

/// Prints a latency histogram's p99 and p999 (µs) under `label`, if it
/// has samples.
fn print_tail(label: &str, h: &Histogram) {
    if h.count() > 0 {
        let (p99, p999) = (h.percentile(99.0), h.percentile(99.9));
        println!(
            "  {label} p99={p99}us p999={p999}us ({} samples)",
            h.count()
        );
    }
}

fn summarize_crashes(title: &str, found: &Exploration<ExplorerConfig>) {
    let report = &found.report;
    let s = &report.stats;
    println!("{title}:");
    println!(
        "  trials={} acked_commits={} counterexamples={}",
        found.trials,
        report.total_acked,
        found.counterexamples.len()
    );
    println!(
        "  faults injected: transient={} media={} stalls={} rejected_offline={}",
        s.transient_errors, s.media_errors, s.stalls, s.rejected_offline
    );
    println!(
        "  drain response:  retries={} remaps={} degraded_entries={} degraded_exits={}",
        s.drain_retries, s.sector_remaps, s.degraded_entries, s.degraded_exits
    );
    print_tail("commit latency: ", &report.commit_latency);
    if report.tenant_acked > 0 {
        println!("  co-tenant acked writes audited: {}", report.tenant_acked);
    }
    for ce in &found.counterexamples {
        println!("  {}", ce.replay_line());
    }
}

/// Crash-point exploration. The explorer runs a grid of seeds × fault
/// instants × fault kinds (default 8 × 5 × 5 = 200 deterministic trials)
/// once per drain ordering mode, the classic `Strict` serial drain and the
/// windowed `PartiallyConstrained` one, and each sweep must be clean: every
/// acknowledged commit survives every crash point, with and without
/// completion reordering.
///
/// A multi-tenant sweep runs 4 cells sharing one sharded
/// RapiLog over the same fault kinds and demands the per-tenant durability
/// invariant: no tenant loses acknowledged bytes and no tenant's sectors
/// carry another tenant's data, at every crash point except the cells in
/// [`OPEN_FINDING_1`]. A negative control, the same machine with the drain's
/// resilience disabled, must produce a counterexample that replays
/// identically, or a clean sweep proves nothing.
///
/// `SEEDS` sets the main sweep's seed count (default 8) and `TIMES` its
/// fault instants in ms, comma-separated (default `80,160,240,330,420`);
/// QUICK runs 2 seeds × 2 instants.
pub(super) fn crashpoint_sweep() -> bool {
    let quick = quick();
    let seeds = if quick { 2 } else { env_u64("SEEDS", 8) };
    let times: Vec<u64> = match std::env::var("TIMES") {
        Ok(v) => v.split(',').filter_map(|t| t.trim().parse().ok()).collect(),
        Err(_) if quick => vec![120, 330],
        Err(_) => vec![80, 160, 240, 330, 420],
    };
    let threads = thread_count();

    let modes = [OrderingMode::Strict, OrderingMode::PartiallyConstrained];
    let mut mode_sweeps: Vec<(OrderingMode, Exploration<ExplorerConfig>)> = Vec::new();
    let mut total_trials = 0u64;
    let wall_start = Instant::now();
    for mode in modes {
        let mut cfg = ExplorerConfig::rapilog_default();
        cfg.seeds = (0..seeds).map(|i| 0x5EED + i * 101).collect();
        cfg.fault_times_ms = times.clone();
        cfg.ordering = mode;
        let trials = cfg.seeds.len() * cfg.fault_times_ms.len() * cfg.kinds.len();
        println!(
            "Crash-point sweep [{mode:?}]: {} seeds x {} instants x {} kinds = {trials} trials on {threads} threads\n",
            cfg.seeds.len(),
            cfg.fault_times_ms.len(),
            cfg.kinds.len(),
        );
        let sweep = explore(&cfg, threads);
        summarize_crashes(
            &format!("resilient drain, {mode:?} ordering (must be clean)"),
            &sweep,
        );
        println!();
        total_trials += sweep.trials;
        mode_sweeps.push((mode, sweep));
    }
    let wall = wall_start.elapsed();
    let trials_per_sec = total_trials as f64 / wall.as_secs_f64();
    println!(
        "  wall-clock: {:.2} s on {threads} threads, both modes ({trials_per_sec:.1} trials/s)",
        wall.as_secs_f64()
    );

    // Multi-tenant sweep: 4 cells sharing one sharded buffer,
    // windowed drain. The trial itself audits the media image per tenant, so
    // a clean report means no tenant lost acked bytes and no sector leaked
    // across tenants at any crash point.
    let mut mt = ExplorerConfig::multi_tenant();
    let mt_seeds = if quick { 2 } else { 4 };
    mt.seeds = (0..mt_seeds).map(|i| 0x7E2A + i * 97).collect();
    mt.fault_times_ms = if quick {
        vec![120, 330]
    } else {
        vec![120, 240, 360]
    };
    let mt_trials = mt.seeds.len() * mt.fault_times_ms.len() * mt.kinds.len();
    println!(
        "\nMulti-tenant sweep [{} cells]: {} seeds x {} instants x {} kinds = {mt_trials} trials\n",
        mt.tenants,
        mt.seeds.len(),
        mt.fault_times_ms.len(),
        mt.kinds.len(),
    );
    let mt_sweep = explore(&mt, threads);
    summarize_crashes(
        "multi-tenant windowed drain (must be clean outside open finding 1, per-tenant audit)",
        &mt_sweep,
    );
    let (mt_known, mt_new): (Vec<_>, Vec<_>) = mt_sweep
        .counterexamples
        .iter()
        .partition(|ce| is_open_finding_1(ce));
    if !mt_known.is_empty() {
        println!(
            "  {} of them open finding 1, known and red (tests/crash_points.rs --ignored)",
            mt_known.len()
        );
    }

    // Negative control: a drain that cannot retry must lose acked commits
    // under a disk-error burst, and the auditor must catch it.
    let mut control = ExplorerConfig::broken_drain();
    control.seeds = vec![0x5EED];
    control.fault_times_ms = vec![150];
    let control_sweep = explore(&control, threads);
    println!();
    summarize_crashes("broken drain control (must find loss)", &control_sweep);

    let mut ok = true;
    for (mode, sweep) in &mode_sweeps {
        ok &= check(
            sweep.clean(),
            format_args!("the {mode:?} sweep produced counterexamples"),
        );
        ok &= check(
            sweep.report.total_acked > 0,
            format_args!("the {mode:?} sweep audited zero acknowledged commits"),
        );
        ok &= check(
            sweep.report.stats.transient_errors > 0,
            format_args!("no media faults were injected in the {mode:?} sweep — it tested nothing"),
        );
    }
    ok &= check(
        mt_new.is_empty(),
        format_args!(
            "the multi-tenant sweep produced {} counterexamples outside open finding 1",
            mt_new.len()
        ),
    );
    ok &= check(
        mt_sweep.report.total_acked > 0 && mt_sweep.report.tenant_acked > 0,
        "the multi-tenant sweep audited no co-tenant traffic",
    );
    // Spot-check replayability of one control counterexample.
    ok &= match control_sweep.counterexamples.first() {
        None => check(false, "the broken-drain control found no counterexample"),
        Some(ce) => {
            let replay = ce.replay(&control);
            let same = !replay.ok && replay.violations == ce.violations;
            check(same, "counterexample did not replay identically")
        }
    };

    let (mut acked, mut ces, mut lat) = (0, 0, Histogram::new());
    for (_, r) in &mode_sweeps {
        acked += r.report.total_acked;
        ces += r.counterexamples.len() as u64;
        lat.merge(&r.report.commit_latency);
    }
    let fields = vec![
        ("quick", Json::Bool(quick)),
        ("threads", Json::int(threads as u64)),
        ("trials", Json::int(total_trials)),
        ("acked_commits", Json::int(acked)),
        ("counterexamples", Json::int(ces)),
        ("p99_commit_us", Json::int(lat.percentile(99.0))),
        ("p999_commit_us", Json::int(lat.percentile(99.9))),
        ("mt_trials", Json::int(mt_sweep.trials)),
        ("mt_tenant_acked", Json::int(mt_sweep.report.tenant_acked)),
        (
            "mt_counterexamples",
            Json::int(mt_sweep.counterexamples.len() as u64),
        ),
    ];
    sweep_row("crashpoint_sweep", fields, total_trials, wall);
    if ok {
        println!(
            "\nSWEEP_CLEAN trials={total_trials} open_finding_1_cells_red={} (row upserted into BENCH_sweeps.json)",
            mt_known.len()
        );
    }
    ok
}

/// The most a sync commit may cost relative to the measured network round
/// trip: the two admissions and the wire time fit, a media write does not.
const MAX_COMMIT_OVER_LINK: f64 = 1.1;

fn link_round_trip_us(report: &FailoverReport) -> f64 {
    report.sync_link_round_trip.mean() / 1e3
}

fn commit_over_link(report: &FailoverReport) -> f64 {
    report.sync_commit_latency.mean() / link_round_trip_us(report)
}

fn summarize_failovers(found: &Exploration<FailoverExplorerConfig>) {
    let report = &found.report;
    println!(
        "  trials={} acked_writes={} attempted={} counterexamples={}",
        found.trials,
        report.total_acked,
        report.total_attempted,
        found.counterexamples.len()
    );
    println!(
        "  shipping:  retransmits={} dropped={} duplicated={} reordered={}",
        report.retransmits, report.ship_dropped, report.ship_duplicated, report.ship_reordered
    );
    println!(
        "  failover:  async_lag_total={} partition_lagged={}/{} zombie_refused={}",
        report.async_lag_total,
        report.partition_async_lagged,
        report.partition_async_trials,
        report.refused_after_promotion
    );
    println!(
        "  recovery:  max={:.1} ms p99={:.1} ms avg={:.1} ms",
        report.recovery_us_max as f64 / 1000.0,
        report.recovery_us.percentile(99.0) as f64 / 1000.0,
        report.recovery_us_total as f64 / found.trials.max(1) as f64 / 1000.0
    );
    print_tail("ack latency (shipping on):", &report.commit_latency);
    if report.sync_commit_latency.count() > 0 {
        println!(
            "  sync commit (fault-free links): mean={:.1}us p50={}us p99={}us ({} samples) \
             over ship+ack link time {:.1}us = {:.3}x",
            report.sync_commit_latency.mean(),
            report.sync_commit_latency.percentile(50.0),
            report.sync_commit_latency.percentile(99.0),
            report.sync_commit_latency.count(),
            link_round_trip_us(report),
            commit_over_link(report),
        );
    }
    for ce in &found.counterexamples {
        println!("  {}", ce.replay_line());
    }
}

/// Crash failover. The failover grid, seeds × {sync, async} × {guest crash,
/// power cut, partition+power-cut, shipment chaos}, runs one deterministic
/// primary/standby trial per cell and demands:
///
/// * a **clean sweep**: in sync mode the promoted standby serves every
///   write the primary ever acknowledged; in async mode the reported
///   replication lag exactly equals the committed sectors missing from the
///   standby image; in both modes the standby never runs ahead, never
///   diverges, and refuses a zombie primary after promotion;
/// * **one round trip per sync commit**: the mean synchronous commit on
///   fault-free links stays within [`MAX_COMMIT_OVER_LINK`] times the link
///   time the trials measured (mean ship transit + mean ack transit), so a
///   disk creeping back onto the replicated commit path fails here;
/// * **potency**: the partition trials produce a real non-zero async lag,
///   the chaos links actually drop frames, retransmission actually runs,
///   and the split-brain probe actually refuses frames.
///
/// `SEEDS` sets the seed count (default 6); QUICK runs 2.
pub(super) fn failover_sweep() -> bool {
    let quick = quick();
    let seeds = if quick { 2 } else { env_u64("SEEDS", 6) };
    let threads = thread_count();

    let mut cfg = FailoverExplorerConfig::rapilog_default();
    cfg.seeds = (0..seeds).map(|i| 0xFA11 + i * 131).collect();
    let kinds = FailoverKind::all().len();
    println!(
        "Failover sweep: {} seeds x {} modes x {kinds} kinds = {} trials on {threads} threads\n",
        cfg.seeds.len(),
        FailoverExplorerConfig::MODES.len(),
        cfg.seeds.len() * FailoverExplorerConfig::MODES.len() * kinds,
    );
    let wall_start = Instant::now();
    let found = explore(&cfg, threads);
    let wall = wall_start.elapsed();
    let trials_per_sec = found.trials as f64 / wall.as_secs_f64();
    println!("replicated pair (must be clean):");
    summarize_failovers(&found);
    let report = &found.report;
    println!(
        "\n  wall-clock: {:.2} s on {threads} threads ({trials_per_sec:.1} trials/s)",
        wall.as_secs_f64()
    );

    let mut ok = check(found.clean(), "the failover sweep produced counterexamples");
    ok &= check(
        report.total_acked > 0,
        "the sweep audited zero acknowledged writes",
    );
    ok &= check(
        report.partition_async_lagged > 0,
        "no partition trial produced a replication lag — the partition bit nothing",
    );
    ok &= check(
        report.ship_dropped > 0,
        "the chaos links dropped nothing — the sweep tested a perfect network",
    );
    ok &= check(
        report.retransmits > 0,
        "the shipper never retransmitted — end-to-end recovery was not exercised",
    );
    ok &= check(
        report.refused_after_promotion > 0,
        "the split-brain probe never saw a refusal",
    );
    ok &= check(
        commit_over_link(report) <= MAX_COMMIT_OVER_LINK,
        format_args!(
            "a sync commit costs {:.3}x the link round trip (limit {MAX_COMMIT_OVER_LINK}) \
             — something slower than the network is on the replicated commit path",
            commit_over_link(report)
        ),
    );

    let fields = vec![
        ("quick", Json::Bool(quick)),
        ("threads", Json::int(threads as u64)),
        ("trials", Json::int(found.trials)),
        ("acked_writes", Json::int(report.total_acked)),
        (
            "counterexamples",
            Json::int(found.counterexamples.len() as u64),
        ),
        ("async_lag_total", Json::int(report.async_lag_total)),
        ("retransmits", Json::int(report.retransmits)),
        (
            "p99_commit_us",
            Json::int(report.commit_latency.percentile(99.0)),
        ),
        (
            "sync_commit_p50_us",
            Json::int(report.sync_commit_latency.percentile(50.0)),
        ),
        (
            "sync_commit_p99_us",
            Json::int(report.sync_commit_latency.percentile(99.0)),
        ),
        (
            "sync_commit_mean_us",
            Json::Num(report.sync_commit_latency.mean()),
        ),
        ("link_round_trip_us", Json::Num(link_round_trip_us(report))),
        ("recovery_max_us", Json::int(report.recovery_us_max)),
        (
            "recovery_p99_us",
            Json::int(report.recovery_us.percentile(99.0)),
        ),
    ];
    sweep_row("failover_sweep", fields, found.trials, wall);
    if ok {
        println!(
            "\nSWEEP_CLEAN trials={} (row upserted into BENCH_sweeps.json)",
            found.trials
        );
    }
    ok
}

struct DurabilityRow {
    label: &'static str,
    setup: Setup,
    fault: FaultKind,
    profile: EngineProfile,
}

/// Table 2 [reconstructed]: the durability campaign. For each setup × fault
/// class, many independent trials with randomised fault instants. Every
/// trial runs the audited register workload, injects the fault, recovers,
/// and checks invariants I1 (durability), I2 (atomicity) and no-phantoms.
/// The `async-unsafe` row is the negative control: PostgreSQL's
/// `synchronous_commit = off`, which the auditor must catch losing
/// acknowledged transactions. It fails unless that row has a violating
/// trial and no other row has one.
///
/// `TRIALS` sets the per-row trial count (default 40, QUICK 8; the
/// committed EXPERIMENTS.md run used 200).
pub(super) fn table2_durability() -> bool {
    let trials = env_u64("TRIALS", if quick() { 8 } else { 40 });
    let threads = thread_count();
    println!(
        "Table 2: durability trials ({trials} per row, randomised fault instants, {threads} threads)\n"
    );
    let rows = vec![
        DurabilityRow {
            label: "rapilog / guest crash",
            setup: Setup::RapiLog,
            fault: FaultKind::GuestCrash,
            profile: EngineProfile::pg_like(),
        },
        DurabilityRow {
            label: "rapilog / power cut",
            setup: Setup::RapiLog,
            fault: FaultKind::PowerCut,
            profile: EngineProfile::pg_like(),
        },
        DurabilityRow {
            label: "native-sync / guest crash",
            setup: Setup::Native,
            fault: FaultKind::GuestCrash,
            profile: EngineProfile::pg_like(),
        },
        DurabilityRow {
            label: "native-sync / power cut",
            setup: Setup::Native,
            fault: FaultKind::PowerCut,
            profile: EngineProfile::pg_like(),
        },
        DurabilityRow {
            label: "async-unsafe / guest crash (control)",
            setup: Setup::Native,
            fault: FaultKind::GuestCrash,
            profile: EngineProfile::async_unsafe(),
        },
    ];
    let wall_start = Instant::now();
    let mut t = TextTable::new(&[
        "configuration",
        "trials",
        "acked commits",
        "violating trials",
        "acked lost",
        "recovery ms mean/p99/max",
        "phase ms scan/redo/undo",
        "p99 commit (us)",
        "p999 commit (us)",
    ]);
    let mut json_rows = Vec::new();
    let mut shape_held = true;
    for row in rows {
        // One job per trial; seeds are fixed, so the job list (and with it
        // the aggregate below) is independent of the thread count.
        let jobs: Vec<(u64, TrialConfig)> = (0..trials)
            .map(|i| {
                let seed = 9000 + i * 13;
                let mut machine = MachineConfig::new(
                    row.setup,
                    specs::instant(256 << 20),
                    specs::hdd_7200(256 << 20),
                );
                machine.supply = Some(supplies::atx_psu());
                machine.db.profile = row.profile.clone();
                // Randomised fault instant in [150, 650) ms of load.
                let fault_after = SimDuration::from_millis(150 + (seed * 7919) % 500);
                let cfg = TrialConfig {
                    machine,
                    fault: row.fault,
                    clients: 4,
                    fault_after,
                    think_time: SimDuration::from_micros(200),
                };
                (seed, cfg)
            })
            .collect();
        let results = run_parallel(jobs, threads, |(seed, cfg)| run_trial(seed, cfg));
        let mut total_acked = 0u64;
        let mut violating = 0u64;
        let mut lost = 0u64;
        let mut recovery_ms = 0.0f64;
        let mut recovery_us = Histogram::new();
        let mut scan_ms = 0.0f64;
        let mut redo_ms = 0.0f64;
        let mut undo_ms = 0.0f64;
        let mut latency = Histogram::new();
        for r in &results {
            total_acked += r.total_acked;
            latency.merge(&r.commit_latency);
            if !r.ok {
                violating += 1;
                for (c, j) in r.journals.iter().enumerate() {
                    let recovered = r.recovered[c].0;
                    lost += j.acked.saturating_sub(recovered);
                }
            }
            recovery_ms += r.recovery.duration.as_millis_f64();
            recovery_us.record(r.recovery.duration.as_micros());
            scan_ms += r.recovery.scan_time.as_millis_f64();
            redo_ms += r.recovery.redo_time.as_millis_f64();
            undo_ms += r.recovery.undo_time.as_millis_f64();
        }
        shape_held &= (violating > 0) == row.label.ends_with("(control)");
        let p99_recovery_ms = recovery_us.percentile(99.0) as f64 / 1000.0;
        let max_recovery_ms = recovery_us.max() as f64 / 1000.0;
        t.row(&[
            row.label.to_string(),
            trials.to_string(),
            total_acked.to_string(),
            violating.to_string(),
            lost.to_string(),
            format!(
                "{}/{}/{}",
                f1(recovery_ms / trials as f64),
                f1(p99_recovery_ms),
                f1(max_recovery_ms)
            ),
            format!(
                "{}/{}/{}",
                f1(scan_ms / trials as f64),
                f1(redo_ms / trials as f64),
                f1(undo_ms / trials as f64)
            ),
            latency.percentile(99.0).to_string(),
            latency.percentile(99.9).to_string(),
        ]);
        json_rows.push(Json::obj([
            ("configuration", Json::str(row.label)),
            ("trials", Json::int(trials)),
            ("acked_commits", Json::int(total_acked)),
            ("violating_trials", Json::int(violating)),
            ("acked_lost", Json::int(lost)),
            ("mean_recovery_ms", Json::Num(recovery_ms / trials as f64)),
            ("p99_recovery_ms", Json::Num(p99_recovery_ms)),
            ("max_recovery_ms", Json::Num(max_recovery_ms)),
            ("mean_scan_ms", Json::Num(scan_ms / trials as f64)),
            ("mean_redo_ms", Json::Num(redo_ms / trials as f64)),
            ("mean_undo_ms", Json::Num(undo_ms / trials as f64)),
            ("p99_commit_us", Json::int(latency.percentile(99.0))),
            ("p999_commit_us", Json::int(latency.percentile(99.9))),
        ]));
    }
    let wall = wall_start.elapsed();
    println!("{}", t.render());
    println!("Expected shape: zero violations everywhere except the async-unsafe control row,");
    println!("which must show lost acknowledged transactions (the auditor has teeth).");
    let total_trials = trials * json_rows.len() as u64;
    let fields = vec![
        ("threads", Json::int(threads as u64)),
        ("trials", Json::int(total_trials)),
        ("rows", Json::Arr(json_rows)),
    ];
    sweep_row("table2_durability", fields, total_trials, wall);
    check(
        shape_held,
        "a row violated durability, or the async-unsafe control lost nothing",
    )
}

/// What the log disk does during a Table 4 run.
#[derive(Clone, Copy)]
enum Fault {
    /// Healthy disk.
    None,
    /// Every command fails inside the burst window.
    Burst,
    /// Background transient failures at this rate, whole run.
    Transient(f64),
    /// Background grown defects at this rate, whole run.
    Defects(f64),
}

impl Fault {
    fn label(&self) -> String {
        match self {
            Fault::None => "clean".to_string(),
            Fault::Burst => "error burst".to_string(),
            Fault::Transient(r) => format!("transient {:.0}%", r * 100.0),
            Fault::Defects(r) => format!("defects {:.1}%", r * 100.0),
        }
    }
}

struct MediaFaultRow {
    label: &'static str,
    setup: Setup,
    fault: Fault,
    /// RapiLog's drain never leaves degraded mode once in it (ignored for
    /// native rows): the control that shows what recovering is worth.
    sticky: bool,
}

struct Outcome {
    /// Acked commits in the pre / during / post windows.
    windows: [u64; 3],
    report: Option<AuditReport>,
    stats: FaultStats,
}

struct Phases {
    pre: SimDuration,
    burst: SimDuration,
    post: SimDuration,
}

/// The closed-loop register clients Table 4 runs.
const TABLE4_CLIENTS: u64 = 4;

fn run_media_fault_row(row: &MediaFaultRow, phases: &Phases) -> Outcome {
    let mut sim = Sim::new(0x7AB4);
    let ctx = sim.ctx();
    let counts: Rc<RefCell<[u64; 3]>> = Rc::new(RefCell::new([0; 3]));
    let (c2, counts2) = (ctx.clone(), Rc::clone(&counts));
    let pre_end = SimTime::ZERO + phases.pre;
    let burst_end = pre_end + phases.burst;
    let run_end = burst_end + phases.post;
    let fault = row.fault;
    let setup = row.setup;
    let retry = if row.sticky {
        RetryPolicy {
            degraded_exit_successes: u32::MAX,
            ..RetryPolicy::default()
        }
    } else {
        RetryPolicy::default()
    };
    let task = sim.spawn(async move {
        let hdd = specs::hdd_7200(256 << 20);
        let log_spec = match fault {
            Fault::Transient(rate) => hdd.with_faults(FaultProfile::transient(7, rate)),
            Fault::Defects(rate) => hdd.with_faults(FaultProfile::grown_defects(7, rate)),
            Fault::None | Fault::Burst => hdd,
        };
        let mut mc = MachineConfig::new(setup, specs::instant(256 << 20), log_spec);
        mc.supply = Some(supplies::atx_psu());
        mc.rapilog.drain.retry = retry;
        let machine = Machine::new(&c2, mc);
        let db = machine
            .install(&micro::table_defs(TABLE4_CLIENTS))
            .await
            .expect("install");
        let table = micro::registers_table(&db).expect("registers");
        for client in 0..TABLE4_CLIENTS {
            micro::init_client(&db, table, client).await.expect("init");
        }
        let server = machine.server();
        for client in 0..TABLE4_CLIENTS {
            let server = server.clone();
            let ctx3 = c2.clone();
            let counts3 = Rc::clone(&counts2);
            c2.spawn(async move {
                let mut seq = 0u64;
                loop {
                    seq += 1;
                    let outcome = server
                        .submit(job(move |db| async move {
                            let t = match micro::registers_table(&db) {
                                Ok(t) => t,
                                Err(e) => return JobOutcome::Aborted(e),
                            };
                            outcome_from(micro::write_pair(&db, t, client, seq).await)
                        }))
                        .await;
                    match outcome {
                        JobOutcome::Committed => {
                            let now = ctx3.now();
                            let w = if now < pre_end {
                                0
                            } else if now < burst_end {
                                1
                            } else {
                                2
                            };
                            counts3.borrow_mut()[w] += 1;
                        }
                        _ => break,
                    }
                    ctx3.sleep(SimDuration::from_micros(200)).await;
                }
            });
        }
        c2.sleep_until(pre_end).await;
        if matches!(fault, Fault::Burst) {
            machine.log_disk().set_sick(true);
        }
        c2.sleep_until(burst_end).await;
        if matches!(fault, Fault::Burst) {
            machine.log_disk().set_sick(false);
        }
        c2.sleep_until(run_end).await;
        db.stop();
        // Let the drain settle before reading the verdict.
        c2.sleep(SimDuration::from_millis(200)).await;
        Outcome {
            windows: *counts2.borrow(),
            report: machine.rapilog_report(),
            stats: FaultStats::collect(&machine),
        }
    });
    sim.run_until(SimTime::from_secs(60));
    task.try_take().expect("row did not complete")
}

/// Table 4 [new]: throughput and durability under media faults. Each row
/// runs the audited register workload against one machine configuration
/// while the log disk misbehaves, and reports the commit rate in three
/// windows (before, during and after the fault), the resilience activity
/// (retries, remaps, degraded-mode transitions) and a durability verdict.
///
/// The headline rows are the transient-error **burst**: the synchronous
/// engine's WAL halts on the first failed flush that outlives the OS retry
/// budget, while RapiLog's drain rides it out, degrading to synchronous
/// acknowledgement when its own retry budget is spent and recovering
/// (throughput within 10% of the pre-fault rate) once the disk heals. It
/// fails if a RapiLog row loses an acknowledged commit, or unless the
/// default-policy burst row leaves degraded mode and recovers.
///
/// QUICK halves every window.
pub(super) fn table4_disk_faults() -> bool {
    let scale = if quick() { 2 } else { 1 };
    let phases = Phases {
        pre: SimDuration::from_millis(400 / scale),
        burst: SimDuration::from_millis(200 / scale),
        post: SimDuration::from_millis(800 / scale),
    };
    println!(
        "Table 4: media faults on the log disk ({} ms load, {} ms fault window, {} ms recovery)\n",
        phases.pre.as_millis(),
        phases.burst.as_millis(),
        phases.post.as_millis()
    );
    let rows = vec![
        MediaFaultRow {
            label: "native-sync",
            setup: Setup::Native,
            fault: Fault::None,
            sticky: false,
        },
        MediaFaultRow {
            label: "native-sync",
            setup: Setup::Native,
            fault: Fault::Burst,
            sticky: false,
        },
        MediaFaultRow {
            label: "rapilog",
            setup: Setup::RapiLog,
            fault: Fault::None,
            sticky: false,
        },
        MediaFaultRow {
            label: "rapilog",
            setup: Setup::RapiLog,
            fault: Fault::Transient(0.05),
            sticky: false,
        },
        MediaFaultRow {
            label: "rapilog",
            setup: Setup::RapiLog,
            fault: Fault::Defects(0.01),
            sticky: false,
        },
        MediaFaultRow {
            label: "rapilog",
            setup: Setup::RapiLog,
            fault: Fault::Burst,
            sticky: false,
        },
        MediaFaultRow {
            label: "rapilog-degraded",
            setup: Setup::RapiLog,
            fault: Fault::Burst,
            sticky: true,
        },
    ];
    let mut t = TextTable::new(&[
        "configuration",
        "fault",
        "pre (c/s)",
        "during (c/s)",
        "post (c/s)",
        "retries",
        "remaps",
        "degraded",
        "verdict",
    ]);
    let mut guarantee_held = true;
    let mut burst_recovered = false;
    for row in &rows {
        let o = run_media_fault_row(row, &phases);
        let rate = |commits: u64, window: SimDuration| commits as f64 / window.as_secs_f64();
        let pre = rate(o.windows[0], phases.pre);
        let during = rate(o.windows[1], phases.burst);
        let post = rate(o.windows[2], phases.post);
        let degraded = match &o.report {
            Some(r) => format!("{}/{}", r.degraded_entries, r.degraded_exits),
            None => "-".to_string(),
        };
        let verdict = match &o.report {
            Some(r) if !r.guarantee_held() => {
                guarantee_held = false;
                "GUARANTEE VIOLATED".to_string()
            }
            Some(r) => {
                let recovered = post >= 0.9 * pre;
                if matches!(row.fault, Fault::Burst) && !row.sticky {
                    burst_recovered = r.degraded_exits > 0 && recovered;
                }
                if recovered {
                    "no loss, recovered".to_string()
                } else {
                    "no loss, still slow".to_string()
                }
            }
            None => {
                if post == 0.0 && !matches!(row.fault, Fault::None) {
                    "halted at fault (no loss)".to_string()
                } else {
                    "no loss".to_string()
                }
            }
        };
        t.row(&[
            row.label.to_string(),
            row.fault.label(),
            f1(pre),
            f1(during),
            f1(post),
            o.stats.drain_retries.to_string(),
            o.stats.sector_remaps.to_string(),
            degraded,
            verdict,
        ]);
    }
    println!("{}", t.render());
    println!("Expected shape: the native engine halts for good when a burst outlives the OS");
    println!("retry budget; RapiLog degrades to synchronous acknowledgement, never loses an");
    println!("acked commit, and returns to within 10% of its pre-fault rate after the burst.");
    let mut ok = check(guarantee_held, "a RapiLog row lost an acknowledged commit");
    ok &= check(
        burst_recovered,
        "the default-policy burst row did not leave degraded mode and return to within 10% \
         of its pre-fault rate",
    );
    ok
}
