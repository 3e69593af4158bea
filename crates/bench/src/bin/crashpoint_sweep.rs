//! Crash-point exploration sweep (CI gate).
//!
//! Runs the explorer over a grid of seeds × fault instants × fault kinds
//! (default 8 × 5 × 5 = 200 deterministic trials) **once per drain
//! ordering mode** — the classic `Strict` serial drain and the windowed
//! `PartiallyConstrained` out-of-order drain — and demands a clean sweep
//! from each: every acknowledged commit survives every crash point, with
//! and without completion reordering. Then runs a negative control — the
//! same machine with the drain's resilience disabled — and demands the
//! opposite: the auditor **must** produce a replayable counterexample, or
//! a clean main sweep proves nothing.
//!
//! A third sweep runs the **multi-tenant** machine (4 equal-weight cells
//! sharing one sharded RapiLog) over the same fault kinds and demands the
//! per-tenant durability invariant: no tenant loses acknowledged bytes and
//! no tenant's sectors carry another tenant's data, at every crash point —
//! except at the cells listed in [`OPEN_FINDING_1`], which are known, red and
//! counted until that finding is fixed.
//!
//! Trials fan out over host threads (`RAPILOG_BENCH_THREADS`, default all
//! cores); results are merged in canonical grid order, so the report is
//! bit-identical at any thread count. A machine-readable summary row —
//! wall-clock, trials/sec, thread count, p99/p999 commit latency — is
//! upserted into `BENCH_sweeps.json`.
//!
//! Exit status is non-zero when either half fails, so this binary doubles
//! as the CI gate (`scripts/check.sh`).
//!
//! Environment:
//! * `SEEDS`   — seed count for the main sweep (default 8)
//! * `TIMES`   — fault instants, comma-separated ms (default `80,160,240,330,420`)
//! * `QUICK=1` — shrink to 2 seeds × 2 instants for smoke runs
//! * `RAPILOG_BENCH_THREADS` — worker threads (default: host parallelism)

use std::time::Instant;

use rapilog::OrderingMode;
use rapilog_bench::{thread_count, Json};
use rapilog_faultsim::{
    explore, Counterexample, CrashPoint, Exploration, ExplorerConfig, FaultKind,
};

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
/// is deleted with the finding.
const OPEN_FINDING_1: &[(u64, u64)] = &[(0x7E2A, 330)];

fn is_open_finding_1(ce: &Counterexample<CrashPoint>) -> bool {
    let p = &ce.point;
    matches!(p.kind, FaultKind::PowerCut | FaultKind::PowerFlicker { .. })
        && OPEN_FINDING_1.contains(&(p.seed, p.fault_after.as_millis()))
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn summarize(title: &str, found: &Exploration<ExplorerConfig>) {
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
    if report.commit_latency.count() > 0 {
        println!(
            "  commit latency:  p99={}us p999={}us ({} samples)",
            report.commit_latency.percentile(99.0),
            report.commit_latency.percentile(99.9),
            report.commit_latency.count()
        );
    }
    if report.tenant_acked > 0 {
        println!("  co-tenant acked writes audited: {}", report.tenant_acked);
    }
    for ce in &found.counterexamples {
        println!("  {}", ce.replay_line());
    }
}

fn main() {
    let quick = std::env::var("QUICK").is_ok();
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
        summarize(
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

    // Multi-tenant sweep: 4 equal-weight cells sharing one sharded buffer,
    // windowed drain. The trial itself audits the media image per tenant, so
    // a clean report means no tenant lost acked bytes and no sector leaked
    // across tenants at any crash point.
    let mut mt = ExplorerConfig::multi_tenant();
    mt.seeds = if quick {
        (0..2).map(|i| 0x7E2A + i * 97).collect()
    } else {
        (0..4).map(|i| 0x7E2A + i * 97).collect()
    };
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
    summarize(
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
    summarize("broken drain control (must find loss)", &control_sweep);

    let mut failed = false;
    for (mode, sweep) in &mode_sweeps {
        if !sweep.clean() {
            println!("\nFAIL: the {mode:?} sweep produced counterexamples");
            failed = true;
        }
        if sweep.report.total_acked == 0 {
            println!("\nFAIL: the {mode:?} sweep audited zero acknowledged commits");
            failed = true;
        }
        if sweep.report.stats.transient_errors == 0 {
            println!(
                "\nFAIL: no media faults were injected in the {mode:?} sweep — it tested nothing"
            );
            failed = true;
        }
    }
    if !mt_new.is_empty() {
        println!(
            "\nFAIL: the multi-tenant sweep produced {} counterexamples outside open finding 1",
            mt_new.len()
        );
        failed = true;
    }
    if mt_sweep.report.total_acked == 0 || mt_sweep.report.tenant_acked == 0 {
        println!("\nFAIL: the multi-tenant sweep audited no co-tenant traffic");
        failed = true;
    }
    if control_sweep.clean() {
        println!("\nFAIL: the broken-drain control found no counterexample");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    // Spot-check replayability of one control counterexample.
    let ce = &control_sweep.counterexamples[0];
    let replay = ce.replay(&control);
    if replay.ok || replay.violations != ce.violations {
        println!("\nFAIL: counterexample did not replay identically");
        std::process::exit(1);
    }
    let acked: u64 = mode_sweeps.iter().map(|(_, r)| r.report.total_acked).sum();
    let ces: u64 = mode_sweeps
        .iter()
        .map(|(_, r)| r.counterexamples.len() as u64)
        .sum();
    let mut lat = rapilog_simcore::stats::Histogram::new();
    for (_, r) in &mode_sweeps {
        lat.merge(&r.report.commit_latency);
    }
    let row = Json::obj([
        ("bench", Json::str("crashpoint_sweep")),
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
        ("wall_ms", Json::int(wall.as_millis() as u64)),
        ("trials_per_sec", Json::Num(trials_per_sec)),
    ]);
    rapilog_bench::json::upsert_line("BENCH_sweeps.json", &row).expect("write BENCH_sweeps.json");
    println!(
        "\nSWEEP_CLEAN trials={total_trials} open_finding_1_cells_red={} (row upserted into BENCH_sweeps.json)",
        mt_known.len()
    );
}
