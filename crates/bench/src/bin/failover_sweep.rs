//! Crash-failover sweep (CI gate).
//!
//! Runs the failover grid — seeds × {sync, async} × {guest crash, power
//! cut, partition+power-cut, shipment chaos} — one deterministic
//! primary/standby trial each, and demands:
//!
//! * a **clean sweep**: in sync mode the promoted standby serves every
//!   write the primary ever acknowledged; in async mode the reported
//!   replication lag exactly equals the committed sectors missing from
//!   the standby image; in both modes the standby never runs ahead,
//!   never diverges, and refuses a zombie primary after promotion;
//! * **one round trip per sync commit**: the mean synchronous commit on
//!   fault-free links stays within 1.1× the link time the trials measured
//!   (mean ship transit + mean ack transit) — a disk creeping back onto
//!   the replicated commit path fails here, not in the next benchmark run;
//! * **potency**: the partition trials produce a real non-zero async lag,
//!   the chaos links actually drop frames, retransmission actually runs,
//!   and the split-brain probe actually refuses frames — a sweep whose
//!   adversary did nothing proves nothing.
//!
//! Trials fan out over host threads (`RAPILOG_BENCH_THREADS`, default all
//! cores); results merge in canonical grid order, so the report is
//! bit-identical at any thread count. A machine-readable summary row —
//! wall-clock, trials/sec, p50/p99 synchronous commit latency, p99 ack
//! latency over every trial, worst recovery time — is upserted into
//! `BENCH_sweeps.json`.
//!
//! Exit status is non-zero on any failure, so this binary doubles as the
//! CI gate (`scripts/check.sh`).
//!
//! Environment:
//! * `SEEDS`   — seed count (default 6)
//! * `QUICK=1` — shrink to 2 seeds for smoke runs
//! * `RAPILOG_BENCH_THREADS` — worker threads (default: host parallelism)

use std::time::Instant;

use rapilog_bench::{thread_count, Json};
use rapilog_faultsim::{explore, Exploration, FailoverExplorerConfig, FailoverReport};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
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

fn summarize(found: &Exploration<FailoverExplorerConfig>) {
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
    if report.commit_latency.count() > 0 {
        println!(
            "  ack latency (shipping on): p99={}us p999={}us ({} samples)",
            report.commit_latency.percentile(99.0),
            report.commit_latency.percentile(99.9),
            report.commit_latency.count()
        );
    }
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

fn main() {
    let quick = std::env::var("QUICK").is_ok();
    let seeds = if quick { 2 } else { env_u64("SEEDS", 6) };
    let threads = thread_count();

    let mut cfg = FailoverExplorerConfig::rapilog_default();
    cfg.seeds = (0..seeds).map(|i| 0xFA11 + i * 131).collect();
    let kinds = rapilog_faultsim::FailoverKind::all().len();
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
    summarize(&found);
    let report = &found.report;
    println!(
        "\n  wall-clock: {:.2} s on {threads} threads ({trials_per_sec:.1} trials/s)",
        wall.as_secs_f64()
    );

    let mut failed = false;
    if !found.clean() {
        println!("\nFAIL: the failover sweep produced counterexamples");
        failed = true;
    }
    if report.total_acked == 0 {
        println!("\nFAIL: the sweep audited zero acknowledged writes");
        failed = true;
    }
    if report.partition_async_lagged == 0 {
        println!(
            "\nFAIL: no partition trial produced a replication lag — the partition bit nothing"
        );
        failed = true;
    }
    if report.ship_dropped == 0 {
        println!("\nFAIL: the chaos links dropped nothing — the sweep tested a perfect network");
        failed = true;
    }
    if report.retransmits == 0 {
        println!("\nFAIL: the shipper never retransmitted — end-to-end recovery was not exercised");
        failed = true;
    }
    if report.refused_after_promotion == 0 {
        println!("\nFAIL: the split-brain probe never saw a refusal");
        failed = true;
    }
    if commit_over_link(report) > MAX_COMMIT_OVER_LINK {
        println!(
            "\nFAIL: a sync commit costs {:.3}x the link round trip (limit {MAX_COMMIT_OVER_LINK}) \
             — something slower than the network is on the replicated commit path",
            commit_over_link(report)
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }

    let row = Json::obj([
        ("bench", Json::str("failover_sweep")),
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
        ("wall_ms", Json::int(wall.as_millis() as u64)),
        ("trials_per_sec", Json::Num(trials_per_sec)),
    ]);
    rapilog_bench::json::upsert_line("BENCH_sweeps.json", &row).expect("write BENCH_sweeps.json");
    println!(
        "\nSWEEP_CLEAN trials={} (row upserted into BENCH_sweeps.json)",
        found.trials
    );
}
