//! Table 2 [reconstructed]: the durability campaign.
//!
//! For each setup × fault class, many independent trials with randomised
//! fault instants. Every trial runs the audited register workload, injects
//! the fault, recovers, and checks invariants I1 (durability), I2
//! (atomicity) and no-phantoms. The `async-unsafe` row is the negative
//! control: PostgreSQL's `synchronous_commit = off`, which the auditor
//! must catch losing acknowledged transactions.
//!
//! Trials within a row are independent deterministic simulations, so they
//! fan out over host threads (`RAPILOG_BENCH_THREADS`); per-trial results
//! are aggregated in seed order, making the table bit-identical at any
//! thread count. A summary row goes into `BENCH_sweeps.json`.
//!
//! Environment: `TRIALS=<n>` overrides the per-row trial count
//! (default 40; the committed EXPERIMENTS.md run used 200); `QUICK=1`
//! drops it to 8.

use std::time::Instant;

use rapilog_bench::table::{f1, TextTable};
use rapilog_bench::{thread_count, Json};
use rapilog_dbengine::EngineProfile;
use rapilog_faultsim::{run_parallel, run_trial, FaultKind, MachineConfig, Setup, TrialConfig};
use rapilog_simcore::SimDuration;
use rapilog_simdisk::specs;
use rapilog_simpower::supplies;

struct RowSpec {
    label: &'static str,
    setup: Setup,
    fault: FaultKind,
    profile: EngineProfile,
}

fn main() {
    let trials: u64 = std::env::var("TRIALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if std::env::var("QUICK").is_ok() {
            8
        } else {
            40
        });
    let threads = thread_count();
    println!(
        "Table 2: durability trials ({trials} per row, randomised fault instants, {threads} threads)\n"
    );
    let rows = vec![
        RowSpec {
            label: "rapilog / guest crash",
            setup: Setup::RapiLog,
            fault: FaultKind::GuestCrash,
            profile: EngineProfile::pg_like(),
        },
        RowSpec {
            label: "rapilog / power cut",
            setup: Setup::RapiLog,
            fault: FaultKind::PowerCut,
            profile: EngineProfile::pg_like(),
        },
        RowSpec {
            label: "native-sync / guest crash",
            setup: Setup::Native,
            fault: FaultKind::GuestCrash,
            profile: EngineProfile::pg_like(),
        },
        RowSpec {
            label: "native-sync / power cut",
            setup: Setup::Native,
            fault: FaultKind::PowerCut,
            profile: EngineProfile::pg_like(),
        },
        RowSpec {
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
        let mut recovery_us = rapilog_simcore::stats::Histogram::new();
        let mut scan_ms = 0.0f64;
        let mut redo_ms = 0.0f64;
        let mut undo_ms = 0.0f64;
        let mut latency = rapilog_simcore::stats::Histogram::new();
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
    let row = Json::obj([
        ("bench", Json::str("table2_durability")),
        ("threads", Json::int(threads as u64)),
        ("trials", Json::int(total_trials)),
        ("wall_ms", Json::int(wall.as_millis() as u64)),
        (
            "trials_per_sec",
            Json::Num(total_trials as f64 / wall.as_secs_f64()),
        ),
        ("rows", Json::Arr(json_rows)),
    ]);
    rapilog_bench::json::upsert_line("BENCH_sweeps.json", &row).expect("write BENCH_sweeps.json");
}
