//! Ablation C: checkpoint interval vs. recovery time.
//!
//! The checkpointer bounds the redo scan. Sweeping its interval under a
//! fixed crash schedule shows the classic trade: frequent checkpoints buy
//! short scans at the price of full-page-write log volume; rare ones do
//! the opposite. The crash is a guest crash on the RapiLog setup, and
//! there RapiLog shortens recovery too: the instance that outlived the
//! guest still holds the log it landed, up to its idle room, so the scan
//! reads it from memory instead of from the rotating disk. The 10 s
//! interval's log (230 535 records) recovers in about 2 ms; only the
//! records scanned and redone grow with the interval. After a power cut
//! the rebuilt instance holds nothing, and the trade is the classic one.
//!
//! The interval points are independent trials, fanned out over host
//! threads (`RAPILOG_BENCH_THREADS`) and reported in interval order. A
//! summary row goes into `BENCH_sweeps.json`.

use std::time::Instant;

use rapilog_bench::table::{f1, TextTable};
use rapilog_bench::{thread_count, Json};
use rapilog_dbengine::DbConfig;
use rapilog_faultsim::{run_parallel, run_trial, FaultKind, MachineConfig, Setup, TrialConfig};
use rapilog_simcore::SimDuration;
use rapilog_simdisk::specs;
use rapilog_simpower::supplies;

const INTERVALS_MS: [u64; 6] = [100, 250, 500, 1_000, 2_000, 10_000];

fn main() {
    let threads = thread_count();
    println!(
        "Ablation C: checkpoint interval vs recovery, register workload, guest crash at 2 s \
         ({threads} threads)\n"
    );
    let wall_start = Instant::now();
    let jobs: Vec<TrialConfig> = INTERVALS_MS
        .iter()
        .map(|&interval_ms| {
            let mut machine = MachineConfig::new(
                Setup::RapiLog,
                specs::instant(256 << 20),
                specs::hdd_7200(512 << 20),
            );
            machine.supply = Some(supplies::atx_psu());
            machine.db = DbConfig {
                checkpoint_interval: SimDuration::from_millis(interval_ms),
                ..DbConfig::default()
            };
            TrialConfig {
                machine,
                fault: FaultKind::GuestCrash,
                clients: 8,
                fault_after: SimDuration::from_secs(2),
                think_time: SimDuration::from_micros(200),
            }
        })
        .collect();
    let results = run_parallel(jobs, threads, |cfg| run_trial(42, cfg));
    let wall = wall_start.elapsed();
    let mut t = TextTable::new(&[
        "checkpoint interval",
        "acked commits",
        "records scanned",
        "redo applied",
        "recovery (ms)",
    ]);
    let mut json_rows = Vec::new();
    for (interval_ms, r) in INTERVALS_MS.iter().zip(&results) {
        assert!(r.ok, "trial must stay clean: {:?}", r.violations);
        t.row(&[
            format!("{interval_ms} ms"),
            r.total_acked.to_string(),
            r.recovery.scanned_records.to_string(),
            r.recovery.redo_applied.to_string(),
            f1(r.recovery.duration.as_millis_f64()),
        ]);
        json_rows.push(Json::obj([
            ("interval_ms", Json::int(*interval_ms)),
            ("acked_commits", Json::int(r.total_acked)),
            ("scanned_records", Json::int(r.recovery.scanned_records)),
            ("redo_applied", Json::int(r.recovery.redo_applied)),
            (
                "recovery_ms",
                Json::Num(r.recovery.duration.as_millis_f64()),
            ),
        ]));
    }
    println!("{}", t.render());
    println!("Expected shape: scanned records grow with the interval; recovery time, read");
    println!("from the surviving instance's memory, stays within milliseconds;");
    println!("durability is untouched at every setting (the trial asserts it).");
    let row = Json::obj([
        ("bench", Json::str("abl_ckpt_sweep")),
        ("threads", Json::int(threads as u64)),
        ("trials", Json::int(INTERVALS_MS.len() as u64)),
        ("wall_ms", Json::int(wall.as_millis() as u64)),
        (
            "trials_per_sec",
            Json::Num(INTERVALS_MS.len() as f64 / wall.as_secs_f64()),
        ),
        ("rows", Json::Arr(json_rows)),
    ]);
    rapilog_bench::json::upsert_line("BENCH_sweeps.json", &row).expect("write BENCH_sweeps.json");
}
