//! Ablation A: dependable-buffer capacity sweep.
//!
//! With a tiny buffer, writers hit backpressure and RapiLog degrades
//! gracefully toward the drain's (disk's) throughput — invariant I5 as a
//! measurement. Past the knee, extra capacity buys nothing: the paper's
//! sizing rule only has to clear the knee, which even a small PSU window
//! does (Table 1).
//!
//! Each capacity point is an independent simulation, so the sweep fans out
//! over host threads (`RAPILOG_BENCH_THREADS`); rows are printed in
//! capacity order regardless of completion order. A summary row goes into
//! `BENCH_sweeps.json`.

use std::time::Instant;

use rapilog::{CapacitySpec, RapiLogConfig};
use rapilog_bench::table::{f1, TextTable};
use rapilog_bench::{run_perf, thread_count, Json, PerfConfig, WorkloadSpec};
use rapilog_faultsim::{run_parallel, MachineConfig, Setup};
use rapilog_simcore::SimDuration;
use rapilog_simdisk::specs;
use rapilog_workload::client::RunConfig;
use rapilog_workload::tpcb::TpcbScale;

const CAPS_KIB: [u64; 6] = [16, 64, 256, 1024, 4096, 16384];

fn main() {
    let quick = std::env::var("QUICK").is_ok();
    let threads = thread_count();
    println!(
        "Ablation A: RapiLog buffer capacity sweep, TPC-B 32 clients, log on hdd-7200 \
         ({threads} threads)\n"
    );
    let wall_start = Instant::now();
    let jobs: Vec<PerfConfig> = CAPS_KIB
        .iter()
        .map(|&cap_kib| {
            let mut machine = MachineConfig::new(
                Setup::RapiLog,
                specs::instant(1 << 30),
                specs::hdd_7200(512 << 20),
            );
            machine.rapilog = RapiLogConfig {
                capacity: CapacitySpec::Fixed(cap_kib * 1024),
                ..RapiLogConfig::default()
            };
            PerfConfig {
                seed: 14,
                machine,
                workload: WorkloadSpec::Tpcb(TpcbScale::small()),
                run: RunConfig {
                    clients: 32,
                    warmup: SimDuration::from_secs(1),
                    measure: SimDuration::from_secs(if quick { 2 } else { 5 }),
                    think_time: None,
                },
                trace: false,
            }
        })
        .collect();
    let outcomes = run_parallel(jobs, threads, run_perf);
    let wall = wall_start.elapsed();
    let mut t = TextTable::new(&[
        "capacity",
        "tps",
        "backpressure events",
        "peak occupancy (KiB)",
    ]);
    let mut json_rows = Vec::new();
    for (cap_kib, out) in CAPS_KIB.iter().zip(&outcomes) {
        let buf = out.buffer.as_ref().expect("rapilog setup has buffer stats");
        t.row(&[
            format!("{cap_kib} KiB"),
            f1(out.stats.tps()),
            buf.backpressure_events.to_string(),
            (buf.peak_occupancy / 1024).to_string(),
        ]);
        json_rows.push(Json::obj([
            ("capacity_kib", Json::int(*cap_kib)),
            ("tps", Json::Num(out.stats.tps())),
            ("backpressure_events", Json::int(buf.backpressure_events)),
            ("peak_occupancy_kib", Json::int(buf.peak_occupancy / 1024)),
        ]));
    }
    println!("{}", t.render());
    println!("Expected shape: throughput rises to a knee, then flattens; below the knee the");
    println!("buffer is the bottleneck (backpressure = sync-path speed), above it the CPU is.");
    let row = Json::obj([
        ("bench", Json::str("abl_buffer_sweep")),
        ("quick", Json::Bool(quick)),
        ("threads", Json::int(threads as u64)),
        ("trials", Json::int(CAPS_KIB.len() as u64)),
        ("wall_ms", Json::int(wall.as_millis() as u64)),
        (
            "trials_per_sec",
            Json::Num(CAPS_KIB.len() as f64 / wall.as_secs_f64()),
        ),
        ("rows", Json::Arr(json_rows)),
    ]);
    rapilog_bench::json::upsert_line("BENCH_sweeps.json", &row).expect("write BENCH_sweeps.json");
}
