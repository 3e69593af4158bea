//! Ablation B: rotational-latency sweep.
//!
//! RapiLog's win is exactly the rotation it removes from the commit path:
//! sweeping the spindle speed (and ending at flash) should show the
//! speedup shrinking monotonically as the sync path gets cheaper.
//!
//! Every (device, setup) cell is one independent simulation — twelve in
//! all — fanned out over host threads (`RAPILOG_BENCH_THREADS`) and
//! re-paired in device order afterwards. A summary row goes into
//! `BENCH_sweeps.json`.

use std::time::Instant;

use rapilog_bench::table::{f1, f2, TextTable};
use rapilog_bench::{run_perf, thread_count, Json, PerfConfig, WorkloadSpec};
use rapilog_faultsim::{run_parallel, MachineConfig, Setup};
use rapilog_simcore::SimDuration;
use rapilog_simdisk::{specs, DiskSpec, TimingSpec};
use rapilog_simpower::supplies;
use rapilog_workload::client::RunConfig;
use rapilog_workload::tpcb::TpcbScale;

fn hdd_at_rpm(rpm: u32, capacity: u64) -> DiskSpec {
    DiskSpec {
        name: format!("hdd-{rpm}"),
        sectors: capacity / 512,
        timing: TimingSpec::Hdd {
            rpm,
            sectors_per_track: 1900,
            seek_min: SimDuration::from_micros(600),
            seek_max: SimDuration::from_millis(9),
            overhead: SimDuration::from_micros(60),
        },
        torn_writes: true,
        fault: None,
    }
}

fn config_for(log_spec: DiskSpec, setup: Setup, measure: u64) -> PerfConfig {
    let mut machine = MachineConfig::new(setup, specs::instant(1 << 30), log_spec);
    machine.supply = Some(supplies::atx_psu());
    PerfConfig {
        seed: 15,
        machine,
        workload: WorkloadSpec::Tpcb(TpcbScale::small()),
        run: RunConfig {
            clients: 8,
            warmup: SimDuration::from_secs(1),
            measure: SimDuration::from_secs(measure),
            think_time: None,
        },
        trace: false,
    }
}

fn main() {
    let quick = std::env::var("QUICK").is_ok();
    let measure = if quick { 2 } else { 5 };
    let threads = thread_count();
    println!(
        "Ablation B: RapiLog speedup vs log-device latency, TPC-B 8 clients ({threads} threads)\n"
    );
    let mut devices: Vec<(String, DiskSpec)> = vec![];
    for rpm in [5400u32, 7200, 10_000, 15_000] {
        let spec = hdd_at_rpm(rpm, 512 << 20);
        devices.push((format!("hdd-{rpm}"), spec));
    }
    devices.push(("ssd-sata".to_string(), specs::ssd_sata(512 << 20)));
    devices.push(("ssd-nvme".to_string(), specs::ssd_nvme(512 << 20)));

    // Two jobs per device (virt-sync, rapilog), interleaved so the job
    // index encodes the pairing.
    let wall_start = Instant::now();
    let jobs: Vec<PerfConfig> = devices
        .iter()
        .flat_map(|(_, spec)| {
            [
                config_for(spec.clone(), Setup::Virtualized, measure),
                config_for(spec.clone(), Setup::RapiLog, measure),
            ]
        })
        .collect();
    let n_jobs = jobs.len();
    let outcomes = run_parallel(jobs, threads, run_perf);
    let wall = wall_start.elapsed();

    let mut t = TextTable::new(&[
        "log device",
        "rotation (ms)",
        "virt-sync tps",
        "rapilog tps",
        "speedup",
    ]);
    let mut json_rows = Vec::new();
    for (i, (name, spec)) in devices.iter().enumerate() {
        let rotation = spec.rotation_period().as_millis_f64();
        let sync = outcomes[2 * i].stats.tps();
        let rapi = outcomes[2 * i + 1].stats.tps();
        t.row(&[
            name.clone(),
            f2(rotation),
            f1(sync),
            f1(rapi),
            format!("{}x", f2(rapi / sync)),
        ]);
        json_rows.push(Json::obj([
            ("device", Json::str(name.clone())),
            ("rotation_ms", Json::Num(rotation)),
            ("virt_sync_tps", Json::Num(sync)),
            ("rapilog_tps", Json::Num(rapi)),
            ("speedup", Json::Num(rapi / sync)),
        ]));
    }
    println!("{}", t.render());
    println!("Expected shape: speedup decreases monotonically with rotational latency,");
    println!("approaching 1x on NVMe.");
    let row = Json::obj([
        ("bench", Json::str("abl_disk_sweep")),
        ("quick", Json::Bool(quick)),
        ("threads", Json::int(threads as u64)),
        ("trials", Json::int(n_jobs as u64)),
        ("wall_ms", Json::int(wall.as_millis() as u64)),
        (
            "trials_per_sec",
            Json::Num(n_jobs as f64 / wall.as_secs_f64()),
        ),
        ("rows", Json::Arr(json_rows)),
    ]);
    rapilog_bench::json::upsert_line("BENCH_sweeps.json", &row).expect("write BENCH_sweeps.json");
}
