//! Ablation D: drain bandwidth vs SSD channel count × ordering mode.
//!
//! The windowed drain exists to feed a multi-channel SSD: the strict
//! serial drain issues one run at a time, so extra channels sit idle,
//! while `PartiallyConstrained` keeps up to `window_depth` dependency-free
//! runs in flight and should scale with the channel count. This ablation
//! measures exactly that — pure drain bandwidth (buffered bytes over the
//! virtual time until the buffer empties, with the client's ack model
//! zeroed so the fill is free) on `ssd-nvme` at 1/2/4/8 channels, under
//! both ordering modes.
//!
//! The run doubles as a regression gate: it exits non-zero unless the
//! windowed drain's bandwidth grows at least 2x from 1 to 4 channels (the
//! headline claim in EXPERIMENTS.md) and every cell's audit holds. A
//! summary row goes into `BENCH_sweeps.json`.
//!
//! Every cell is one closed deterministic simulation, fanned out over host
//! threads (`RAPILOG_BENCH_THREADS`) and re-paired in channel order.

use std::cell::Cell as StdCell;
use std::rc::Rc;
use std::time::Instant;

use rapilog::prelude::*;
use rapilog_bench::table::{f1, TextTable};
use rapilog_bench::{thread_count, Json};
use rapilog_faultsim::run_parallel;
use rapilog_microvisor::{Hypervisor, Trust};
use rapilog_simcore::{Sim, SimDuration, SimTime};
use rapilog_simdisk::{specs, BlockDevice, SECTOR_SIZE};

const CHANNELS: [u32; 4] = [1, 2, 4, 8];
const EXTENT: u64 = 256 << 10;

/// What one (channels, mode) cell reports back to the table.
struct Cell {
    bandwidth_mib_s: f64,
    max_outstanding: u32,
    guarantee_held: bool,
}

/// Runs one closed simulation: buffer `total` bytes of adjacent-but-
/// disjoint [`EXTENT`]-sized extents through RapiLog onto an `ssd-nvme`
/// with the given channel count, then measures how long the drain takes
/// to empty the buffer.
fn run_cell(seed: u64, channels: u32, mode: OrderingMode, total: u64) -> Cell {
    let mut sim = Sim::new(seed);
    let ctx = sim.ctx();
    let hv = Hypervisor::new(&ctx);
    let cell = hv.create_cell("rapilog", Trust::Trusted);
    let disk = rapilog_simdisk::Disk::new(&ctx, specs::ssd_nvme(1 << 30).with_channels(channels));
    let drain = DrainConfig::new()
        .max_batch(EXTENT as usize)
        .window_depth(16)
        .ordering(mode);
    let rl = RapiLog::builder(&ctx)
        .cell(&cell)
        .disk(disk.clone())
        .capacity(CapacitySpec::Fixed(2 * total))
        // Zero the ack-latency model: the client fills the buffer in zero
        // virtual time, so the quiesce instant measures the drain alone.
        .ack_base(SimDuration::from_nanos(0))
        .ack_per_kib(SimDuration::from_nanos(0))
        .drain_config(drain)
        .build();
    std::mem::forget(cell);
    let dev = rl.device();
    let rl2 = rl.clone();
    let drained_at = Rc::new(StdCell::new(0u64));
    let d2 = Rc::clone(&drained_at);
    let ctx2 = ctx.clone();
    sim.spawn(async move {
        let sectors_per = EXTENT / SECTOR_SIZE as u64;
        for i in 0..total / EXTENT {
            dev.write(
                i * sectors_per,
                &vec![(i % 251 + 1) as u8; EXTENT as usize],
                true,
            )
            .await
            .unwrap();
        }
        rl2.quiesce().await;
        d2.set(ctx2.now().as_nanos());
    });
    sim.run_until(SimTime::from_secs(600));
    assert_eq!(rl.occupancy(), 0, "cell must fully drain");
    let secs = drained_at.get() as f64 / 1e9;
    let snap = rl.snapshot();
    Cell {
        bandwidth_mib_s: total as f64 / (1 << 20) as f64 / secs,
        max_outstanding: snap.disk.max_outstanding,
        guarantee_held: rl.audit_report().guarantee_held(),
    }
}

fn main() {
    let quick = std::env::var("QUICK").is_ok();
    let total: u64 = if quick { 8 << 20 } else { 32 << 20 };
    let threads = thread_count();
    println!(
        "Ablation D: drain bandwidth vs ssd-nvme channels, {} MiB in {} KiB extents \
         ({threads} threads)\n",
        total >> 20,
        EXTENT >> 10
    );

    let wall_start = Instant::now();
    let jobs: Vec<(u32, OrderingMode)> = CHANNELS
        .iter()
        .flat_map(|&ch| {
            [
                (ch, OrderingMode::Strict),
                (ch, OrderingMode::PartiallyConstrained),
            ]
        })
        .collect();
    let n_jobs = jobs.len();
    let cells = run_parallel(jobs, threads, |(ch, mode)| run_cell(18, ch, mode, total));
    let wall = wall_start.elapsed();

    let mut t = TextTable::new(&[
        "channels",
        "strict MiB/s",
        "windowed MiB/s",
        "win/strict",
        "max inflight",
    ]);
    let mut json_rows = Vec::new();
    let mut audits_held = true;
    for (i, &ch) in CHANNELS.iter().enumerate() {
        let strict = &cells[2 * i];
        let windowed = &cells[2 * i + 1];
        audits_held &= strict.guarantee_held && windowed.guarantee_held;
        t.row(&[
            format!("{ch}"),
            f1(strict.bandwidth_mib_s),
            f1(windowed.bandwidth_mib_s),
            format!("{:.2}x", windowed.bandwidth_mib_s / strict.bandwidth_mib_s),
            format!("{}", windowed.max_outstanding),
        ]);
        json_rows.push(Json::obj([
            ("channels", Json::int(ch as u64)),
            ("strict_mib_s", Json::Num(strict.bandwidth_mib_s)),
            ("windowed_mib_s", Json::Num(windowed.bandwidth_mib_s)),
            (
                "windowed_max_outstanding",
                Json::int(windowed.max_outstanding as u64),
            ),
        ]));
    }
    println!("{}", t.render());
    println!("Expected shape: strict stays flat (one run in flight); windowed scales");
    println!("with channels until window_depth or the bus caps it.");

    let win_1ch = cells[1].bandwidth_mib_s;
    let win_4ch = cells[5].bandwidth_mib_s;
    let scaling = win_4ch / win_1ch;
    println!(
        "\nwindowed scaling 1ch -> 4ch: {scaling:.2}x (gate: >= 2.00x), audits held: {audits_held}"
    );

    let row = Json::obj([
        ("bench", Json::str("abl_ssd_channels")),
        ("quick", Json::Bool(quick)),
        ("threads", Json::int(threads as u64)),
        ("trials", Json::int(n_jobs as u64)),
        ("scaling_1_to_4", Json::Num(scaling)),
        ("wall_ms", Json::int(wall.as_millis() as u64)),
        (
            "trials_per_sec",
            Json::Num(n_jobs as f64 / wall.as_secs_f64()),
        ),
        ("rows", Json::Arr(json_rows)),
    ]);
    rapilog_bench::json::upsert_line("BENCH_sweeps.json", &row).expect("write BENCH_sweeps.json");

    if !audits_held {
        println!("\nFAIL: an audit reported a violated guarantee");
        std::process::exit(1);
    }
    if scaling < 2.0 {
        println!("\nFAIL: windowed drain bandwidth must scale >= 2x from 1 to 4 channels");
        std::process::exit(1);
    }
    println!("\nCHANNEL_SCALING_OK {scaling:.2}x");
}
