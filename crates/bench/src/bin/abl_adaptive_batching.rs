//! Ablation E: adaptive group-commit batching vs the fixed policy.
//!
//! The adaptive controller must win on both ends of the load curve or it
//! isn't worth its complexity. This ablation measures the two claims from
//! DESIGN.md §15 on an `ssd-nvme` with 4 channels:
//!
//! * **Saturation**: a pre-filled buffer drained flat out. The controller
//!   starts at its 64 KiB floor and must walk its target up the knee fast
//!   enough to match (or beat) the fixed 2 MiB policy — the gate is
//!   adaptive ≥ 95% of fixed's bandwidth.
//! * **1/10th load**: 1 MiB bursts arriving at a tenth of the saturated
//!   bandwidth. Fixed pops the whole burst as one fat run, so every
//!   commit waits for it; adaptive decays to small runs and widens the
//!   window across the idle channels — the gate is fixed p99 commit
//!   latency ≥ 2× adaptive's.
//! * **Back-pressured, 4 interleaved writers**: four closed-loop writers
//!   append 32–96 KiB extents to private regions through a buffer far
//!   smaller than the run, so every ack waits for the drain's next release
//!   — the drain *is* the commit path. Adaptive must coalesce the
//!   interleaved streams (≤ 0.6 media ops per extent; one per extent is
//!   what raw sync writes cost) without paying for it in ack latency: the
//!   run bound (what retires in 100 µs) keeps its ack p90 at or below fixed's.
//!
//! Commit latency is the admission → durable-prefix time the drain
//! records per extent (`snapshot().drain.commit_p99_ns`); ack latency is
//! what the writer sees, submit → acknowledged. Each cell is a closed
//! deterministic simulation; the six cells fan out over host threads and a
//! summary row lands in `BENCH_sweeps.json`. Exits non-zero if any gate
//! fails — CI runs the QUICK variant.

use std::cell::{Cell as StdCell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use rapilog::prelude::*;
use rapilog_bench::table::{f1, TextTable};
use rapilog_bench::{thread_count, Json};
use rapilog_faultsim::run_parallel;
use rapilog_microvisor::{Hypervisor, Trust};
use rapilog_simcore::{Sim, SimDuration, SimRng, SimTime};
use rapilog_simdisk::{specs, BlockDevice, Disk, SECTOR_SIZE};

const EXTENT: u64 = 64 << 10;
const CHANNELS: u32 = 4;
const MAX_BATCH: usize = 2 << 20;
const WINDOW_DEPTH: usize = 2;
const BURST: u64 = 1 << 20;
const BP_WRITERS: u64 = 4;
const BP_CAPACITY: u64 = 16 << 20;

fn policy_of(adaptive: bool) -> BatchPolicy {
    if adaptive {
        BatchPolicy::Adaptive(AdaptiveBatchConfig)
    } else {
        BatchPolicy::Fixed
    }
}

fn build(ctx: &rapilog_simcore::SimCtx, capacity: u64, adaptive: bool) -> RapiLog {
    let hv = Hypervisor::new(ctx);
    let cell = hv.create_cell("rapilog", Trust::Trusted);
    let disk = rapilog_simdisk::Disk::new(ctx, specs::ssd_nvme(2 << 30).with_channels(CHANNELS));
    let rl = RapiLog::builder(ctx)
        .cell(&cell)
        .disk(disk)
        .capacity(CapacitySpec::Fixed(capacity))
        // Zero the ack model so virtual time measures the drain alone.
        .ack_base(SimDuration::from_nanos(0))
        .ack_per_kib(SimDuration::from_nanos(0))
        .drain_config(
            DrainConfig::new()
                .max_batch(MAX_BATCH)
                .window_depth(WINDOW_DEPTH)
                .ordering(OrderingMode::PartiallyConstrained)
                .batch_policy(policy_of(adaptive)),
        )
        .build();
    std::mem::forget(cell);
    rl
}

/// Saturation cell: admit `total` bytes in zero virtual time, then measure
/// how long the drain takes to land them all.
struct SatCell {
    bandwidth_mib_s: f64,
    final_target: u64,
    final_depth: u64,
    guarantee_held: bool,
}

fn run_saturated(seed: u64, adaptive: bool, total: u64) -> SatCell {
    let mut sim = Sim::new(seed);
    let ctx = sim.ctx();
    let rl = build(&ctx, 2 * total, adaptive);
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
    let drain = rl.snapshot().drain;
    SatCell {
        bandwidth_mib_s: total as f64 / (1 << 20) as f64 / secs,
        final_target: drain.batch_target,
        final_depth: drain.window_depth,
        guarantee_held: rl.audit_report().guarantee_held(),
    }
}

/// Low-load cell: 1 MiB bursts on a fixed period chosen for ~1/10th of
/// the saturated bandwidth, reporting the drain's commit-latency tail.
struct LowCell {
    p50_us: f64,
    p99_us: f64,
    commits: u64,
    guarantee_held: bool,
}

fn run_low_load(seed: u64, adaptive: bool, bursts: u64, period: SimDuration) -> LowCell {
    let mut sim = Sim::new(seed);
    let ctx = sim.ctx();
    let rl = build(&ctx, 64 << 20, adaptive);
    let dev = rl.device();
    let rl2 = rl.clone();
    let ctx2 = ctx.clone();
    sim.spawn(async move {
        let sectors_per = EXTENT / SECTOR_SIZE as u64;
        let per_burst = BURST / EXTENT;
        for b in 0..bursts {
            for i in 0..per_burst {
                let n = b * per_burst + i;
                dev.write(
                    n * sectors_per,
                    &vec![(n % 251 + 1) as u8; EXTENT as usize],
                    true,
                )
                .await
                .unwrap();
            }
            ctx2.sleep(period).await;
        }
        rl2.quiesce().await;
    });
    sim.run_until(SimTime::from_secs(600));
    assert_eq!(rl.occupancy(), 0, "cell must fully drain");
    let drain = rl.snapshot().drain;
    assert!(drain.commits_measured > 0, "commit latency must be sampled");
    LowCell {
        p50_us: drain.commit_p50_ns as f64 / 1e3,
        p99_us: drain.commit_p99_ns as f64 / 1e3,
        commits: drain.commits_measured,
        guarantee_held: rl.audit_report().guarantee_held(),
    }
}

/// Back-pressured cell: what the four writers saw, and what it cost the
/// device.
struct BpCell {
    extents_per_s: f64,
    ack_p50_us: f64,
    ack_p90_us: f64,
    ack_p999_us: f64,
    media_ops_per_extent: f64,
    /// The run bound in force when the first writer finished (0 = off).
    run_bound: u64,
    guarantee_held: bool,
}

fn run_back_pressured(seed: u64, adaptive: bool, extents_per_writer: u64) -> BpCell {
    let mut sim = Sim::new(seed);
    let ctx = sim.ctx();
    let hv = Hypervisor::new(&ctx);
    let cell = hv.create_cell("rapilog", Trust::Trusted);
    let disk = Disk::new(&ctx, specs::ssd_nvme(2 << 30).with_channels(CHANNELS));
    // Stock ack model and window (= the channel count): this cell is about
    // what a writer sees, not the drain in isolation.
    let rl = RapiLog::builder(&ctx)
        .cell(&cell)
        .disk(disk.clone())
        .capacity(CapacitySpec::Fixed(BP_CAPACITY))
        .drain_config(
            DrainConfig::new()
                .max_batch(MAX_BATCH)
                .ordering(OrderingMode::PartiallyConstrained)
                .batch_policy(policy_of(adaptive)),
        )
        .build();
    std::mem::forget(cell);
    let acks = Rc::new(RefCell::new(Vec::new()));
    let run_bound = Rc::new(StdCell::new(None));
    let region = disk.geometry().sectors / BP_WRITERS;
    let writers: Vec<_> = (0..BP_WRITERS)
        .map(|w| {
            let (dev, rl, ctx) = (rl.device(), rl.clone(), ctx.clone());
            let (acks, run_bound) = (Rc::clone(&acks), Rc::clone(&run_bound));
            let mut rng = SimRng::seed_from_u64(seed ^ (w + 1));
            sim.spawn(async move {
                let mut at = w * region;
                for i in 0..extents_per_writer {
                    let sectors = 64 + rng.next_u64() % 129;
                    if at + sectors > (w + 1) * region {
                        at = w * region;
                    }
                    let data = vec![(i % 251 + 1) as u8; sectors as usize * SECTOR_SIZE];
                    let t0 = ctx.now();
                    dev.write(at, &data, true).await.unwrap();
                    acks.borrow_mut().push((ctx.now() - t0).as_nanos());
                    at += sectors;
                }
                // Sampled while the other writers still push: the steady
                // state.
                if run_bound.get().is_none() {
                    run_bound.set(Some(rl.snapshot().drain.run_bound_bytes));
                }
            })
        })
        .collect();
    let drained_at = Rc::new(StdCell::new(0u64));
    {
        let (rl, ctx, drained_at) = (rl.clone(), ctx.clone(), Rc::clone(&drained_at));
        sim.spawn(async move {
            for writer in writers {
                writer.await;
            }
            rl.quiesce().await;
            drained_at.set(ctx.now().as_nanos());
        });
    }
    sim.run_until(SimTime::from_secs(600));
    assert_eq!(rl.occupancy(), 0, "cell must fully drain");
    let mut acks = acks.borrow_mut();
    acks.sort_unstable();
    let pct = |p: f64| acks[((acks.len() - 1) as f64 * p / 100.0) as usize] as f64 / 1e3;
    let extents = BP_WRITERS * extents_per_writer;
    BpCell {
        extents_per_s: extents as f64 / (drained_at.get() as f64 / 1e9),
        ack_p50_us: pct(50.0),
        ack_p90_us: pct(90.0),
        ack_p999_us: pct(99.9),
        media_ops_per_extent: disk.stats().media_ops as f64 / extents as f64,
        run_bound: run_bound.get().unwrap_or(0),
        guarantee_held: rl.audit_report().guarantee_held(),
    }
}

enum CellResult {
    Sat(SatCell),
    Low(LowCell),
    Bp(BpCell),
}

fn main() {
    let quick = std::env::var("QUICK").is_ok();
    let total: u64 = if quick { 256 << 20 } else { 1 << 30 };
    let bursts: u64 = if quick { 100 } else { 400 };
    let bp_extents: u64 = if quick { 2_000 } else { 10_000 };
    // ~4 GiB/s saturated on this disk; 1 MiB every 2.56 ms ≈ 400 MiB/s,
    // a tenth of it.
    let period = SimDuration::from_micros(2560);
    let threads = thread_count();
    println!(
        "Ablation E: adaptive vs fixed group-commit batching on ssd-nvme x{CHANNELS} \
         ({} MiB saturated fill, {bursts} x 1 MiB bursts at 1/10th load, \
         {BP_WRITERS} x {bp_extents} back-pressured extents, {threads} threads)\n",
        total >> 20,
    );

    let wall_start = Instant::now();
    // (phase, adaptive): phase 0 = saturation, 1 = low load, 2 = back-pressure.
    let jobs: Vec<(u8, bool)> = (0..3).flat_map(|p| [(p, false), (p, true)]).collect();
    let n_jobs = jobs.len();
    let cells = run_parallel(jobs, threads, |(phase, adaptive)| match phase {
        0 => CellResult::Sat(run_saturated(21, adaptive, total)),
        1 => CellResult::Low(run_low_load(21, adaptive, bursts, period)),
        _ => CellResult::Bp(run_back_pressured(21, adaptive, bp_extents)),
    });
    let wall = wall_start.elapsed();

    let (CellResult::Sat(sat_fixed), CellResult::Sat(sat_adaptive)) = (&cells[0], &cells[1]) else {
        unreachable!("saturation cells come first")
    };
    let (CellResult::Low(low_fixed), CellResult::Low(low_adaptive)) = (&cells[2], &cells[3]) else {
        unreachable!("low-load cells come second")
    };
    let (CellResult::Bp(bp_fixed), CellResult::Bp(bp_adaptive)) = (&cells[4], &cells[5]) else {
        unreachable!("back-pressured cells come last")
    };

    let mut t = TextTable::new(&[
        "policy",
        "saturated MiB/s",
        "final target KiB",
        "final depth",
        "low-load p50 us",
        "low-load p99 us",
    ]);
    for (name, sat, low) in [
        ("fixed", sat_fixed, low_fixed),
        ("adaptive", sat_adaptive, low_adaptive),
    ] {
        t.row(&[
            name.to_string(),
            f1(sat.bandwidth_mib_s),
            format!("{}", sat.final_target >> 10),
            format!("{}", sat.final_depth),
            f1(low.p50_us),
            f1(low.p99_us),
        ]);
    }
    println!("{}", t.render());
    println!("Expected shape: adaptive matches fixed at saturation (it walks its target");
    println!("up the knee) and beats it at 1/10th load (small runs across idle channels).\n");

    let mut t = TextTable::new(&[
        "back-pressured",
        "extents/s",
        "ack p50 us",
        "ack p90 us",
        "ack p99.9 us",
        "media ops/extent",
        "run bound KiB",
    ]);
    for (name, bp) in [("fixed", bp_fixed), ("adaptive", bp_adaptive)] {
        t.row(&[
            name.to_string(),
            f1(bp.extents_per_s),
            f1(bp.ack_p50_us),
            f1(bp.ack_p90_us),
            f1(bp.ack_p999_us),
            format!("{:.2}", bp.media_ops_per_extent),
            format!("{}", bp.run_bound >> 10),
        ]);
    }
    println!("{}", t.render());
    println!("Expected shape: with writers blocked on space both policies coalesce the four");
    println!("streams; fixed builds runs as long as its 2 MiB batch allows and every ack");
    println!("waits for one to land, adaptive bounds the run to what retires in max_hold.");

    let audits_held = sat_fixed.guarantee_held
        && sat_adaptive.guarantee_held
        && low_fixed.guarantee_held
        && low_adaptive.guarantee_held
        && bp_fixed.guarantee_held
        && bp_adaptive.guarantee_held;
    let sat_ratio = sat_adaptive.bandwidth_mib_s / sat_fixed.bandwidth_mib_s;
    let p99_ratio = low_fixed.p99_us / low_adaptive.p99_us;
    println!(
        "\nsaturation adaptive/fixed: {sat_ratio:.3} (gate: >= 0.95), \
         p99 fixed/adaptive: {p99_ratio:.2}x (gate: >= 2.00x), \
         back-pressured adaptive: {:.2} media ops/extent (gate: <= 0.60), \
         ack p90 {:.1} us vs fixed {:.1} us (gate: <=), audits held: {audits_held}",
        bp_adaptive.media_ops_per_extent, bp_adaptive.ack_p90_us, bp_fixed.ack_p90_us,
    );

    let row = Json::obj([
        ("bench", Json::str("abl_adaptive_batching")),
        ("quick", Json::Bool(quick)),
        ("threads", Json::int(threads as u64)),
        ("trials", Json::int(n_jobs as u64)),
        ("sat_fixed_mib_s", Json::Num(sat_fixed.bandwidth_mib_s)),
        (
            "sat_adaptive_mib_s",
            Json::Num(sat_adaptive.bandwidth_mib_s),
        ),
        ("sat_ratio", Json::Num(sat_ratio)),
        ("low_fixed_p99_us", Json::Num(low_fixed.p99_us)),
        ("low_adaptive_p99_us", Json::Num(low_adaptive.p99_us)),
        ("p99_ratio", Json::Num(p99_ratio)),
        (
            "low_commits_measured",
            Json::int(low_fixed.commits + low_adaptive.commits),
        ),
        ("bp_fixed_extents_s", Json::Num(bp_fixed.extents_per_s)),
        (
            "bp_adaptive_extents_s",
            Json::Num(bp_adaptive.extents_per_s),
        ),
        ("bp_fixed_ack_p90_us", Json::Num(bp_fixed.ack_p90_us)),
        ("bp_adaptive_ack_p90_us", Json::Num(bp_adaptive.ack_p90_us)),
        (
            "bp_adaptive_media_ops_per_extent",
            Json::Num(bp_adaptive.media_ops_per_extent),
        ),
        ("bp_adaptive_run_bound", Json::int(bp_adaptive.run_bound)),
        ("wall_ms", Json::int(wall.as_millis() as u64)),
        (
            "trials_per_sec",
            Json::Num(n_jobs as f64 / wall.as_secs_f64()),
        ),
    ]);
    rapilog_bench::json::upsert_line("BENCH_sweeps.json", &row).expect("write BENCH_sweeps.json");

    if !audits_held {
        println!("\nFAIL: an audit reported a violated guarantee");
        std::process::exit(1);
    }
    if sat_ratio < 0.95 {
        println!("\nFAIL: adaptive must stay within 5% of fixed's saturated bandwidth");
        std::process::exit(1);
    }
    if p99_ratio < 2.0 {
        println!("\nFAIL: adaptive must cut low-load p99 commit latency at least 2x");
        std::process::exit(1);
    }
    if bp_adaptive.media_ops_per_extent > 0.6 {
        println!("\nFAIL: back-pressured adaptive must coalesce to <= 0.6 media ops per extent");
        std::process::exit(1);
    }
    if bp_adaptive.ack_p90_us > bp_fixed.ack_p90_us {
        println!("\nFAIL: back-pressured adaptive ack p90 must not exceed fixed's");
        std::process::exit(1);
    }
    println!(
        "\nADAPTIVE_BATCHING_OK sat {sat_ratio:.3} p99 {p99_ratio:.2}x bp {:.2} ops/extent",
        bp_adaptive.media_ops_per_extent
    );
}
