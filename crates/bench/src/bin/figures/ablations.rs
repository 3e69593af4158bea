//! Ablations D–F: drain bandwidth against SSD channels, adaptive against
//! fixed group-commit batching, and the crash-recovery pipeline. Every cell
//! is one closed deterministic simulation.

use super::*;

use std::cell::Cell as StdCell;
use std::future::Future;

use rapilog::{AdaptiveBatchConfig, BatchPolicy, OrderingMode};
use rapilog_dbengine::{Database, DbConfig, RecoveryReport, TableDef, TableId};
use rapilog_faultsim::{run_trial_traced, ExplorerConfig, RecoverySweep};
use rapilog_simcore::{DomainId, SchedulerKind, SimRng};
use rapilog_simdisk::{BlockDevice, Disk, SECTOR_SIZE};

/// A trusted RapiLog instance over a fresh `disk` holding `capacity` bytes,
/// its ack model zeroed: the client fills the buffer in zero virtual time,
/// so virtual time measures the drain alone.
fn zero_ack(ctx: &SimCtx, disk: DiskSpec, capacity: u64, drain: DrainConfig) -> RapiLog {
    let (builder, _) = trusted_rapilog(ctx, disk, capacity, drain);
    builder
        .ack_base(SimDuration::from_nanos(0))
        .ack_per_kib(SimDuration::from_nanos(0))
        .build()
}

/// Buffers `total` bytes of adjacent-but-disjoint `extent`-byte writes
/// through `rl`, runs `sim` until the drain has landed them all, and
/// returns the drain's bandwidth in MiB/s.
fn drain_flat_out(sim: &mut Sim, rl: &RapiLog, total: u64, extent: u64) -> f64 {
    let ctx = sim.ctx();
    let (dev, rl2) = (rl.device(), rl.clone());
    let task = sim.spawn(async move {
        let sectors_per = extent / SECTOR_SIZE as u64;
        for i in 0..total / extent {
            dev.write(
                i * sectors_per,
                &vec![(i % 251 + 1) as u8; extent as usize],
                true,
            )
            .await
            .unwrap();
        }
        rl2.quiesce().await;
        ctx.now().as_nanos()
    });
    sim.run_until(SimTime::from_secs(600));
    assert_eq!(rl.occupancy(), 0, "cell must fully drain");
    let secs = task.try_take().expect("the drain landed every extent") as f64 / 1e9;
    total as f64 / (1 << 20) as f64 / secs
}

/// The channel counts Ablation D sweeps, and the extent it drains.
const CHANNEL_SWEEP: [u32; 4] = [1, 2, 4, 8];
const SWEEP_EXTENT: u64 = 256 << 10;

/// What one (channels, mode) cell of Ablation D reports back to the table.
struct ChannelCell {
    bandwidth_mib_s: f64,
    max_outstanding: u32,
    guarantee_held: bool,
}

/// Drains `total` bytes of [`SWEEP_EXTENT`]-sized extents onto an
/// `ssd-nvme` with the given channel count.
fn run_channel_cell(seed: u64, channels: u32, mode: OrderingMode, total: u64) -> ChannelCell {
    let mut sim = Sim::new(seed);
    let disk = specs::ssd_nvme(1 << 30).with_channels(channels);
    let drain = DrainConfig::new()
        .max_batch(SWEEP_EXTENT as usize)
        .window_depth(16)
        .ordering(mode);
    let rl = zero_ack(&sim.ctx(), disk, 2 * total, drain);
    let bandwidth_mib_s = drain_flat_out(&mut sim, &rl, total, SWEEP_EXTENT);
    ChannelCell {
        bandwidth_mib_s,
        max_outstanding: rl.snapshot().disk.max_outstanding,
        guarantee_held: rl.audit_report().guarantee_held(),
    }
}

/// Ablation D: drain bandwidth vs SSD channel count × ordering mode. The
/// windowed drain exists to feed a multi-channel SSD: the strict serial
/// drain issues one run at a time, so extra channels sit idle, while
/// `PartiallyConstrained` keeps up to `window_depth` dependency-free runs in
/// flight and should scale with the channel count. This measures pure drain
/// bandwidth (buffered bytes over the virtual time until the buffer
/// empties) on `ssd-nvme` at 1/2/4/8 channels, under both ordering modes.
/// It fails unless the windowed drain's bandwidth grows at least 2x from 1
/// to 4 channels (the headline claim in EXPERIMENTS.md) and every cell's
/// audit holds.
pub(super) fn abl_ssd_channels() -> bool {
    let quick = quick();
    let total: u64 = if quick { 8 << 20 } else { 32 << 20 };
    let threads = thread_count();
    println!(
        "Ablation D: drain bandwidth vs ssd-nvme channels, {} MiB in {} KiB extents \
         ({threads} threads)\n",
        total >> 20,
        SWEEP_EXTENT >> 10
    );

    let wall_start = Instant::now();
    let jobs: Vec<(u32, OrderingMode)> = CHANNEL_SWEEP
        .iter()
        .flat_map(|&ch| {
            [
                (ch, OrderingMode::Strict),
                (ch, OrderingMode::PartiallyConstrained),
            ]
        })
        .collect();
    let n_jobs = jobs.len();
    let cells = run_parallel(jobs, threads, |(ch, mode)| {
        run_channel_cell(18, ch, mode, total)
    });
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
    for (i, &ch) in CHANNEL_SWEEP.iter().enumerate() {
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

    let fields = vec![
        ("quick", Json::Bool(quick)),
        ("threads", Json::int(threads as u64)),
        ("trials", Json::int(n_jobs as u64)),
        ("scaling_1_to_4", Json::Num(scaling)),
        ("rows", Json::Arr(json_rows)),
    ];
    sweep_row("abl_ssd_channels", fields, n_jobs as u64, wall);

    let mut ok = check(audits_held, "an audit reported a violated guarantee");
    ok &= check(
        scaling >= 2.0,
        "windowed drain bandwidth must scale >= 2x from 1 to 4 channels",
    );
    if ok {
        println!("\nCHANNEL_SCALING_OK {scaling:.2}x");
    }
    ok
}

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

fn build(ctx: &SimCtx, capacity: u64, adaptive: bool) -> RapiLog {
    let disk = specs::ssd_nvme(2 << 30).with_channels(CHANNELS);
    let drain = DrainConfig::new()
        .max_batch(MAX_BATCH)
        .window_depth(WINDOW_DEPTH)
        .ordering(OrderingMode::PartiallyConstrained)
        .batch_policy(policy_of(adaptive));
    zero_ack(ctx, disk, capacity, drain)
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
    let rl = build(&sim.ctx(), 2 * total, adaptive);
    let bandwidth_mib_s = drain_flat_out(&mut sim, &rl, total, EXTENT);
    let drain = rl.snapshot().drain;
    SatCell {
        bandwidth_mib_s,
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
    let (dev, rl2) = (rl.device(), rl.clone());
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
            ctx.sleep(period).await;
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
    // Stock ack model and window (= the channel count): this cell is about
    // what a writer sees, not the drain in isolation.
    let drain = DrainConfig::new()
        .max_batch(MAX_BATCH)
        .ordering(OrderingMode::PartiallyConstrained)
        .batch_policy(policy_of(adaptive));
    let nvme = specs::ssd_nvme(2 << 30).with_channels(CHANNELS);
    let (builder, disk) = trusted_rapilog(&ctx, nvme, BP_CAPACITY, drain);
    let rl = builder.build();
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
    let rl2 = rl.clone();
    let drained = sim.spawn(async move {
        for writer in writers {
            writer.await;
        }
        rl2.quiesce().await;
        ctx.now().as_nanos()
    });
    sim.run_until(SimTime::from_secs(600));
    assert_eq!(rl.occupancy(), 0, "cell must fully drain");
    let drained_at = drained.try_take().expect("the writers finished") as f64 / 1e9;
    let mut acks = acks.borrow_mut();
    acks.sort_unstable();
    let pct = |p: f64| acks[((acks.len() - 1) as f64 * p / 100.0) as usize] as f64 / 1e3;
    let extents = BP_WRITERS * extents_per_writer;
    BpCell {
        extents_per_s: extents as f64 / drained_at,
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

/// Ablation E: adaptive group-commit batching vs the fixed policy. The
/// adaptive controller must win on both ends of the load curve or it isn't
/// worth its complexity. Three cells per policy, on an `ssd-nvme` with 4
/// channels (DESIGN.md §15):
///
/// * **Saturation**: a pre-filled buffer drained flat out. The controller
///   starts at its 64 KiB floor and must walk its target up the knee fast
///   enough to match (or beat) the fixed 2 MiB policy: the gate is
///   adaptive ≥ 95% of fixed's bandwidth.
/// * **1/10th load**: 1 MiB bursts arriving at a tenth of the saturated
///   bandwidth. Fixed pops the whole burst as one fat run, so every commit
///   waits for it; adaptive decays to small runs and widens the window
///   across the idle channels: the gate is fixed p99 commit latency ≥ 2×
///   adaptive's.
/// * **Back-pressured, 4 interleaved writers**: four closed-loop writers
///   append 32–96 KiB extents to private regions through a buffer far
///   smaller than the run, so every ack waits for the drain's next release
///   and the drain *is* the commit path. Adaptive must coalesce the
///   interleaved streams (≤ 0.6 media ops per extent; one per extent is
///   what raw sync writes cost) without paying for it in ack latency: the
///   run bound (what retires in 100 µs) keeps its ack p90 at or below
///   fixed's.
///
/// Commit latency is the admission → durable-prefix time the drain records
/// per extent (`snapshot().drain.commit_p99_ns`); ack latency is what the
/// writer sees, submit → acknowledged.
pub(super) fn abl_adaptive_batching() -> bool {
    let quick = quick();
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

    let fields = vec![
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
    ];
    sweep_row("abl_adaptive_batching", fields, n_jobs as u64, wall);

    let mut ok = check(audits_held, "an audit reported a violated guarantee");
    ok &= check(
        sat_ratio >= 0.95,
        "adaptive must stay within 5% of fixed's saturated bandwidth",
    );
    ok &= check(
        p99_ratio >= 2.0,
        "adaptive must cut low-load p99 commit latency at least 2x",
    );
    ok &= check(
        bp_adaptive.media_ops_per_extent <= 0.6,
        "back-pressured adaptive must coalesce to <= 0.6 media ops per extent",
    );
    ok &= check(
        bp_adaptive.ack_p90_us <= bp_fixed.ack_p90_us,
        "back-pressured adaptive ack p90 must not exceed fixed's",
    );
    if ok {
        println!(
            "\nADAPTIVE_BATCHING_OK sat {sat_ratio:.3} p99 {p99_ratio:.2}x bp {:.2} ops/extent",
            bp_adaptive.media_ops_per_extent
        );
    }
    ok
}

const TABLE_ROWS: u64 = 2_000;

/// Deterministic multiplier-increment generator: every cell replays
/// bit-identically.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }
}

fn nvme4(bytes: u64) -> DiskSpec {
    specs::ssd_nvme(bytes).with_channels(4)
}

/// The durable media contents, cache excluded — what a crash leaves behind.
fn media_image(d: &Disk) -> Vec<u8> {
    let mut buf = vec![0u8; (d.spec().sectors * SECTOR_SIZE as u64) as usize];
    d.peek_media(0, &mut buf);
    buf
}

/// The crash image (data, log) a one-table database leaves on two fresh
/// disks of `spec` at `horizon`: it is created with `cfg`, all
/// [`TABLE_ROWS`] rows are committed in one transaction, and then `work`
/// runs on it.
fn crash_image<W, F>(
    seed: u64,
    spec: DiskSpec,
    cfg: DbConfig,
    horizon: SimTime,
    work: W,
) -> (Vec<u8>, Vec<u8>)
where
    W: FnOnce(SimCtx, Database, TableId) -> F + 'static,
    F: Future<Output = ()> + 'static,
{
    let mut sim = Sim::new(seed);
    let ctx = sim.ctx();
    let data = Disk::new(&ctx, spec.clone());
    let log = Disk::new(&ctx, spec);
    let (d2, l2) = (data.clone(), log.clone());
    let task = sim.spawn(async move {
        let defs = [TableDef {
            name: "t".to_string(),
            slot_size: 64,
            max_rows: TABLE_ROWS,
        }];
        let db = Database::create(
            &ctx,
            cfg,
            &defs,
            Rc::new(d2) as Rc<dyn BlockDevice>,
            Rc::new(l2) as Rc<dyn BlockDevice>,
            DomainId::ROOT,
        )
        .await
        .unwrap();
        let t = db.table("t").unwrap();
        let txn = db.begin().await.unwrap();
        for k in 0..TABLE_ROWS {
            db.insert(txn, t, k, b"initial-row-image-000")
                .await
                .unwrap();
        }
        db.commit(txn).await.unwrap();
        work(ctx, db, t).await
    });
    sim.run_until(horizon);
    assert!(task.is_finished(), "the workload ran");
    (media_image(&data), media_image(&log))
}

/// Builds the write-heavy crash image: all rows inserted and checkpointed,
/// then an update storm whose records all sit above the redo horizon.
fn storm_images(quick: bool) -> (Vec<u8>, Vec<u8>) {
    let cfg = DbConfig {
        // No background checkpoints: the storm stays unflushed.
        checkpoint_interval: SimDuration::from_secs(3600),
        ..Default::default()
    };
    let horizon = SimTime::from_secs(600);
    crash_image(
        41,
        nvme4(32 << 20),
        cfg,
        horizon,
        move |_, db, t| async move {
            db.checkpoint().await.unwrap();
            let mut rng = Rng(41);
            let batches = if quick { 600 } else { 1600 };
            for _ in 0..batches {
                let txn = db.begin().await.unwrap();
                for _ in 0..50 {
                    let k = rng.next() % TABLE_ROWS;
                    db.update(txn, t, k, b"updated-row-image-after-the-checkpoint")
                        .await
                        .unwrap();
                }
                db.commit(txn).await.unwrap();
            }
            db.wal().kick();
            db.wal().wait_durable(db.wal().end()).await.unwrap();
            db.stop();
        },
    )
}

/// Recovers a crash image in a fresh simulation and returns the report.
fn recover_image(spec: DiskSpec, images: &(Vec<u8>, Vec<u8>)) -> RecoveryReport {
    let mut sim = Sim::new(7);
    let ctx = sim.ctx();
    let data = Disk::new(&ctx, spec.clone());
    let log = Disk::new(&ctx, spec);
    data.poke_media(0, &images.0);
    log.poke_media(0, &images.1);
    let task = sim.spawn(async move {
        let (db, report) = Database::open(
            &ctx,
            DbConfig::default(),
            Rc::new(data.clone()) as Rc<dyn BlockDevice>,
            Rc::new(log.clone()) as Rc<dyn BlockDevice>,
            DomainId::ROOT,
        )
        .await
        .expect("recovery");
        db.stop();
        report
    });
    sim.run_until(SimTime::from_secs(600));
    task.try_take().expect("recovery completed")
}

/// Runs sustained write pressure with the checkpointer at a fixed interval,
/// crashes mid-load, and recovers. Returns the recovery report.
fn ckpt_cell(quick: bool) -> RecoveryReport {
    let spec = specs::ssd_sata(64 << 20);
    let cfg = DbConfig {
        // The fixed checkpoint interval under test.
        checkpoint_interval: SimDuration::from_millis(25),
        ..Default::default()
    };
    // Crash mid-load: whatever the media holds at the cut is the image.
    let horizon = SimTime::from_millis(if quick { 250 } else { 500 });
    let images = crash_image(23, spec.clone(), cfg, horizon, |ctx, db, t| async move {
        // Two clients on disjoint key ranges (no lock conflicts): bursts of
        // 50 updates per commit keep re-dirtying the whole 40-page working
        // set faster than any flush can clean it.
        for c in 0..2u64 {
            let db = db.clone();
            let mut rng = Rng(100 + c);
            let lo = c * (TABLE_ROWS / 2);
            ctx.spawn_in(DomainId::ROOT, async move {
                loop {
                    let txn = db.begin().await.unwrap();
                    for _ in 0..50 {
                        let k = lo + rng.next() % (TABLE_ROWS / 2);
                        db.update(txn, t, k, b"sustained-write-pressure-row")
                            .await
                            .unwrap();
                    }
                    db.commit(txn).await.unwrap();
                }
            });
        }
    });
    recover_image(spec, &images)
}

/// What recovering half a megabyte of log from memory may take.
const HDD_BOUND: SimDuration = SimDuration::from_millis(1);

/// Crashes the guest of the stock single-tenant RapiLog machine (the
/// crash-point grid's, minus the background transient-fault lottery so the
/// read count is the scan's alone) after 290 ms of load — ≈ 0.5 MiB of log,
/// never checkpointed — and returns the recovery report with the log disk's
/// side of it.
fn hdd_cell() -> (RecoveryReport, RecoverySweep) {
    let seed = 0x5EED;
    let mut cfg = ExplorerConfig::rapilog_default();
    cfg.log_fault = None;
    let trial = cfg.trial(seed, FaultKind::GuestCrash, SimDuration::from_millis(290));
    let (result, _, trace) = run_trial_traced(seed, trial, SchedulerKind::TimerWheel);
    assert!(result.ok, "violations: {:?}", result.violations);
    let sweep = RecoverySweep::from_trace(&trace).expect("the recover span is in the ring");
    (result.recovery, sweep)
}

/// Ablation F: the crash-recovery pipeline, three cells.
///
/// 1. **What does recovering a write storm cost?** Build one write-heavy
///    crash image (2 000 rows, a checkpoint, then an update storm that is
///    never checkpointed) on a 4-channel `ssd-nvme`, and recover it: the
///    windowed scan keeps `queue_depth + 1` chunk reads in flight and
///    partitioned redo overlaps its page reads across channels. The row
///    reports the scan/redo/undo split.
/// 2. **How far behind the tail does redo start under write pressure?**
///    Run sustained write pressure (two clients, bursty updates over 40
///    pages) with the checkpointer at a fixed 25 ms interval, crash
///    mid-load, and recover. Each checkpoint flushes one snapshot of the
///    dirty-page table and records the remainder, so it completes every
///    interval and redo starts at `min(recLSN)` near the log tail
///    (`checkpoints_complete_under_write_pressure` in dbengine gates that
///    the checkpoints complete).
/// 3. **Does a rebooted guest read its log back from the buffer that
///    outlived it?** Crash the guest of a stock RapiLog `Machine` (log on
///    `hdd_7200`) with ≈ 0.5 MiB of un-checkpointed log and recover it.
///    The instance still holds what it landed for this guest, and the
///    engine trimmed the log region before it wrote the first byte, so the
///    instance also answers for the sectors between the log's tail and the
///    end of the `recovery::CHUNK` the tail sits in and for the read-ahead
///    chunk behind them: the log disk must serve **no read at all** (none
///    the scan consumes, none it discards; the superblock comes with the
///    catalog page, from the data device) and recovery must take at most
///    [`HDD_BOUND`], memory speed. It fails otherwise. The figures are
///    simulated, hence exact; they land in the row as `hdd_recovery_us` /
///    `hdd_log_reads` / `hdd_disk_bytes`.
///
/// QUICK shrinks the storm and the load window.
pub(super) fn abl_recovery() -> bool {
    let quick = quick();
    let threads = thread_count();
    println!(
        "Ablation F: recovering a write storm, checkpoints under write pressure, \
         one-sweep read-back on a rotating log ({threads} threads{})\n",
        if quick { ", QUICK" } else { "" }
    );

    let wall_start = Instant::now();
    let cells = vec![false, true];
    let n_jobs = cells.len() + 1;
    let reports = run_parallel(cells, threads, move |ckpt| {
        if ckpt {
            ckpt_cell(quick)
        } else {
            recover_image(nvme4(32 << 20), &storm_images(quick))
        }
    });
    // One 20 ms trial: not worth a thread of its own.
    let (hdd, sweep) = hdd_cell();
    let wall = wall_start.elapsed();
    let (storm, ckpt) = (&reports[0], &reports[1]);

    let mut t = TextTable::new(&[
        "crash image",
        "scanned",
        "applied",
        "skipped clean",
        "scan ms",
        "redo ms",
        "undo ms",
        "total ms",
    ]);
    for (label, r) in [
        ("update storm, nvme x4", storm),
        ("25 ms checkpoints, sata", ckpt),
    ] {
        t.row(&[
            label.to_string(),
            r.scanned_records.to_string(),
            r.redo_applied.to_string(),
            r.redo_skipped_clean.to_string(),
            f1(r.scan_time.as_millis_f64()),
            f1(r.redo_time.as_millis_f64()),
            f1(r.undo_time.as_millis_f64()),
            f1(r.duration.as_millis_f64()),
        ]);
    }
    println!("{}", t.render());
    println!("Expected shape: the storm's redo starts at its one checkpoint and replays every");
    println!("update; under write pressure every 25 ms checkpoint completes, so redo starts");
    println!("near the tail.\n");

    let hdd_log_reads = sweep.reads.len() as u64;
    let discarded = sweep.reads.len() - sweep.consumed;
    println!(
        "hdd_7200 log, guest crash, {} KiB un-checkpointed: recovered in {:.2} ms \
         (gate: <= {:.2} ms); {} KiB from the buffer that outlived the guest, {} KiB in \
         {} consumed log-disk read(s) (gate: 0), {discarded} discarded (gate: 0)",
        hdd.log_end.0 / 1024,
        hdd.duration.as_millis_f64(),
        HDD_BOUND.as_millis_f64(),
        sweep.from_memory / 1024,
        sweep.from_disk() / 1024,
        sweep.consumed,
    );

    let fields = vec![
        ("quick", Json::Bool(quick)),
        ("threads", Json::int(threads as u64)),
        ("trials", Json::int(n_jobs as u64)),
        ("storm_scanned", Json::int(storm.scanned_records)),
        ("storm_redo_applied", Json::int(storm.redo_applied)),
        ("storm_scan_us", Json::int(storm.scan_time.as_micros())),
        ("storm_redo_us", Json::int(storm.redo_time.as_micros())),
        ("storm_undo_us", Json::int(storm.undo_time.as_micros())),
        ("storm_recovery_us", Json::int(storm.duration.as_micros())),
        ("ckpt_scanned", Json::int(ckpt.scanned_records)),
        ("ckpt_recovery_us", Json::int(ckpt.duration.as_micros())),
        ("hdd_recovery_us", Json::int(hdd.duration.as_micros())),
        ("hdd_log_reads", Json::int(hdd_log_reads)),
        ("hdd_disk_bytes", Json::int(sweep.from_disk())),
    ];
    sweep_row("abl_recovery", fields, n_jobs as u64, wall);

    let mut ok = check(
        hdd.duration <= HDD_BOUND,
        format_args!(
            "recovery from the buffer that outlived the guest took {:?}, over its budget \
             {HDD_BOUND:?}",
            hdd.duration
        ),
    );
    ok &= check(
        hdd_log_reads == 0 && sweep.from_memory > hdd.log_end.0,
        format_args!(
            "the instance that outlived the guest must serve landed log and the trimmed \
             space behind it from memory ({} bytes, log of {}), the log disk nothing; \
             reads {:?}",
            sweep.from_memory, hdd.log_end.0, sweep.reads
        ),
    );
    if ok {
        println!(
            "\nRECOVERY_ABLATION_OK storm_recovery={:.1}ms ckpt_scanned={}",
            storm.duration.as_millis_f64(),
            ckpt.scanned_records
        );
    }
    ok
}
