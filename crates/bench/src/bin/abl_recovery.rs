//! Ablation F: the crash-recovery pipeline.
//!
//! Three cells, one binary:
//!
//! 1. **What does recovering a write storm cost?** Build one write-heavy
//!    crash image — 2 000 rows, a checkpoint, then an update storm that is
//!    never checkpointed — on a 4-channel `ssd-nvme`, and recover it: the
//!    windowed scan keeps `queue_depth + 1` chunk reads in flight and
//!    partitioned redo overlaps its page reads across channels. The row
//!    reports the scan/redo/undo split.
//!
//! 2. **How far behind the tail does redo start under write pressure?**
//!    Run sustained write pressure (two clients, bursty updates over 40
//!    pages) with the checkpointer at a fixed 25 ms interval, crash
//!    mid-load, and recover. Each checkpoint flushes one snapshot of the
//!    dirty-page table and records the remainder, so it completes every
//!    interval and redo starts at `min(recLSN)` near the log tail
//!    (`checkpoints_complete_under_write_pressure` in dbengine gates that
//!    the checkpoints complete).
//!
//! 3. **Does a rebooted guest read its log back from the buffer that
//!    outlived it?** Crash the guest of a stock RapiLog `Machine` (log on
//!    `hdd_7200`) with ≈ 0.5 MiB of un-checkpointed log and recover it.
//!    The instance still holds what it landed for this guest, and the
//!    engine trimmed the log region before it wrote the first byte, so the
//!    instance also answers for the sectors between the log's tail and the
//!    end of the `recovery::CHUNK` the tail sits in and for the read-ahead chunk
//!    behind them: the log disk must serve **no read at all** — no
//!    superblock, none the scan consumes, none it discards — and recovery
//!    must take at most 1 ms, memory speed. The figures are simulated,
//!    hence exact; they land in the summary row as `hdd_recovery_us` /
//!    `hdd_superblock_us` / `hdd_log_reads` / `hdd_disk_bytes`.
//!
//! Every cell is one closed deterministic simulation, fanned out over host
//! threads (`RAPILOG_BENCH_THREADS`). `QUICK=1` shrinks the storm and the
//! load window. A summary row goes into `BENCH_sweeps.json`; exit status is
//! non-zero if a cell-3 gate fails, so this binary doubles as a CI gate.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use rapilog_bench::table::{f1, TextTable};
use rapilog_bench::{thread_count, Json};
use rapilog_dbengine::{Database, DbConfig, RecoveryReport, TableDef};
use rapilog_faultsim::{run_parallel, run_trial_traced, ExplorerConfig, FaultKind, RecoverySweep};
use rapilog_simcore::{DomainId, SchedulerKind, Sim, SimDuration, SimTime};
use rapilog_simdisk::{specs, BlockDevice, Disk, DiskSpec, SECTOR_SIZE};

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

fn defs() -> Vec<TableDef> {
    vec![TableDef {
        name: "t".to_string(),
        slot_size: 64,
        max_rows: TABLE_ROWS,
    }]
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

/// Builds the write-heavy crash image: all rows inserted and checkpointed,
/// then an update storm whose records all sit above the redo horizon.
fn storm_images(quick: bool) -> (Vec<u8>, Vec<u8>) {
    let mut sim = Sim::new(41);
    let ctx = sim.ctx();
    let data = Disk::new(&ctx, nvme4(32 << 20));
    let log = Disk::new(&ctx, nvme4(32 << 20));
    let d2 = data.clone();
    let l2 = log.clone();
    let c2 = ctx.clone();
    let done = Rc::new(RefCell::new(false));
    let dn = Rc::clone(&done);
    sim.spawn(async move {
        let cfg = DbConfig {
            // No background checkpoints: the storm stays unflushed.
            checkpoint_interval: SimDuration::from_secs(3600),
            ..Default::default()
        };
        let db = Database::create(
            &c2,
            cfg,
            &defs(),
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
        *dn.borrow_mut() = true;
    });
    sim.run_until(SimTime::from_secs(600));
    assert!(*done.borrow(), "storm workload completed");
    (media_image(&data), media_image(&log))
}

/// Recovers a crash image in a fresh simulation and returns the report.
fn recover_image(spec: DiskSpec, images: &(Vec<u8>, Vec<u8>)) -> RecoveryReport {
    let mut sim = Sim::new(7);
    let ctx = sim.ctx();
    let data = Disk::new(&ctx, spec.clone());
    let log = Disk::new(&ctx, spec);
    data.poke_media(0, &images.0);
    log.poke_media(0, &images.1);
    let out: Rc<RefCell<Option<RecoveryReport>>> = Rc::new(RefCell::new(None));
    let o2 = Rc::clone(&out);
    let c2 = ctx.clone();
    sim.spawn(async move {
        let (db, report) = Database::open(
            &c2,
            DbConfig::default(),
            Rc::new(data.clone()) as Rc<dyn BlockDevice>,
            Rc::new(log.clone()) as Rc<dyn BlockDevice>,
            DomainId::ROOT,
        )
        .await
        .expect("recovery");
        db.stop();
        *o2.borrow_mut() = Some(report);
    });
    sim.run_until(SimTime::from_secs(600));
    let report = out.borrow_mut().take().expect("recovery completed");
    report
}

/// Runs sustained write pressure with the checkpointer at a fixed interval,
/// crashes mid-load, and recovers. Returns the recovery report.
fn ckpt_cell(quick: bool) -> RecoveryReport {
    let mut sim = Sim::new(23);
    let ctx = sim.ctx();
    let spec = specs::ssd_sata(64 << 20);
    let data = Disk::new(&ctx, spec.clone());
    let log = Disk::new(&ctx, spec.clone());
    let d2 = data.clone();
    let l2 = log.clone();
    let c2 = ctx.clone();
    sim.spawn(async move {
        let cfg = DbConfig {
            // The fixed checkpoint interval under test.
            checkpoint_interval: SimDuration::from_millis(25),
            ..Default::default()
        };
        let db = Database::create(
            &c2,
            cfg,
            &defs(),
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
        // Two clients on disjoint key ranges (no lock conflicts): bursts of
        // 50 updates per commit keep re-dirtying the whole 40-page working
        // set faster than any flush can clean it.
        for c in 0..2u64 {
            let db = db.clone();
            let mut rng = Rng(100 + c);
            let lo = c * (TABLE_ROWS / 2);
            c2.spawn_in(DomainId::ROOT, async move {
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
    // Crash mid-load: whatever the media holds at the cut is the image.
    let horizon = SimTime::from_millis(if quick { 250 } else { 500 });
    sim.run_until(horizon);
    let images = (media_image(&data), media_image(&log));
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

fn main() {
    let quick = std::env::var("QUICK").is_ok();
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

    let hdd_log_reads = u64::from(!sweep.superblock.is_zero()) + sweep.reads.len() as u64;
    let discarded = sweep.reads.len() - sweep.consumed;
    println!(
        "hdd_7200 log, guest crash, {} KiB un-checkpointed: recovered in {:.2} ms \
         (gate: <= {:.2} ms); {} KiB from the buffer that outlived the guest, {} KiB in \
         {} consumed log-disk read(s) (gate: 0), superblock from the disk: {} \
         (gate: no), {discarded} discarded (gate: 0)",
        hdd.log_end.0 / 1024,
        hdd.duration.as_millis_f64(),
        HDD_BOUND.as_millis_f64(),
        sweep.from_memory / 1024,
        sweep.from_disk() / 1024,
        sweep.consumed,
        if sweep.superblock.is_zero() {
            "no"
        } else {
            "yes"
        },
    );

    let row = Json::obj([
        ("bench", Json::str("abl_recovery")),
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
        ("hdd_superblock_us", Json::int(sweep.superblock.as_micros())),
        ("hdd_log_reads", Json::int(hdd_log_reads)),
        ("hdd_disk_bytes", Json::int(sweep.from_disk())),
        ("wall_ms", Json::int(wall.as_millis() as u64)),
        (
            "trials_per_sec",
            Json::Num(n_jobs as f64 / wall.as_secs_f64()),
        ),
    ]);
    rapilog_bench::json::upsert_line("BENCH_sweeps.json", &row).expect("write BENCH_sweeps.json");

    let mut failed = false;
    if hdd.duration > HDD_BOUND {
        println!(
            "\nFAIL: recovery from the buffer that outlived the guest took {:?}, over its \
             budget {HDD_BOUND:?}",
            hdd.duration
        );
        failed = true;
    }
    if hdd_log_reads != 0 || sweep.from_memory <= hdd.log_end.0 {
        println!(
            "\nFAIL: the instance that outlived the guest must serve superblock, landed log \
             and the trimmed space behind it from memory ({} bytes, log of {}), the log disk \
             nothing; superblock after {:?}, reads {:?}",
            sweep.from_memory, hdd.log_end.0, sweep.superblock, sweep.reads
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "\nRECOVERY_ABLATION_OK storm_recovery={:.1}ms ckpt_scanned={}",
        storm.duration.as_millis_f64(),
        ckpt.scanned_records
    );
}
