//! Multi-tenant fairness figure: N database cells sharing one RapiLog.
//!
//! Two phases, one number each:
//!
//! 1. **Fleet throughput** — four cells share a sharded RapiLog on a SATA
//!    SSD; 10³ closed-loop sessions (commit storm) are zipf-split over the
//!    cells ([`zipf_split`]'s YCSB-style skew), all drivers run
//!    concurrently in one simulation. Reported: total tps, per-cell tps,
//!    the merged p99/p999 commit latency, and the *session-normalized*
//!    fairness (per-session tps min/max — raw per-cell tps under a zipf
//!    split only reflects the skew, not the scheduler).
//! 2. **Saturation fairness** — the same four-tenant instance on a 7200
//!    rpm disk, every shard driven past its fair share by dedicated
//!    writers, so per-tenant drained bytes measure exactly what the
//!    weighted-round-robin scheduler grants. Under equal weights the
//!    min/max drained ratio must stay ≥ 0.5 (the CI floor; in practice it
//!    sits near 1.0) — a collapsed ratio means one tenant's log traffic
//!    starved another's.
//!
//! A `tenant_fairness` row (throughput, fairness ratio, latency tails) is
//! upserted into `BENCH_sweeps.json`; `trials_per_sec` is fleet commits
//! per wall-clock second, which the perf gate tracks. Exit status is
//! non-zero when the fairness floor is violated.
//!
//! Environment: `QUICK=1` shrinks the session count and windows for smoke
//! runs (the perf-gate configuration).

use std::cell::{Cell as StdCell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use rapilog::{CapacitySpec, DrainConfig, OrderingMode, RapiLog, TenantId, TenantSpec};
use rapilog_bench::table::TextTable;
use rapilog_bench::Json;
use rapilog_dbengine::{Database, DbConfig};
use rapilog_microvisor::{Hypervisor, Trust};
use rapilog_simcore::{DomainId, SectorBuf, Sim, SimCtx, SimDuration, SimTime};
use rapilog_simdisk::{
    specs, BlockDevice, Completion, Disk, Geometry, IoQueue, IoReq, IoResult, LocalBoxFuture,
    ReqToken, SECTOR_SIZE,
};
use rapilog_workload::client::StormSource;
use rapilog_workload::fleet::{run_fleet, FleetConfig, FleetStats};
use rapilog_workload::micro;
use rapilog_workload::session::DbServer;

const CELLS: usize = 4;

/// Per-tenant `(tenant id, drained bytes)` pairs.
type TenantBytes = Vec<(u64, u64)>;

/// One cell's slice of the shared log disk: sectors `base..base + sectors`
/// of its shard's device, addressed from 0. Every database writes its
/// superblock and log from sector 0 of the device it is given, and tenants
/// of one RapiLog must keep to disjoint sectors (`RapiLogBuilder::tenants`).
#[derive(Clone)]
struct Region {
    ctx: SimCtx,
    inner: Rc<dyn BlockDevice>,
    base: u64,
    sectors: u64,
    queue: Rc<IoQueue>,
}

impl BlockDevice for Region {
    fn geometry(&self) -> Geometry {
        Geometry {
            sectors: self.sectors,
            ..self.inner.geometry()
        }
    }

    fn exec(&self, mut req: IoReq) -> LocalBoxFuture<'_, IoResult<Option<SectorBuf>>> {
        let range = match &mut req {
            IoReq::Read { sector, sectors } | IoReq::Trim { sector, sectors } => {
                Some((sector, *sectors))
            }
            IoReq::Write {
                sector, segments, ..
            } => {
                let bytes: usize = segments.iter().map(SectorBuf::len).sum();
                Some((sector, (bytes / SECTOR_SIZE) as u64))
            }
            IoReq::Flush => None,
        };
        if let Some((sector, count)) = range {
            if let Err(e) = self.geometry().check(*sector, count) {
                return Box::pin(async move { Err(e) });
            }
            *sector += self.base;
        }
        self.inner.exec(req)
    }

    fn submit(&self, req: IoReq) -> ReqToken {
        self.queue.submit(&self.ctx, self.clone(), req)
    }

    fn completions(&self) -> LocalBoxFuture<'_, Vec<Completion>> {
        Box::pin(self.queue.completions())
    }

    fn wait(&self, token: ReqToken) -> LocalBoxFuture<'_, IoResult<Option<SectorBuf>>> {
        Box::pin(self.queue.wait(token))
    }

    fn discard(&self, token: ReqToken) {
        self.queue.forget(token);
    }
}

/// Phase 1: a fleet of cells over one sharded RapiLog on an SSD.
fn fleet_phase(quick: bool) -> (FleetStats, TenantBytes) {
    let sessions = if quick { 200 } else { 1000 };
    let (warmup, measure) = if quick {
        (SimDuration::from_millis(200), SimDuration::from_millis(600))
    } else {
        (
            SimDuration::from_millis(500),
            SimDuration::from_millis(1500),
        )
    };
    let mut sim = Sim::new(42);
    let ctx = sim.ctx();
    let out: Rc<RefCell<Option<(FleetStats, TenantBytes)>>> = Rc::new(RefCell::new(None));
    let out2 = Rc::clone(&out);
    sim.spawn(async move {
        let hv = Hypervisor::new(&ctx);
        let cell = hv.create_cell("rapilog", Trust::Trusted);
        let disk = Disk::new(&ctx, specs::ssd_sata(512 << 20));
        let region_sectors = disk.geometry().sectors / CELLS as u64;
        let media = disk.clone();
        let tenant_specs: Vec<TenantSpec> = (0..CELLS as u64).map(TenantSpec::new).collect();
        let rl = RapiLog::builder(&ctx)
            .cell(&cell)
            .disk(disk)
            .capacity(CapacitySpec::Fixed(8 << 20))
            .drain_config(
                DrainConfig::new()
                    .ordering(OrderingMode::PartiallyConstrained)
                    .window_depth(8),
            )
            .tenants(&tenant_specs)
            .build();
        // Every cell is its own database whose WAL device is its shard of
        // the shared instance, confined to a region of the disk of its own;
        // data files sit on instant disks so the log path is the only
        // contended resource.
        let regions: Vec<Region> = (0..CELLS as u64)
            .map(|t| Region {
                ctx: ctx.clone(),
                inner: Rc::new(rl.device_for(TenantId(t)).expect("shard")),
                base: t * region_sectors,
                sectors: region_sectors,
                queue: Rc::new(IoQueue::new()),
            })
            .collect();
        for (a, b) in regions.iter().zip(&regions[1..]) {
            assert!(a.base + a.sectors <= b.base, "cell log regions overlap");
        }
        let mut servers = Vec::new();
        let mut dbs = Vec::new();
        for region in regions {
            let data: Rc<dyn BlockDevice> = Rc::new(Disk::new(&ctx, specs::instant(256 << 20)));
            let log: Rc<dyn BlockDevice> = Rc::new(region);
            let db = Database::create(
                &ctx,
                DbConfig::default(),
                &micro::table_defs(sessions as u64),
                data,
                log,
                DomainId::ROOT,
            )
            .await
            .expect("create cell db");
            let table = micro::registers_table(&db).expect("registers table");
            for c in 0..sessions as u64 {
                micro::init_client(&db, table, c)
                    .await
                    .expect("init client");
            }
            servers.push(DbServer::new(&ctx, db.clone(), DomainId::ROOT));
            dbs.push(db);
        }
        let stats = run_fleet(
            &ctx,
            &servers,
            Rc::new(StormSource),
            FleetConfig {
                sessions,
                theta: 0.99,
                warmup,
                measure,
                think_time: Some(SimDuration::from_millis(1)),
            },
        )
        .await;
        let drained: Vec<(u64, u64)> = rl
            .snapshot()
            .tenants
            .iter()
            .map(|s| (s.tenant, s.buffer.drained_bytes))
            .collect();
        for db in dbs {
            db.stop();
        }
        // Each cell's superblock landed at the start of its own region.
        let mut superblock = vec![0u8; SECTOR_SIZE];
        for t in 0..CELLS as u64 {
            media.peek_media(t * region_sectors, &mut superblock);
            assert!(
                superblock.iter().any(|&b| b != 0),
                "cell {t}: no superblock at its region's first sector"
            );
        }
        *out2.borrow_mut() = Some((stats, drained));
    });
    sim.run_until(SimTime::from_secs(600));
    let result = out.borrow_mut().take().expect("fleet phase completed");
    result
}

/// Phase 2: every shard saturated, per-tenant drained bytes = scheduler's
/// grant. Returns (tenant, bytes drained in the window) per tenant.
fn saturation_phase(quick: bool) -> TenantBytes {
    let warm = SimDuration::from_millis(500);
    let window = if quick {
        SimDuration::from_secs(2)
    } else {
        SimDuration::from_secs(5)
    };
    let mut sim = Sim::new(43);
    let ctx = sim.ctx();
    let out: Rc<RefCell<Option<TenantBytes>>> = Rc::new(RefCell::new(None));
    let out2 = Rc::clone(&out);
    sim.spawn(async move {
        let hv = Hypervisor::new(&ctx);
        let cell = hv.create_cell("rapilog", Trust::Trusted);
        let disk = Disk::new(&ctx, specs::hdd_7200(512 << 20));
        let tenant_specs: Vec<TenantSpec> = (0..CELLS as u64).map(TenantSpec::new).collect();
        let rl = RapiLog::builder(&ctx)
            .cell(&cell)
            .disk(disk)
            .capacity(CapacitySpec::Fixed(4 << 20))
            .drain_config(
                DrainConfig::new()
                    .ordering(OrderingMode::PartiallyConstrained)
                    .window_depth(8)
                    // A fine batch quantum so the round-robin visibly
                    // rotates many times inside the measurement window.
                    .max_batch(256 << 10),
            )
            .tenants(&tenant_specs)
            .build();
        let stop = Rc::new(StdCell::new(false));
        for t in 0..CELLS as u64 {
            for w in 0..2u64 {
                let dev = rl.device_for(TenantId(t)).expect("shard");
                let stop2 = Rc::clone(&stop);
                ctx.spawn(async move {
                    let buf = vec![0xB0u8.wrapping_add(t as u8); 64 * SECTOR_SIZE];
                    let base = t * 100_000 + w * 50_000;
                    let span = 4096u64;
                    let mut i = 0u64;
                    while !stop2.get() {
                        let sector = base + (i * 64) % span;
                        if dev.write(sector, &buf, true).await.is_err() {
                            break;
                        }
                        i += 1;
                    }
                });
            }
        }
        let drained = |rl: &RapiLog| -> Vec<u64> {
            rl.snapshot()
                .tenants
                .iter()
                .map(|s| s.buffer.drained_bytes)
                .collect()
        };
        ctx.sleep(warm).await;
        let t0 = drained(&rl);
        ctx.sleep(window).await;
        let t1 = drained(&rl);
        stop.set(true);
        *out2.borrow_mut() = Some(
            t0.iter()
                .zip(t1.iter())
                .enumerate()
                .map(|(t, (a, b))| (t as u64, b - a))
                .collect(),
        );
    });
    sim.run_until(SimTime::from_secs(30));
    let result = out.borrow_mut().take().expect("saturation phase completed");
    result
}

fn main() {
    let quick = std::env::var("QUICK").is_ok();
    let wall_start = Instant::now();
    println!(
        "Fig: multi-tenant fairness — {CELLS} cells, one sharded RapiLog{}\n",
        if quick { " (QUICK)" } else { "" }
    );

    let (fleet, fleet_drained) = fleet_phase(quick);
    println!(
        "Fleet phase (zipf-split sessions, shared SSD log): {}",
        fleet.summary()
    );
    let mut t = TextTable::new(&["cell", "sessions", "tps", "committed", "log bytes drained"]);
    for (i, s) in fleet.per_cell.iter().enumerate() {
        t.row(&[
            format!("t{i}"),
            fleet.sessions[i].to_string(),
            format!("{:.0}", s.tps()),
            s.committed.to_string(),
            fleet_drained[i].1.to_string(),
        ]);
    }
    println!("{}", t.render());

    let grants = saturation_phase(quick);
    let max = grants.iter().map(|&(_, b)| b).max().unwrap_or(0);
    let min = grants.iter().map(|&(_, b)| b).min().unwrap_or(0);
    let fairness = if max == 0 {
        0.0
    } else {
        min as f64 / max as f64
    };
    println!("Saturation phase (every shard over-driven, 7200 rpm log disk):");
    let mut t = TextTable::new(&["tenant", "drained (KiB)", "share"]);
    let total: u64 = grants.iter().map(|&(_, b)| b).sum();
    for &(tenant, bytes) in &grants {
        t.row(&[
            format!("t{tenant}"),
            (bytes >> 10).to_string(),
            format!("{:.3}", bytes as f64 / total.max(1) as f64),
        ]);
    }
    println!("{}", t.render());
    println!("fairness (min/max drained, equal weights): {fairness:.3}");

    let wall = wall_start.elapsed();
    let lat = fleet.merged_latency();
    let committed = fleet.total_committed();
    let row = Json::obj([
        ("bench", Json::str("tenant_fairness")),
        ("quick", Json::Bool(quick)),
        ("threads", Json::int(1)),
        ("cells", Json::int(CELLS as u64)),
        (
            "sessions",
            Json::int(fleet.sessions.iter().sum::<usize>() as u64),
        ),
        ("committed", Json::int(committed)),
        ("fleet_tps", Json::Num(fleet.total_tps())),
        ("fleet_fairness", Json::Num(fleet.session_fairness())),
        ("fairness", Json::Num(fairness)),
        ("p99_commit_us", Json::int(lat.percentile(99.0) / 1_000)),
        ("p999_commit_us", Json::int(lat.percentile(99.9) / 1_000)),
        ("wall_ms", Json::int(wall.as_millis() as u64)),
        (
            "trials_per_sec",
            Json::Num(committed as f64 / wall.as_secs_f64()),
        ),
    ]);
    rapilog_bench::json::upsert_line("BENCH_sweeps.json", &row).expect("write BENCH_sweeps.json");

    if fairness < 0.5 {
        println!("\nFAIL: fair-share floor violated: min/max drained = {fairness:.3} < 0.5");
        std::process::exit(1);
    }
    if committed == 0 {
        println!("\nFAIL: the fleet committed nothing");
        std::process::exit(1);
    }
    println!("\nFAIRNESS_OK fairness={fairness:.3} committed={committed} (row upserted into BENCH_sweeps.json)");
}
