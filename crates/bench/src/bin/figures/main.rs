//! The paper's tables and figures [reconstructed], its ablations and the
//! fault gates, as one binary: `figures <name>` runs one entry, `figures`
//! every entry in turn. `QUICK=1` shrinks each run. The cells of every
//! selected `Perf` figure run as one batch through `faultsim::run_parallel`
//! on `RAPILOG_BENCH_THREADS` threads (default: all host cores), merged in
//! cell order; the other entries fan their trials out over the same
//! threads and merge in job order, so no output depends on the thread
//! count. An entry that sweeps upserts a `BENCH_sweeps.json` row whose
//! `bench` is the entry's name.
//!
//! One exit rule. An entry that checks what it ran prints `FAIL: <what>`
//! for each check that broke, after it has written its row, and reports
//! failure; `figures` exits 1 once every selected entry has run if any
//! failed, or if claim 3 broke.
//!
//! Claim 3, performance "never degraded beyond the virtualisation overhead,
//! and at times significantly improved", is such a check: on every pair of
//! cells that differ only in `Setup::Virtualized` vs `Setup::RapiLog`,
//! RapiLog's tps must be no lower and its commit p95 no higher.

use std::cell::RefCell;
use std::fmt::Display;
use std::rc::Rc;
use std::time::{Duration, Instant};

use rapilog::{CapacitySpec, DrainConfig, RapiLog, RapiLogBuilder};
use rapilog_bench::table::{f1, f2, ms, TextTable};
use rapilog_bench::{json, run_perf, thread_count, Json, PerfConfig, PerfOutcome, WorkloadSpec};
use rapilog_dbengine::EngineProfile;
use rapilog_faultsim::{run_parallel, run_trial, FaultKind, Machine, MachineConfig, Setup};
use rapilog_microvisor::{Hypervisor, Trust};
use rapilog_simcore::trace::Layer;
use rapilog_simcore::{Sim, SimCtx, SimDuration, SimTime};
use rapilog_simdisk::{specs, DiskSpec, TimingSpec};
use rapilog_simpower::{budget, supplies};
use rapilog_workload::client::{self, RunConfig, TpccSource};
use rapilog_workload::tpcb::TpcbScale;
use rapilog_workload::tpcc::{self, TpccScale};

mod ablations;
mod faults;
mod tenants;

use ablations::{abl_adaptive_batching, abl_recovery, abl_ssd_channels};
use faults::{crashpoint_sweep, failover_sweep, table2_durability, table4_disk_faults};
use tenants::tenant_fairness;

/// An entry: a table over `run_perf` cells, or a function that runs and
/// prints itself and says whether its checks held.
enum Figure {
    Perf(&'static Perf),
    Plain(fn() -> bool),
}

/// Every entry by name, in the order `figures` runs them all.
static FIGURES: [(&str, Figure); 21] = [
    ("table1_residual", Figure::Plain(table1)),
    ("fig2_commit_latency", Figure::Perf(&FIG2)),
    ("fig3_virt_overhead", Figure::Perf(&FIG3)),
    ("fig4_tpcc_hdd", Figure::Perf(&FIG4)),
    ("fig5_tpcc_ssd", Figure::Perf(&FIG5)),
    ("fig6_engines", Figure::Perf(&FIG6)),
    ("fig7_tpcb", Figure::Perf(&FIG7)),
    ("fig8_occupancy", Figure::Plain(fig8)),
    ("tenant_fairness", Figure::Plain(tenant_fairness)),
    ("fig_latency_breakdown", Figure::Plain(latency_breakdown)),
    ("table3_groupcommit", Figure::Perf(&TABLE3)),
    ("abl_buffer_sweep", Figure::Perf(&ABL_BUFFER)),
    ("abl_disk_sweep", Figure::Perf(&ABL_DISK)),
    ("abl_ckpt_sweep", Figure::Plain(abl_ckpt)),
    ("abl_ssd_channels", Figure::Plain(abl_ssd_channels)),
    (
        "abl_adaptive_batching",
        Figure::Plain(abl_adaptive_batching),
    ),
    ("abl_recovery", Figure::Plain(abl_recovery)),
    ("table2_durability", Figure::Plain(table2_durability)),
    ("table4_disk_faults", Figure::Plain(table4_disk_faults)),
    ("crashpoint_sweep", Figure::Plain(crashpoint_sweep)),
    ("failover_sweep", Figure::Plain(failover_sweep)),
];

/// A figure over `run_perf` cells: a table with one row per `per_row`
/// adjacent cells. A sweep that writes a `BENCH_sweeps.json` row names the
/// row's per-row fields in `json`, and its title gives the thread count.
struct Perf {
    cells: fn(bool) -> Vec<PerfConfig>,
    title: &'static str,
    per_row: usize,
    cols: &'static [Col],
    notes: &'static str,
    json: &'static [Field],
}

/// A table column: its header and how a row's cells fill it.
type Col = (&'static str, fn(&PerfConfig, &[PerfOutcome]) -> String);
/// A field of a sweep's JSON row, filled the same way.
type Field = (&'static str, fn(&PerfConfig, &[PerfOutcome]) -> Json);

fn main() {
    let name = std::env::args().nth(1);
    let wanted = |f: &&(&str, Figure)| name.as_ref().is_none_or(|n| n == f.0);
    let selected: Vec<_> = FIGURES.iter().filter(wanted).collect();
    if selected.is_empty() || std::env::args().len() > 2 {
        let names: Vec<&str> = FIGURES.iter().map(|f| f.0).collect();
        eprintln!("usage: figures [{}]", names.join(" | "));
        std::process::exit(2);
    }
    let quick = quick();
    let cells: Vec<Vec<PerfConfig>> = selected
        .iter()
        .map(|(_, f)| match f {
            Figure::Perf(p) => (p.cells)(quick),
            Figure::Plain(_) => Vec::new(),
        })
        .collect();
    let started = Instant::now();
    let mut outs = run_parallel(cells.concat(), thread_count(), run_perf).into_iter();
    let wall = started.elapsed();
    let (mut pairs, mut broken, mut failed) = (0, 0, Vec::new());
    for (i, ((name, figure), cells)) in selected.into_iter().zip(&cells).enumerate() {
        if i > 0 {
            println!();
        }
        let outs: Vec<PerfOutcome> = outs.by_ref().take(cells.len()).collect();
        // A table has no checks of its own: claim 3, below, is its check.
        let held = match figure {
            Figure::Plain(run) => run(),
            Figure::Perf(p) => {
                p.print(name, cells, &outs, wall);
                true
            }
        };
        if !held {
            failed.push(*name);
        }
        for (v, r) in claim3_pairs(cells) {
            pairs += 1;
            let (virt, rapi) = (&outs[v], &outs[r]);
            if tps(rapi) < tps(virt) || p95(rapi) > p95(virt) {
                broken += 1;
                let c = &cells[v];
                let at = format!("{} clients, log {}", c.run.clients, c.machine.log_spec.name);
                let at = format!("{name} ({at}, {})", c.machine.db.profile.name);
                let show = |o| format!("{:.1} tps, p95 {} ms", tps(o), ms(p95(o)));
                let (virt, rapi) = (show(virt), show(rapi));
                eprintln!("claim 3 FAILS on {at}: rapilog {rapi}; virt-sync {virt}");
            }
        }
    }
    if pairs > 0 && broken == 0 {
        eprintln!("claim 3 holds on {pairs} virt-sync/RapiLog pairs: tps no lower, p95 no higher");
    }
    if !failed.is_empty() {
        eprintln!("figures: checks failed in {}", failed.join(", "));
    }
    if broken > 0 || !failed.is_empty() {
        std::process::exit(1);
    }
}

/// Claim 3's pairs among a figure's cells: each virt-sync cell and the cell
/// that differs from it only in running RapiLog, by index.
fn claim3_pairs(cells: &[PerfConfig]) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    for (i, virt) in cells.iter().enumerate() {
        let mut twin = virt.clone();
        twin.machine.setup = Setup::RapiLog;
        let twin = format!("{twin:?}");
        let j = cells.iter().position(|c| format!("{c:?}") == twin);
        if let Some(j) = j.filter(|_| virt.machine.setup == Setup::Virtualized) {
            pairs.push((i, j));
        }
    }
    pairs
}

impl Perf {
    /// Prints the table; a sweep also writes its `BENCH_sweeps.json` row.
    fn print(&self, name: &str, cells: &[PerfConfig], outs: &[PerfOutcome], wall: Duration) {
        let rows = cells.chunks(self.per_row).zip(outs.chunks(self.per_row));
        let header: Vec<&str> = self.cols.iter().map(|c| c.0).collect();
        let text = |(c, o): (&[PerfConfig], _)| self.cols.iter().map(|f| (f.1)(&c[0], o)).collect();
        if self.json.is_empty() {
            return print_table(self.title, &header, rows.map(text), self.notes);
        }
        let threads = thread_count();
        let title = format!("{} ({threads} threads)", self.title);
        print_table(&title, &header, rows.clone().map(text), self.notes);
        let json = rows.map(|(c, o)| Json::obj(self.json.iter().map(|f| (f.0, (f.1)(&c[0], o)))));
        let trials = cells.len() as u64;
        let fields = vec![
            ("quick", Json::Bool(quick())),
            ("threads", Json::int(threads as u64)),
            ("trials", Json::int(trials)),
            ("rows", Json::Arr(json.collect())),
        ];
        sweep_row(name, fields, trials, wall);
    }
}

/// Prints a titled table and the notes under it.
fn print_table(title: &str, header: &[&str], rows: impl Iterator<Item = Vec<String>>, notes: &str) {
    println!("{title}\n");
    let mut t = TextTable::new(header);
    rows.for_each(|row| t.row(&row));
    println!("{}\n{notes}", t.render());
}

/// Upserts an entry's `BENCH_sweeps.json` row: `bench`, the entry's own
/// `fields`, `wall_ms`, and `trials_per_sec`, which is `done` (trials, or
/// what the entry counts instead) per wall-clock second.
fn sweep_row(name: &str, fields: Vec<(&'static str, Json)>, done: u64, wall: Duration) {
    let per_sec = done as f64 / wall.as_secs_f64();
    let mut row = vec![("bench", Json::str(name))];
    row.extend(fields);
    row.extend([
        ("wall_ms", Json::int(wall.as_millis() as u64)),
        ("trials_per_sec", Json::Num(per_sec)),
    ]);
    json::upsert_line("BENCH_sweeps.json", &Json::obj(row)).expect("write BENCH_sweeps.json");
}

/// Prints `FAIL: <what>` unless a check `held`, and passes `held` on.
fn check(held: bool, what: impl Display) -> bool {
    if !held {
        println!("\nFAIL: {what}");
    }
    held
}

/// A RapiLog instance in a trusted cell of its own over a fresh disk of
/// `spec`, holding `capacity` bytes and draining by `drain`: its builder,
/// for the caller to finish, and the disk. The cell is never torn down.
fn trusted_rapilog(
    ctx: &SimCtx,
    spec: DiskSpec,
    capacity: u64,
    drain: DrainConfig,
) -> (RapiLogBuilder<'static>, rapilog_simdisk::Disk) {
    let hv = Hypervisor::new(ctx);
    let cell = Box::leak(Box::new(hv.create_cell("rapilog", Trust::Trusted)));
    let disk = rapilog_simdisk::Disk::new(ctx, spec);
    let builder = RapiLog::builder(ctx)
        .cell(cell)
        .disk(disk.clone())
        .capacity(CapacitySpec::Fixed(capacity))
        .drain_config(drain);
    (builder, disk)
}

fn quick() -> bool {
    std::env::var("QUICK").is_ok()
}

/// A run-size variable (`SEEDS`, `TRIALS`): its value, or `default` if it
/// is unset or not a number.
fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

type Disk = fn(u64) -> DiskSpec;
type Cells = Vec<PerfConfig>;

/// A cell as most figures run it: TPC-C on RapiLog, with a 1 GiB `instant`
/// data disk, a 512 MiB log disk and an ATX supply; 1 s warmup, no think
/// time and a 5 s window (2 s under QUICK). Figures sweep or change the
/// fields where they differ.
fn cell(seed: u64, log: Disk, clients: usize, quick: bool) -> PerfConfig {
    let mut machine = MachineConfig::new(Setup::RapiLog, specs::instant(1 << 30), log(512 << 20));
    machine.supply = Some(supplies::atx_psu());
    let run = RunConfig {
        clients,
        warmup: SimDuration::from_secs(1),
        measure: SimDuration::from_secs(if quick { 2 } else { 5 }),
        think_time: None,
    };
    let workload = WorkloadSpec::Tpcc(TpccScale::small());
    PerfConfig {
        seed,
        machine,
        workload,
        run,
        trace: false,
    }
}

fn tpcb(mut c: PerfConfig) -> PerfConfig {
    c.workload = WorkloadSpec::Tpcb(TpcbScale::small());
    c
}

/// The single-client commit storm of Fig 2 and the latency breakdown.
fn storm(seed: u64, log: Disk, measure: u64) -> PerfConfig {
    let mut c = cell(seed, log, 1, false);
    c.machine.data_spec = specs::instant(256 << 20);
    c.machine.log_spec = log(256 << 20);
    c.workload = WorkloadSpec::Storm { clients: 1 };
    c.run.warmup = SimDuration::from_millis(500);
    c.run.measure = SimDuration::from_secs(measure);
    c.run.think_time = Some(SimDuration::from_micros(500));
    c
}

/// One more axis of a figure's grid: each cell once per value, in order.
fn sweep<T: Clone>(cells: Cells, values: &[T], set: fn(&mut PerfConfig, T)) -> Cells {
    let mut out = Vec::new();
    for cell in cells {
        for value in values {
            let mut c = cell.clone();
            set(&mut c, value.clone());
            out.push(c);
        }
    }
    out
}

fn by_setup(cells: Cells, setups: &[Setup]) -> Cells {
    sweep(cells, setups, |c, setup| c.machine.setup = setup)
}

fn by_clients(cells: Cells, clients: &[usize]) -> Cells {
    sweep(cells, clients, |c, n| c.run.clients = n)
}

const ALL: [Setup; 3] = [Setup::Native, Setup::Virtualized, Setup::RapiLog];
const SYNC: [Setup; 2] = [Setup::Native, Setup::Virtualized];
const VS: [Setup; 2] = [Setup::Virtualized, Setup::RapiLog];

/// Native, virt-sync and RapiLog over the client sweep, setup-major.
fn setups_by_clients(c: PerfConfig, quick: bool) -> Cells {
    let clients: &[usize] = if quick {
        &[1, 8, 32]
    } else {
        &[1, 2, 4, 8, 16, 32, 64]
    };
    by_clients(by_setup(vec![c], &ALL), clients)
}

fn tps(o: &PerfOutcome) -> f64 {
    o.stats.tps()
}

fn p95(o: &PerfOutcome) -> u64 {
    o.stats.latency.percentile(95.0)
}

fn speedup(o: &[PerfOutcome]) -> f64 {
    tps(&o[1]) / tps(&o[0])
}

/// The cell's buffer backpressure events and peak occupancy (KiB).
fn buffer(o: &[PerfOutcome]) -> (u64, u64) {
    let stats = o[0].buffer.as_ref().expect("rapilog has buffer stats");
    (stats.backpressure_events, stats.peak_occupancy / 1024)
}

fn capacity_kib(c: &PerfConfig) -> u64 {
    match c.machine.rapilog.capacity {
        CapacitySpec::Fixed(bytes) => bytes / 1024,
        CapacitySpec::FromSupply => unreachable!("the sweep fixes every capacity"),
    }
}

fn rotation_ms(c: &PerfConfig) -> f64 {
    c.machine.log_spec.rotation_period().as_millis_f64()
}

const SETUP: Col = ("setup", |c, _| c.machine.setup.label().to_string());
const CLIENTS: Col = ("clients", |c, _| c.run.clients.to_string());
const LOG: Col = ("log disk", |c, _| c.machine.log_spec.name.clone());
const ENGINE: Col = ("engine", |c, _| c.machine.db.profile.name.clone());
const TPMC: Col = ("tpmC", |_, o| format!("{:.0}", o[0].stats.tpm_c()));
const TPS: Col = ("tps", |_, o| format!("{:.0}", tps(&o[0])));
const P50: Col = ("p50 (ms)", |_, o| ms(o[0].stats.latency.percentile(50.0)));
const P95: Col = ("p95 (ms)", |_, o| ms(p95(&o[0])));
const P99: Col = ("p99 (ms)", |_, o| ms(o[0].stats.latency.percentile(99.0)));
const LOCKS: Col = ("lock timeouts", |_, o| o[0].stats.lock_timeouts.to_string());
const SYNC_TPS: Col = ("virt-sync tps", |_, o| f1(tps(&o[0])));
const RAPI_TPS: Col = ("rapilog tps", |_, o| f1(tps(&o[1])));
const SYNC_P95: Col = ("virt-sync p95 (ms)", |_, o| ms(p95(&o[0])));
const RAPI_P95: Col = ("rapilog p95 (ms)", |_, o| ms(p95(&o[1])));
const SPEEDUP: Col = ("speedup", |_, o| format!("{}x", f2(speedup(o))));
const OVERHEAD: Col = ("overhead %", |_, o| {
    f1((tps(&o[0]) - tps(&o[1])) / tps(&o[0]) * 100.0)
});
const DELAY: Col = ("commit_delay", |c, _| {
    let delay = c.machine.db.profile.commit_policy.group_delay;
    format!("{} us", delay.as_micros())
});
const CAPACITY: Col = ("capacity", |c, _| format!("{} KiB", capacity_kib(c)));
const BACKPRESSURE: Col = ("backpressure events", |_, o| buffer(o).0.to_string());
const PEAK: Col = ("peak occupancy (KiB)", |_, o| buffer(o).1.to_string());
const ROTATION: Col = ("rotation (ms)", |c, _| f2(rotation_ms(c)));

/// Table 1: the PSU hold-up windows the paper measured and the log buffer
/// each admits in one region against the disk models' drains.
fn table1() -> bool {
    let disks: [Disk; 3] = [specs::hdd_7200, specs::hdd_15k, specs::ssd_sata];
    let drains = disks.map(|d| (d(1 << 30).sequential_bandwidth(), d(1).positioning_bound()));
    let supplies = [
        supplies::atx_psu(),
        supplies::atx_psu_loaded(),
        supplies::server_psu(),
        supplies::small_ups(),
    ];
    let rows = supplies.iter().map(|spec| {
        let windows = [spec.window(), spec.usable_window()].map(|w| f1(w.as_millis_f64()));
        let mib = |(bw, pos)| f1(budget::drainable_bytes(spec, bw, pos, 1) as f64 / 1048576.0);
        let mut row = vec![spec.name.clone()];
        row.extend(windows);
        row.extend(drains.map(mib));
        row
    });
    let header = "supply|window (ms)|usable (ms)|max buffer hdd-7200 (MiB)|max buffer hdd-15k (MiB)|max buffer ssd-sata (MiB)";
    let notes = format!(
        "Safety rule, in time: bytes ÷ bandwidth + (regions + 1) × positioning ≤ usable window × {:.0}%, in\n\
         one region: a positioning (seek and rotation, or a flash write command) each for it and the op in flight.",
        (1.0 - budget::SAFETY_MARGIN) * 100.0,
    );
    let header: Vec<&str> = header.split('|').collect();
    let title = "Table 1: residual windows and admitted buffer sizes";
    print_table(title, &header, rows, &notes);
    true
}

/// Fig 2: a commit costs a rotation under synchronous logging on an HDD.
const FIG2: Perf = Perf {
    cells: |_| by_setup(vec![storm(2, specs::hdd_7200, 5), storm(2, specs::ssd_sata, 5)], &ALL),
    title: "Fig 2: commit latency, single client, minimal transactions",
    per_row: 1,
    cols: &[LOG, SETUP, P50, P95, P99, ("commits/s", TPS.1)],
    notes: "Expected shape: HDD sync p50 ≈ one rotation (~8 ms); RapiLog p50 well under 1 ms on either disk.",
    json: &[],
};

/// Fig 3: virtualisation alone, the only price RapiLog's design charges.
const FIG3: Perf = Perf {
    cells: |quick| {
        let mut c = cell(3, specs::ssd_nvme, 0, quick);
        c.machine.data_spec = specs::ssd_nvme(1 << 30);
        c.machine.supply = None;
        let clients: &[usize] = if quick { &[8] } else { &[1, 4, 8, 16, 32] };
        by_setup(by_clients(vec![c], clients), &SYNC)
    },
    title: "Fig 3: virtualisation overhead (sync logging on ssd-nvme, TPC-C)",
    per_row: 2,
    cols: &[
        CLIENTS,
        ("native tps", SYNC_TPS.1),
        ("virt tps", RAPI_TPS.1),
        OVERHEAD,
    ],
    notes: "Expected shape: overhead stays in the single-digit percent range.",
    json: &[],
};

/// Fig 4: the headline, TPC-C with the log on a rotating disk.
const FIG4: Perf = Perf {
    cells: |quick| setups_by_clients(cell(4, specs::hdd_7200, 0, quick), quick),
    title: "Fig 4: TPC-C throughput vs clients, log on hdd-7200",
    per_row: 1,
    cols: &[SETUP, CLIENTS, TPMC, TPS, P95, LOCKS],
    notes: "Expected shape: RapiLog ≥ the sync setups everywhere; largest win at 1–8 clients;\n\
            virt-sync tracks native minus a few percent (the virtualisation overhead).",
    json: &[],
};

/// Fig 5: Fig 4 with the log on flash, where sync logging pays no rotation.
const FIG5: Perf = Perf {
    cells: |quick| setups_by_clients(cell(5, specs::ssd_sata, 0, quick), quick),
    title: "Fig 5: TPC-C throughput vs clients, log on ssd-sata",
    per_row: 1,
    cols: &[SETUP, CLIENTS, TPMC, TPS, P95],
    notes:
        "Expected shape: RapiLog ≈ virt-sync (small win at best); the HDD gap from Fig 4 collapses.",
    json: &[],
};

/// Fig 6: engine profiles differ in commit-forcing policy and CPU cost.
const FIG6: Perf = Perf {
    cells: |quick| {
        let engines: [fn() -> EngineProfile; 3] = [
            EngineProfile::pg_like,
            EngineProfile::innodb_like,
            EngineProfile::simple_sync,
        ];
        let base = vec![cell(6, specs::hdd_7200, 0, quick)];
        let cells = sweep(base, &engines, |c, profile| {
            c.machine.db.profile = profile()
        });
        by_setup(by_clients(cells, &[8, 32]), &VS)
    },
    title: "Fig 6: RapiLog speedup over virt-sync per engine profile, TPC-C on hdd-7200",
    per_row: 2,
    cols: &[ENGINE, CLIENTS, SYNC_TPS, RAPI_TPS, SPEEDUP],
    notes: "Expected shape: every engine speeds up by an order of magnitude or more on the\n\
            rotating disk; the absolute ceiling under RapiLog tracks each engine's CPU cost\n\
            per transaction (simple-sync is the most CPU-hungry profile).",
    json: &[],
};

/// Fig 7: TPC-B (pgbench), four writes and a commit per transaction.
const FIG7: Perf = Perf {
    cells: |quick| setups_by_clients(tpcb(cell(7, specs::hdd_7200, 0, quick)), quick),
    title: "Fig 7: TPC-B (pgbench) throughput vs clients, log on hdd-7200",
    per_row: 1,
    cols: &[SETUP, CLIENTS, TPS, P50, P95],
    notes: "Expected shape: single-client sync ≈ 120 tps (one rotation per commit); RapiLog in the thousands.",
    json: &[],
};

/// Fig 8: the buffer breathes under TPC-C load and, after the guest OS
/// crashes, the drain empties it while the database is dead.
fn fig8() -> bool {
    let mut c = cell(8, specs::hdd_7200, 32, false);
    c.run.warmup = SimDuration::from_millis(200);
    c.run.measure = SimDuration::from_secs(60);
    let mut sim = Sim::new(c.seed);
    let ctx = sim.ctx();
    let series: Rc<RefCell<Vec<(u64, u64)>>> = Rc::default();
    let out = Rc::clone(&series);
    sim.spawn(async move {
        let machine = Machine::new(&ctx, c.machine);
        let (scale, mut rng) = (TpccScale::small(), ctx.fork_rng());
        let defs = tpcc::table_defs(&scale);
        let db = machine.install(&defs).await.expect("install");
        let tables = tpcc::load(&db, &scale, &mut rng).await.expect("load");
        let rl = machine.rapilog().expect("rapilog setup");
        // Sampler task: occupancy every 20 ms.
        let (c2, rl2) = (ctx.clone(), rl.clone());
        ctx.spawn(async move {
            loop {
                let sample = (c2.now().as_millis(), rl2.occupancy());
                out.borrow_mut().push(sample);
                c2.sleep(SimDuration::from_millis(20)).await;
            }
        });
        // Load until the crash.
        let (c3, server) = (ctx.clone(), machine.server());
        let load = ctx.spawn(async move {
            let source = Rc::new(TpccSource { tables, scale });
            client::run(&c3, &server, source, c.run).await
        });
        ctx.sleep_until(SimTime::from_secs(3)).await;
        machine.crash_guest();
        let _ = load.await;
        // Watch the drain finish after the guest is gone.
        rl.quiesce().await;
        ctx.sleep(SimDuration::from_millis(200)).await;
    });
    sim.run_until(SimTime::from_secs(10));
    let series = series.borrow();
    // Downsample to ~40 rows for the terminal.
    let rows = series.iter().step_by((series.len() / 40).max(1));
    let rows = rows.map(|(ms, occ)| vec![ms.to_string(), (occ / 1024).to_string()]);
    let title = "Fig 8: RapiLog buffer occupancy, TPC-C 32 clients, guest crash at t=3000 ms";
    let notes = "Expected shape: occupancy fluctuates under load, then falls to 0 shortly after the crash\n\
                 (the drain keeps running inside the trusted cell while the guest is dead).";
    print_table(title, &["t (ms)", "occupancy (KiB)"], rows, notes);
    true
}

/// Where a commit's microseconds go: the single-client storm on an HDD,
/// native and under RapiLog, traced and folded into per-layer busy time
/// per commit. The traces go to `results/trace_*.json` (Chrome
/// `trace_event` form, for Perfetto); a re-run must match byte for byte.
fn latency_breakdown() -> bool {
    let one = |setup| {
        let mut c = storm(22, specs::hdd_7200, 2);
        (c.machine.setup, c.trace) = (setup, true);
        run_perf(c)
    };
    let us = |d: SimDuration| format!("{:.1}", d.as_nanos() as f64 / 1e3);
    let runs = [Setup::Native, Setup::RapiLog].map(|s| (s.label(), one(s)));
    let mut notes = String::new();
    for (label, out) in &runs {
        let commits = out.stats.committed;
        assert!(commits > 0, "{label}: no commits measured");
        let mismatch = format!("{label}: attribution commit count mismatch");
        assert!(out.attribution.commits == commits, "{mismatch}");
        let p50 = us(SimDuration::from_nanos(out.stats.latency.percentile(50.0)));
        let (events, dropped) = (out.trace.events.len(), out.trace.dropped);
        notes += &format!("{label:>10}: {commits} commits, p50 {p50} µs, trace: {events} events ({dropped} dropped)\n");
    }
    std::fs::create_dir_all("results").expect("create results/");
    for (label, out) in &runs {
        let path = format!("results/trace_{label}.json");
        std::fs::write(&path, out.trace.to_chrome()).expect("write trace");
        notes += &format!("wrote {path}\n");
    }
    let same = one(Setup::RapiLog).trace.to_chrome() == runs[1].1.trace.to_chrome();
    assert!(same, "identical seeds must produce byte-identical traces");
    notes += "determinism: re-run with the same seed is byte-identical\n\n\
              Expected shape: native-sync puts ~a disk rotation (thousands of µs) in the disk layer \
              per commit; RapiLog's commit path sits in the buffer layer at single-digit µs while \
              the drain batches disk time off the critical path.";
    // Layers no run ever touched (Fault, in a fault-free run) get no row.
    let touched = |l: &Layer| runs.iter().any(|(_, o)| !o.attribution.busy(*l).is_zero());
    let rows = Layer::ALL.into_iter().filter(touched).map(|l| {
        let mut row = vec![l.label().to_string()];
        row.extend(runs.iter().map(|(_, o)| us(o.attribution.per_commit(l))));
        row
    });
    let header: Vec<String> = runs
        .iter()
        .map(|(l, _)| format!("{l} (µs/commit)"))
        .collect();
    let header = ["layer", &header[0], &header[1]];
    let title = "Latency breakdown: per-layer busy time per acknowledged commit";
    print_table(title, &header, rows, &notes);
    true
}

/// Table 3: the sync path depends on PostgreSQL's `commit_delay`; RapiLog
/// does not.
const TABLE3: Perf = Perf {
    cells: |quick| {
        let base = vec![cell(13, specs::hdd_7200, 16, quick)];
        let cells = sweep(base, &[0, 100, 500, 1_000, 5_000], |c, us| {
            let delay = SimDuration::from_micros(us);
            c.machine.db.profile = match us {
                0 => EngineProfile::pg_like(),
                _ => EngineProfile::pg_like_with_delay(delay),
            }
        });
        by_setup(cells, &VS)
    },
    title: "Table 3: commit_delay sweep, TPC-C 16 clients, log on hdd-7200",
    per_row: 2,
    cols: &[DELAY, SYNC_TPS, SYNC_P95, RAPI_TPS, RAPI_P95, SPEEDUP],
    notes: "Expected shape: the sync path needs the knob (throughput rises with delay, at a\n\
            latency price) while under RapiLog any delay only hurts — the correct setting is\n\
            always 0, and rapilog@0 beats virt-sync at every setting: the tuning dimension\n\
            disappears.",
    json: &[],
};

/// Ablation A: below the knee the buffer is the bottleneck (invariant I5 as
/// a measurement); past it, extra capacity buys nothing.
const ABL_BUFFER: Perf = Perf {
    cells: |quick| {
        let mut c = tpcb(cell(14, specs::hdd_7200, 32, quick));
        c.machine.supply = None;
        let caps_kib = [16, 64, 256, 1024, 4096, 16384];
        sweep(vec![c], &caps_kib, |c, kib| {
            c.machine.rapilog.capacity = CapacitySpec::Fixed(kib * 1024)
        })
    },
    title: "Ablation A: RapiLog buffer capacity sweep, TPC-B 32 clients, log on hdd-7200",
    per_row: 1,
    cols: &[CAPACITY, ("tps", SYNC_TPS.1), BACKPRESSURE, PEAK],
    notes: "Expected shape: throughput rises to a knee, then flattens; below the knee the\n\
            buffer is the bottleneck (backpressure = sync-path speed), above it the CPU is.",
    json: &[
        ("capacity_kib", |c, _| Json::int(capacity_kib(c))),
        ("tps", |_, o| Json::Num(tps(&o[0]))),
        ("backpressure_events", |_, o| Json::int(buffer(o).0)),
        ("peak_occupancy_kib", |_, o| Json::int(buffer(o).1)),
    ],
};

/// Ablation B: RapiLog's win is the rotation it takes off the commit path.
const ABL_DISK: Perf = Perf {
    cells: |quick| {
        let hdd = |rpm| {
            let mut disk = specs::hdd_7200(512 << 20);
            disk.name = format!("hdd-{rpm}");
            if let TimingSpec::Hdd { rpm: r, .. } = &mut disk.timing {
                *r = rpm;
            }
            disk
        };
        let mut logs: Vec<DiskSpec> = [5400, 7200, 10_000, 15_000].map(hdd).into();
        logs.extend([specs::ssd_sata(512 << 20), specs::ssd_nvme(512 << 20)]);
        let base = vec![tpcb(cell(15, specs::hdd_7200, 8, quick))];
        by_setup(sweep(base, &logs, |c, log| c.machine.log_spec = log), &VS)
    },
    title: "Ablation B: RapiLog speedup vs log-device latency, TPC-B 8 clients",
    per_row: 2,
    cols: &[("log device", LOG.1), ROTATION, SYNC_TPS, RAPI_TPS, SPEEDUP],
    notes: "Expected shape: speedup decreases monotonically with rotational latency,\n\
            approaching 1x on NVMe.",
    json: &[
        ("device", |c, _| Json::str(c.machine.log_spec.name.clone())),
        ("rotation_ms", |c, _| Json::Num(rotation_ms(c))),
        ("virt_sync_tps", |_, o| Json::Num(tps(&o[0]))),
        ("rapilog_tps", |_, o| Json::Num(tps(&o[1]))),
        ("speedup", |_, o| Json::Num(speedup(o))),
    ],
};

/// Ablation C: the checkpointer bounds the redo scan. After a guest crash
/// the surviving RapiLog instance still holds the log it landed (up to its
/// idle room), so even the 10 s interval's 230 535 records recover in about
/// 2 ms from memory; after a power cut the trade is the classic one.
fn abl_ckpt() -> bool {
    const INTERVALS_MS: [u64; 6] = [100, 250, 500, 1_000, 2_000, 10_000];
    let started = Instant::now();
    let trial = |interval_ms| {
        let mut machine = cell(42, specs::hdd_7200, 8, false).machine;
        machine.data_spec = specs::instant(256 << 20);
        machine.db.checkpoint_interval = SimDuration::from_millis(interval_ms);
        rapilog_faultsim::TrialConfig {
            machine,
            fault: FaultKind::GuestCrash,
            clients: 8,
            fault_after: SimDuration::from_secs(2),
            think_time: SimDuration::from_micros(200),
        }
    };
    let jobs = INTERVALS_MS.map(trial).into();
    let threads = thread_count();
    let results = run_parallel(jobs, threads, |cfg| run_trial(42, cfg));
    let wall = started.elapsed();
    let mut json_rows = Vec::new();
    let rows = INTERVALS_MS.iter().zip(&results).map(|(&interval_ms, r)| {
        assert!(r.ok, "trial must stay clean: {:?}", r.violations);
        let (acked, rec) = (r.total_acked, &r.recovery);
        let (scanned, redone) = (rec.scanned_records, rec.redo_applied);
        let recovery_ms = rec.duration.as_millis_f64();
        json_rows.push(Json::obj([
            ("interval_ms", Json::int(interval_ms)),
            ("acked_commits", Json::int(acked)),
            ("scanned_records", Json::int(scanned)),
            ("redo_applied", Json::int(redone)),
            ("recovery_ms", Json::Num(recovery_ms)),
        ]));
        let mut row = vec![format!("{interval_ms} ms")];
        row.extend([acked, scanned, redone].map(|n| n.to_string()));
        row.push(f1(recovery_ms));
        row
    });
    let title = format!("Ablation C: checkpoint interval vs recovery, register workload, guest crash at 2 s ({threads} threads)");
    let header = "checkpoint interval|acked commits|records scanned|redo applied|recovery (ms)";
    let notes = "Expected shape: scanned records grow with the interval; recovery time, read\n\
                 from the surviving instance's memory, stays within milliseconds;\n\
                 durability is untouched at every setting (the trial asserts it).";
    print_table(&title, &header.split('|').collect::<Vec<_>>(), rows, notes);
    let trials = results.len() as u64;
    let fields = vec![
        ("threads", Json::int(threads as u64)),
        ("trials", Json::int(trials)),
        ("rows", Json::Arr(json_rows)),
    ];
    sweep_row("abl_ckpt_sweep", fields, trials, wall);
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim_3_covers_every_virt_sync_rapilog_pair_the_figures_run() {
        let pairs = |figure: &Figure, quick| match figure {
            Figure::Perf(p) => claim3_pairs(&(p.cells)(quick)).len(),
            Figure::Plain(_) => 0,
        };
        let quick: Vec<usize> = FIGURES.iter().map(|f| pairs(&f.1, true)).collect();
        assert_eq!(
            quick,
            [0, 2, 0, 3, 3, 6, 3, 0, 0, 0, 5, 0, 6, 0, 0, 0, 0, 0, 0, 0, 0],
            "QUICK pairs per figure"
        );
        let full: usize = FIGURES.iter().map(|f| pairs(&f.1, false)).sum();
        assert_eq!(
            full, 40,
            "full-size pairs: fig4, fig5 and fig7 sweep 7 client counts"
        );
    }

    /// `scripts/perf_gate.sh` runs `figures <bench>` for every baseline row.
    #[test]
    fn every_baseline_row_names_one_entry() {
        let names: Vec<&str> = FIGURES.iter().map(|f| f.0).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "entry names are unique");
        for row in include_str!("../../../../../BENCH_baseline.json").lines() {
            let bench = row
                .split("\"bench\":\"")
                .nth(1)
                .and_then(|r| r.split('"').next());
            let bench = bench.unwrap_or_else(|| panic!("a baseline row without a bench: {row}"));
            assert!(names.contains(&bench), "{bench} is no `figures` entry");
        }
    }
}
