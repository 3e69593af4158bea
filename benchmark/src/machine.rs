//! `storm_hdd` and `tpcc_mixed`: a whole `faultsim::Machine` in the RapiLog
//! setup under `workload::client::run`'s closed-loop clients.
//!
//! The harness owns the executor: it builds the machine in one task, starts
//! `client::run` in another and advances simulated time itself, one slice
//! of the measurement window per `Sim::run_until`, so every slice can be
//! timed on the host and bracketed with stats snapshots.

use std::cell::RefCell;
use std::rc::Rc;

use rapilog::RapiLogSnapshot;
use rapilog_dbengine::buffer::PoolStats;
use rapilog_dbengine::wal::WalStats;
use rapilog_dbengine::{Database, DbError};
use rapilog_faultsim::{Machine, MachineConfig, Setup};
use rapilog_simcore::trace::Layer;
use rapilog_simcore::{JoinHandle, Sim, SimCtx, SimDuration, SimRng, SimTime};
use rapilog_simdisk::{specs, DiskStats, SECTOR_SIZE};
use rapilog_simpower::supplies;
use rapilog_workload::client::{self, JobSource, RunConfig, RunStats, StormSource, TpccSource};
use rapilog_workload::micro;
use rapilog_workload::session::{self, Job, JobOutcome};
use rapilog_workload::tpcc::{self, TpccScale};

use crate::drive::{Ledger, Section, Workload};
use crate::measure::{percentile, Slices, Stopwatch};
use crate::probes::Probe;
use crate::report::Metrics;
use crate::spans::{SpanId, Spans};
use crate::tracefold::TraceFold;
use crate::{alloc, Args};

/// Equal-work slices of the measurement window (host-time estimator):
/// ~50 ms of host time each when the window is sized for 10 s.
const SLICES: u64 = 200;
/// Harness steps per slice in a traced run, so the program's trace ring is
/// folded long before it fills.
const TRACED_STEPS_PER_SLICE: u64 = 5;
/// How far the harness advances the clock while it waits for a task.
const WAIT_STEP: SimDuration = SimDuration::from_millis(1);

#[derive(Clone, Copy)]
enum Load {
    /// The register commit storm over `micro`'s per-client row pairs.
    Storm,
    /// The TPC-C mix at this scale.
    Tpcc(TpccScale),
}

#[derive(Clone)]
pub struct Spec {
    seed: u64,
    machine: MachineConfig,
    load: Load,
    run: RunConfig,
    probes: &'static [Probe],
}

/// `storm_hdd`: the paper's headline. Light-load commit latency with the
/// log on a rotating disk, stock drain (Strict + Fixed).
pub fn storm_hdd(args: &Args) -> Spec {
    let mut machine = MachineConfig::new(
        Setup::RapiLog,
        specs::ssd_sata(64 << 20),
        specs::hdd_7200(32 << 20),
    );
    machine.supply = Some(supplies::atx_psu());
    Spec {
        seed: args.seed,
        machine,
        load: Load::Storm,
        run: RunConfig {
            clients: 4,
            warmup: SimDuration::from_secs(1),
            // ~7 k commits per simulated second; sized so the timed
            // section takes about `--seconds` of host time.
            measure: SimDuration::from_secs(24 * args.seconds),
            think_time: Some(SimDuration::from_micros(500)),
        },
        probes: &[
            Probe::EXECUTOR,
            Probe::WAL_CODEC,
            Probe::VIRTIO_RING,
            Probe::BUFFER_PUSH_POP,
            Probe::DRAIN_EXTENT,
        ],
    }
}

/// `tpcc_mixed`: reads beside writes. The pool (512 pages, 4 MiB) is
/// smaller than the loaded tables, and checkpoints run every simulated
/// second, so page reads, write-back and fuzzy checkpoints compete with
/// log forces.
pub fn tpcc_mixed(args: &Args) -> Spec {
    let mut machine = MachineConfig::new(
        Setup::RapiLog,
        specs::ssd_sata(512 << 20),
        specs::hdd_7200(128 << 20),
    );
    machine.supply = Some(supplies::atx_psu());
    machine.db.pool_pages = 512;
    machine.db.checkpoint_interval = SimDuration::from_secs(1);
    Spec {
        seed: args.seed,
        machine,
        load: Load::Tpcc(TpccScale::medium()),
        run: RunConfig {
            clients: 8,
            warmup: SimDuration::from_secs(1),
            // ~13 k transactions per simulated second.
            measure: SimDuration::from_secs(args.seconds),
            think_time: None,
        },
        probes: &[
            Probe::EXECUTOR,
            Probe::TPCC_GENERATE,
            Probe::WAL_CODEC,
            Probe::VIRTIO_RING,
            Probe::BUFFER_PUSH_POP,
            Probe::DISK_SUBMIT,
        ],
    }
}

/// What the recording job source saw inside the measurement window.
#[derive(Default)]
struct ClientLog {
    commit_ns: Vec<u64>,
    aborted: u64,
    lock_timeouts: u64,
    connection_lost: u64,
}

/// Wraps a `JobSource` so each transaction's submit → outcome time is kept
/// exactly (`RunStats::latency` is a 3 %-bucket histogram). The session
/// layer adds no simulated time between the job's end and the client's
/// wake-up, so this is the latency `client::run` records; `measure`
/// cross-checks count and sum against it.
struct Recording {
    ctx: SimCtx,
    inner: Rc<dyn JobSource>,
    log: Rc<RefCell<ClientLog>>,
    window: (SimTime, SimTime),
}

impl JobSource for Recording {
    fn next_job(&self, client: u64, seq: u64, rng: &mut SimRng) -> (Job, usize) {
        let (job, kind) = self.inner.next_job(client, seq, rng);
        let t0 = self.ctx.now();
        let ctx = self.ctx.clone();
        let log = Rc::clone(&self.log);
        let (from, to) = self.window;
        let wrapped = session::job(move |db: Database| async move {
            let outcome = job(db).await;
            let t1 = ctx.now();
            if t1 >= from && t0 < to {
                let mut log = log.borrow_mut();
                match &outcome {
                    JobOutcome::Committed => log.commit_ns.push((t1 - t0).as_nanos()),
                    JobOutcome::Aborted(DbError::LockTimeout(_)) => log.lock_timeouts += 1,
                    JobOutcome::Aborted(_) => log.aborted += 1,
                    JobOutcome::ConnectionLost => log.connection_lost += 1,
                }
            }
            outcome
        });
        (wrapped, kind)
    }
}

/// Host microseconds of the three machine set-up calls.
#[derive(Clone, Copy, Default)]
struct SetupHost {
    build_us: f64,
    install_us: f64,
    load_us: f64,
}

/// What the set-up task hands back to the harness.
struct Built {
    machine: Machine,
    db: Database,
    source: Rc<dyn JobSource>,
    host: SetupHost,
}

/// A machine that is loaded, warmed up and standing at the first instant
/// of its measurement window.
pub struct Warm {
    sim: Sim,
    ctx: SimCtx,
    machine: Machine,
    db: Database,
    run: JoinHandle<RunStats>,
    log: Rc<RefCell<ClientLog>>,
    measure_start: SimTime,
    host: SetupHost,
}

/// Advances `sim` until `done`, for at most `limit` more.
fn run_while(sim: &mut Sim, limit: SimDuration, done: impl Fn() -> bool) {
    let deadline = sim.now() + limit;
    while !done() {
        assert!(
            sim.now() < deadline,
            "simulation did not get there in {limit}"
        );
        let t = sim.now() + WAIT_STEP;
        sim.run_until(t);
    }
}

/// Stats of every layer at one instant.
struct Snap {
    wal: WalStats,
    pool: PoolStats,
    rl: RapiLogSnapshot,
    data: DiskStats,
}

fn snap(w: &Warm) -> Snap {
    Snap {
        wal: w.db.wal().stats(),
        pool: w.db.pool().stats(),
        rl: w.machine.rapilog().expect("RapiLog setup").snapshot(),
        data: w.machine.data_disk().stats(),
    }
}

impl Workload for Spec {
    type Warm = Warm;
    type Measured = Measured;

    /// Builds, installs, loads and warms up. Everything here is `setup_s`.
    fn warm_up(&self, spans: &Spans, parent: Option<SpanId>) -> (Warm, String) {
        let mut sim = Sim::new(self.seed);
        let ctx = sim.ctx();
        let setup_span = spans.open("setup", parent, ctx.now());
        let built: Rc<RefCell<Option<Built>>> = Rc::new(RefCell::new(None));
        let task = {
            let (ctx, spec, spans, built) =
                (ctx.clone(), self.clone(), spans.clone(), Rc::clone(&built));
            sim.spawn(async move {
                let mut watch = Stopwatch::start();
                let mut host = SetupHost::default();
                let machine = spans.sync("Machine::new", Some(setup_span), ctx.now(), || {
                    Machine::new(&ctx, spec.machine.clone())
                });
                host.build_us = watch.lap() as f64 / 1e3;
                // The WAL region is circular: touch every log sector now so
                // the sparse media store takes no first-touch faults while
                // timed.
                let zero = [0u8; SECTOR_SIZE];
                for sector in 0..spec.machine.log_spec.sectors {
                    machine.log_disk().poke_media(sector, &zero);
                }
                watch.lap();
                let defs = match &spec.load {
                    Load::Storm => micro::table_defs(spec.run.clients as u64),
                    Load::Tpcc(scale) => tpcc::table_defs(scale),
                };
                let span = spans.open("Machine::install", Some(setup_span), ctx.now());
                let db = machine.install(&defs).await.expect("install database");
                spans.close(span, ctx.now());
                host.install_us = watch.lap() as f64 / 1e3;
                let span = spans.open("load", Some(setup_span), ctx.now());
                let source: Rc<dyn JobSource> = match spec.load {
                    Load::Storm => {
                        let table = micro::registers_table(&db).expect("registers table");
                        for c in 0..spec.run.clients as u64 {
                            micro::init_client(&db, table, c)
                                .await
                                .expect("init client");
                        }
                        Rc::new(StormSource)
                    }
                    Load::Tpcc(scale) => {
                        let mut rng = ctx.fork_rng();
                        let tables = tpcc::load(&db, &scale, &mut rng).await.expect("tpcc::load");
                        Rc::new(TpccSource { tables, scale })
                    }
                };
                spans.close(span, ctx.now());
                host.load_us = watch.lap() as f64 / 1e3;
                *built.borrow_mut() = Some(Built {
                    machine,
                    db,
                    source,
                    host,
                });
            })
        };
        run_while(&mut sim, SimDuration::from_secs(600), || task.is_finished());
        let Built {
            machine,
            db,
            source,
            host,
        } = built.borrow_mut().take().expect("set-up task finished");

        let load_end = sim.now();
        let measure_start = load_end + self.run.warmup;
        let log = Rc::new(RefCell::new(ClientLog::default()));
        // Reserved up front (at most ~13 k commits per simulated second) so
        // the vector does not reallocate inside the timed section.
        log.borrow_mut()
            .commit_ns
            .reserve(20_000 * self.run.measure.as_secs().max(1) as usize);
        let recording: Rc<dyn JobSource> = Rc::new(Recording {
            ctx: ctx.clone(),
            inner: source,
            log: Rc::clone(&log),
            window: (measure_start, measure_start + self.run.measure),
        });
        let server = machine.server();
        let run = {
            let (ctx, cfg) = (ctx.clone(), self.run);
            sim.spawn(async move { client::run(&ctx, &server, recording, cfg).await })
        };
        let span = spans.open("warmup", Some(setup_span), sim.now());
        sim.run_until(measure_start);
        spans.close(span, sim.now());
        spans.close(setup_span, sim.now());

        let fingerprint = format!(
            "load_end_ns={} wal={:?} pool={:?}",
            load_end.as_nanos(),
            db.wal().stats(),
            db.pool().stats(),
        );
        let warm = Warm {
            sim,
            ctx,
            machine,
            db,
            run,
            log,
            measure_start,
            host,
        };
        (warm, fingerprint)
    }

    /// Runs the measurement window slice by slice, then the output checks.
    fn measure(
        &self,
        mut w: Warm,
        traced: bool,
        spans: &Spans,
        parent: Option<SpanId>,
    ) -> Measured {
        let before = snap(&w);
        let mut fold = traced.then(|| TraceFold::start(&w.ctx));
        let steps = if traced { TRACED_STEPS_PER_SLICE } else { 1 };
        let slice_ns = self.run.measure.as_nanos() / SLICES;
        let run_span = spans.open("client::run", parent, w.sim.now());
        let (allocs0, bytes0) = alloc::counters();
        let mut slices = Slices::default();
        let mut polls = 0;
        let mut done_ops = 0u64;
        let mut watch = Stopwatch::start();
        for k in 0..SLICES {
            let span = spans.open("slice", Some(run_span), w.sim.now());
            let from = w.measure_start + SimDuration::from_nanos(k * slice_ns);
            for s in 1..=steps {
                let to = from + SimDuration::from_nanos(slice_ns * s / steps);
                polls += w.sim.run_until(to).polls;
                if let Some(f) = fold.as_mut() {
                    f.step();
                }
            }
            spans.close(span, w.sim.now());
            let host_ns = watch.lap();
            let ops = w.log.borrow().commit_ns.len() as u64;
            slices.push(host_ns, ops - done_ops);
            done_ops = ops;
        }
        let (allocs1, bytes1) = alloc::counters();
        if let Some(f) = fold.as_mut() {
            f.finish();
        }
        let after = snap(&w);

        // Clients finish the transaction they were in (and its think time).
        let run = &w.run;
        run_while(&mut w.sim, SimDuration::from_secs(60), || run.is_finished());
        spans.close(run_span, w.sim.now());
        let stats = w.run.try_take().expect("client::run returned its stats");

        // Output checks: the run must have measured a healthy, honest
        // machine.
        let mut check_failures = Vec::new();
        let log = std::mem::take(&mut *w.log.borrow_mut());
        if log.commit_ns.len() as u64 != stats.committed
            || log.commit_ns.iter().map(|&n| u128::from(n)).sum::<u128>() != stats.latency.sum()
            || (log.aborted, log.lock_timeouts, log.connection_lost)
                != (stats.aborted, stats.lock_timeouts, stats.connection_lost)
        {
            check_failures.push("exact latency log disagrees with client::run's RunStats".into());
        }
        if stats.connection_lost != 0 {
            check_failures.push(format!("{} connections lost", stats.connection_lost));
        }
        if w.machine.rapilog_guarantee_held() != Some(true) {
            check_failures.push("rapilog_guarantee_held() is not Some(true)".into());
        }
        w.machine.assert_trusted_intact();
        // No more log writes, then wait until every admitted byte is on
        // media.
        w.db.stop();
        let quiesce = {
            let rl = w.machine.rapilog().expect("RapiLog setup");
            let (spans, ctx) = (spans.clone(), w.ctx.clone());
            w.sim.spawn(async move {
                let span = spans.open("RapiLog::quiesce", parent, ctx.now());
                rl.quiesce().await;
                spans.close(span, ctx.now());
                rl.stats()
            })
        };
        run_while(&mut w.sim, SimDuration::from_secs(60), || {
            quiesce.is_finished()
        });
        let drained = quiesce.try_take().expect("quiesce finished");
        if drained.drained_bytes != drained.accepted_bytes {
            check_failures.push(format!(
                "after quiesce drained_bytes {} != accepted_bytes {}",
                drained.drained_bytes, drained.accepted_bytes
            ));
        }

        Measured {
            slices,
            commit_ns: log.commit_ns,
            stats,
            window: self.run.measure,
            polls,
            allocs: allocs1 - allocs0,
            alloc_bytes: bytes1 - bytes0,
            fold,
            host: w.host,
            before,
            after,
            check_failures,
        }
    }

    fn probes(&self) -> &'static [Probe] {
        self.probes
    }
}

/// Everything one timed section measured.
pub struct Measured {
    slices: Slices,
    commit_ns: Vec<u64>,
    stats: RunStats,
    window: SimDuration,
    polls: u64,
    allocs: u64,
    alloc_bytes: u64,
    fold: Option<TraceFold>,
    host: SetupHost,
    before: Snap,
    after: Snap,
    check_failures: Vec<String>,
}

impl Section for Measured {
    fn fingerprint(&mut self) -> String {
        let a = &self.after;
        format!(
            "committed={} failed={} p50={} p999={} wal={:?} pool={:?} buffer={:?} log_disk={:?} data_disk={:?} polls={}",
            self.stats.committed,
            self.failed(),
            percentile(&mut self.commit_ns, 50.0),
            percentile(&mut self.commit_ns, 99.9),
            a.wal,
            a.pool,
            a.rl.buffer,
            a.rl.disk,
            a.data,
            self.polls,
        )
    }

    fn slices(&self) -> &Slices {
        &self.slices
    }

    /// Failed = aborted + lock-timed-out + connection-lost transactions.
    fn failed(&self) -> u64 {
        self.stats.aborted + self.stats.lock_timeouts + self.stats.connection_lost
    }

    fn attempted(&self) -> u64 {
        self.stats.committed + self.failed()
    }

    fn check_failures(&self) -> &[String] {
        &self.check_failures
    }

    fn op_ns(&mut self) -> &mut Vec<u64> {
        &mut self.commit_ns
    }

    fn ops_per_sim_s(&self) -> f64 {
        self.stats.committed as f64 / self.window.as_secs_f64()
    }

    /// Per-layer counts of the measurement window, as deltas between the
    /// snapshots taken at its two ends, per committed transaction.
    fn layer_metrics(&mut self, m: &mut Metrics) {
        let ops = self.stats.committed;
        m.ratio("simcore.exec.polls_per_op", self.polls, ops);
        m.ratio("simcore.exec.allocs_per_op", self.allocs, ops);
        m.ratio("simcore.exec.alloc_bytes_per_op", self.alloc_bytes, ops);
        m.count("workload.client.attempted", self.attempted());
        m.count("workload.client.aborted", self.stats.aborted);
        m.count("workload.client.lock_timeouts", self.stats.lock_timeouts);
        m.count(
            "workload.client.connection_lost",
            self.stats.connection_lost,
        );
        for (name, p) in [
            ("workload.client.commit_p50_us", 50.0),
            ("workload.client.commit_p99_us", 99.0),
            ("workload.client.commit_p999_us", 99.9),
        ] {
            m.set(name, percentile(&mut self.commit_ns, p) as f64 / 1e3);
        }
        m.set("faultsim.machine.build_host_us", self.host.build_us);
        m.set("faultsim.machine.install_host_us", self.host.install_us);
        m.set("faultsim.machine.load_host_us", self.host.load_us);

        let (b, a) = (&self.before, &self.after);
        let commits = a.wal.commits - b.wal.commits;
        let (hits, misses) = (a.pool.hits - b.pool.hits, a.pool.misses - b.pool.misses);
        m.ratio(
            "dbengine.wal.records_per_commit",
            a.wal.records - b.wal.records,
            commits,
        );
        m.ratio(
            "dbengine.wal.bytes_per_commit",
            a.wal.bytes - b.wal.bytes,
            commits,
        );
        m.ratio(
            "dbengine.wal.commits_per_flush",
            commits,
            a.wal.flushes - b.wal.flushes,
        );
        m.ratio("dbengine.buffer.hit_ratio", hits, hits + misses);
        m.ratio("dbengine.buffer.misses_per_commit", misses, ops);
        m.ratio(
            "dbengine.buffer.writebacks_per_commit",
            a.pool.writebacks - b.pool.writebacks,
            ops,
        );
        buffer_drain_disk_metrics(m, &b.rl, &a.rl, self.window);
        m.count("simdisk.disk.data_reads", a.data.reads - b.data.reads);
        m.count("simdisk.disk.data_writes", a.data.writes - b.data.writes);

        if let Some(f) = &self.fold {
            m.count("simcore.trace.dropped_events", f.dropped);
            for (name, layer) in [
                ("dbengine.engine.sim_us_per_op", Layer::Engine),
                ("dbengine.wal.sim_us_per_op", Layer::Wal),
                ("rapilog.buffer.sim_us_per_op", Layer::Buffer),
                ("rapilog.drain.sim_us_per_op", Layer::Drain),
                ("simdisk.disk.sim_us_per_op", Layer::Disk),
            ] {
                m.set(name, f.us_per_op(layer, ops));
            }
        }
    }

    fn ledger(&self, m: &Metrics) -> Option<Ledger> {
        let per_op = |n: u64| n as f64 / self.stats.committed.max(1) as f64;
        let (b, a) = (&self.before, &self.after);
        let polls = m.get("simcore.exec.polls_per_op");
        let records = m.get("dbengine.wal.records_per_commit");
        let generated = per_op(self.attempted());
        let data_ios = per_op((a.data.reads - b.data.reads) + (a.data.writes - b.data.writes));
        // Every log force and every page read or write-back crosses one
        // virtio ring.
        let ring = per_op(a.wal.flushes - b.wal.flushes) + data_ios;
        let extents = per_op(a.rl.buffer.accepted_writes - b.rl.buffer.accepted_writes);
        let log_media = per_op(a.rl.disk.media_ops - b.rl.disk.media_ops);
        Some(Ledger {
            // A probe this workload does not run reads 0 and drops out.
            host_terms: vec![
                (polls, "simcore.exec.probe_ns_per_poll"),
                (generated, "workload.tpcc.probe_ns_per_generate"),
                (records, "dbengine.wal.probe_ns_per_encode"),
                (ring, "microvisor.ring.probe_ns_per_request"),
                (extents, "rapilog.buffer.probe_ns_per_push_pop"),
                (extents, "rapilog.drain.probe_ns_per_extent"),
                (log_media + data_ios, "simdisk.disk.probe_ns_per_submit"),
            ],
            // Engine, WAL, one ring crossing and the buffer's ack.
            blocking_sim_us: m.get("dbengine.engine.sim_us_per_op")
                + m.get("dbengine.wal.sim_us_per_op")
                + m.get("microvisor.ring.probe_sim_us_per_request")
                + m.get("rapilog.buffer.sim_us_per_op"),
        })
    }

    fn notes(&self) -> Vec<String> {
        vec![format!(
            "{} committed ({:.0} tpmC) in {} simulated; aborted {} lock-timed-out {} connection-lost {}",
            self.stats.committed,
            self.stats.tpm_c(),
            self.window,
            self.stats.aborted,
            self.stats.lock_timeouts,
            self.stats.connection_lost
        )]
    }
}

/// The buffer, drain, audit and log-disk figures of a `RapiLogSnapshot`
/// pair. Shared with `saturate_nvme4`, which has the same instance without
/// a machine around it.
pub fn buffer_drain_disk_metrics(
    m: &mut Metrics,
    b: &RapiLogSnapshot,
    a: &RapiLogSnapshot,
    window: SimDuration,
) {
    let accepted = a.buffer.accepted_bytes - b.buffer.accepted_bytes;
    m.count("rapilog.buffer.accepted_bytes", accepted);
    m.count(
        "rapilog.buffer.backpressure_events",
        a.buffer.backpressure_events - b.buffer.backpressure_events,
    );
    m.count(
        "rapilog.buffer.peak_occupancy_bytes",
        a.buffer.peak_occupancy,
    );
    m.set(
        "rapilog.drain.log_mib_per_sim_s",
        accepted as f64 / (1 << 20) as f64 / window.as_secs_f64(),
    );
    let (d0, d) = (&b.drain, &a.drain);
    // Admit → contiguous durable prefix: how long an acknowledged byte
    // lives only in RAM. The Strict drain loop does not record it (0).
    m.set("rapilog.drain.durable_p50_us", d.commit_p50_ns as f64 / 1e3);
    m.set("rapilog.drain.durable_p99_us", d.commit_p99_ns as f64 / 1e3);
    m.count("rapilog.drain.batch_target_bytes", d.batch_target);
    m.count("rapilog.drain.window_depth", d.window_depth);
    m.count("rapilog.drain.batch_grows", d.batch_grows - d0.batch_grows);
    m.count(
        "rapilog.drain.batch_shrinks",
        d.batch_shrinks - d0.batch_shrinks,
    );
    m.count("rapilog.drain.hold_fires", d.hold_fires - d0.hold_fires);
    m.set(
        "rapilog.drain.ewma_service_us",
        d.ewma_service_ns as f64 / 1e3,
    );
    m.count(
        "rapilog.drain.ooo_retirements",
        a.audit.ooo_retirements - b.audit.ooo_retirements,
    );
    let media_ops = a.disk.media_ops - b.disk.media_ops;
    let media_bytes = (a.disk.sectors_written - b.disk.sectors_written) * SECTOR_SIZE as u64;
    m.ratio("rapilog.drain.bytes_per_media_op", media_bytes, media_ops);
    m.count(
        "rapilog.audit.guarantee_violations",
        u64::from(!a.audit.guarantee_held()),
    );
    m.count(
        "rapilog.audit.drain_retries",
        a.audit.drain_retries - b.audit.drain_retries,
    );
    m.count(
        "rapilog.audit.degraded_entries",
        a.audit.degraded_entries - b.audit.degraded_entries,
    );
    m.count("simdisk.disk.log_writes", a.disk.writes - b.disk.writes);
    m.count("simdisk.disk.log_flushes", a.disk.flushes - b.disk.flushes);
    m.count("simdisk.disk.log_media_ops", media_ops);
    m.ratio(
        "simdisk.disk.media_bytes_per_accepted_byte",
        media_bytes,
        accepted,
    );
    m.ratio(
        "simdisk.disk.log_busy_share",
        (a.disk.busy - b.disk.busy).as_nanos(),
        window.as_nanos(),
    );
    m.count(
        "simdisk.disk.log_max_outstanding",
        u64::from(a.disk.max_outstanding),
    );
}
