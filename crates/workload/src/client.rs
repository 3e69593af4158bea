//! The measurement driver: N closed-loop clients with warmup and a
//! steady-state window.
//!
//! Clients are external to the machine under test (they live in the root
//! domain, like the paper's load generators on a separate box) and submit
//! whole transactions to the [`session`](crate::session) server.
//! Latency is recorded only inside the measurement window; tpmC counts
//! committed New-Orders per minute.

use std::cell::RefCell;
use std::rc::Rc;

use rapilog_simcore::rng::SimRng;

use rapilog_dbengine::DbError;
use rapilog_simcore::rng::exponential;
use rapilog_simcore::stats::Histogram;
use rapilog_simcore::trace::{Layer, Payload};
use rapilog_simcore::{SimCtx, SimDuration};

use crate::session::{DbServer, Job, JobOutcome};
use crate::tpcb::{self, TpcbScale, TpcbTables};
use crate::tpcc::{self, TpccScale, TpccTables};

/// Driver configuration.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Warmup (excluded from statistics).
    pub warmup: SimDuration,
    /// Measurement window.
    pub measure: SimDuration,
    /// Mean exponential think time between transactions (`None` = none).
    pub think_time: Option<SimDuration>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            clients: 8,
            warmup: SimDuration::from_secs(2),
            measure: SimDuration::from_secs(10),
            think_time: None,
        }
    }
}

/// Results of one run (measurement window only).
#[derive(Clone)]
pub struct RunStats {
    /// Committed transactions.
    pub committed: u64,
    /// Aborted transactions (excluding lock timeouts).
    pub aborted: u64,
    /// Lock timeouts (deadlock breaks; retried by the mix).
    pub lock_timeouts: u64,
    /// Transactions lost to connection death (guest crash).
    pub connection_lost: u64,
    /// Commit latency histogram, nanoseconds.
    pub latency: Histogram,
    /// Commits per kind (TPC-C: NO/P/OS/D/SL; others use slot 0).
    pub kind_commits: [u64; 5],
    /// Length of the measurement window.
    pub elapsed: SimDuration,
}

impl RunStats {
    fn new(elapsed: SimDuration) -> RunStats {
        RunStats {
            committed: 0,
            aborted: 0,
            lock_timeouts: 0,
            connection_lost: 0,
            latency: Histogram::new(),
            kind_commits: [0; 5],
            elapsed,
        }
    }

    /// Committed transactions per second.
    pub fn tps(&self) -> f64 {
        self.committed as f64 / self.elapsed.as_secs_f64()
    }

    /// Committed New-Orders per minute (TPC-C's tpmC).
    pub fn tpm_c(&self) -> f64 {
        self.kind_commits[0] as f64 * 60.0 / self.elapsed.as_secs_f64()
    }

    /// One-line summary for harness output.
    pub fn summary(&self) -> String {
        format!(
            "tps={:.1} tpmC={:.0} p50={:.2}ms p95={:.2}ms p99={:.2}ms aborts={} lockto={} lost={}",
            self.tps(),
            self.tpm_c(),
            self.latency.percentile(50.0) as f64 / 1e6,
            self.latency.percentile(95.0) as f64 / 1e6,
            self.latency.percentile(99.0) as f64 / 1e6,
            self.aborted,
            self.lock_timeouts,
            self.connection_lost,
        )
    }
}

/// A per-transaction generator: given `(client, seq, rng)`, produce a job
/// and its kind index.
pub trait JobSource: 'static {
    /// Builds the next transaction for a client.
    fn next_job(&self, client: u64, seq: u64, rng: &mut SimRng) -> (Job, usize);
}

/// Runs `cfg.clients` closed-loop clients against `server`.
pub async fn run(
    ctx: &SimCtx,
    server: &DbServer,
    source: Rc<dyn JobSource>,
    cfg: RunConfig,
) -> RunStats {
    let stats = Rc::new(RefCell::new(RunStats::new(cfg.measure)));
    let start = ctx.now();
    let measure_start = start + cfg.warmup;
    let end = measure_start + cfg.measure;
    let mut handles = Vec::new();
    for client in 0..cfg.clients as u64 {
        let server = server.clone();
        let ctx2 = ctx.clone();
        let mut rng = ctx.fork_rng();
        let stats = Rc::clone(&stats);
        let source = Rc::clone(&source);
        handles.push(ctx.spawn(async move {
            let mut seq = 0u64;
            loop {
                if ctx2.now() >= end {
                    break;
                }
                let (job, kind) = source.next_job(client, seq, &mut rng);
                seq += 1;
                let t0 = ctx2.now();
                let outcome = server.submit(job).await;
                let t1 = ctx2.now();
                if t1 >= measure_start && t0 < end {
                    let mut s = stats.borrow_mut();
                    match outcome {
                        JobOutcome::Committed => {
                            s.committed += 1;
                            s.kind_commits[kind] += 1;
                            s.latency.record((t1 - t0).as_nanos());
                            ctx2.tracer().instant(
                                t1,
                                Layer::App,
                                "commit",
                                Payload::Commit {
                                    txn: seq,
                                    latency: (t1 - t0).as_nanos(),
                                },
                            );
                        }
                        JobOutcome::Aborted(DbError::LockTimeout(_)) => s.lock_timeouts += 1,
                        JobOutcome::Aborted(_) => s.aborted += 1,
                        JobOutcome::ConnectionLost => {
                            s.connection_lost += 1;
                            drop(s);
                            break; // the machine died; stop this client
                        }
                    }
                }
                if let Some(mean) = cfg.think_time {
                    let ns = exponential(&mut rng, mean.as_nanos() as f64);
                    ctx2.sleep(SimDuration::from_nanos(ns as u64)).await;
                }
            }
        }));
    }
    for h in handles {
        let _ = h.await;
    }
    let s = stats.borrow().clone();
    s
}

/// TPC-C job source.
pub struct TpccSource {
    /// Resolved tables.
    pub tables: TpccTables,
    /// Population scale.
    pub scale: TpccScale,
}

impl JobSource for TpccSource {
    fn next_job(&self, client: u64, seq: u64, rng: &mut SimRng) -> (Job, usize) {
        let params = tpcc::generate(rng, &self.scale, client + 1, seq);
        let kind = params.kind();
        let tables = self.tables;
        (
            crate::session::job(move |db| async move {
                crate::session::outcome_from(tpcc::execute(&db, &tables, &params).await)
            }),
            kind,
        )
    }
}

/// TPC-B job source.
pub struct TpcbSource {
    /// Resolved tables.
    pub tables: TpcbTables,
    /// Population scale.
    pub scale: TpcbScale,
}

impl JobSource for TpcbSource {
    fn next_job(&self, client: u64, seq: u64, rng: &mut SimRng) -> (Job, usize) {
        let params = tpcb::generate(rng, &self.scale, client + 1, seq);
        let tables = self.tables;
        (
            crate::session::job(move |db| async move {
                crate::session::outcome_from(tpcb::execute(&db, &tables, &params).await)
            }),
            0,
        )
    }
}

/// Commit-storm job source over the register workload: each client writes
/// an increasing sequence to its register pair.
pub struct StormSource;

impl JobSource for StormSource {
    fn next_job(&self, client: u64, seq: u64, _rng: &mut SimRng) -> (Job, usize) {
        (
            crate::session::job(move |db| async move {
                let table = match crate::micro::registers_table(&db) {
                    Ok(t) => t,
                    Err(e) => return JobOutcome::Aborted(e),
                };
                crate::session::outcome_from(
                    crate::micro::write_pair(&db, table, client, seq + 1).await,
                )
            }),
            0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapilog_dbengine::{Database, DbConfig};
    use rapilog_simcore::{DomainId, Sim, SimTime};
    use rapilog_simdisk::{specs, BlockDevice, Disk};
    use std::cell::Cell as StdCell;

    #[test]
    fn storm_driver_measures_only_the_window() {
        let mut sim = Sim::new(51);
        let ctx = sim.ctx();
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        sim.spawn(async move {
            let data: Rc<dyn BlockDevice> = Rc::new(Disk::new(&ctx, specs::instant(64 << 20)));
            let log: Rc<dyn BlockDevice> = Rc::new(Disk::new(&ctx, specs::instant(64 << 20)));
            let db = Database::create(
                &ctx,
                DbConfig::default(),
                &crate::micro::table_defs(4),
                data,
                log,
                DomainId::ROOT,
            )
            .await
            .unwrap();
            let table = crate::micro::registers_table(&db).unwrap();
            for c in 0..4 {
                crate::micro::init_client(&db, table, c).await.unwrap();
            }
            let server = DbServer::new(&ctx, db.clone(), DomainId::ROOT);
            let cfg = RunConfig {
                clients: 4,
                warmup: SimDuration::from_millis(50),
                measure: SimDuration::from_millis(200),
                think_time: Some(SimDuration::from_micros(500)),
            };
            let stats = run(&ctx, &server, Rc::new(StormSource), cfg).await;
            assert!(stats.committed > 50, "committed {}", stats.committed);
            assert_eq!(stats.connection_lost, 0);
            assert_eq!(stats.aborted, 0);
            assert!(stats.tps() > 100.0);
            assert!(stats.latency.count() == stats.committed);
            db.stop();
            d2.set(true);
        });
        sim.run_until(SimTime::from_secs(5));
        assert!(done.get());
    }

    #[test]
    fn tpcc_driver_runs_the_mix_end_to_end() {
        let mut sim = Sim::new(52);
        let ctx = sim.ctx();
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        sim.spawn(async move {
            let scale = TpccScale::tiny();
            let data: Rc<dyn BlockDevice> = Rc::new(Disk::new(&ctx, specs::instant(512 << 20)));
            let log: Rc<dyn BlockDevice> = Rc::new(Disk::new(&ctx, specs::instant(256 << 20)));
            let db = Database::create(
                &ctx,
                DbConfig::default(),
                &tpcc::table_defs(&scale),
                data,
                log,
                DomainId::ROOT,
            )
            .await
            .unwrap();
            let mut rng = ctx.fork_rng();
            let tables = tpcc::load(&db, &scale, &mut rng).await.unwrap();
            let server = DbServer::new(&ctx, db.clone(), DomainId::ROOT);
            let cfg = RunConfig {
                clients: 4,
                warmup: SimDuration::from_millis(100),
                measure: SimDuration::from_millis(400),
                think_time: None,
            };
            let stats = run(&ctx, &server, Rc::new(TpccSource { tables, scale }), cfg).await;
            assert!(stats.committed > 20, "committed {}", stats.committed);
            assert!(
                stats.kind_commits[0] > 0,
                "some New-Orders committed: {:?}",
                stats.kind_commits
            );
            assert!(stats.tpm_c() > 0.0);
            db.stop();
            d2.set(true);
        });
        sim.run_until(SimTime::from_secs(10));
        assert!(done.get());
    }
}
