//! Client/server session boundary.
//!
//! In the paper's setup, benchmark clients live outside the machine under
//! test; the DBMS threads live inside it. We reproduce that split: a client
//! submits a whole transaction as a job to the [`DbServer`], and the job
//! runs as a task of its own inside the database's cancellation domain.
//! When the guest OS crashes, that task dies mid-transaction — the client
//! observes a dropped connection ([`JobOutcome::ConnectionLost`]), never a
//! fabricated result. Only transactions that returned
//! [`JobOutcome::Committed`] count as acknowledged, and those are exactly
//! the ones the durability auditor demands back after recovery.

use std::future::Future;
use std::pin::Pin;

use rapilog_dbengine::{Database, DbError};
use rapilog_simcore::{DomainId, SimCtx};

/// Result of one submitted transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome {
    /// The commit was acknowledged durably (per the engine's policy).
    Committed,
    /// The transaction was rolled back (lock timeout, constraint, ...).
    Aborted(DbError),
    /// The connection died before an answer arrived (guest crash).
    ConnectionLost,
}

type JobFuture = Pin<Box<dyn Future<Output = JobOutcome>>>;
/// A whole transaction, shipped to the server.
pub type Job = Box<dyn FnOnce(Database) -> JobFuture>;

/// Server side: owns the database handle and runs the clients' jobs.
#[derive(Clone)]
pub struct DbServer {
    ctx: SimCtx,
    db: Database,
    domain: DomainId,
}

impl DbServer {
    /// Creates a server for `db`, whose jobs will run in `domain` (the
    /// guest's domain: they must die with the guest).
    pub fn new(ctx: &SimCtx, db: Database, domain: DomainId) -> DbServer {
        DbServer {
            ctx: ctx.clone(),
            db,
            domain,
        }
    }

    /// Runs a transaction as a task in the server's domain and waits for
    /// its outcome. A task the guest crash destroyed, or that could not
    /// start because the guest is already gone, yields
    /// [`JobOutcome::ConnectionLost`].
    pub async fn submit(&self, job: Job) -> JobOutcome {
        self.ctx
            .spawn_in(self.domain, job(self.db.clone()))
            .await
            .unwrap_or(JobOutcome::ConnectionLost)
    }
}

/// Convenience: wraps an `async move` transaction body into a [`Job`].
pub fn job<F, Fut>(f: F) -> Job
where
    F: FnOnce(Database) -> Fut + 'static,
    Fut: Future<Output = JobOutcome> + 'static,
{
    Box::new(move |db| Box::pin(f(db)))
}

/// Maps an engine result to a [`JobOutcome`] (commit already performed).
pub fn outcome_from(result: Result<(), DbError>) -> JobOutcome {
    match result {
        Ok(()) => JobOutcome::Committed,
        Err(e) => JobOutcome::Aborted(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapilog_dbengine::{DbConfig, TableDef};
    use rapilog_simcore::{Sim, SimDuration, SimTime};
    use rapilog_simdisk::{specs, BlockDevice, Disk};
    use std::cell::Cell as StdCell;
    use std::rc::Rc;

    fn make_db(ctx: &SimCtx, domain: DomainId) -> Pin<Box<dyn Future<Output = Database>>> {
        let ctx = ctx.clone();
        Box::pin(async move {
            let data: Rc<dyn BlockDevice> = Rc::new(Disk::new(&ctx, specs::instant(64 << 20)));
            let log: Rc<dyn BlockDevice> = Rc::new(Disk::new(&ctx, specs::instant(64 << 20)));
            Database::create(
                &ctx,
                DbConfig::default(),
                &[TableDef {
                    name: "kv".to_string(),
                    slot_size: 32,
                    max_rows: 1000,
                }],
                data,
                log,
                domain,
            )
            .await
            .expect("create db")
        })
    }

    #[test]
    fn committed_job_roundtrip() {
        let mut sim = Sim::new(4);
        let ctx = sim.ctx();
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        let c2 = ctx.clone();
        sim.spawn(async move {
            let db = make_db(&c2, DomainId::ROOT).await;
            let server = DbServer::new(&c2, db.clone(), DomainId::ROOT);
            let outcome = server
                .submit(job(|db: Database| async move {
                    let t = db.table("kv").unwrap();
                    let txn = match db.begin().await {
                        Ok(t) => t,
                        Err(e) => return JobOutcome::Aborted(e),
                    };
                    if let Err(e) = db.insert(txn, t, 1, b"v").await {
                        let _ = db.abort(txn).await;
                        return JobOutcome::Aborted(e);
                    }
                    outcome_from(db.commit(txn).await)
                }))
                .await;
            assert_eq!(outcome, JobOutcome::Committed);
            assert_eq!(
                db.get(db.table("kv").unwrap(), 1).await.unwrap(),
                Some(b"v".to_vec())
            );
            db.stop();
            d2.set(true);
        });
        sim.run();
        assert!(done.get());
    }

    #[test]
    fn guest_crash_mid_transaction_reports_connection_lost() {
        let mut sim = Sim::new(4);
        let ctx = sim.ctx();
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        let c2 = ctx.clone();
        sim.spawn(async move {
            let domain = c2.create_domain();
            let db = make_db(&c2, domain).await;
            let server = DbServer::new(&c2, db.clone(), domain);
            // A transaction that stalls forever (simulating long work).
            let killer_ctx = c2.clone();
            let submit = server.submit(job(move |db: Database| async move {
                let t = db.table("kv").unwrap();
                let txn = db.begin().await.unwrap();
                db.insert(txn, t, 9, b"never").await.unwrap();
                // Stall: the crash lands here.
                killer_ctx.sleep(SimDuration::from_secs(3600)).await;
                outcome_from(db.commit(txn).await)
            }));
            let crasher = c2.clone();
            c2.spawn(async move {
                crasher.sleep(SimDuration::from_millis(5)).await;
                crasher.kill_domain(domain);
            });
            let outcome = submit.await;
            assert_eq!(outcome, JobOutcome::ConnectionLost);
            d2.set(true);
        });
        sim.run_until(SimTime::from_secs(1));
        assert!(done.get());
    }

    #[test]
    fn a_submit_after_the_guest_died_is_connection_lost_at_once() {
        let mut sim = Sim::new(4);
        let ctx = sim.ctx();
        let ran = Rc::new(StdCell::new(false));
        let (c2, r2) = (ctx.clone(), Rc::clone(&ran));
        let task = sim.spawn(async move {
            let domain = c2.create_domain();
            let db = make_db(&c2, domain).await;
            let server = DbServer::new(&c2, db, domain);
            c2.kill_domain(domain);
            let t0 = c2.now();
            let outcome = server
                .submit(job(move |_db: Database| async move {
                    r2.set(true);
                    JobOutcome::Committed
                }))
                .await;
            (outcome, c2.now() - t0)
        });
        sim.run_until(SimTime::from_secs(1));
        let (outcome, took) = task.try_take().expect("the submit returned");
        assert_eq!(outcome, JobOutcome::ConnectionLost);
        assert_eq!(took, SimDuration::ZERO, "no simulated time passed");
        assert!(!ran.get(), "the job never ran");
    }
}
