//! Fleet-scale load: thousands of sessions spread over many cells with
//! zipfian skew.
//!
//! The multi-tenant experiments drive N database cells that share one
//! RapiLog instance. Real fleets are not uniform: a few hot tenants carry
//! most of the sessions while a long tail idles. `zipf_split` reproduces
//! that shape (Zipf over cell ranks, the YCSB convention), and
//! [`run_fleet`] runs one closed-loop [`client`](crate::client) driver per
//! cell concurrently — 10³–10⁵ sessions in one deterministic simulation.
//!
//! [`FleetStats::session_fairness`] is the headline number for the
//! fair-share drain under skewed load: min/max of per-*session*
//! throughput across cells. Because the zipf split gives cells very
//! different session counts, raw per-cell throughput mostly measures the
//! skew itself — normalizing by sessions isolates what the scheduler
//! actually controls,
//! whether every session gets served at the same rate. Near 1 is fair; a
//! collapsed ratio means some cell's sessions were starved.

use std::cell::RefCell;
use std::rc::Rc;

use rapilog_simcore::rng::{zipf, SimRng};
use rapilog_simcore::stats::Histogram;
use rapilog_simcore::{SimCtx, SimDuration};

use crate::client::{run, JobSource, RunConfig, RunStats};
use crate::session::DbServer;

/// Fleet driver configuration.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Total closed-loop sessions across the whole fleet.
    pub sessions: usize,
    /// Zipf exponent of the session→cell skew. Values ≤ 0 mean a uniform
    /// split; 0.99 is the YCSB-style heavy skew the experiments use.
    pub theta: f64,
    /// Warmup (excluded from statistics).
    pub warmup: SimDuration,
    /// Measurement window.
    pub measure: SimDuration,
    /// Mean exponential think time between transactions (`None` = none).
    pub think_time: Option<SimDuration>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            sessions: 1_000,
            theta: 0.99,
            warmup: SimDuration::from_secs(2),
            measure: SimDuration::from_secs(10),
            think_time: Some(SimDuration::from_millis(1)),
        }
    }
}

/// Splits `sessions` over `cells` ranks with Zipf(`theta`) skew; `theta ≤ 0`
/// splits uniformly. Every cell gets at least one session (the long tail
/// must exist to be measured), and the counts always sum to `sessions`.
///
/// # Panics
///
/// Panics if `cells == 0` or `sessions < cells`.
fn zipf_split(sessions: usize, cells: usize, theta: f64, rng: &mut SimRng) -> Vec<usize> {
    assert!(cells > 0, "zipf_split: no cells");
    assert!(
        sessions >= cells,
        "zipf_split: {sessions} sessions cannot cover {cells} cells"
    );
    let mut counts = vec![0usize; cells];
    if theta <= 0.0 {
        for s in 0..sessions {
            counts[s % cells] += 1;
        }
        return counts;
    }
    for _ in 0..sessions {
        let rank = zipf(rng, cells as u64, theta) as usize - 1;
        counts[rank] += 1;
    }
    // Guarantee the tail exists: move sessions from the biggest cell onto
    // any cell the sampler left empty.
    for i in 0..cells {
        while counts[i] == 0 {
            let donor = (0..cells).max_by_key(|&j| counts[j]).unwrap();
            counts[donor] -= 1;
            counts[i] += 1;
        }
    }
    counts
}

/// Per-cell results of one fleet run.
#[derive(Clone)]
pub struct FleetStats {
    /// One [`RunStats`] per cell, in server order.
    pub per_cell: Vec<RunStats>,
    /// The session count each cell was assigned.
    pub sessions: Vec<usize>,
}

impl FleetStats {
    /// Committed transactions per second, summed over the fleet.
    pub fn total_tps(&self) -> f64 {
        self.per_cell.iter().map(|s| s.tps()).sum()
    }

    /// Committed transactions, summed over the fleet.
    pub fn total_committed(&self) -> u64 {
        self.per_cell.iter().map(|s| s.committed).sum()
    }

    /// min/max of per-session committed throughput (cell tps ÷ the cell's
    /// session count) — load-independent fairness. 1.0 means every
    /// session in the fleet was served at the same rate no matter which
    /// cell it landed on; the zipf skew cancels out.
    pub fn session_fairness(&self) -> f64 {
        let per_session: Vec<f64> = self
            .per_cell
            .iter()
            .zip(&self.sessions)
            .map(|(s, &n)| s.tps() / n.max(1) as f64)
            .collect();
        let max = per_session.iter().copied().fold(0.0, f64::max);
        if max == 0.0 {
            return 0.0;
        }
        let min = per_session.iter().copied().fold(f64::INFINITY, f64::min);
        min / max
    }

    /// Commit latencies of every cell merged into one histogram (ns).
    pub fn merged_latency(&self) -> Histogram {
        let mut h = Histogram::new();
        for s in &self.per_cell {
            h.merge(&s.latency);
        }
        h
    }

    /// One-line summary for harness output.
    pub fn summary(&self) -> String {
        let lat = self.merged_latency();
        format!(
            "cells={} total_tps={:.1} session_fairness={:.3} p99={:.2}ms p999={:.2}ms",
            self.per_cell.len(),
            self.total_tps(),
            self.session_fairness(),
            lat.percentile(99.0) as f64 / 1e6,
            lat.percentile(99.9) as f64 / 1e6,
        )
    }
}

/// Runs one closed-loop driver per server concurrently, with the fleet's
/// sessions zipf-split over the servers. All drivers share the warmup and
/// measurement window, so per-cell numbers are directly comparable.
pub async fn run_fleet(
    ctx: &SimCtx,
    servers: &[DbServer],
    source: Rc<dyn JobSource>,
    cfg: FleetConfig,
) -> FleetStats {
    let sessions = zipf_split(cfg.sessions, servers.len(), cfg.theta, &mut ctx.fork_rng());
    let results: Rc<RefCell<Vec<Option<RunStats>>>> =
        Rc::new(RefCell::new(vec![None; servers.len()]));
    let mut handles = Vec::new();
    for (i, server) in servers.iter().enumerate() {
        let run_cfg = RunConfig {
            clients: sessions[i],
            warmup: cfg.warmup,
            measure: cfg.measure,
            think_time: cfg.think_time,
        };
        let ctx2 = ctx.clone();
        let server = server.clone();
        let source = Rc::clone(&source);
        let results = Rc::clone(&results);
        handles.push(ctx.spawn(async move {
            let stats = run(&ctx2, &server, source, run_cfg).await;
            results.borrow_mut()[i] = Some(stats);
        }));
    }
    for h in handles {
        let _ = h.await;
    }
    let per_cell = results
        .borrow_mut()
        .iter_mut()
        .map(|s| s.take().expect("every cell driver completed"))
        .collect();
    FleetStats { per_cell, sessions }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::StormSource;
    use crate::micro;
    use rapilog_dbengine::{Database, DbConfig};
    use rapilog_simcore::{DomainId, Sim, SimTime};
    use rapilog_simdisk::{specs, BlockDevice, Disk};
    use std::cell::Cell as StdCell;

    #[test]
    fn zipf_split_is_skewed_total_preserving_and_tail_complete() {
        let mut rng = SimRng::seed_from_u64(7);
        let counts = zipf_split(10_000, 8, 0.99, &mut rng);
        assert_eq!(counts.iter().sum::<usize>(), 10_000);
        assert!(counts.iter().all(|&c| c > 0), "no empty cell: {counts:?}");
        assert!(
            counts[0] > counts[7] * 2,
            "rank 1 should dominate the tail: {counts:?}"
        );
        // Uniform fallback.
        let counts = zipf_split(100, 4, 0.0, &mut rng);
        assert_eq!(counts, vec![25; 4]);
        // Determinism: same seed, same split.
        let a = zipf_split(500, 4, 0.9, &mut SimRng::seed_from_u64(9));
        let b = zipf_split(500, 4, 0.9, &mut SimRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn session_fairness_cancels_zipf_skew() {
        let mk = |committed: u64| RunStats {
            committed,
            aborted: 0,
            lock_timeouts: 0,
            connection_lost: 0,
            latency: Histogram::new(),
            kind_commits: [0; 5],
            elapsed: SimDuration::from_secs(1),
        };
        // One cell carries 10x the sessions and commits 10x as much: every
        // session is served identically, though the raw per-cell ratio is
        // 0.1. The session-normalized ratio must report the truth.
        let stats = FleetStats {
            per_cell: vec![mk(1000), mk(100)],
            sessions: vec![100, 10],
        };
        assert!((stats.session_fairness() - 1.0).abs() < 1e-9);
        // And genuine starvation still shows: same sessions, one cell dry.
        let starved = FleetStats {
            per_cell: vec![mk(1000), mk(100)],
            sessions: vec![10, 10],
        };
        assert!(starved.session_fairness() < 0.2);
    }

    #[test]
    fn fleet_of_three_cells_runs_concurrently_and_reports_per_cell() {
        let mut sim = Sim::new(61);
        let ctx = sim.ctx();
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        sim.spawn(async move {
            let mut servers = Vec::new();
            let mut dbs = Vec::new();
            for _ in 0..3 {
                let data: Rc<dyn BlockDevice> = Rc::new(Disk::new(&ctx, specs::instant(64 << 20)));
                let log: Rc<dyn BlockDevice> = Rc::new(Disk::new(&ctx, specs::instant(64 << 20)));
                let db = Database::create(
                    &ctx,
                    DbConfig::default(),
                    &micro::table_defs(64),
                    data,
                    log,
                    DomainId::ROOT,
                )
                .await
                .unwrap();
                let table = micro::registers_table(&db).unwrap();
                for c in 0..64 {
                    micro::init_client(&db, table, c).await.unwrap();
                }
                servers.push(DbServer::new(&ctx, db.clone(), DomainId::ROOT));
                dbs.push(db);
            }
            let cfg = FleetConfig {
                sessions: 48,
                theta: 0.99,
                warmup: SimDuration::from_millis(50),
                measure: SimDuration::from_millis(200),
                think_time: Some(SimDuration::from_micros(500)),
            };
            let stats = run_fleet(&ctx, &servers, Rc::new(StormSource), cfg).await;
            assert_eq!(stats.per_cell.len(), 3);
            assert_eq!(stats.sessions.iter().sum::<usize>(), 48);
            assert!(stats.total_committed() > 0);
            let sf = stats.session_fairness();
            assert!(
                (0.0..=1.0).contains(&sf),
                "session ratio out of range: {sf}"
            );
            assert!(stats.merged_latency().count() == stats.total_committed());
            for db in dbs {
                db.stop();
            }
            d2.set(true);
        });
        sim.run_until(SimTime::from_secs(10));
        assert!(done.get());
    }
}
