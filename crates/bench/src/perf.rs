//! One complete performance run: machine → load → drive → stats.

use std::cell::RefCell;
use std::rc::Rc;

use rapilog::BufferStats;
use rapilog_dbengine::wal::WalStats;
use rapilog_faultsim::{Machine, MachineConfig};
use rapilog_simcore::trace::{LatencyAttribution, TraceSnapshot};
use rapilog_simcore::{Sim, SimTime};
use rapilog_workload::client::{
    self, JobSource, RunConfig, RunStats, StormSource, TpcbSource, TpccSource,
};
use rapilog_workload::micro;
use rapilog_workload::tpcb::{self, TpcbScale};
use rapilog_workload::tpcc::{self, TpccScale};

/// Which workload a run drives.
#[derive(Debug, Clone, Copy)]
pub enum WorkloadSpec {
    /// TPC-C at a given scale.
    Tpcc(TpccScale),
    /// TPC-B / pgbench at a given scale.
    Tpcb(TpcbScale),
    /// Commit storm over per-client register pairs.
    Storm {
        /// Register pairs to create (≥ the driver's client count).
        clients: u64,
    },
}

/// Everything one performance run needs.
#[derive(Debug, Clone)]
pub struct PerfConfig {
    /// Simulation seed.
    pub seed: u64,
    /// Machine assembly (setup, disks, supply, engine profile...).
    pub machine: MachineConfig,
    /// Workload and its population.
    pub workload: WorkloadSpec,
    /// Driver settings (clients, warmup, window, think time).
    pub run: RunConfig,
    /// Record a structured trace of the run (spans from every layer) and
    /// fold it into a per-commit latency attribution.
    pub trace: bool,
}

/// Everything a performance run reports.
pub struct PerfOutcome {
    /// Driver-side statistics (throughput, latency, aborts).
    pub stats: RunStats,
    /// RapiLog buffer statistics (None for non-RapiLog setups).
    pub buffer: Option<BufferStats>,
    /// The engine's WAL counters over the whole run, install included.
    pub wal: WalStats,
    /// The recorded trace (empty unless `PerfConfig::trace` was set).
    pub trace: TraceSnapshot,
    /// Per-layer busy time per committed transaction (all zero unless
    /// `PerfConfig::trace` was set).
    pub attribution: LatencyAttribution,
}

/// Runs the configuration in its own deterministic simulation and returns
/// the measured statistics.
///
/// # Panics
///
/// Panics if the scenario fails to complete (install/load errors) — a
/// harness configuration bug, not a measurement.
pub fn run_perf(cfg: PerfConfig) -> PerfOutcome {
    let mut sim = Sim::new(cfg.seed);
    let ctx = sim.ctx();
    if cfg.trace {
        // Perf windows generate far more events than the default ring
        // holds; size it so the measured window survives un-evicted.
        ctx.tracer().set_capacity(1 << 20);
        ctx.tracer().set_enabled(true);
    }
    let out: Rc<RefCell<Option<PerfOutcome>>> = Rc::new(RefCell::new(None));
    let out2 = Rc::clone(&out);
    let c2 = ctx.clone();
    let workload = cfg.workload;
    sim.spawn(async move {
        let machine = Machine::new(&c2, cfg.machine.clone());
        let defs = match &workload {
            WorkloadSpec::Tpcc(scale) => tpcc::table_defs(scale),
            WorkloadSpec::Tpcb(scale) => tpcb::table_defs(scale),
            WorkloadSpec::Storm { clients } => micro::table_defs(*clients),
        };
        let db = machine.install(&defs).await.expect("install database");
        let source: Rc<dyn JobSource> = match workload {
            WorkloadSpec::Tpcc(scale) => {
                let mut rng = c2.fork_rng();
                let tables = tpcc::load(&db, &scale, &mut rng).await.expect("load tpcc");
                Rc::new(TpccSource { tables, scale })
            }
            WorkloadSpec::Tpcb(scale) => {
                let tables = tpcb::load(&db, &scale).await.expect("load tpcb");
                Rc::new(TpcbSource { tables, scale })
            }
            WorkloadSpec::Storm { clients } => {
                let table = micro::registers_table(&db).expect("registers");
                for c in 0..clients {
                    micro::init_client(&db, table, c)
                        .await
                        .expect("init client");
                }
                Rc::new(StormSource)
            }
        };
        let server = machine.server();
        let stats = client::run(&c2, &server, source, cfg.run).await;
        if let Some(held) = machine.rapilog_guarantee_held() {
            assert!(held, "RapiLog invariant violated during a perf run");
        }
        machine.assert_trusted_intact();
        let buffer = machine.rapilog().map(|rl| rl.stats());
        let wal = db.wal().stats();
        db.stop();
        let trace = c2.tracer().snapshot();
        let attribution = c2.tracer().latency_attribution(stats.committed);
        *out2.borrow_mut() = Some(PerfOutcome {
            stats,
            buffer,
            wal,
            trace,
            attribution,
        });
    });
    sim.run_until(SimTime::from_secs(3600));
    let r = out.borrow_mut().take();
    r.expect("perf run did not complete")
}
