//! The crash-point grid: seeds × fault instants × fault kinds.
//!
//! The grid is the suite's answer to "did we only test the crash points we
//! thought of?". [`ExplorerConfig`] is its [`Trial`]: every combination of
//! RNG seed, fault-injection instant and [`FaultKind`] is one deterministic
//! [`run_trial`], audited for lost acknowledged commits, and a violation is
//! a [`Counterexample`](crate::Counterexample) whose [`CrashPoint`] replays
//! it exactly.
//!
//! The negative control matters as much as the sweep: run the same grid
//! with [`RetryPolicy::enabled`] switched off (a deliberately broken
//! drain) and the explorer *must* find counterexamples — see
//! [`ExplorerConfig::broken_drain`]. An explorer that cannot find a
//! planted bug proves nothing when it finds none.

use std::fmt;

use rapilog::{OrderingMode, RetryPolicy};
use rapilog_simcore::stats::Histogram;
use rapilog_simcore::SimDuration;
use rapilog_simdisk::{specs, FaultProfile};
use rapilog_simpower::supplies;

use crate::explorer::Trial;
use crate::machine::{MachineConfig, Setup};
use crate::scenario::{run_trial, FaultKind, FaultStats, TrialConfig, TrialResult};

/// The configuration under test: the grid audits RapiLog.
const GRID_SETUP: Setup = Setup::RapiLog;
/// Audited clients per trial.
const GRID_CLIENTS: usize = 3;
/// Mean think time between a client's transactions.
const GRID_THINK: SimDuration = SimDuration::from_micros(300);

/// The grid of crash points to explore, plus the machine shape every trial
/// shares: RapiLog with 3 audited clients 300 µs apart on an `atx_psu`
/// supply.
#[derive(Clone)]
pub struct ExplorerConfig {
    /// RNG seeds: each seed is an independent world (client interleaving,
    /// fault schedules, backoff jitter).
    pub seeds: Vec<u64>,
    /// Fault-injection instants, in milliseconds of load.
    pub fault_times_ms: Vec<u64>,
    /// The fault kinds to inject at each point.
    pub kinds: Vec<FaultKind>,
    /// Background media-fault profile for the log disk (seeded per trial
    /// from the trial seed), on top of whatever the kind injects.
    pub log_fault: Option<FaultProfile>,
    /// The drain's resilience policy.
    pub retry: RetryPolicy,
    /// The drain's completion-ordering discipline. `Strict` replays the
    /// classic serial drain; `PartiallyConstrained` exercises the windowed
    /// out-of-order engine under the same fault grid.
    pub ordering: OrderingMode,
    /// Tenants sharing the RapiLog instance per trial. `1` is the classic
    /// single-tenant machine; `n > 1` adds `n − 1` co-tenant writer cells
    /// whose shards the media audit checks for per-tenant durability and
    /// cross-tenant isolation.
    pub tenants: usize,
}

impl ExplorerConfig {
    /// The default RapiLog sweep: all five fault kinds, a light background
    /// transient rate on the log disk, and the stock retry policy.
    pub fn rapilog_default() -> ExplorerConfig {
        ExplorerConfig {
            seeds: (0..4).map(|i| 0x5EED + i * 101).collect(),
            fault_times_ms: vec![120, 260, 420],
            kinds: FaultKind::all(),
            log_fault: Some(FaultProfile::transient(0, 0.02)),
            retry: RetryPolicy::default(),
            ordering: OrderingMode::Strict,
            tenants: 1,
        }
    }

    /// The multi-tenant sweep: four equal tenants on one instance,
    /// the windowed out-of-order drain, and the full fault-kind set. Every
    /// trial audits the per-tenant durability invariant (no tenant loses
    /// acknowledged bytes) and shard isolation (no tenant's sectors carry
    /// another tenant's data) across the whole crash-point grid.
    pub fn multi_tenant() -> ExplorerConfig {
        ExplorerConfig {
            tenants: 4,
            ordering: OrderingMode::PartiallyConstrained,
            ..ExplorerConfig::rapilog_default()
        }
    }

    /// The negative control: the same machine with the drain's resilience
    /// switched off. The sweep over media-fault kinds must produce
    /// counterexamples, proving the auditor can see real loss.
    pub fn broken_drain() -> ExplorerConfig {
        ExplorerConfig {
            retry: RetryPolicy {
                enabled: false,
                ..RetryPolicy::default()
            },
            kinds: vec![FaultKind::DiskErrorBurst {
                burst: SimDuration::from_millis(40),
                slack: SimDuration::from_millis(60),
            }],
            ..ExplorerConfig::rapilog_default()
        }
    }

    /// The [`TrialConfig`] for one grid point.
    pub fn trial(&self, seed: u64, kind: FaultKind, fault_after: SimDuration) -> TrialConfig {
        let mut log_spec = specs::hdd_7200(128 << 20);
        if let Some(profile) = self.log_fault.clone() {
            // Re-seed the media-fault schedule from the trial seed so every
            // grid point sees an independent (but replayable) schedule.
            log_spec = log_spec.with_faults(FaultProfile {
                seed: seed ^ 0xFA07,
                ..profile
            });
        }
        let mut machine = MachineConfig::new(GRID_SETUP, specs::instant(256 << 20), log_spec);
        machine.supply = Some(supplies::atx_psu());
        machine.tenants = self.tenants;
        machine.rapilog.drain.retry = self.retry;
        machine.rapilog.drain.ordering = self.ordering;
        TrialConfig {
            machine,
            fault: kind,
            clients: GRID_CLIENTS,
            fault_after,
            think_time: GRID_THINK,
        }
    }
}

impl FaultKind {
    /// One representative of every fault kind, with sub-second parameters
    /// that fit the explorer's trial horizon.
    pub fn all() -> Vec<FaultKind> {
        vec![
            FaultKind::GuestCrash,
            FaultKind::PowerCut,
            FaultKind::DiskErrorBurst {
                burst: SimDuration::from_millis(40),
                slack: SimDuration::from_millis(60),
            },
            FaultKind::SickLogDisk {
                lead: SimDuration::from_millis(30),
            },
            FaultKind::PowerFlicker {
                flicker: SimDuration::from_millis(100),
            },
        ]
    }
}

/// One crash-grid coordinate.
#[derive(Debug, Clone, Copy)]
pub struct CrashPoint {
    /// The trial's RNG seed.
    pub seed: u64,
    /// The injected fault.
    pub kind: FaultKind,
    /// When it was injected.
    pub fault_after: SimDuration,
}

impl fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed={} kind={} fault_after={}ms setup={}",
            self.seed,
            self.kind.label(),
            self.fault_after.as_millis(),
            GRID_SETUP.label(),
        )
    }
}

/// What a crash-point sweep sums, beyond the trial count and the
/// counterexamples every sweep reports.
#[derive(Debug, Clone, Default)]
pub struct ExplorationReport {
    /// Acknowledged commits audited, summed over trials.
    pub total_acked: u64,
    /// Fault-handling activity summed over every trial.
    pub stats: FaultStats,
    /// Client commit latency (µs) merged over every trial's pre-fault load;
    /// `percentile(99.0)` / `percentile(99.9)` feed the sweep tables.
    pub commit_latency: Histogram,
    /// Co-tenant writer acknowledgements audited, summed over trials (0 on
    /// single-tenant sweeps).
    pub tenant_acked: u64,
}

impl Trial for ExplorerConfig {
    type Point = CrashPoint;
    type Outcome = TrialResult;
    type Report = ExplorationReport;

    /// Seed-outer, fault-instant-middle, kind-inner.
    fn grid(&self) -> Vec<CrashPoint> {
        let mut points =
            Vec::with_capacity(self.seeds.len() * self.fault_times_ms.len() * self.kinds.len());
        for &seed in &self.seeds {
            for &ms in &self.fault_times_ms {
                for &kind in &self.kinds {
                    points.push(CrashPoint {
                        seed,
                        kind,
                        fault_after: SimDuration::from_millis(ms),
                    });
                }
            }
        }
        points
    }

    fn run(&self, p: &CrashPoint) -> TrialResult {
        run_trial(p.seed, self.trial(p.seed, p.kind, p.fault_after))
    }

    fn violations(r: &TrialResult) -> &[String] {
        &r.violations
    }

    fn fold(report: &mut ExplorationReport, _: &CrashPoint, r: &TrialResult) {
        report.total_acked += r.total_acked;
        let s = &r.fault_stats;
        let sum = &mut report.stats;
        sum.transient_errors += s.transient_errors;
        sum.media_errors += s.media_errors;
        sum.stalls += s.stalls;
        sum.corrupt_sectors += s.corrupt_sectors;
        sum.rejected_offline += s.rejected_offline;
        sum.drain_retries += s.drain_retries;
        sum.sector_remaps += s.sector_remaps;
        sum.degraded_entries += s.degraded_entries;
        sum.degraded_exits += s.degraded_exits;
        report.commit_latency.merge(&r.commit_latency);
        report.tenant_acked += r
            .tenant_journals
            .iter()
            .map(|t| t.acked_writes)
            .sum::<u64>();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::explore;

    #[test]
    fn resilient_drain_survives_a_small_grid() {
        let mut cfg = ExplorerConfig::rapilog_default();
        cfg.seeds = vec![0x5EED, 0x5EED + 101];
        cfg.fault_times_ms = vec![150, 350];
        let found = explore(&cfg, 1);
        assert_eq!(found.trials, 2 * 2 * 5);
        assert!(
            found.clean(),
            "counterexamples: {:?}",
            found
                .counterexamples
                .iter()
                .map(|c| c.replay_line())
                .collect::<Vec<_>>()
        );
        assert!(found.report.total_acked > 0, "the load ran");
        assert!(
            found.report.stats.transient_errors > 0,
            "the background fault profile injected something"
        );
    }

    #[test]
    fn multi_tenant_grid_holds_per_tenant_durability_and_isolation() {
        let mut cfg = ExplorerConfig::multi_tenant();
        cfg.seeds = vec![0x5EED];
        cfg.fault_times_ms = vec![150, 350];
        let found = explore(&cfg, 1);
        assert_eq!(found.trials, 2 * 5);
        assert!(
            found.clean(),
            "counterexamples: {:?}",
            found
                .counterexamples
                .iter()
                .map(|c| c.replay_line())
                .collect::<Vec<_>>()
        );
        assert!(found.report.total_acked > 0, "the WAL load ran");
        assert!(found.report.tenant_acked > 0, "the co-tenant writers ran");
        assert!(
            found.report.commit_latency.count() > 0,
            "latency was recorded"
        );
    }

    #[test]
    fn broken_drain_yields_a_replayable_counterexample() {
        let mut cfg = ExplorerConfig::broken_drain();
        cfg.seeds = vec![0x5EED];
        cfg.fault_times_ms = vec![150];
        let found = explore(&cfg, 1);
        assert!(
            !found.clean(),
            "a drain with retries disabled must lose acknowledged commits"
        );
        let ce = &found.counterexamples[0];
        assert!(
            ce.violations
                .iter()
                .any(|v| v.contains("durability") || v.contains("rapilog")),
            "violations: {:?}",
            ce.violations
        );
        // The counterexample replays: same point, same verdict.
        let replay = ce.replay(&cfg);
        assert!(!replay.ok);
        assert_eq!(replay.violations, ce.violations);
    }
}
