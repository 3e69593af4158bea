//! Durability trials: load → fault → recover → audit.
//!
//! One trial runs the audited register workload (each client writes a
//! monotonically increasing sequence number to a *pair* of private rows per
//! transaction), injects one fault at a chosen instant, recovers, and
//! checks for every client:
//!
//! * both rows are equal (**atomicity**, I2);
//! * the value is ≥ the last *acknowledged* sequence (**durability**, I1);
//! * the value is ≤ the last *attempted* sequence (no phantoms).
//!
//! A campaign of trials over random fault instants is Table 2. The same
//! machinery, pointed at the deliberately unsafe `async_unsafe` engine
//! profile, demonstrates that the auditor has teeth: acknowledged commits
//! really do vanish without RapiLog's guarantee.

use std::cell::RefCell;
use std::rc::Rc;

use rapilog::TenantId;
use rapilog_dbengine::recovery::RecoveryReport;
use rapilog_simcore::stats::Histogram;
use rapilog_simcore::trace::{
    LatencyAttribution, Layer, MediaOp, Payload, TraceSnapshot, DEFAULT_CAPACITY,
};
use rapilog_simcore::{DomainId, RunReport, SchedulerKind, Sim, SimCtx, SimDuration, SimTime};
use rapilog_simdisk::SECTOR_SIZE;
use rapilog_workload::micro;
use rapilog_workload::session::{job, outcome_from, JobOutcome};

use crate::guest::{self, Guest, WriterJournal, TENANT_BASE};
use crate::machine::{Machine, MachineConfig};

/// The injected fault classes: the paper's two machine-level failures plus
/// the media-fault scenarios of the IRON-style disk model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Guest OS crash (kernel panic): tasks die, devices keep power.
    GuestCrash,
    /// Mains power cut: residual window, then everything dies.
    PowerCut,
    /// The log disk fails every command for `burst`, then recovers; the
    /// guest is crashed `slack` later so the trial audits recovery after
    /// the drain has been through its retry/degraded cycle.
    DiskErrorBurst {
        /// How long every log-disk command fails.
        burst: SimDuration,
        /// Healthy time between recovery and the terminating guest crash.
        slack: SimDuration,
    },
    /// The log disk turns sick and *stays* sick across a guest crash that
    /// fires `lead` later; the drive recovers only after the crash (the
    /// drain must hold acknowledged bytes through the whole outage).
    SickLogDisk {
        /// Sick time before the guest crash.
        lead: SimDuration,
    },
    /// Mains brownout: power is cut but restored `flicker` later, inside
    /// the residual window — the machine never dies, yet the warning fires
    /// and the emergency drain runs.
    PowerFlicker {
        /// Dark time before mains return (must fit the residual window).
        flicker: SimDuration,
    },
}

impl FaultKind {
    /// Short label for tables and traces.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::GuestCrash => "guest_crash",
            FaultKind::PowerCut => "power_cut",
            FaultKind::DiskErrorBurst { .. } => "disk_error_burst",
            FaultKind::SickLogDisk { .. } => "sick_log_disk",
            FaultKind::PowerFlicker { .. } => "power_flicker",
        }
    }
}

/// Fault-handling activity observed during one trial, summed over both
/// disks and every RapiLog instance the machine ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Media commands failed with a transient error.
    pub transient_errors: u64,
    /// Media commands failed with an unrecoverable media error.
    pub media_errors: u64,
    /// Media commands delayed by a firmware stall.
    pub stalls: u64,
    /// Sectors silently corrupted without an error.
    pub corrupt_sectors: u64,
    /// Requests rejected because a disk was offline.
    pub rejected_offline: u64,
    /// Transient failures the RapiLog drain retried through.
    pub drain_retries: u64,
    /// Defective sectors the drain remapped and rewrote.
    pub sector_remaps: u64,
    /// Times RapiLog entered degraded (synchronous-ack) mode.
    pub degraded_entries: u64,
    /// Times RapiLog recovered back to early acknowledgement.
    pub degraded_exits: u64,
}

impl FaultStats {
    /// Collects the counters from a machine after a trial.
    pub fn collect(machine: &Machine) -> FaultStats {
        let mut fs = FaultStats::default();
        for disk in [machine.data_disk(), machine.log_disk()] {
            let s = disk.stats();
            fs.transient_errors += s.transient_errors;
            fs.media_errors += s.media_errors;
            fs.stalls += s.stalls;
            fs.corrupt_sectors += s.corrupt_sectors;
            fs.rejected_offline += s.rejected_offline;
        }
        for r in machine.rapilog_audit_reports() {
            fs.drain_retries += r.drain_retries;
            fs.sector_remaps += r.sector_remaps;
            fs.degraded_entries += r.degraded_entries;
            fs.degraded_exits += r.degraded_exits;
        }
        fs
    }
}

/// Trial parameters.
#[derive(Clone)]
pub struct TrialConfig {
    /// The machine to assemble.
    pub machine: MachineConfig,
    /// Which fault to inject.
    pub fault: FaultKind,
    /// Audited clients.
    pub clients: usize,
    /// Virtual time of load before the fault fires.
    pub fault_after: SimDuration,
    /// Mean think time between a client's transactions.
    pub think_time: SimDuration,
}

/// Per-client acknowledgement journal.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientJournal {
    /// Highest sequence whose commit was acknowledged.
    pub acked: u64,
    /// Highest sequence ever submitted.
    pub attempted: u64,
}

/// The outcome of one trial.
#[derive(Debug, Clone)]
pub struct TrialResult {
    /// True iff no invariant was violated.
    pub ok: bool,
    /// Human-readable violations (empty when `ok`).
    pub violations: Vec<String>,
    /// Per-client journals at the fault.
    pub journals: Vec<ClientJournal>,
    /// Per-client `(row_a, row_b)` after recovery.
    pub recovered: Vec<(u64, u64)>,
    /// Transactions acknowledged before the fault, summed over clients.
    pub total_acked: u64,
    /// The engine's recovery report.
    pub recovery: RecoveryReport,
    /// RapiLog's own invariant verdict (None for non-RapiLog setups).
    pub rapilog_guarantee: Option<bool>,
    /// Fault-handling counters (retries, remaps, degraded transitions,
    /// offline rejections) summed over the trial.
    pub fault_stats: FaultStats,
    /// Per-layer busy-time attribution over the whole trial (commits =
    /// `total_acked`). Every trial runs with tracing enabled and folds its
    /// spans as they are recorded; only [`run_trial_traced`] also keeps the
    /// events.
    pub attribution: LatencyAttribution,
    /// Client commit latency (µs) over the pre-fault load; `percentile`
    /// gives p99/p999 for the sweep tables.
    pub commit_latency: Histogram,
    /// Co-tenant writer journals (empty on single-tenant machines).
    pub tenant_journals: Vec<WriterJournal>,
}

/// Runs one complete trial in its own deterministic simulation on the
/// default (production) scheduler. The trial keeps no trace events, only
/// their fold into [`TrialResult::attribution`].
pub fn run_trial(seed: u64, cfg: TrialConfig) -> TrialResult {
    trial(seed, cfg, SchedulerKind::TimerWheel, 0).0
}

/// Runs one complete trial and also returns the executor's [`RunReport`]
/// and the whole run's trace, kept in a ring of [`DEFAULT_CAPACITY`]
/// events (5 MiB), so differential tests can compare the two scheduler
/// cores event-for-event, not just on the audited outcome. The trial is
/// the one [`run_trial`] runs, which keeps no events: a caller that
/// wants to look at them calls this form. The trial's `verdict` instant
/// (`Layer::Fault`) marks where [`TrialResult::attribution`] was folded.
pub fn run_trial_traced(
    seed: u64,
    cfg: TrialConfig,
    sched: SchedulerKind,
) -> (TrialResult, RunReport, TraceSnapshot) {
    trial(seed, cfg, sched, DEFAULT_CAPACITY)
}

/// One trial with a trace ring of `ring` events (0: none).
fn trial(
    seed: u64,
    cfg: TrialConfig,
    sched: SchedulerKind,
    ring: usize,
) -> (TrialResult, RunReport, TraceSnapshot) {
    let mut sim = Sim::new_with_scheduler(seed, sched);
    let ctx = sim.ctx();
    ctx.tracer().set_capacity(ring);
    ctx.tracer().set_enabled(true);
    let c2 = ctx.clone();
    let task = sim.spawn(async move {
        let machine = Machine::new(&c2, cfg.machine.clone());
        let db = machine
            .install(&micro::table_defs(cfg.clients as u64))
            .await
            .expect("install database");
        let table = micro::registers_table(&db).expect("registers table");
        for client in 0..cfg.clients as u64 {
            micro::init_client(&db, table, client)
                .await
                .expect("init registers");
        }
        // Clients: external, keep their own journals.
        let journals: Rc<RefCell<Vec<ClientJournal>>> =
            Rc::new(RefCell::new(vec![ClientJournal::default(); cfg.clients]));
        let commit_latency: Rc<RefCell<Histogram>> = Rc::new(RefCell::new(Histogram::new()));
        let server = machine.server();
        let mut client_handles = Vec::new();
        for client in 0..cfg.clients as u64 {
            let server = server.clone();
            let ctx3 = c2.clone();
            let journals = Rc::clone(&journals);
            let lat = Rc::clone(&commit_latency);
            let think = cfg.think_time;
            client_handles.push(c2.spawn(async move {
                let mut seq = 0u64;
                loop {
                    seq += 1;
                    journals.borrow_mut()[client as usize].attempted = seq;
                    let t0 = ctx3.now();
                    let outcome = server
                        .submit(job(move |db| async move {
                            let table = match micro::registers_table(&db) {
                                Ok(t) => t,
                                Err(e) => return JobOutcome::Aborted(e),
                            };
                            outcome_from(micro::write_pair(&db, table, client, seq).await)
                        }))
                        .await;
                    match outcome {
                        JobOutcome::Committed => {
                            journals.borrow_mut()[client as usize].acked = seq;
                            lat.borrow_mut()
                                .record(ctx3.now().duration_since(t0).as_micros());
                        }
                        // The machine is dying (stop, power loss, reset):
                        // this client is done.
                        _ => break,
                    }
                    if !think.is_zero() {
                        let ns = rapilog_simcore::rng::exponential(
                            &mut ctx3.fork_rng(),
                            think.as_nanos() as f64,
                        );
                        ctx3.sleep(SimDuration::from_nanos(ns as u64)).await;
                    }
                }
            }));
        }
        // Co-tenant writers (multi-tenant machines only — spawning nothing
        // here keeps single-tenant trials event-for-event identical).
        // Tenant 0 is the database WAL above; tenants 1..n are synthetic
        // guest cells hammering their own shard with tagged sectors.
        let n_tenants = cfg.machine.tenants;
        let mut co_tenants = Guest::new(DomainId::ROOT, u64::MAX, cfg.think_time);
        if n_tenants > 1 {
            let rl = machine
                .rapilog()
                .expect("multi-tenant trials require the RapiLog setup");
            for t in 1..n_tenants as u64 {
                let dev = rl
                    .device_for(TenantId(t))
                    .expect("tenant shard was configured");
                co_tenants.spawn(&c2, &dev, WriterJournal::co_tenant(t));
            }
        }
        // Let the load run, then pull the trigger.
        c2.sleep(cfg.fault_after).await;
        trace_fault(&c2, cfg.fault.label());
        match cfg.fault {
            FaultKind::GuestCrash => {
                machine.crash_guest();
            }
            FaultKind::PowerCut => {
                machine.cut_power();
                let death = machine
                    .psu()
                    .expect("power trial needs a supply")
                    .death_event();
                death.wait().await;
                // Dark for a moment, then the power returns.
                c2.sleep(SimDuration::from_millis(500)).await;
                machine.restore_power();
            }
            FaultKind::DiskErrorBurst { burst, slack } => {
                machine.log_disk().set_sick(true);
                c2.sleep(burst).await;
                machine.log_disk().set_sick(false);
                c2.sleep(slack).await;
                machine.crash_guest();
            }
            FaultKind::SickLogDisk { lead } => {
                machine.log_disk().set_sick(true);
                c2.sleep(lead).await;
                machine.crash_guest();
                // The drive recovers only after the crash; the drain (or
                // the recovery scan) meets a healthy disk again.
                machine.log_disk().set_sick(false);
            }
            FaultKind::PowerFlicker { flicker } => {
                machine.cut_power();
                c2.sleep(flicker).await;
                machine.restore_power();
                // Give the stack a beat to settle, then end the trial so
                // the audit can run against a rebooted machine.
                c2.sleep(SimDuration::from_millis(100)).await;
                machine.crash_guest();
            }
        }
        // Wait for every client to observe the failure.
        co_tenants.stop.set(true);
        for h in client_handles {
            let _ = h.await;
        }
        co_tenants.finish().await;
        // Multi-tenant only: let the fair-share drain land everything the
        // co-tenant writers were acknowledged for (a frozen instance
        // already ran its emergency drain). Single-tenant trials skip this
        // await entirely so their event sequence stays bit-identical.
        if n_tenants > 1 {
            if let Some(rl) = machine.rapilog() {
                if !rl.device_frozen() {
                    rl.quiesce().await;
                }
            }
        }
        let journals = journals.borrow().clone();
        // Reboot and recover.
        let (db, recovery) = machine
            .reboot_and_recover()
            .await
            .expect("recovery must succeed");
        let table = micro::registers_table(&db).expect("registers table");
        let mut violations = Vec::new();
        // Sector 0 lies outside the log region; the log starts in sector 1.
        if n_tenants > 1 && 1 + recovery.log_end.0 / SECTOR_SIZE as u64 >= TENANT_BASE {
            violations.push(format!(
                "the WAL reached the co-tenant writers' sectors: {:?}",
                recovery.log_end
            ));
        }
        let mut recovered = Vec::new();
        for (client, j) in journals.iter().enumerate() {
            let (a, b) = micro::read_pair(&db, table, client as u64)
                .await
                .expect("read registers after recovery");
            recovered.push((a, b));
            if a != b {
                violations.push(format!(
                    "client {client}: atomicity violated: rows {a} vs {b}"
                ));
            }
            if a < j.acked {
                violations.push(format!(
                    "client {client}: durability violated: acked {} but recovered {a}",
                    j.acked
                ));
            }
            if a > j.attempted {
                violations.push(format!(
                    "client {client}: phantom write: attempted {} but recovered {a}",
                    j.attempted
                ));
            }
        }
        // Multi-tenant media audit: every tenant keeps every acknowledged
        // byte (durability) and no tenant's sectors carry another tenant's
        // data (isolation). Read straight off the media, past all caches.
        let tenant_journals = co_tenants.journals();
        for tj in &tenant_journals {
            guest::audit(machine.log_disk(), tj, "tenant", &mut violations);
        }
        machine.assert_trusted_intact();
        let rapilog_guarantee = machine.rapilog_guarantee_held();
        if rapilog_guarantee == Some(false) {
            violations.push("rapilog internal guarantee violated".to_string());
        }
        let fault_stats = FaultStats::collect(&machine);
        let total_acked = journals.iter().map(|j| j.acked).sum();
        db.stop();
        // The attribution covers the trace up to this instant; what follows
        // it is the machine winding down after the verdict.
        c2.tracer().instant(
            c2.now(),
            Layer::Fault,
            "verdict",
            Payload::Mark { value: total_acked },
        );
        let attribution = c2.tracer().latency_attribution(total_acked);
        let commit_latency = commit_latency.borrow().clone();
        TrialResult {
            ok: violations.is_empty(),
            violations,
            journals,
            recovered,
            total_acked,
            recovery,
            rapilog_guarantee,
            fault_stats,
            attribution,
            commit_latency,
            tenant_journals,
        }
    });
    let report = sim.run_until(SimTime::from_secs(600));
    let trace = ctx.tracer().snapshot();
    (
        task.try_take()
            .expect("trial did not complete — deadlock or runaway scenario"),
        report,
        trace,
    )
}

/// Marks a trial's fault in the trace (`Layer::Fault` `fault_inject`).
pub(crate) fn trace_fault(ctx: &SimCtx, label: &'static str) -> SimTime {
    let at = ctx.now();
    let text = Payload::Text { text: label };
    ctx.tracer().instant(at, Layer::Fault, "fault_inject", text);
    at
}

/// What a rotating log disk was asked to do while one traced trial
/// recovered: the evidence behind "recovery is one sequential sweep".
///
/// Trials keep their data on `specs::instant`, whose accesses carry an
/// all-zero timing breakdown, so the log disk's are the ones that paid a
/// controller overhead.
#[derive(Debug, Clone)]
pub struct RecoverySweep {
    /// Recovery start to the head over the first log sector read: whatever
    /// [`inflight_write`](Self::inflight_write) had left, then the first
    /// read's seek and rotation. Zero when the log disk was not asked — the
    /// RapiLog instance that outlived the guest held everything the scan read.
    pub positioning: SimDuration,
    /// What was left, when recovery began, of a drain write already on the
    /// media after a guest crash — a wait the first read cannot be spared.
    /// Zero when the disk was idle.
    pub inflight_write: SimDuration,
    /// Log-disk writes that *began* between recovery's start and the last
    /// consumed read's end: drain writes the scan's dependent reads queued
    /// behind, each costing them a repositioning. The drain does not stand
    /// aside for guest reads; after a guest crash the instance answers the
    /// scan from memory, so there is seldom a read to queue behind a write.
    pub interleaved_writes: usize,
    /// Every log-disk read begun during recovery, in media order: what the
    /// scan asked for that the instance did not hold.
    pub reads: Vec<MediaOp>,
    /// How many of `reads` the scan consumed; the rest is read-ahead past
    /// the torn tail, discarded while still in flight.
    pub consumed: usize,
    /// Bytes the scan's reads of the log device took from the dependable
    /// buffer instead.
    pub from_memory: u64,
}

impl RecoverySweep {
    /// Extracts the sweep from a trial's trace; `None` if the ring no
    /// longer holds the whole `recover` span.
    pub fn from_trace(trace: &TraceSnapshot) -> Option<RecoverySweep> {
        let (began, _) = trace.span(Layer::Fault, "recover")?;
        let (_, scan_end) = trace.span(Layer::Engine, "recover_scan")?;
        let mut reads = trace.media_reads_in(Layer::Fault, "recover");
        reads.retain(|r| !r.seek.is_zero());
        let positioning = reads.first().map_or(SimDuration::ZERO, |first| {
            first.begin + first.seek + first.rotation - began
        });
        let consumed = reads.iter().filter(|r| r.end() <= scan_end).count();
        let swept = reads[..consumed].last().map_or(began, MediaOp::end);
        let mut inflight_write = SimDuration::ZERO;
        let mut interleaved_writes = 0;
        for w in trace.media_ops(true).filter(|w| !w.seek.is_zero()) {
            if w.begin < began && w.end() > began {
                inflight_write = w.end() - began;
            } else if w.begin >= began && w.begin < swept {
                interleaved_writes += 1;
            }
        }
        let from_memory = trace
            .events
            .iter()
            .filter(|ev| ev.layer == Layer::Buffer && ev.time >= began && ev.time <= scan_end)
            .filter_map(|ev| match ev.payload {
                Payload::Read { memory, .. } => Some(memory),
                _ => None,
            })
            .sum();
        Some(RecoverySweep {
            positioning,
            inflight_write,
            interleaved_writes,
            reads,
            consumed,
            from_memory,
        })
    }

    /// Bytes of the consumed reads: what the log disk served the scan.
    pub fn from_disk(&self) -> u64 {
        let sectors: u64 = self.reads[..self.consumed].iter().map(|r| r.sectors).sum();
        sectors * SECTOR_SIZE as u64
    }

    /// Media transfer time of the consumed reads: the one cost of reading
    /// the log back that no ordering of requests can avoid.
    pub fn transfer(&self) -> SimDuration {
        self.reads[..self.consumed]
            .iter()
            .fold(SimDuration::ZERO, |sum, r| sum + r.transfer)
    }

    /// The budget a single-sweep recovery of up to six chunks fits in: the
    /// first read's positioning, one `rotation` (the drive model absorbs
    /// the command overhead of two back-to-back continuations, so every
    /// third continuation of a long log pays one), and 1.5 × the log's
    /// transfer time.
    pub fn time_bound(&self, rotation: SimDuration) -> SimDuration {
        self.positioning + rotation + self.transfer().mul_f64(1.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Setup;
    use rapilog_dbengine::EngineProfile;
    use rapilog_simdisk::specs;
    use rapilog_simpower::supplies;

    fn base(setup: Setup, fault: FaultKind) -> TrialConfig {
        let mut machine =
            MachineConfig::new(setup, specs::instant(256 << 20), specs::hdd_7200(128 << 20));
        machine.supply = Some(supplies::atx_psu());
        TrialConfig {
            machine,
            fault,
            clients: 4,
            fault_after: SimDuration::from_millis(400),
            think_time: SimDuration::from_micros(300),
        }
    }

    #[test]
    fn rapilog_survives_guest_crash() {
        let r = run_trial(100, base(Setup::RapiLog, FaultKind::GuestCrash));
        assert!(r.ok, "violations: {:?}", r.violations);
        assert!(r.total_acked > 0, "the load did run");
        assert_eq!(r.rapilog_guarantee, Some(true));
    }

    #[test]
    fn rapilog_survives_power_cut() {
        let r = run_trial(101, base(Setup::RapiLog, FaultKind::PowerCut));
        assert!(r.ok, "violations: {:?}", r.violations);
        assert!(r.total_acked > 0);
        assert_eq!(r.rapilog_guarantee, Some(true));
    }

    #[test]
    fn native_sync_survives_both_faults() {
        let r = run_trial(102, base(Setup::Native, FaultKind::GuestCrash));
        assert!(r.ok, "violations: {:?}", r.violations);
        let r = run_trial(103, base(Setup::Native, FaultKind::PowerCut));
        assert!(r.ok, "violations: {:?}", r.violations);
    }

    #[test]
    fn virtualized_sync_survives_power_cut() {
        let r = run_trial(104, base(Setup::Virtualized, FaultKind::PowerCut));
        assert!(r.ok, "violations: {:?}", r.violations);
    }

    #[test]
    fn rapilog_survives_disk_error_burst_via_retry_and_degraded_mode() {
        let mut cfg = base(
            Setup::RapiLog,
            FaultKind::DiskErrorBurst {
                burst: SimDuration::from_millis(60),
                slack: SimDuration::from_millis(80),
            },
        );
        cfg.think_time = SimDuration::from_micros(150);
        let r = run_trial(105, cfg);
        assert!(r.ok, "violations: {:?}", r.violations);
        assert!(r.total_acked > 0);
        assert_eq!(r.rapilog_guarantee, Some(true));
        assert!(
            r.fault_stats.transient_errors > 0,
            "the burst failed commands: {:?}",
            r.fault_stats
        );
        assert!(
            r.fault_stats.drain_retries > 0,
            "the drain retried through it: {:?}",
            r.fault_stats
        );
    }

    #[test]
    fn rapilog_survives_a_sick_log_disk_across_the_crash() {
        let r = run_trial(
            106,
            base(
                Setup::RapiLog,
                FaultKind::SickLogDisk {
                    lead: SimDuration::from_millis(40),
                },
            ),
        );
        assert!(r.ok, "violations: {:?}", r.violations);
        assert!(r.total_acked > 0);
        assert_eq!(r.rapilog_guarantee, Some(true));
        assert!(r.fault_stats.drain_retries > 0);
    }

    #[test]
    fn multi_tenant_power_cut_keeps_every_tenants_acked_bytes() {
        let mut cfg = base(Setup::RapiLog, FaultKind::PowerCut);
        cfg.machine.tenants = 4;
        cfg.machine.rapilog.drain =
            rapilog::DrainConfig::new().ordering(rapilog::OrderingMode::PartiallyConstrained);
        let r = run_trial(110, cfg);
        assert!(r.ok, "violations: {:?}", r.violations);
        assert_eq!(r.tenant_journals.len(), 3, "tenants 1..4 journaled");
        for tj in &r.tenant_journals {
            assert!(
                tj.acked_writes > 0,
                "tenant {} never got an ack — the co-tenant load is dead",
                tj.tenant
            );
        }
        assert!(r.commit_latency.count() > 0, "client latency was recorded");
        assert_eq!(r.rapilog_guarantee, Some(true));
    }

    #[test]
    fn multi_tenant_guest_crash_is_invisible_to_co_tenants() {
        let mut cfg = base(Setup::RapiLog, FaultKind::GuestCrash);
        cfg.machine.tenants = 3;
        let r = run_trial(111, cfg);
        assert!(r.ok, "violations: {:?}", r.violations);
        assert!(r.tenant_journals.iter().all(|t| t.acked_writes > 0));
        assert_eq!(r.rapilog_guarantee, Some(true));
    }

    #[test]
    fn rapilog_survives_a_power_flicker() {
        let r = run_trial(
            107,
            base(
                Setup::RapiLog,
                FaultKind::PowerFlicker {
                    flicker: SimDuration::from_millis(100),
                },
            ),
        );
        assert!(r.ok, "violations: {:?}", r.violations);
        assert!(r.total_acked > 0);
        assert_eq!(r.rapilog_guarantee, Some(true));
    }

    #[test]
    fn native_sync_halts_but_never_lies_under_a_disk_error_burst() {
        // The synchronous engine has no resilience layer: the WAL stops on
        // the first failed flush. That is loud and ugly — but it must not
        // lose anything it acknowledged.
        let r = run_trial(
            108,
            base(
                Setup::Native,
                FaultKind::DiskErrorBurst {
                    burst: SimDuration::from_millis(60),
                    slack: SimDuration::from_millis(80),
                },
            ),
        );
        assert!(r.ok, "violations: {:?}", r.violations);
        assert!(r.fault_stats.transient_errors > 0);
    }

    #[test]
    fn unsafe_async_commit_loses_acked_transactions() {
        // Negative control: `synchronous_commit = off` acknowledges before
        // durability. A crash right after heavy acking must (on some seeds)
        // lose acknowledged work — proving the auditor detects real loss.
        let mut lost = false;
        for seed in 200..210 {
            let mut cfg = base(Setup::Native, FaultKind::GuestCrash);
            cfg.machine.db.profile = EngineProfile::async_unsafe();
            cfg.think_time = SimDuration::from_micros(50);
            let r = run_trial(seed, cfg);
            if !r.ok {
                assert!(
                    r.violations.iter().any(|v| v.contains("durability")),
                    "expected durability violations, got {:?}",
                    r.violations
                );
                lost = true;
                break;
            }
        }
        assert!(lost, "async commit never lost anything across 10 seeds??");
    }
}

#[cfg(test)]
mod pipeline_tests {
    use super::*;
    use crate::machine::{Machine, MachineConfig, Setup};
    use rapilog_simcore::Sim;
    use rapilog_simdisk::specs;
    use rapilog_simpower::supplies;
    use rapilog_workload::micro;
    use rapilog_workload::session::{job, outcome_from, JobOutcome};

    /// A transparent end-to-end walk of the power-cut pipeline with every
    /// intermediate quantity visible under `--nocapture`.
    #[test]
    fn power_cut_pipeline_step_by_step() {
        let mut sim = Sim::new(101);
        let ctx = sim.ctx();
        let c2 = ctx.clone();
        sim.spawn(async move {
            let mut mc = MachineConfig::new(
                Setup::RapiLog,
                specs::instant(256 << 20),
                specs::hdd_7200(128 << 20),
            );
            mc.supply = Some(supplies::atx_psu());
            let machine = Machine::new(&c2, mc);
            let db = machine.install(&micro::table_defs(1)).await.unwrap();
            let table = micro::registers_table(&db).unwrap();
            micro::init_client(&db, table, 0).await.unwrap();
            let server = machine.server();
            let mut acked = 0u64;
            for seq in 1..=50u64 {
                let o = server
                    .submit(job(move |db| async move {
                        let t = micro::registers_table(&db).unwrap();
                        outcome_from(micro::write_pair(&db, t, 0, seq).await)
                    }))
                    .await;
                if o == JobOutcome::Committed {
                    acked = seq;
                } else {
                    break;
                }
            }
            let rl = machine.rapilog().unwrap();
            eprintln!(
                "acked={} wal_end={:?} occupancy={} buf_stats={:?}",
                acked,
                db.wal().end(),
                rl.occupancy(),
                rl.stats()
            );
            machine.cut_power();
            machine.psu().unwrap().death_event().wait().await;
            eprintln!(
                "post-death occupancy={} audit={:?}",
                rl.occupancy(),
                rl.audit_report()
            );
            c2.sleep(SimDuration::from_millis(100)).await;
            machine.restore_power();
            let (db2, rep) = machine.reboot_and_recover().await.unwrap();
            eprintln!("recovery: {:?}", rep);
            let t2 = micro::registers_table(&db2).unwrap();
            let pair = micro::read_pair(&db2, t2, 0).await.unwrap();
            eprintln!("recovered pair={:?} (acked {})", pair, acked);
            assert!(pair.0 == pair.1, "atomicity");
            assert!(pair.0 >= acked, "durability: acked {acked}, got {:?}", pair);
            assert_eq!(
                machine.rapilog_guarantee_held(),
                Some(true),
                "drain met the residual deadline"
            );
            db2.stop();
        });
        sim.run_until(SimTime::from_secs(30));
    }
}
