//! Crash-failover trials: primary dies, the standby is promoted, the
//! audit decides whether the pair kept its promise.
//!
//! One trial assembles a replicated pair — a primary RapiLog instance
//! whose device tees every admitted write over a faulty simulated network
//! to a [`Standby`] applying into a *second* RapiLog instance on its own
//! box (own cell, disk and power supply) — runs an audited client load,
//! injects one failover-class fault, promotes the standby, quiesces its
//! instance and then audits **both media images** against the clients'
//! acknowledgement journals:
//!
//! * **Sync mode** — every write the primary ever acknowledged must be
//!   servable by the promoted standby (byte-exact on its media image).
//! * **Async mode** — the pair must report an *exact* replication lag:
//!   the admitted-but-unreplicated count derived from the primary's
//!   offered prefix and the standby's applied prefix must equal the
//!   number of committed sectors actually missing from the standby image.
//! * **Both modes** — the standby never runs ahead of the primary (no
//!   phantoms), never diverges byte-wise, and a promoted standby refuses
//!   (and never acknowledges) frames from a zombie primary. Both
//!   instances' own single-box guarantees held.
//!
//! The primary is audited quiesced or dead, and by then every admitted
//! write is on its media (the drain, or the emergency drain — the
//! single-box guarantee, checked in the same trial). So at audit time
//! "offered to the shipper" ≡ "admitted" ≡ "on the primary's media", under
//! any drain ordering — that identity is what makes the async lag check an
//! equality rather than an inequality. The standby is audited quiesced for
//! the same reason on its side: "applied" ≡ "admitted to the standby's
//! buffer" ≡ "on the standby's media".
//!
//! [`run_standby_trial`] turns the fault around: the *standby's* box loses
//! power (or merely has a tiny buffer over a slow disk) while the primary
//! stays healthy, and the audit checks that what the standby acknowledged
//! is worth what a RapiLog acknowledgement is worth.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use rapilog::{
    ApplyStop, CapacitySpec, RapiLog, RapiLogDevice, ReplicationMode, ReplicationReport,
    Replicator, ShipAck, ShipFrame, Standby,
};
use rapilog_microvisor::cell::Cell;
use rapilog_microvisor::{Hypervisor, Trust};
use rapilog_simcore::bytes::SectorBuf;
use rapilog_simcore::stats::Histogram;
use rapilog_simcore::{Sim, SimCtx, SimDuration, SimTime};
use rapilog_simdisk::{
    specs, BlockDevice, Disk, DiskSpec, Geometry, IoReq, IoResult, LocalBoxFuture, ReqToken,
    SECTOR_SIZE,
};
use rapilog_simnet::{Link, LinkFaults, LinkSpec};
use rapilog_simpower::{supplies, PowerSupply};

use crate::explorer::Trial;
use crate::guest::{self, Guest, WriterJournal};
use crate::scenario::trace_fault;

/// The sector a zombie primary writes after promotion (split-brain probe).
const ZOMBIE_SLOT: u64 = 64;
/// How many times the zombie's frame may go out before a standby that has
/// refused none of them is declared broken. Each send is lost to a 15 %
/// chaos link independently, so a healthy standby misses all of them once
/// in 10^13 trials.
const ZOMBIE_PROBE_SENDS: u64 = 16;

/// The failover-class faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailoverKind {
    /// The guest OS dies (clients vanish mid-write); the storage stack and
    /// the network survive, the standby catches up, then takes over.
    GuestCrash,
    /// Mains power cut: the emergency drain runs inside the residual
    /// window, shipping keeps going until the box dies, then the standby
    /// is promoted.
    PowerCut,
    /// The network partitions first, *then* the power is cut — the
    /// shipment channel is dead exactly when it is needed most. In async
    /// mode this must produce a real, exactly-reported replication lag.
    PartitionPowerCut,
    /// No machine fault at all: the links drop, duplicate and reorder
    /// throughout the load. End-to-end retransmission must converge the
    /// replica before promotion.
    ShipmentChaos,
}

impl FailoverKind {
    /// Short label for tables and traces.
    pub fn label(&self) -> &'static str {
        match self {
            FailoverKind::GuestCrash => "guest_crash",
            FailoverKind::PowerCut => "power_cut",
            FailoverKind::PartitionPowerCut => "partition_power_cut",
            FailoverKind::ShipmentChaos => "shipment_chaos",
        }
    }

    /// Every failover kind, in canonical grid order.
    pub fn all() -> Vec<FailoverKind> {
        vec![
            FailoverKind::GuestCrash,
            FailoverKind::PowerCut,
            FailoverKind::PartitionPowerCut,
            FailoverKind::ShipmentChaos,
        ]
    }

    fn needs_power(&self) -> bool {
        matches!(
            self,
            FailoverKind::PowerCut | FailoverKind::PartitionPowerCut
        )
    }
}

/// Short label for a replication mode, used by tables and replay lines.
pub fn mode_label(mode: ReplicationMode) -> &'static str {
    match mode {
        ReplicationMode::Sync => "sync",
        ReplicationMode::Async => "async",
    }
}

/// Concurrent writer clients on the failover trial's primary.
const FAILOVER_TRIAL_CLIENTS: u64 = 2;
/// Writes each of them attempts, each to its own private sector: 64 writes
/// about 300 µs apart outlast the 12 ms before the stock fault, so it lands
/// mid-load.
const FAILOVER_TRIAL_WRITES: u64 = 64;
/// Mean think time between a client's writes.
const FAILOVER_TRIAL_THINK: SimDuration = SimDuration::from_micros(300);

/// One failover trial's parameters. The load is fixed: 2 clients × 64
/// writes, 300 µs apart on average.
#[derive(Debug, Clone)]
pub struct FailoverConfig {
    /// The replication guarantee level under test.
    pub mode: ReplicationMode,
    /// The injected fault.
    pub kind: FailoverKind,
    /// Virtual time of load before the fault fires.
    pub fault_after: SimDuration,
}

impl FailoverConfig {
    /// The stock trial: the fault at 12 ms.
    pub fn new(mode: ReplicationMode, kind: FailoverKind) -> FailoverConfig {
        FailoverConfig {
            mode,
            kind,
            fault_after: SimDuration::from_millis(12),
        }
    }
}

/// The outcome of one failover trial.
#[derive(Debug, Clone)]
pub struct FailoverResult {
    /// True iff no invariant was violated.
    pub ok: bool,
    /// Human-readable violations (empty when `ok`).
    pub violations: Vec<String>,
    /// Writes acknowledged to clients before the fault ended the load.
    pub acked_writes: u64,
    /// Writes submitted (acknowledged or not).
    pub attempted_writes: u64,
    /// The pair's reported replication lag at promotion: the primary's
    /// admitted (offered) prefix minus the standby's applied prefix, in
    /// writes.
    pub reported_lag: u64,
    /// Committed sectors present on the primary image but missing from the
    /// standby image — the ground truth the reported lag must equal.
    pub media_missing: u64,
    /// Fault injection → the promoted standby's image complete on media.
    pub recovery_time: SimDuration,
    /// Frames the shipper re-sent after ack deadlines lapsed.
    pub retransmits: u64,
    /// Frames the promoted standby refused from the zombie primary.
    pub refused_after_promotion: u64,
    /// Ship-link drops (fault model + partition), for potency checks.
    pub ship_dropped: u64,
    /// Ship-link duplicate deliveries.
    pub ship_duplicated: u64,
    /// Ship-link reordered deliveries.
    pub ship_reordered: u64,
    /// The primary's own single-box guarantee verdict (emergency drain met
    /// its deadline, no acknowledged byte unaccounted).
    pub primary_guarantee: bool,
    /// The standby instance's own single-box guarantee verdict — what its
    /// acknowledgements to the primary were backed by.
    pub standby_guarantee: bool,
    /// Mean time a frame spent on the ship link plus mean time an ack spent
    /// on the ack link: the part of a synchronous commit that is network.
    pub link_round_trip: SimDuration,
    /// Client ack latency (µs) over the pre-fault load.
    pub commit_latency: Histogram,
}

/// What a pair is assembled from: the parts a trial varies.
struct PairSpec {
    mode: ReplicationMode,
    ship_faults: LinkFaults,
    ack_faults: LinkFaults,
    /// Whether the primary box has a supply (the kinds that cut it).
    primary_supply: bool,
    standby_disk: DiskSpec,
    standby_capacity: CapacitySpec,
}

/// A replicated pair, assembled but for the [`Standby`] itself: two boxes
/// (cell, disk, RapiLog instance, supply) and the two links between them.
/// The trial starts the standby over whichever view of `standby_log`'s
/// device it wants to audit through.
struct Pair {
    hv: Hypervisor,
    scell: Cell,
    primary_disk: Disk,
    standby_disk: Disk,
    ship: Link<ShipFrame>,
    acks: Link<ShipAck>,
    repl: Replicator,
    primary: RapiLog,
    standby_log: RapiLog,
    primary_psu: Option<PowerSupply>,
    standby_psu: PowerSupply,
}

impl Pair {
    fn assemble(ctx: &SimCtx, spec: PairSpec) -> Pair {
        let hv = Hypervisor::new(ctx);
        let pcell = hv.create_cell("primary-io", Trust::Trusted);
        let scell = hv.create_cell("standby-io", Trust::Trusted);
        let primary_disk = Disk::new(ctx, specs::ssd_sata(64 << 20));
        let standby_disk = Disk::new(ctx, spec.standby_disk);
        let ship = Link::new(ctx, LinkSpec::lan("ship").with_faults(spec.ship_faults));
        let acks = Link::new(ctx, LinkSpec::lan("acks").with_faults(spec.ack_faults));
        let repl = Replicator::new(ctx, spec.mode, ship.clone(), acks.clone());
        let primary_psu = spec
            .primary_supply
            .then(|| PowerSupply::new(ctx, supplies::atx_psu()));
        let mut builder = RapiLog::builder(ctx)
            .cell(&pcell)
            .disk(primary_disk.clone())
            .replicate(&repl);
        if let Some(p) = &primary_psu {
            builder = builder.supply(p);
        }
        let primary = builder.build();
        if let Some(p) = &primary_psu {
            // Power death takes the primary box: disk dark, shipper halted
            // (a dead primary neither promises nor believes anything more).
            let disk = primary_disk.clone();
            let r = repl.clone();
            p.on_death(move || {
                disk.power_cut();
                r.halt();
            });
        }
        // The standby is a RapiLog like any other: its own supply sizes its
        // buffer and arms its emergency drain, and takes its disk with it.
        let standby_psu = PowerSupply::new(ctx, supplies::atx_psu());
        let standby_log = RapiLog::builder(ctx)
            .cell(&scell)
            .disk(standby_disk.clone())
            .supply(&standby_psu)
            .capacity(spec.standby_capacity)
            .build();
        let disk = standby_disk.clone();
        standby_psu.on_death(move || disk.power_cut());
        Pair {
            hv,
            scell,
            primary_disk,
            standby_disk,
            ship,
            acks,
            repl,
            primary,
            standby_log,
            primary_psu,
            standby_psu,
        }
    }

    fn start_standby(&self, ctx: &SimCtx, device: Rc<dyn BlockDevice>) -> Standby {
        Standby::start(
            ctx,
            &self.scell,
            device,
            self.ship.clone(),
            self.acks.clone(),
        )
    }

    /// Mean ship transit plus mean ack transit, as the links measured it.
    fn link_round_trip(&self) -> SimDuration {
        self.ship.stats().mean_transit() + self.acks.stats().mean_transit()
    }
}

/// Audits both images of a pair against the clients' journals: the
/// primary's by the media audit, the standby's against it (no divergence,
/// nothing the primary lacks, in sync mode every acknowledged write).
/// Returns the committed sectors the standby image misses.
fn audit_pair(
    primary: &Disk,
    standby: &Disk,
    journals: &[WriterJournal],
    mode: ReplicationMode,
    violations: &mut Vec<String>,
) -> u64 {
    let mut missing = 0;
    for j in journals {
        let client = j.tenant;
        // Acked writes are on the primary image in every kind (quiesced
        // drain or emergency drain).
        let on_primary = guest::audit(primary, j, "client", violations);
        let on_standby = guest::media_seqs(standby, j);
        for k in 0..j.attempted_writes() as usize {
            let (p, sector) = (on_primary[k].unwrap_or(0), j.base + k as u64);
            let problem = match on_standby[k] {
                Err(_) => format!("replica diverged at sector {sector}"),
                Ok(s) if s > p => format!("standby ahead of primary at sector {sector}"),
                Ok(s) => {
                    missing += u64::from(p > s);
                    // Sync mode: acked implies standby-durable, period.
                    if mode != ReplicationMode::Sync || s >= j.acked[k] {
                        continue;
                    }
                    "acked in sync mode but missing from the promoted standby".to_string()
                }
            };
            violations.push(format!("client {client} write {k}: {problem}"));
        }
    }
    missing
}

/// Frames the shipper has put on the wire, first sends and re-sends alike.
fn frames_sent(r: &ReplicationReport) -> u64 {
    r.frames_shipped + r.retransmits
}

/// Runs one complete failover trial in its own deterministic simulation.
pub fn run_failover_trial(seed: u64, cfg: FailoverConfig) -> FailoverResult {
    let mut sim = Sim::new(seed);
    let ctx = sim.ctx();
    let c2 = ctx.clone();
    let task = sim.spawn(async move {
        // ---- Assembly: two boxes, two links; the standby applies into its
        // own RapiLog instance.
        let (ship_faults, ack_faults) = match cfg.kind {
            FailoverKind::ShipmentChaos => (
                LinkFaults::chaos(seed ^ 0xC4A0, 0.15, 0.08, 0.25),
                LinkFaults::chaos(seed ^ 0x0AC5, 0.10, 0.05, 0.20),
            ),
            _ => (LinkFaults::default(), LinkFaults::default()),
        };
        let pair = Pair::assemble(
            &c2,
            PairSpec {
                mode: cfg.mode,
                ship_faults,
                ack_faults,
                primary_supply: cfg.kind.needs_power(),
                standby_disk: specs::ssd_sata(64 << 20),
                standby_capacity: CapacitySpec::FromSupply,
            },
        );
        let standby = pair.start_standby(&c2, Rc::new(pair.standby_log.device()));
        let (rl, repl) = (&pair.primary, &pair.repl);
        // The audited clients, in a guest domain the faults kill.
        let (writes, think) = (FAILOVER_TRIAL_WRITES, FAILOVER_TRIAL_THINK);
        let mut load = Guest::new(c2.create_domain(), writes, think);
        for c in 0..FAILOVER_TRIAL_CLIENTS {
            load.spawn(&c2, &rl.device(), WriterJournal::client(c, writes));
        }

        // ---- Fault choreography → promotion.
        let fault_at;
        match cfg.kind {
            FailoverKind::GuestCrash => {
                c2.sleep(cfg.fault_after).await;
                fault_at = trace_fault(&c2, cfg.kind.label());
                c2.kill_domain(load.domain);
                // The storage stack survived: let the drain retire what the
                // dead guest already submitted, and the replica catch up,
                // before the operator flips the switch.
                rl.quiesce().await;
                repl.wait_settled().await;
            }
            FailoverKind::PowerCut | FailoverKind::PartitionPowerCut => {
                c2.sleep(cfg.fault_after).await;
                fault_at = trace_fault(&c2, cfg.kind.label());
                if cfg.kind == FailoverKind::PartitionPowerCut {
                    // The replication channel dies first; the primary keeps
                    // committing into the partition for a while, then the
                    // power goes too.
                    pair.ship.partition(true);
                    c2.sleep(SimDuration::from_millis(5)).await;
                }
                let p = pair
                    .primary_psu
                    .as_ref()
                    .expect("power kinds carry a supply");
                p.cut_mains();
                p.death_event().wait().await;
                c2.kill_domain(load.domain);
                // A beat for frames already in flight to land (or die in
                // the partition) before promotion freezes the standby.
                c2.sleep(SimDuration::from_millis(2)).await;
            }
            FailoverKind::ShipmentChaos => {
                // No machine fault: the network itself is the adversary.
                // The load runs to completion through the chaos.
                load.finish().await;
                fault_at = trace_fault(&c2, cfg.kind.label());
                rl.quiesce().await;
                repl.wait_settled().await;
            }
        }
        // Promotion stops the applies; what was applied is dependable on
        // the standby, and its drain puts the rest of it on media before
        // the image is served (or audited).
        let standby_report = standby.promote();
        pair.standby_log.quiesce().await;
        let recovery_time = c2.now().duration_since(fault_at);
        let repl_report = repl.report();
        let journals = load.journals();

        // ---- The audit: both media images against the journals.
        let mut violations = Vec::new();
        if let Some(stop) = standby_report.stopped {
            violations.push(format!("standby stopped applying: {stop:?}"));
        }
        let applied_hi = standby_report.applied_hi;
        // Stale-ack probe: the primary must never believe the standby is
        // ahead of where the standby actually is.
        let acked_hi = repl_report.acked_hi;
        if acked_hi > applied_hi {
            violations.push(format!(
                "stale ack: primary believes {acked_hi:?} durable, standby applied {applied_hi:?}"
            ));
        }
        // The pair's reported lag: admitted (offered) prefix minus applied
        // prefix. Sequence spaces are dense from 0, so `hi` is a count − 1.
        let reported_lag = repl_report
            .offered_hi
            .map_or(0, |o| o + 1)
            .saturating_sub(applied_hi.map_or(0, |a| a + 1));
        let media_missing = audit_pair(
            &pair.primary_disk,
            &pair.standby_disk,
            &journals,
            cfg.mode,
            &mut violations,
        );
        // The exactness check (both modes): the reported lag must equal the
        // ground-truth count of committed-but-unreplicated sectors. The
        // primary is quiesced or dead here, so every offered (= admitted)
        // write is on its media — and the standby is quiesced, so every
        // applied write is on its — and this is an equality, not a bound.
        if media_missing != reported_lag {
            violations.push(format!(
                "lag misreported: pair reports {reported_lag}, media audit counts \
                 {media_missing} committed sectors missing from the standby"
            ));
        }
        let primary_guarantee = rl.audit_report().guarantee_held();
        if !primary_guarantee {
            violations.push("primary single-box guarantee violated".to_string());
        }
        // The standby's acks were promises about its buffer: they are worth
        // exactly what its own guarantee is worth.
        let standby_guarantee = pair.standby_log.audit_report().guarantee_held();
        if !standby_guarantee {
            violations.push("standby single-box guarantee violated".to_string());
        }

        // ---- Split-brain probe (kinds whose primary survives): a zombie
        // primary keeps writing after promotion; the standby must refuse
        // every frame and never acknowledge.
        let mut refused_after_promotion = standby_report.refused_after_promotion;
        if !cfg.kind.needs_power() {
            let dev = rl.device();
            let zombie = guest::payload(u64::MAX, 1);
            let z = zombie.clone();
            let sent_before = frames_sent(&repl.report());
            // Detached: in sync mode this write blocks forever (the
            // promoted standby never acks), which is itself correct.
            c2.spawn(async move {
                let _ = dev.write(ZOMBIE_SLOT, &z, true).await;
            });
            // Wait for the first refusal, however many retransmissions a
            // lossy link makes that take — and give up only once the frame
            // has gone out ZOMBIE_PROBE_SENDS times (the last of them with
            // a whole ack deadline to arrive in) and none was refused.
            loop {
                c2.sleep(SimDuration::from_micros(100)).await;
                refused_after_promotion = standby.report().refused_after_promotion;
                let sent = frames_sent(&repl.report()) - sent_before;
                if refused_after_promotion > 0 || sent > ZOMBIE_PROBE_SENDS {
                    break;
                }
            }
            if refused_after_promotion == 0 {
                violations.push("zombie frames were not refused after promotion".to_string());
            }
            if standby.applied_hi() != applied_hi {
                violations.push("standby applied frames after promotion".to_string());
            }
            let mut sbuf = vec![0u8; SECTOR_SIZE];
            pair.standby_disk.peek_media(ZOMBIE_SLOT, &mut sbuf);
            if sbuf == zombie || pair.standby_log.occupancy() != 0 {
                violations.push("zombie write reached the replica image".to_string());
            }
        }
        pair.hv.assert_trusted_intact();
        // The verdict is in. Put the zombie down, or its shipper goes on
        // retransmitting into the promoted standby until the simulation's
        // horizon — thousands of events nobody reads.
        repl.halt();

        let ship_stats = pair.ship.stats();
        let commit_latency = load.latency.borrow().clone();
        FailoverResult {
            ok: violations.is_empty(),
            violations,
            acked_writes: journals.iter().map(|j| j.acked_writes).sum(),
            attempted_writes: journals.iter().map(WriterJournal::attempted_writes).sum(),
            reported_lag,
            media_missing,
            recovery_time,
            retransmits: repl_report.retransmits,
            refused_after_promotion,
            ship_dropped: ship_stats.dropped + ship_stats.partition_drops,
            ship_duplicated: ship_stats.duplicated,
            ship_reordered: ship_stats.reordered,
            primary_guarantee,
            standby_guarantee,
            link_round_trip: pair.link_round_trip(),
            commit_latency,
        }
    });
    sim.run_until(SimTime::from_secs(60));
    task.try_take()
        .expect("failover trial did not complete — deadlock or runaway scenario")
}

/// The standby-side trial's load: enough synchronous writers, close enough
/// together, to keep an SSD-backed standby's drain busy without pause.
const STANDBY_TRIAL_CLIENTS: u64 = 4;
const STANDBY_TRIAL_WRITES: u64 = 200;
const STANDBY_TRIAL_THINK: SimDuration = SimDuration::from_micros(50);

/// One standby-side trial's parameters: the primary stays healthy and
/// replicates synchronously, the *standby's* box is what the trial
/// stresses.
#[derive(Debug, Clone)]
pub struct StandbyTrialConfig {
    /// The standby's log disk.
    pub standby_disk: DiskSpec,
    /// The standby instance's buffer sizing.
    pub standby_capacity: CapacitySpec,
    /// When to cut the standby's mains, if at all. Without a cut the load
    /// runs to completion and both instances are quiesced.
    pub cut_standby_after: Option<SimDuration>,
    /// Whether the standby's disk stays powered through its supply's
    /// residual window. `false` is the potency control: the disk goes dark
    /// with the mains, so nothing buffered can be drained — a standby that
    /// acknowledged from a buffer with no emergency drain behind it.
    pub emergency_drain: bool,
}

impl StandbyTrialConfig {
    /// The stock standby power cut: the failover pair's own standby (an
    /// `ssd_sata` log disk, buffer sized from its supply), mains gone at
    /// 5 ms, mid-load.
    pub fn power_cut() -> StandbyTrialConfig {
        StandbyTrialConfig {
            standby_disk: specs::ssd_sata(64 << 20),
            standby_capacity: CapacitySpec::FromSupply,
            cut_standby_after: Some(SimDuration::from_millis(5)),
            emergency_drain: true,
        }
    }
}

/// The outcome of one standby-side trial.
#[derive(Debug, Clone)]
pub struct StandbyTrialResult {
    /// True iff no invariant was violated.
    pub ok: bool,
    /// Human-readable violations (empty when `ok`).
    pub violations: Vec<String>,
    /// Writes acknowledged to clients.
    pub acked_writes: u64,
    /// Writes submitted (acknowledged or not).
    pub attempted_writes: u64,
    /// Client writes that returned an error. The primary is healthy
    /// throughout, so a standby in trouble must show as waiting, never as
    /// this.
    pub write_errors: u64,
    /// The standby's applied prefix at the end: no `durable_hi` it ever
    /// sent exceeds it.
    pub durable_hi: Option<u64>,
    /// Sequences inside that prefix that are not byte-exact on the
    /// standby's media.
    pub lost_acked_frames: u64,
    /// The standby instance's own single-box guarantee verdict.
    pub standby_guarantee: bool,
    /// Why the standby stopped applying, if it did.
    pub standby_stopped: Option<ApplyStop>,
    /// Bytes the standby had buffered when its power-fail warning fired —
    /// what its emergency drain had to land (0 without a power cut).
    pub occupancy_at_warning: u64,
    /// Times an apply had to wait for space in the standby's buffer.
    pub standby_backpressure_events: u64,
    /// Client ack latency (µs).
    pub commit_latency: Histogram,
}

/// The standby's device with a notebook: every write the standby submits is
/// noted, in order, and passed on. The standby applies one extent per
/// sequence number, in sequence order, each exactly once — so entry `n` is
/// what the acknowledgement for sequence `n` vouched for.
struct ApplyLog {
    device: RapiLogDevice,
    writes: RefCell<Vec<(u64, SectorBuf)>>,
}

impl ApplyLog {
    fn note(&self, req: &IoReq) {
        if let IoReq::Write {
            sector, segments, ..
        } = req
        {
            if let Some(first) = segments.first() {
                self.writes.borrow_mut().push((*sector, first.clone()));
            }
        }
    }
}

impl BlockDevice for ApplyLog {
    fn geometry(&self) -> Geometry {
        self.device.geometry()
    }

    fn exec(&self, req: IoReq) -> LocalBoxFuture<'_, IoResult<Option<SectorBuf>>> {
        self.note(&req);
        self.device.exec(req)
    }

    fn submit(&self, req: IoReq) -> ReqToken {
        self.note(&req);
        self.device.submit(req)
    }
}

/// Runs one standby-side trial in its own deterministic simulation: an
/// audited synchronous load on a healthy primary while the standby's box
/// loses power (or just struggles), then an audit of what the standby
/// acknowledged against what its media holds.
pub fn run_standby_trial(seed: u64, cfg: StandbyTrialConfig) -> StandbyTrialResult {
    let mut sim = Sim::new(seed);
    let ctx = sim.ctx();
    let c2 = ctx.clone();
    let task = sim.spawn(async move {
        let pair = Pair::assemble(
            &c2,
            PairSpec {
                mode: ReplicationMode::Sync,
                ship_faults: LinkFaults::default(),
                ack_faults: LinkFaults::default(),
                primary_supply: false,
                standby_disk: cfg.standby_disk.clone(),
                standby_capacity: cfg.standby_capacity,
            },
        );
        let applies = Rc::new(ApplyLog {
            device: pair.standby_log.device(),
            writes: RefCell::new(Vec::new()),
        });
        let standby = pair.start_standby(&c2, applies.clone());
        // The audited clients, in a guest domain the faults kill.
        let (writes, think) = (STANDBY_TRIAL_WRITES, STANDBY_TRIAL_THINK);
        let mut load = Guest::new(c2.create_domain(), writes, think);
        for c in 0..STANDBY_TRIAL_CLIENTS {
            load.spawn(
                &c2,
                &pair.primary.device(),
                WriterJournal::client(c, writes),
            );
        }

        if let Some(after) = cfg.cut_standby_after {
            c2.sleep(after).await;
            trace_fault(&c2, "standby_power_cut");
            pair.standby_psu.cut_mains();
            if !cfg.emergency_drain {
                pair.standby_disk.power_cut();
            }
            pair.standby_psu.death_event().wait().await;
            // The standby is gone and stays silent: sync writers are
            // blocked on it, which is the correct thing for them to be.
            c2.kill_domain(load.domain);
        } else {
            load.finish().await;
            pair.primary.quiesce().await;
            pair.repl.wait_settled().await;
            pair.standby_log.quiesce().await;
        }

        // ---- The audit: the standby's word against the standby's media.
        let mut violations = Vec::new();
        let report = standby.report();
        if report.wedged() {
            violations.push(format!("standby image wedged: {:?}", report.stopped));
        }
        let durable_hi = standby.applied_hi();
        let acked_hi = pair.repl.report().acked_hi;
        if acked_hi > durable_hi {
            violations.push(format!(
                "stale ack: primary believes {acked_hi:?} durable, standby applied {durable_hi:?}"
            ));
        }
        let applies = applies.writes.borrow();
        let vouched = durable_hi.map_or(0, |hi| hi + 1);
        let mut buf = vec![0u8; SECTOR_SIZE];
        let lost_acked_frames = applies
            .iter()
            .take(vouched as usize)
            .filter(|(sector, data)| {
                pair.standby_disk.peek_media(*sector, &mut buf);
                buf != data.as_slice()
            })
            .count() as u64
            // (An applied prefix longer than the notebook would be a
            // standby acknowledging writes it never submitted.)
            + vouched.saturating_sub(applies.len() as u64);
        if lost_acked_frames > 0 {
            violations.push(format!(
                "{lost_acked_frames} of the {vouched} frames the standby acknowledged \
                 are not on its media"
            ));
        }
        let standby_audit = pair.standby_log.audit_report();
        let standby_guarantee = standby_audit.guarantee_held();
        if !standby_guarantee {
            violations.push("standby single-box guarantee violated".to_string());
        }
        if !pair.primary.audit_report().guarantee_held() {
            violations.push("primary single-box guarantee violated".to_string());
        }
        let journals = load.journals();
        let acked_writes: u64 = journals.iter().map(|j| j.acked_writes).sum();
        let attempted_writes: u64 = journals.iter().map(WriterJournal::attempted_writes).sum();
        let write_errors = journals.iter().filter(|j| j.failed).count() as u64;
        if write_errors > 0 {
            violations.push(format!(
                "{write_errors} clients saw a write fail on a healthy primary"
            ));
        }
        if cfg.cut_standby_after.is_none() && acked_writes != attempted_writes {
            violations.push(format!(
                "{acked_writes} of {attempted_writes} writes acknowledged with nothing cut"
            ));
        }
        // What a client was told is on the standby's media too (its box is
        // dead or quiesced by now): the writers' one media audit.
        for j in &journals {
            guest::audit(&pair.standby_disk, j, "client", &mut violations);
        }
        pair.hv.assert_trusted_intact();
        pair.repl.halt();

        let commit_latency = load.latency.borrow().clone();
        StandbyTrialResult {
            ok: violations.is_empty(),
            violations,
            acked_writes,
            attempted_writes,
            write_errors,
            durable_hi,
            lost_acked_frames,
            standby_guarantee,
            standby_stopped: report.stopped,
            occupancy_at_warning: standby_audit
                .emergencies
                .first()
                .map_or(0, |e| e.occupancy_at_warning),
            standby_backpressure_events: pair.standby_log.stats().backpressure_events,
            commit_latency,
        }
    });
    sim.run_until(SimTime::from_secs(60));
    task.try_take()
        .expect("standby trial did not complete — deadlock or runaway scenario")
}

/// The failover grid: seeds × modes × every [`FailoverKind`], one trial
/// each.
#[derive(Debug, Clone)]
pub struct FailoverExplorerConfig {
    /// RNG seeds: each is an independent world.
    pub seeds: Vec<u64>,
}

impl FailoverExplorerConfig {
    /// The replication modes every grid sweeps, in grid order.
    pub const MODES: [ReplicationMode; 2] = [ReplicationMode::Sync, ReplicationMode::Async];

    /// The default sweep: 3 seeds × both modes × all four kinds.
    pub fn rapilog_default() -> FailoverExplorerConfig {
        FailoverExplorerConfig {
            seeds: (0..3).map(|i| 0xFA11 + i * 131).collect(),
        }
    }

    /// The [`FailoverConfig`] for one grid point: the stock trial.
    pub fn trial(&self, point: &FailoverPoint) -> FailoverConfig {
        FailoverConfig::new(point.mode, point.kind)
    }
}

/// One failover-grid coordinate.
#[derive(Debug, Clone, Copy)]
pub struct FailoverPoint {
    /// The trial's RNG seed.
    pub seed: u64,
    /// The replication mode under test.
    pub mode: ReplicationMode,
    /// The injected failover fault.
    pub kind: FailoverKind,
}

impl fmt::Display for FailoverPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed={} mode={} kind={}",
            self.seed,
            mode_label(self.mode),
            self.kind.label(),
        )
    }
}

/// What a failover sweep sums, beyond the trial count and the
/// counterexamples every sweep reports.
#[derive(Debug, Clone, Default)]
pub struct FailoverReport {
    /// Acknowledged writes audited, summed over trials.
    pub total_acked: u64,
    /// Submitted writes, summed over trials.
    pub total_attempted: u64,
    /// Async-mode trials run.
    pub async_trials: u64,
    /// Replication lag summed over async trials (each exact per trial).
    pub async_lag_total: u64,
    /// Async partition+power-cut trials run (the lag potency population).
    pub partition_async_trials: u64,
    /// ...and how many of them produced a real (non-zero) lag.
    pub partition_async_lagged: u64,
    /// Shipper retransmissions summed over trials.
    pub retransmits: u64,
    /// Zombie frames refused after promotion, summed over trials.
    pub refused_after_promotion: u64,
    /// Ship-link drops summed over trials (chaos potency).
    pub ship_dropped: u64,
    /// Ship-link duplicates summed over trials.
    pub ship_duplicated: u64,
    /// Ship-link reorders summed over trials.
    pub ship_reordered: u64,
    /// Worst fault→promotion time observed (µs).
    pub recovery_us_max: u64,
    /// Summed fault→promotion time (µs), for averaging over the trials.
    pub recovery_us_total: u64,
    /// Per-trial fault→promotion time (µs), for tail percentiles.
    pub recovery_us: Histogram,
    /// Client ack latency (µs) merged over every trial's pre-fault load.
    pub commit_latency: Histogram,
    /// The same, over sync-mode trials on fault-free links only: what a
    /// client of the pair pays for a replicated commit. (Async acks are
    /// buffer-speed and chaos-link acks measure the retransmission timer.)
    pub sync_commit_latency: Histogram,
    /// Over the same trials, each trial's measured link round trip (mean
    /// ship transit + mean ack transit, ns): the floor under
    /// `sync_commit_latency`. A mean commit well above it means something
    /// slower than the network is on the replicated commit path.
    pub sync_link_round_trip: Histogram,
}

impl Trial for FailoverExplorerConfig {
    type Point = FailoverPoint;
    type Outcome = FailoverResult;
    type Report = FailoverReport;

    /// Seed-outer, mode-middle, kind-inner.
    fn grid(&self) -> Vec<FailoverPoint> {
        let kinds = FailoverKind::all();
        let mut points = Vec::with_capacity(self.seeds.len() * Self::MODES.len() * kinds.len());
        for &seed in &self.seeds {
            for mode in Self::MODES {
                for &kind in &kinds {
                    points.push(FailoverPoint { seed, mode, kind });
                }
            }
        }
        points
    }

    fn run(&self, point: &FailoverPoint) -> FailoverResult {
        run_failover_trial(point.seed, self.trial(point))
    }

    fn violations(r: &FailoverResult) -> &[String] {
        &r.violations
    }

    fn fold(report: &mut FailoverReport, point: &FailoverPoint, r: &FailoverResult) {
        report.total_acked += r.acked_writes;
        report.total_attempted += r.attempted_writes;
        if point.mode == ReplicationMode::Async {
            report.async_trials += 1;
            report.async_lag_total += r.reported_lag;
            if point.kind == FailoverKind::PartitionPowerCut {
                report.partition_async_trials += 1;
                if r.reported_lag > 0 {
                    report.partition_async_lagged += 1;
                }
            }
        }
        report.retransmits += r.retransmits;
        report.refused_after_promotion += r.refused_after_promotion;
        report.ship_dropped += r.ship_dropped;
        report.ship_duplicated += r.ship_duplicated;
        report.ship_reordered += r.ship_reordered;
        let rec_us = r.recovery_time.as_micros();
        report.recovery_us_max = report.recovery_us_max.max(rec_us);
        report.recovery_us_total += rec_us;
        report.recovery_us.record(rec_us);
        report.commit_latency.merge(&r.commit_latency);
        if point.mode == ReplicationMode::Sync && point.kind != FailoverKind::ShipmentChaos {
            report.sync_commit_latency.merge(&r.commit_latency);
            report
                .sync_link_round_trip
                .record(r.link_round_trip.as_nanos());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::explore;

    /// Client 0 after three writes, the last unacknowledged, on both images
    /// of a pair.
    fn pair_images() -> (Sim, Disk, Disk, WriterJournal) {
        let sim = Sim::new(1);
        let primary = Disk::new(&sim.ctx(), specs::instant(64 << 20));
        let standby = Disk::new(&sim.ctx(), specs::instant(64 << 20));
        let mut j = WriterJournal::client(0, 3);
        for seq in 1..=3u64 {
            j.attempted[seq as usize - 1] = seq;
            if seq < 3 {
                j.acked[seq as usize - 1] = seq;
                j.acked_writes += 1;
            }
            primary.poke_media(j.base + seq - 1, &guest::payload(0, seq));
            standby.poke_media(j.base + seq - 1, &guest::payload(0, seq));
        }
        (sim, primary, standby, j)
    }

    fn pair_audit(
        primary: &Disk,
        standby: &Disk,
        j: &WriterJournal,
        mode: ReplicationMode,
    ) -> (u64, Vec<String>) {
        let mut v = Vec::new();
        let missing = audit_pair(primary, standby, std::slice::from_ref(j), mode, &mut v);
        (missing, v)
    }

    #[test]
    fn each_pair_violation_fires_once_with_its_message() {
        let (_sim, primary, standby, j) = pair_images();
        assert_eq!(
            pair_audit(&primary, &standby, &j, ReplicationMode::Sync),
            (0, vec![])
        );
        let zeros = vec![0u8; SECTOR_SIZE];
        // Another client's bytes on the standby.
        standby.poke_media(j.base + 1, &guest::payload(1, 2));
        assert_eq!(
            pair_audit(&primary, &standby, &j, ReplicationMode::Sync),
            (
                0,
                vec!["client 0 write 1: replica diverged at sector 1025".to_string()]
            )
        );
        standby.poke_media(j.base + 1, &guest::payload(0, 2));
        // The unacknowledged write on the standby only.
        primary.poke_media(j.base + 2, &zeros);
        assert_eq!(
            pair_audit(&primary, &standby, &j, ReplicationMode::Sync),
            (
                0,
                vec!["client 0 write 2: standby ahead of primary at sector 1026".to_string()]
            )
        );
        primary.poke_media(j.base + 2, &guest::payload(0, 3));
        // An acknowledged write the standby lacks: lag in async mode, a
        // violation in sync mode.
        standby.poke_media(j.base, &zeros);
        assert_eq!(
            pair_audit(&primary, &standby, &j, ReplicationMode::Async),
            (1, vec![])
        );
        assert_eq!(
            pair_audit(&primary, &standby, &j, ReplicationMode::Sync),
            (
                1,
                vec![
                    "client 0 write 0: acked in sync mode but missing from the promoted standby"
                        .to_string()
                ]
            )
        );
    }

    #[test]
    fn sync_guest_crash_standby_serves_every_acked_commit() {
        let r = run_failover_trial(
            301,
            FailoverConfig::new(ReplicationMode::Sync, FailoverKind::GuestCrash),
        );
        assert!(r.ok, "violations: {:?}", r.violations);
        assert!(r.acked_writes > 0, "the load ran");
        assert_eq!(r.media_missing, 0, "the replica fully converged");
        assert!(
            r.refused_after_promotion > 0,
            "the split-brain probe exercised the refusal path"
        );
        assert!(r.primary_guarantee);
    }

    #[test]
    fn async_partition_power_cut_reports_exact_nonzero_lag() {
        let r = run_failover_trial(
            302,
            FailoverConfig::new(ReplicationMode::Async, FailoverKind::PartitionPowerCut),
        );
        assert!(r.ok, "violations: {:?}", r.violations);
        assert!(
            r.reported_lag > 0,
            "commits into the partition must produce a real lag"
        );
        assert_eq!(
            r.reported_lag, r.media_missing,
            "the reported lag is exact, not a bound"
        );
        assert!(
            r.primary_guarantee,
            "the emergency drain still met its deadline"
        );
    }

    #[test]
    fn sync_power_cut_loses_nothing_acked() {
        let r = run_failover_trial(
            303,
            FailoverConfig::new(ReplicationMode::Sync, FailoverKind::PowerCut),
        );
        assert!(r.ok, "violations: {:?}", r.violations);
        assert!(r.acked_writes > 0);
        assert!(r.primary_guarantee);
    }

    #[test]
    fn shipment_chaos_converges_through_retransmission() {
        let r = run_failover_trial(
            304,
            FailoverConfig::new(ReplicationMode::Async, FailoverKind::ShipmentChaos),
        );
        assert!(r.ok, "violations: {:?}", r.violations);
        assert_eq!(
            r.attempted_writes, r.acked_writes,
            "no machine fault: every write completes"
        );
        assert_eq!(r.reported_lag, 0, "the replica caught up before promotion");
        assert!(
            r.ship_dropped > 0,
            "the chaos links actually dropped frames"
        );
        assert!(r.retransmits > 0, "drops forced end-to-end retransmission");
    }

    #[test]
    fn failover_trials_replay_bit_identically() {
        let cfg = FailoverConfig::new(ReplicationMode::Async, FailoverKind::PartitionPowerCut);
        let a = run_failover_trial(305, cfg.clone());
        let b = run_failover_trial(305, cfg);
        assert_eq!(a.ok, b.ok);
        assert_eq!(a.acked_writes, b.acked_writes);
        assert_eq!(a.reported_lag, b.reported_lag);
        assert_eq!(a.media_missing, b.media_missing);
        assert_eq!(a.recovery_time, b.recovery_time);
        assert_eq!(a.retransmits, b.retransmits);
    }

    #[test]
    fn failover_grid_is_clean_across_modes_and_kinds() {
        let mut cfg = FailoverExplorerConfig::rapilog_default();
        cfg.seeds = vec![0xFA11, 0xFA11 + 131];
        let found = explore(&cfg, 1);
        assert_eq!(found.trials, 2 * 2 * 4);
        assert!(
            found.clean(),
            "counterexamples: {:?}",
            found
                .counterexamples
                .iter()
                .map(|c| c.replay_line())
                .collect::<Vec<_>>()
        );
        let report = &found.report;
        assert!(report.total_acked > 0, "the load ran");
        assert!(
            report.partition_async_lagged > 0,
            "the partition trials produced a real lag (potency)"
        );
        assert!(report.ship_dropped > 0, "chaos trials dropped frames");
        assert!(report.retransmits > 0, "retransmission was exercised");
        assert!(
            report.refused_after_promotion > 0,
            "the split-brain probe ran"
        );
        assert!(report.commit_latency.count() > 0);
        assert!(report.sync_commit_latency.count() > 0);
        assert!(
            report.sync_commit_latency.count() < report.commit_latency.count(),
            "sync-only: async and chaos samples stay out"
        );
        // One round trip per commit, and little else: no disk on the path.
        let link_us = report.sync_link_round_trip.mean() / 1e3;
        assert!((100.0..140.0).contains(&link_us), "two LAN hops: {link_us}");
        assert!(report.sync_commit_latency.mean() / link_us < 1.1);
        assert!(report.recovery_us_max > 0);
    }
}
