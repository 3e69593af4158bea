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
use std::rc::Rc;

use rapilog::{
    ApplyStop, CapacitySpec, RapiLog, RapiLogDevice, ReplicationConfig, ReplicationMode,
    ReplicationReport, Replicator, ShipAck, ShipFrame, Standby,
};
use rapilog_microvisor::cell::Cell;
use rapilog_microvisor::{Hypervisor, Trust};
use rapilog_simcore::bytes::SectorBuf;
use rapilog_simcore::stats::Histogram;
use rapilog_simcore::trace::{Layer, Payload};
use rapilog_simcore::{DomainId, JoinHandle, Sim, SimCtx, SimDuration, SimTime};
use rapilog_simdisk::{
    specs, BlockDevice, Completion, Disk, DiskSpec, Geometry, IoReq, IoResult, LocalBoxFuture,
    ReqToken, SECTOR_SIZE,
};
use rapilog_simnet::{Link, LinkFaults, LinkSpec};
use rapilog_simpower::{supplies, PowerSupply};

/// First log sector of the audited client slots. Each write of the trial
/// targets its own private sector, so the post-failover media audit can
/// attribute every sector to exactly one `(client, write)` pair.
const SLOT_BASE: u64 = 1024;
/// Sector slots reserved per client (an upper bound on writes per client).
const SLOTS_PER_CLIENT: u64 = 256;
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

/// One failover trial's parameters.
#[derive(Debug, Clone)]
pub struct FailoverConfig {
    /// The replication guarantee level under test.
    pub mode: ReplicationMode,
    /// The injected fault.
    pub kind: FailoverKind,
    /// Concurrent writer clients on the primary.
    pub clients: usize,
    /// Writes each client attempts (each to its own private sector).
    pub writes_per_client: usize,
    /// Mean think time between a client's writes.
    pub think_time: SimDuration,
    /// Virtual time of load before the fault fires.
    pub fault_after: SimDuration,
}

impl FailoverConfig {
    /// The stock trial: 2 clients × 64 writes, fault at 12 ms.
    pub fn new(mode: ReplicationMode, kind: FailoverKind) -> FailoverConfig {
        FailoverConfig {
            mode,
            kind,
            clients: 2,
            writes_per_client: 64,
            think_time: SimDuration::from_micros(300),
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

/// The expected byte-exact content of one audited slot.
fn slot_payload(client: u64, k: u64, slot: u64) -> Vec<u8> {
    let mut data = vec![0xC3u8; SECTOR_SIZE];
    data[..8].copy_from_slice(&slot.to_le_bytes());
    data[8..16].copy_from_slice(&client.to_le_bytes());
    data[16..24].copy_from_slice(&k.to_le_bytes());
    data
}

fn slot_of(client: u64, k: u64) -> u64 {
    SLOT_BASE + client * SLOTS_PER_CLIENT + k
}

fn media_sector(disk: &Disk, sector: u64) -> Vec<u8> {
    let mut buf = vec![0u8; SECTOR_SIZE];
    disk.peek_media(sector, &mut buf);
    buf
}

/// Per-client acknowledgement journal. Writes are submitted in order and
/// a client stops at its first failure, so both counters are prefix
/// lengths over `k = 0..`.
#[derive(Debug, Clone, Copy, Default)]
struct ClientJournal {
    attempted: u64,
    acked: u64,
    /// The write that ended this client's run came back as an error.
    failed: bool,
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
        let rcfg = match spec.mode {
            ReplicationMode::Sync => ReplicationConfig::sync(),
            ReplicationMode::Async => ReplicationConfig::asynchronous(),
        };
        let repl = Replicator::new(ctx, rcfg, ship.clone(), acks.clone());
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

/// The audited client load: each write goes to its own private sector.
struct Load {
    guest: DomainId,
    journals: Rc<RefCell<Vec<ClientJournal>>>,
    commit_latency: Rc<RefCell<Histogram>>,
    handles: Vec<JoinHandle<()>>,
}

impl Load {
    fn spawn(
        ctx: &SimCtx,
        dev: &RapiLogDevice,
        clients: usize,
        writes: usize,
        think: SimDuration,
    ) -> Load {
        assert!(
            writes as u64 <= SLOTS_PER_CLIENT,
            "at most {SLOTS_PER_CLIENT} writes per client"
        );
        let guest = ctx.create_domain();
        let journals = Rc::new(RefCell::new(vec![ClientJournal::default(); clients]));
        let commit_latency = Rc::new(RefCell::new(Histogram::new()));
        let mut handles = Vec::new();
        for client in 0..clients as u64 {
            let dev = dev.clone();
            let ctx3 = ctx.clone();
            let journals = Rc::clone(&journals);
            let lat = Rc::clone(&commit_latency);
            handles.push(ctx.spawn_in(guest, async move {
                for k in 0..writes as u64 {
                    let slot = slot_of(client, k);
                    journals.borrow_mut()[client as usize].attempted = k + 1;
                    let t0 = ctx3.now();
                    match dev.write(slot, &slot_payload(client, k, slot), true).await {
                        Ok(()) => {
                            journals.borrow_mut()[client as usize].acked = k + 1;
                            lat.borrow_mut()
                                .record(ctx3.now().duration_since(t0).as_micros());
                        }
                        // Frozen buffer, halted shipper or dead disk: the
                        // machine is dying, this client is done.
                        Err(_) => {
                            journals.borrow_mut()[client as usize].failed = true;
                            break;
                        }
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
        Load {
            guest,
            journals,
            commit_latency,
            handles,
        }
    }

    async fn finish(&mut self) {
        for h in self.handles.drain(..) {
            let _ = h.await;
        }
    }
}

fn trace_fault(ctx: &SimCtx, label: &'static str) -> SimTime {
    let at = ctx.now();
    ctx.tracer().instant(
        at,
        Layer::Fault,
        "fault_inject",
        Payload::Text { text: label },
    );
    at
}

/// Frames the shipper has put on the wire, first sends and re-sends alike.
fn frames_sent(r: &ReplicationReport) -> u64 {
    r.frames_shipped + r.retransmits
}

/// Runs one complete failover trial in its own deterministic simulation.
pub fn run_failover_trial(seed: u64, cfg: FailoverConfig) -> FailoverResult {
    let mut sim = Sim::new(seed);
    let ctx = sim.ctx();
    let result: Rc<RefCell<Option<FailoverResult>>> = Rc::new(RefCell::new(None));
    let out = Rc::clone(&result);
    let c2 = ctx.clone();
    sim.spawn(async move {
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
        let mut load = Load::spawn(
            &c2,
            &rl.device(),
            cfg.clients,
            cfg.writes_per_client,
            cfg.think_time,
        );

        // ---- Fault choreography → promotion.
        let fault_at;
        match cfg.kind {
            FailoverKind::GuestCrash => {
                c2.sleep(cfg.fault_after).await;
                fault_at = trace_fault(&c2, cfg.kind.label());
                c2.kill_domain(load.guest);
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
                c2.kill_domain(load.guest);
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
        let journals = load.journals.borrow().clone();

        // ---- The audit: both media images against the journals.
        let mut violations = Vec::new();
        if let Some(stop) = standby_report.stopped {
            violations.push(format!("standby stopped applying: {stop:?}"));
        }
        let applied_hi = standby_report.tenant(0).and_then(|t| t.applied_hi);
        let offered_hi = repl_report.tenant(0).and_then(|t| t.offered_hi);
        // Stale-ack probe: the primary must never believe the standby is
        // ahead of where the standby actually is.
        let acked_hi = repl_report.tenant(0).and_then(|t| t.acked_hi);
        if acked_hi > applied_hi {
            violations.push(format!(
                "stale ack: primary believes {acked_hi:?} durable, standby applied {applied_hi:?}"
            ));
        }
        // The pair's reported lag: admitted (offered) prefix minus applied
        // prefix. Sequence spaces are dense from 0, so `hi` is a count − 1.
        let reported_lag = offered_hi
            .map_or(0, |o| o + 1)
            .saturating_sub(applied_hi.map_or(0, |a| a + 1));
        let mut media_missing = 0u64;
        let mut acked_writes = 0u64;
        let mut attempted_writes = 0u64;
        let mut pbuf = vec![0u8; SECTOR_SIZE];
        let mut sbuf = vec![0u8; SECTOR_SIZE];
        for (client, j) in journals.iter().enumerate() {
            acked_writes += j.acked;
            attempted_writes += j.attempted;
            for k in 0..j.attempted {
                let slot = slot_of(client as u64, k);
                let expected = slot_payload(client as u64, k, slot);
                pair.primary_disk.peek_media(slot, &mut pbuf);
                pair.standby_disk.peek_media(slot, &mut sbuf);
                let primary_has = pbuf == expected;
                let standby_has = sbuf == expected;
                if !standby_has && sbuf.iter().any(|&b| b != 0) {
                    violations.push(format!(
                        "client {client} write {k}: replica diverged at sector {slot}"
                    ));
                    continue;
                }
                if standby_has && !primary_has {
                    violations.push(format!(
                        "client {client} write {k}: standby ahead of primary at sector {slot}"
                    ));
                    continue;
                }
                if primary_has && !standby_has {
                    media_missing += 1;
                }
                if k < j.acked {
                    // Acked writes must be on the primary image in every
                    // kind (quiesced drain or emergency drain).
                    if !primary_has {
                        violations.push(format!(
                            "client {client} write {k}: acked but lost from the PRIMARY image"
                        ));
                    }
                    // Sync mode: acked implies standby-durable, period.
                    if cfg.mode == ReplicationMode::Sync && !standby_has {
                        violations.push(format!(
                            "client {client} write {k}: acked in sync mode but missing \
                             from the promoted standby"
                        ));
                    }
                }
            }
        }
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
            let zombie = slot_payload(u64::MAX, u64::MAX, ZOMBIE_SLOT);
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
            if standby.applied_hi(0) != applied_hi {
                violations.push("standby applied frames after promotion".to_string());
            }
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
        let commit_latency = load.commit_latency.borrow().clone();
        *out.borrow_mut() = Some(FailoverResult {
            ok: violations.is_empty(),
            violations,
            acked_writes,
            attempted_writes,
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
        });
    });
    sim.run_until(SimTime::from_secs(60));
    let r = result.borrow_mut().take();
    r.expect("failover trial did not complete — deadlock or runaway scenario")
}

/// The standby-side trial's load: enough synchronous writers, close enough
/// together, to keep an SSD-backed standby's drain busy without pause.
const STANDBY_TRIAL_CLIENTS: usize = 4;
const STANDBY_TRIAL_WRITES: usize = 200;
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

    fn completions(&self) -> LocalBoxFuture<'_, Vec<Completion>> {
        self.device.completions()
    }

    fn wait(&self, token: ReqToken) -> LocalBoxFuture<'_, IoResult<Option<SectorBuf>>> {
        self.device.wait(token)
    }

    fn discard(&self, token: ReqToken) {
        self.device.discard(token)
    }
}

/// Runs one standby-side trial in its own deterministic simulation: an
/// audited synchronous load on a healthy primary while the standby's box
/// loses power (or just struggles), then an audit of what the standby
/// acknowledged against what its media holds.
pub fn run_standby_trial(seed: u64, cfg: StandbyTrialConfig) -> StandbyTrialResult {
    let mut sim = Sim::new(seed);
    let ctx = sim.ctx();
    let result: Rc<RefCell<Option<StandbyTrialResult>>> = Rc::new(RefCell::new(None));
    let out = Rc::clone(&result);
    let c2 = ctx.clone();
    sim.spawn(async move {
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
        let mut load = Load::spawn(
            &c2,
            &pair.primary.device(),
            STANDBY_TRIAL_CLIENTS,
            STANDBY_TRIAL_WRITES,
            STANDBY_TRIAL_THINK,
        );

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
            c2.kill_domain(load.guest);
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
        let durable_hi = standby.applied_hi(0);
        let repl_report = pair.repl.report();
        let acked_hi = repl_report.tenant(0).and_then(|t| t.acked_hi);
        if acked_hi > durable_hi {
            violations.push(format!(
                "stale ack: primary believes {acked_hi:?} durable, standby applied {durable_hi:?}"
            ));
        }
        let applies = applies.writes.borrow();
        let vouched = durable_hi.map_or(0, |hi| hi + 1);
        let lost_acked_frames = applies
            .iter()
            .take(vouched as usize)
            .filter(|(sector, data)| media_sector(&pair.standby_disk, *sector) != data.as_slice())
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
        let journals = load.journals.borrow();
        let acked_writes: u64 = journals.iter().map(|j| j.acked).sum();
        let attempted_writes: u64 = journals.iter().map(|j| j.attempted).sum();
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
        // dead or quiesced by now).
        for (client, j) in journals.iter().enumerate() {
            for k in 0..j.acked {
                let slot = slot_of(client as u64, k);
                if media_sector(&pair.standby_disk, slot) != slot_payload(client as u64, k, slot) {
                    violations.push(format!(
                        "client {client} write {k}: acked in sync mode but missing \
                         from the standby's media"
                    ));
                }
            }
        }
        pair.hv.assert_trusted_intact();
        pair.repl.halt();

        *out.borrow_mut() = Some(StandbyTrialResult {
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
            commit_latency: load.commit_latency.borrow().clone(),
        });
    });
    sim.run_until(SimTime::from_secs(60));
    let r = result.borrow_mut().take();
    r.expect("standby trial did not complete — deadlock or runaway scenario")
}

/// The failover grid: seeds × modes × kinds, one trial each.
#[derive(Debug, Clone)]
pub struct FailoverExplorerConfig {
    /// RNG seeds: each is an independent world.
    pub seeds: Vec<u64>,
    /// Replication modes to sweep.
    pub modes: Vec<ReplicationMode>,
    /// Failover kinds to sweep.
    pub kinds: Vec<FailoverKind>,
    /// Clients per trial.
    pub clients: usize,
    /// Writes per client.
    pub writes_per_client: usize,
    /// Mean think time between writes.
    pub think_time: SimDuration,
    /// Load time before the fault.
    pub fault_after: SimDuration,
}

impl FailoverExplorerConfig {
    /// The default sweep: 3 seeds × both modes × all four kinds.
    pub fn rapilog_default() -> FailoverExplorerConfig {
        FailoverExplorerConfig {
            seeds: (0..3).map(|i| 0xFA11 + i * 131).collect(),
            modes: vec![ReplicationMode::Sync, ReplicationMode::Async],
            kinds: FailoverKind::all(),
            clients: 2,
            writes_per_client: 64,
            think_time: SimDuration::from_micros(300),
            fault_after: SimDuration::from_millis(12),
        }
    }

    /// The full grid in canonical order: seed-outer, mode-middle,
    /// kind-inner — the order [`explore_failovers`] visits, so a parallel
    /// runner merging per-point results by grid index reproduces the
    /// sequential report exactly.
    pub fn grid(&self) -> Vec<FailoverPoint> {
        let mut points = Vec::with_capacity(self.seeds.len() * self.modes.len() * self.kinds.len());
        for &seed in &self.seeds {
            for &mode in &self.modes {
                for &kind in &self.kinds {
                    points.push(FailoverPoint { seed, mode, kind });
                }
            }
        }
        points
    }

    /// The [`FailoverConfig`] for one grid point.
    pub fn trial(&self, point: &FailoverPoint) -> FailoverConfig {
        FailoverConfig {
            mode: point.mode,
            kind: point.kind,
            clients: self.clients,
            writes_per_client: self.writes_per_client,
            think_time: self.think_time,
            fault_after: self.fault_after,
        }
    }
}

/// One grid coordinate.
#[derive(Debug, Clone, Copy)]
pub struct FailoverPoint {
    /// The trial's RNG seed.
    pub seed: u64,
    /// The replication mode under test.
    pub mode: ReplicationMode,
    /// The injected failover fault.
    pub kind: FailoverKind,
}

/// One grid point whose trial violated an invariant; replays exactly.
#[derive(Debug, Clone)]
pub struct FailoverCounterexample {
    /// The grid coordinate.
    pub point: FailoverPoint,
    /// What the audit found.
    pub violations: Vec<String>,
}

impl FailoverCounterexample {
    /// A one-line replay recipe for reports and panic messages.
    pub fn replay_line(&self) -> String {
        format!(
            "replay: seed={} mode={} kind={} ({} violations: {})",
            self.point.seed,
            mode_label(self.point.mode),
            self.point.kind.label(),
            self.violations.len(),
            self.violations.join("; "),
        )
    }
}

/// What a failover sweep found.
#[derive(Debug, Clone, Default)]
pub struct FailoverReport {
    /// Trials executed.
    pub trials: u64,
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
    /// Summed fault→promotion time (µs), for averaging over `trials`.
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
    /// Grid points that violated an invariant.
    pub counterexamples: Vec<FailoverCounterexample>,
}

impl FailoverReport {
    /// True iff no trial violated any invariant.
    pub fn clean(&self) -> bool {
        self.counterexamples.is_empty()
    }

    /// Folds one trial's outcome into the report. Public so external
    /// runners (e.g. a thread-parallel sweep) can rebuild the exact
    /// sequential report by absorbing per-point results in grid order.
    pub fn absorb(&mut self, point: &FailoverPoint, r: &FailoverResult) {
        self.trials += 1;
        self.total_acked += r.acked_writes;
        self.total_attempted += r.attempted_writes;
        if point.mode == ReplicationMode::Async {
            self.async_trials += 1;
            self.async_lag_total += r.reported_lag;
            if point.kind == FailoverKind::PartitionPowerCut {
                self.partition_async_trials += 1;
                if r.reported_lag > 0 {
                    self.partition_async_lagged += 1;
                }
            }
        }
        self.retransmits += r.retransmits;
        self.refused_after_promotion += r.refused_after_promotion;
        self.ship_dropped += r.ship_dropped;
        self.ship_duplicated += r.ship_duplicated;
        self.ship_reordered += r.ship_reordered;
        let rec_us = r.recovery_time.as_micros();
        self.recovery_us_max = self.recovery_us_max.max(rec_us);
        self.recovery_us_total += rec_us;
        self.recovery_us.record(rec_us);
        self.commit_latency.merge(&r.commit_latency);
        if point.mode == ReplicationMode::Sync && point.kind != FailoverKind::ShipmentChaos {
            self.sync_commit_latency.merge(&r.commit_latency);
            self.sync_link_round_trip
                .record(r.link_round_trip.as_nanos());
        }
        if !r.ok {
            self.counterexamples.push(FailoverCounterexample {
                point: *point,
                violations: r.violations.clone(),
            });
        }
    }
}

/// Runs the full failover grid: every seed × mode × kind, one
/// deterministic trial each, and collects the verdicts.
pub fn explore_failovers(cfg: &FailoverExplorerConfig) -> FailoverReport {
    let mut report = FailoverReport::default();
    for point in cfg.grid() {
        let r = run_failover_trial(point.seed, cfg.trial(&point));
        report.absorb(&point, &r);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let report = explore_failovers(&cfg);
        assert_eq!(report.trials, 2 * 2 * 4);
        assert!(
            report.clean(),
            "counterexamples: {:?}",
            report
                .counterexamples
                .iter()
                .map(|c| c.replay_line())
                .collect::<Vec<_>>()
        );
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
