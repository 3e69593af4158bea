//! Crash-failover trials: primary dies, the standby is promoted, the
//! audit decides whether the pair kept its promise.
//!
//! One trial assembles a replicated pair — a primary RapiLog instance
//! whose device tees every admitted write over a faulty simulated network
//! to a [`Standby`] applying into its own disk image — runs an audited client
//! load, injects one failover-class fault, promotes the standby and then
//! audits **both media images** against the clients' acknowledgement
//! journals:
//!
//! * **Sync mode** — every write the primary ever acknowledged must be
//!   servable by the promoted standby (byte-exact on its media image).
//! * **Async mode** — the pair must report an *exact* replication lag:
//!   the admitted-but-unreplicated count derived from the primary's
//!   offered prefix and the standby's applied prefix must equal the
//!   number of committed sectors actually missing from the standby image.
//! * **Both modes** — the standby never runs ahead of the primary (no
//!   phantoms), never diverges byte-wise, and a promoted standby refuses
//!   (and never acknowledges) frames from a zombie primary.
//!
//! The primary is audited quiesced or dead, and by then every admitted
//! write is on its media (the drain, or the emergency drain — the
//! single-box guarantee, checked in the same trial). So at audit time
//! "offered to the shipper" ≡ "admitted" ≡ "on the primary's media", under
//! any drain ordering — that identity is what makes the async lag check an
//! equality rather than an inequality.

use std::cell::RefCell;
use std::rc::Rc;

use rapilog::{RapiLog, ReplicationConfig, ReplicationMode, Replicator, Standby};
use rapilog_microvisor::{Hypervisor, Trust};
use rapilog_simcore::stats::Histogram;
use rapilog_simcore::trace::{Layer, Payload};
use rapilog_simcore::{Sim, SimDuration, SimTime};
use rapilog_simdisk::{specs, BlockDevice, Disk, SECTOR_SIZE};
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
    /// Fault injection → standby promotion.
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

/// Per-client acknowledgement journal. Writes are submitted in order and
/// a client stops at its first failure, so both counters are prefix
/// lengths over `k = 0..`.
#[derive(Debug, Clone, Copy, Default)]
struct ClientJournal {
    attempted: u64,
    acked: u64,
}

/// Runs one complete failover trial in its own deterministic simulation.
pub fn run_failover_trial(seed: u64, cfg: FailoverConfig) -> FailoverResult {
    assert!(
        cfg.writes_per_client as u64 <= SLOTS_PER_CLIENT,
        "at most {SLOTS_PER_CLIENT} writes per client"
    );
    let mut sim = Sim::new(seed);
    let ctx = sim.ctx();
    ctx.tracer().set_enabled(true);
    let result: Rc<RefCell<Option<FailoverResult>>> = Rc::new(RefCell::new(None));
    let out = Rc::clone(&result);
    let c2 = ctx.clone();
    sim.spawn(async move {
        // ---- Assembly: primary cell + standby cell, two disks, two links.
        let hv = Hypervisor::new(&c2);
        let pcell = hv.create_cell("primary-io", Trust::Trusted);
        let scell = hv.create_cell("standby-io", Trust::Trusted);
        let primary_disk = Disk::new(&c2, specs::ssd_sata(64 << 20));
        let standby_disk = Disk::new(&c2, specs::ssd_sata(64 << 20));
        let (ship_faults, ack_faults) = match cfg.kind {
            FailoverKind::ShipmentChaos => (
                LinkFaults::chaos(seed ^ 0xC4A0, 0.15, 0.08, 0.25),
                LinkFaults::chaos(seed ^ 0x0AC5, 0.10, 0.05, 0.20),
            ),
            _ => (LinkFaults::default(), LinkFaults::default()),
        };
        let ship = Link::new(&c2, LinkSpec::lan("ship").with_faults(ship_faults));
        let acks = Link::new(&c2, LinkSpec::lan("acks").with_faults(ack_faults));
        let rcfg = match cfg.mode {
            ReplicationMode::Sync => ReplicationConfig::sync(),
            ReplicationMode::Async => ReplicationConfig::asynchronous(),
        };
        let repl = Replicator::new(&c2, rcfg, ship.clone(), acks.clone());
        let standby = Standby::start(&c2, &scell, standby_disk.clone(), ship.clone(), acks);
        let psu = cfg
            .kind
            .needs_power()
            .then(|| PowerSupply::new(&c2, supplies::atx_psu()));
        let mut builder = RapiLog::builder(&c2)
            .cell(&pcell)
            .disk(primary_disk.clone())
            .replicate(&repl);
        if let Some(p) = &psu {
            builder = builder.supply(p);
        }
        let rl = builder.build();
        if let Some(p) = &psu {
            // Power death takes the primary box: disk dark, shipper halted
            // (a dead primary neither promises nor believes anything more).
            let disk = primary_disk.clone();
            let r = repl.clone();
            p.on_death(move || {
                disk.power_cut();
                r.halt();
            });
        }

        // ---- Client load: each write goes to its own private sector.
        let guest = c2.create_domain();
        let journals: Rc<RefCell<Vec<ClientJournal>>> =
            Rc::new(RefCell::new(vec![ClientJournal::default(); cfg.clients]));
        let commit_latency: Rc<RefCell<Histogram>> = Rc::new(RefCell::new(Histogram::new()));
        let mut client_handles = Vec::new();
        for client in 0..cfg.clients as u64 {
            let dev = rl.device();
            let ctx3 = c2.clone();
            let journals = Rc::clone(&journals);
            let lat = Rc::clone(&commit_latency);
            let think = cfg.think_time;
            let writes = cfg.writes_per_client as u64;
            client_handles.push(c2.spawn_in(guest, async move {
                for k in 0..writes {
                    let slot = SLOT_BASE + client * SLOTS_PER_CLIENT + k;
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
                        Err(_) => break,
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

        // ---- Fault choreography → promotion.
        let fault_at;
        match cfg.kind {
            FailoverKind::GuestCrash => {
                c2.sleep(cfg.fault_after).await;
                fault_at = c2.now();
                c2.tracer().instant(
                    fault_at,
                    Layer::Fault,
                    "fault_inject",
                    Payload::Text {
                        text: cfg.kind.label(),
                    },
                );
                c2.kill_domain(guest);
                // The storage stack survived: let the drain retire what the
                // dead guest already submitted, and the replica catch up,
                // before the operator flips the switch.
                rl.quiesce().await;
                repl.wait_settled().await;
            }
            FailoverKind::PowerCut | FailoverKind::PartitionPowerCut => {
                c2.sleep(cfg.fault_after).await;
                fault_at = c2.now();
                c2.tracer().instant(
                    fault_at,
                    Layer::Fault,
                    "fault_inject",
                    Payload::Text {
                        text: cfg.kind.label(),
                    },
                );
                if cfg.kind == FailoverKind::PartitionPowerCut {
                    // The replication channel dies first; the primary keeps
                    // committing into the partition for a while, then the
                    // power goes too.
                    ship.partition(true);
                    c2.sleep(SimDuration::from_millis(5)).await;
                }
                let p = psu.as_ref().expect("power kinds carry a supply");
                p.cut_mains();
                p.death_event().wait().await;
                c2.kill_domain(guest);
                // A beat for frames already in flight to land (or die in
                // the partition) before promotion freezes the standby.
                c2.sleep(SimDuration::from_millis(2)).await;
            }
            FailoverKind::ShipmentChaos => {
                // No machine fault: the network itself is the adversary.
                // The load runs to completion through the chaos.
                for h in client_handles.drain(..) {
                    let _ = h.await;
                }
                fault_at = c2.now();
                c2.tracer().instant(
                    fault_at,
                    Layer::Fault,
                    "fault_inject",
                    Payload::Text {
                        text: cfg.kind.label(),
                    },
                );
                rl.quiesce().await;
                repl.wait_settled().await;
            }
        }
        let standby_report = standby.promote();
        let recovery_time = c2.now().duration_since(fault_at);
        let repl_report = repl.report();
        let prim_audit = rl.audit_report();
        let journals = journals.borrow().clone();

        // ---- The audit: both media images against the journals.
        let mut violations = Vec::new();
        if standby_report.wedged {
            violations.push("standby image wedged (apply write failed)".to_string());
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
                let slot = SLOT_BASE + client as u64 * SLOTS_PER_CLIENT + k;
                let expected = slot_payload(client as u64, k, slot);
                primary_disk.peek_media(slot, &mut pbuf);
                standby_disk.peek_media(slot, &mut sbuf);
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
        // write is on its media and this is an equality, not a bound.
        if media_missing != reported_lag {
            violations.push(format!(
                "lag misreported: pair reports {reported_lag}, media audit counts \
                 {media_missing} committed sectors missing from the standby"
            ));
        }
        let primary_guarantee = prim_audit.guarantee_held();
        if !primary_guarantee {
            violations.push("primary single-box guarantee violated".to_string());
        }

        // ---- Split-brain probe (kinds whose primary survives): a zombie
        // primary keeps writing after promotion; the standby must refuse
        // every frame and never acknowledge.
        let mut refused_after_promotion = standby_report.refused_after_promotion;
        if !cfg.kind.needs_power() {
            let dev = rl.device();
            let zombie = slot_payload(u64::MAX, u64::MAX, ZOMBIE_SLOT);
            let z = zombie.clone();
            // Detached: in sync mode this write blocks forever (the
            // promoted standby never acks), which is itself correct.
            c2.spawn(async move {
                let _ = dev.write(ZOMBIE_SLOT, &z, true).await;
            });
            c2.sleep(SimDuration::from_millis(20)).await;
            let post = standby.report();
            refused_after_promotion = post.refused_after_promotion;
            if post.refused_after_promotion == 0 {
                violations.push("zombie frames were not refused after promotion".to_string());
            }
            if standby.applied_hi(0) != applied_hi {
                violations.push("standby applied frames after promotion".to_string());
            }
            standby_disk.peek_media(ZOMBIE_SLOT, &mut sbuf);
            if sbuf == zombie {
                violations.push("zombie write reached the replica image".to_string());
            }
        }
        hv.assert_trusted_intact();

        let ship_stats = ship.stats();
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
            commit_latency: commit_latency.borrow().clone(),
        });
    });
    sim.run_until(SimTime::from_secs(60));
    let r = result.borrow_mut().take();
    r.expect("failover trial did not complete — deadlock or runaway scenario")
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
        assert!(report.recovery_us_max > 0);
    }
}
