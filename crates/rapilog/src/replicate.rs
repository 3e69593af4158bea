//! Log shipping to a standby cell.
//!
//! The single-box guarantee ends where the box does: a fire takes the
//! trusted cell and its disk together. This module extends the dependable
//! pipeline over a (simulated, faulty) network: a primary-side
//! [`Replicator`] tees every write the dependable buffer *admits* — one
//! frame per extent, in admission (= sequence) order, offered by the
//! device in the same poll as the admission — onto a [`Link`], and a
//! [`Standby`] applies them through its own block device, acknowledging
//! the prefix that device has accepted. Hand it a second RapiLog
//! instance's device and an apply returns at admission to the standby's
//! dependable buffer: the acknowledgement then promises exactly what a
//! RapiLog acknowledgement always promises, and a replicated commit costs
//! the network round trip and nothing else. The standby can then be
//! [promoted](Standby::promote) after the primary fails.
//!
//! Shipping at admission keeps the primary's disk off the replicated
//! commit path: an admitted write is already dependable locally (the
//! buffer's guarantee), so the local media write and the ship → apply →
//! ack round trip overlap instead of chaining. Between admission and
//! drain the standby may therefore hold a write the primary's *media*
//! does not yet — never one the primary's *admitted log* lacks — and a
//! quiesced or dead primary has closed that gap (drain, or emergency
//! drain) by the time anyone audits it.
//!
//! The protocol is deliberately minimal, and it is one stream: a
//! replicated instance has one tenant (the builder refuses two), so its
//! admitted log is one dense sequence space. A frame carries one admitted
//! extent and its sequence number, an ack the highest sequence up to
//! which the standby's device has accepted every frame. The standby
//! applies strictly one frame at a time at its expected sequence, holding
//! bounded-reordered frames and re-acking duplicates, and the primary
//! retransmits everything unacknowledged once its ack deadline lapses
//! (capped exponential backoff, the drain's own, grown for at most its
//! budget of 8 retries). Reliability is therefore end-to-end: the link may
//! drop, duplicate, reorder within a bound, or partition, and the replica
//! still converges to a prefix of the primary's admitted log.
//!
//! Two guarantee levels (see [`ReplicationMode`]):
//!
//! * **Sync** — the guest's write acknowledgement additionally waits until
//!   the standby has acknowledged the write's sequence number (and for
//!   nothing else — not for the primary's own media write). Every commit
//!   the primary ever acked is then servable by the promoted standby.
//! * **Async** — acks stay early (buffer-speed); on failover the pair
//!   reports an exact replication lag: the count of admitted sequence
//!   numbers the standby has not applied. Because the standby only ever
//!   applies its contiguous prefix, what is missing is exactly a suffix
//!   `(applied_hi, offered_hi]` of the admitted log.

use std::cell::{Cell as StdCell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use rapilog_microvisor::cell::Cell;
use rapilog_simcore::bytes::SectorBuf;
use rapilog_simcore::sync::Notify;
use rapilog_simcore::trace::{Layer, Payload};
use rapilog_simcore::{SimCtx, SimDuration};
use rapilog_simdisk::{BlockDevice, IoError, IoReq};
use rapilog_simnet::Link;

use crate::drain::{backoff_delay, MAX_RETRIES};

/// When the guest's acknowledgement may run ahead of the standby.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicationMode {
    /// The device ack waits for the standby's ack: primary-acked implies
    /// accepted by the standby's device, at the cost of one ship → apply →
    /// ack round trip per write. No media write is on that path: the
    /// frame leaves at the primary's admission and its drain runs beside
    /// it, and a standby that applies into a RapiLog device acknowledges
    /// at admission too.
    Sync,
    /// Acks stay buffer-speed; the replica trails by a reported, exact lag.
    Async,
}

/// How long the shipper waits for ack progress before retransmitting every
/// unacknowledged frame.
const ACK_TIMEOUT: SimDuration = SimDuration::from_millis(5);

/// One shipped unit: one extent the primary's buffer admitted.
#[derive(Debug, Clone)]
pub struct ShipFrame {
    /// Its sequence number in the admitted log.
    pub seq: u64,
    /// First sector it writes.
    pub sector: u64,
    /// The bytes, whole sectors.
    pub data: SectorBuf,
}

impl ShipFrame {
    /// Wire size: payload bytes plus a fixed 32-byte header.
    fn wire_bytes(&self) -> u64 {
        32 + self.data.len() as u64
    }

    /// What the frame's `ship` and `standby_apply` spans carry: its
    /// sequence (the one a `repl_wait` span names), where it starts on
    /// disk and its wire size.
    fn trace_payload(&self) -> Payload {
        Payload::Extent {
            seq: self.seq,
            sector: self.sector,
            bytes: self.wire_bytes(),
        }
    }
}

/// The standby's cumulative acknowledgement (16 bytes on the wire).
#[derive(Debug, Clone, Copy)]
pub struct ShipAck {
    /// Every sequence number up to and including this one has been
    /// accepted by the standby's device with a forced write: on media for
    /// a raw disk, dependable (admitted to a buffer that is guaranteed to
    /// drain) for a RapiLog device.
    pub durable_hi: u64,
}

/// Point-in-time view of the primary-side shipper.
#[derive(Debug, Clone)]
pub struct ReplicationReport {
    /// The configured guarantee level.
    pub mode: ReplicationMode,
    /// True once [`Replicator::halt`] ran (primary power death).
    pub halted: bool,
    /// Frames sent for the first time.
    pub frames_shipped: u64,
    /// Frames re-sent after an ack deadline lapsed.
    pub retransmits: u64,
    /// Acknowledgements received from the standby.
    pub acks_received: u64,
    /// Frames offered but not yet acknowledged (queued or in flight).
    pub frames_pending: u64,
    /// Highest admitted sequence handed to the shipper. Admission, not
    /// local commit: the primary's media may trail this until the drain
    /// (or a dying primary's emergency drain) catches up.
    pub offered_hi: Option<u64>,
    /// Highest sequence the standby has acknowledged durable.
    pub acked_hi: Option<u64>,
    /// Admitted-but-unacknowledged sequence count: `offered − acked`.
    /// The sequence space is dense from 0, so this is an exact count.
    pub lag: u64,
}

struct ReplInner {
    ctx: SimCtx,
    mode: ReplicationMode,
    ship: Link<ShipFrame>,
    acks: Link<ShipAck>,
    /// Offered at admission, not yet put on the wire.
    pending: RefCell<VecDeque<ShipFrame>>,
    /// On the wire (at least once), awaiting acknowledgement.
    unacked: RefCell<VecDeque<ShipFrame>>,
    offered_hi: StdCell<Option<u64>>,
    acked_hi: StdCell<Option<u64>>,
    /// Bumped whenever `acked_hi` advances; the send loop uses it to tell
    /// real progress from mere wakeups.
    epoch: StdCell<u64>,
    /// Wakes the send loop and every sync-mode waiter: new offer, ack
    /// progress, halt.
    wake: Notify,
    halted: StdCell<bool>,
    attached: StdCell<bool>,
    frames_shipped: StdCell<u64>,
    retransmits: StdCell<u64>,
    acks_received: StdCell<u64>,
}

/// The primary-side shipper.
///
/// Create it with the two link directions, hand it to
/// [`RapiLogBuilder::replicate`](crate::RapiLogBuilder::replicate); the
/// builder attaches it to the instance's trusted cell and hands it to the
/// instance's [`RapiLogDevice`](crate::RapiLogDevice), which then offers
/// every extent the dependable buffer admits as one [`ShipFrame`] — in
/// both modes; only the wait for the standby's ack is [`Sync`]-only. The
/// drain does not know shipping exists.
///
/// [`Sync`]: ReplicationMode::Sync
#[derive(Clone)]
pub struct Replicator {
    inner: Rc<ReplInner>,
}

impl Replicator {
    /// Creates a shipper at guarantee level `mode` over `ship` (primary →
    /// standby frames) and `acks` (standby → primary acknowledgements).
    pub fn new(
        ctx: &SimCtx,
        mode: ReplicationMode,
        ship: Link<ShipFrame>,
        acks: Link<ShipAck>,
    ) -> Replicator {
        Replicator {
            inner: Rc::new(ReplInner {
                ctx: ctx.clone(),
                mode,
                ship,
                acks,
                pending: RefCell::new(VecDeque::new()),
                unacked: RefCell::new(VecDeque::new()),
                offered_hi: StdCell::new(None),
                acked_hi: StdCell::new(None),
                epoch: StdCell::new(0),
                wake: Notify::new(),
                halted: StdCell::new(false),
                attached: StdCell::new(false),
                frames_shipped: StdCell::new(0),
                retransmits: StdCell::new(0),
                acks_received: StdCell::new(0),
            }),
        }
    }

    /// The configured guarantee level.
    pub fn mode(&self) -> ReplicationMode {
        self.inner.mode
    }

    /// Stops shipping and releases every sync-mode waiter with an error.
    /// Called when the primary dies (power collapse): a dead primary must
    /// neither promise nor believe anything further.
    pub fn halt(&self) {
        self.inner.halted.set(true);
        self.inner.wake.notify_all();
    }

    /// True when every offered frame has been acknowledged by the standby.
    fn settled(&self) -> bool {
        self.inner.pending.borrow().is_empty() && self.inner.unacked.borrow().is_empty()
    }

    /// Waits until [`settled`](Self::settled) (or the shipper halts).
    pub async fn wait_settled(&self) {
        loop {
            if self.settled() || self.inner.halted.get() {
                return;
            }
            self.inner.wake.notified().await;
        }
    }

    /// Point-in-time shipping status.
    pub fn report(&self) -> ReplicationReport {
        let inner = &self.inner;
        let (offered_hi, acked_hi) = (inner.offered_hi.get(), inner.acked_hi.get());
        ReplicationReport {
            mode: inner.mode,
            halted: inner.halted.get(),
            frames_shipped: inner.frames_shipped.get(),
            retransmits: inner.retransmits.get(),
            acks_received: inner.acks_received.get(),
            frames_pending: (inner.pending.borrow().len() + inner.unacked.borrow().len()) as u64,
            offered_hi,
            acked_hi,
            // The sequence space is dense from 0: `hi` is a count − 1.
            lag: offered_hi
                .map_or(0, |o| o + 1)
                .saturating_sub(acked_hi.map_or(0, |a| a + 1)),
        }
    }

    /// The admission tee: the device calls this with each extent the
    /// dependable buffer admitted, in the same poll as the admission — so
    /// the offers arrive in sequence order, one frame each. Opens the
    /// frame's `ship` span; the ack that covers it closes it.
    pub(crate) fn offer(&self, seq: u64, sector: u64, data: SectorBuf) {
        let inner = &self.inner;
        inner.offered_hi.set(Some(seq));
        if inner.halted.get() {
            return;
        }
        let frame = ShipFrame { seq, sector, data };
        inner
            .ctx
            .tracer()
            .begin(inner.ctx.now(), Layer::Net, "ship", frame.trace_payload());
        inner.pending.borrow_mut().push_back(frame);
        inner.wake.notify_all();
    }

    /// Sync-mode gate: waits until the standby has acknowledged `seq`.
    /// Returns `false` if the shipper halted first — the caller must then
    /// fail the write rather than acknowledge it.
    pub(crate) async fn wait_replicated(&self, seq: u64) -> bool {
        loop {
            if self.inner.acked_hi.get().is_some_and(|a| a >= seq) {
                return true;
            }
            if self.inner.halted.get() {
                return false;
            }
            self.inner.wake.notified().await;
        }
    }

    /// Spawns the send and ack loops in the instance's trusted cell.
    /// Called once by the builder.
    pub(crate) fn attach(&self, cell: &Cell) {
        assert!(
            !self.inner.attached.replace(true),
            "a Replicator serves exactly one RapiLog instance"
        );
        let inner = Rc::clone(&self.inner);
        let mut rng = inner.ctx.fork_rng();
        cell.spawn(async move {
            // Send loop: puts new frames on the wire eagerly; retransmits
            // every unacknowledged frame when the ack deadline lapses.
            let ctx = inner.ctx.clone();
            let mut attempt: u32 = 0;
            let mut last_epoch = inner.epoch.get();
            let mut deadline = ctx.now() + ACK_TIMEOUT;
            loop {
                if inner.halted.get() {
                    return;
                }
                loop {
                    let next = inner.pending.borrow_mut().pop_front();
                    let Some(frame) = next else { break };
                    inner.ship.send(frame.clone(), frame.wire_bytes());
                    inner.frames_shipped.set(inner.frames_shipped.get() + 1);
                    inner.unacked.borrow_mut().push_back(frame);
                }
                if inner.unacked.borrow().is_empty() {
                    attempt = 0;
                    inner.wake.notified().await;
                    deadline = ctx.now() + ACK_TIMEOUT;
                    continue;
                }
                if inner.epoch.get() != last_epoch {
                    last_epoch = inner.epoch.get();
                    attempt = 0;
                    deadline = ctx.now() + ACK_TIMEOUT;
                }
                let now = ctx.now();
                if now >= deadline {
                    let frames: Vec<ShipFrame> = inner.unacked.borrow().iter().cloned().collect();
                    for frame in frames {
                        inner.ship.send(frame.clone(), frame.wire_bytes());
                        inner.retransmits.set(inner.retransmits.get() + 1);
                    }
                    attempt = attempt.saturating_add(1);
                    // Unanswered rounds back off further, up to the retry
                    // budget; the shipper never gives up on acknowledged
                    // data.
                    let capped = attempt.min(MAX_RETRIES);
                    deadline = now + ACK_TIMEOUT + backoff_delay(capped, &mut rng);
                    continue;
                }
                ctx.timeout(deadline - now, inner.wake.notified()).await;
            }
        });
        let inner = Rc::clone(&self.inner);
        cell.spawn(async move {
            // Ack loop: advances the replicated prefix and releases
            // acknowledged frames (and sync-mode waiters).
            loop {
                let Some(ack) = inner.acks.recv().await else {
                    return;
                };
                if inner.halted.get() {
                    return;
                }
                inner.acks_received.set(inner.acks_received.get() + 1);
                if inner.acked_hi.get().is_none_or(|a| ack.durable_hi > a) {
                    inner.acked_hi.set(Some(ack.durable_hi));
                    inner.epoch.set(inner.epoch.get() + 1);
                    let tracer = inner.ctx.tracer();
                    let now = inner.ctx.now();
                    inner.unacked.borrow_mut().retain(|f| {
                        let covered = f.seq <= ack.durable_hi;
                        if covered {
                            tracer.end(now, Layer::Net, "ship", f.trace_payload());
                        }
                        !covered
                    });
                }
                inner.wake.notify_all();
            }
        });
    }
}

/// Why a standby stopped applying (and acknowledging) for good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyStop {
    /// The device turned a write away ([`IoError::PowerLoss`]: a frozen
    /// dependable buffer, a disk gone dark). Frames apply one at a time,
    /// so nothing after it was submitted: the image is the applied prefix
    /// — at most followed by the leading part of the one refused write,
    /// cut short as any unacknowledged write may be by a power failure —
    /// and still a valid prefix of the primary's admitted log. The
    /// standby's box is going down, the replica is not damaged.
    Refused(IoError),
    /// A write failed for any other reason (media error, transient command
    /// failure, malformed frame): the image may hold part of a write, and
    /// is suspect.
    Wedged(IoError),
}

/// Point-in-time view of the standby's apply loop.
#[derive(Debug, Clone)]
pub struct StandbyReport {
    /// True once [`Standby::promote`] ran.
    pub promoted: bool,
    /// Set once an apply write failed: the loop has stopped, and this says
    /// whether the image is still a valid prefix or suspect.
    pub stopped: Option<ApplyStop>,
    /// Frames applied (after de-duplication).
    pub frames_applied: u64,
    /// Frames ignored as duplicates (already applied).
    pub duplicates_ignored: u64,
    /// Frames currently held waiting for the gap before them to fill.
    pub frames_held: u64,
    /// Frames refused because they arrived after promotion — the
    /// split-brain probe: a promoted standby neither applies nor
    /// acknowledges a zombie primary.
    pub refused_after_promotion: u64,
    /// Highest sequence the standby's device has accepted (its applied
    /// prefix).
    pub applied_hi: Option<u64>,
}

impl StandbyReport {
    /// True if an apply write failed in a way that leaves the image
    /// suspect ([`ApplyStop::Wedged`]).
    pub fn wedged(&self) -> bool {
        matches!(self.stopped, Some(ApplyStop::Wedged(_)))
    }
}

struct StandbyInner {
    ctx: SimCtx,
    device: Rc<dyn BlockDevice>,
    acks: Link<ShipAck>,
    /// Next sequence the image is waiting for (applied prefix is
    /// `..expected`).
    expected: StdCell<u64>,
    /// Frames that arrived ahead of the prefix, keyed by their sequence.
    held: RefCell<BTreeMap<u64, ShipFrame>>,
    promoted: StdCell<bool>,
    stopped: StdCell<Option<ApplyStop>>,
    frames_applied: StdCell<u64>,
    duplicates_ignored: StdCell<u64>,
    refused_after_promotion: StdCell<u64>,
}

impl StandbyInner {
    /// Writes `frame`, the one at the expected sequence, through the
    /// device inside a `standby_apply` span; the applied prefix advances
    /// over it if the device accepts it.
    async fn apply(&self, frame: &ShipFrame) -> Result<(), ApplyStop> {
        let tracer = self.ctx.tracer();
        let payload = frame.trace_payload();
        tracer.begin(self.ctx.now(), Layer::Net, "standby_apply", payload);
        let token = self.device.submit(IoReq::Write {
            sector: frame.sector,
            segments: vec![frame.data.clone()],
            fua: true,
        });
        let done = self.device.wait(token).await;
        tracer.end(self.ctx.now(), Layer::Net, "standby_apply", payload);
        match done {
            Ok(_) => {
                self.expected.set(frame.seq + 1);
                self.frames_applied.set(self.frames_applied.get() + 1);
                Ok(())
            }
            Err(IoError::PowerLoss) => Err(ApplyStop::Refused(IoError::PowerLoss)),
            Err(err) => Err(ApplyStop::Wedged(err)),
        }
    }

    /// Acknowledges the applied prefix `..expected` (not empty).
    fn send_ack(&self) {
        let durable_hi = self.expected.get() - 1;
        self.acks.send(ShipAck { durable_hi }, 16);
    }
}

/// The standby cell: applies shipped frames through its own block device
/// and acknowledges the prefix that device has accepted; promotable after
/// primary failure.
///
/// The device decides what an acknowledgement is worth. Over a raw
/// [`Disk`](rapilog_simdisk::Disk) every apply is a forced media write and
/// the ack says "on media". Over the [`RapiLogDevice`](crate::RapiLogDevice)
/// of a second instance the apply returns at admission to that instance's
/// dependable buffer and the ack says "dependable on the standby": its
/// drain lands the bytes behind the ack, its supply's residual window
/// covers a power cut, and [`quiesce`](crate::RapiLog::quiesce) of that
/// instance is what makes the media image complete before it is served.
#[derive(Clone)]
pub struct Standby {
    inner: Rc<StandbyInner>,
}

impl Standby {
    /// Spawns the apply loop in `cell`, applying through `device`,
    /// receiving frames from `ship` and acknowledging over `acks`.
    pub fn start(
        ctx: &SimCtx,
        cell: &Cell,
        device: Rc<dyn BlockDevice>,
        ship: Link<ShipFrame>,
        acks: Link<ShipAck>,
    ) -> Standby {
        let standby = Standby {
            inner: Rc::new(StandbyInner {
                ctx: ctx.clone(),
                device,
                acks,
                expected: StdCell::new(0),
                held: RefCell::new(BTreeMap::new()),
                promoted: StdCell::new(false),
                stopped: StdCell::new(None),
                frames_applied: StdCell::new(0),
                duplicates_ignored: StdCell::new(0),
                refused_after_promotion: StdCell::new(0),
            }),
        };
        let inner = Rc::clone(&standby.inner);
        cell.spawn(async move {
            loop {
                let Some(frame) = ship.recv().await else {
                    return;
                };
                if inner.promoted.get() {
                    inner
                        .refused_after_promotion
                        .set(inner.refused_after_promotion.get() + 1);
                    continue;
                }
                let expected = inner.expected.get();
                if frame.seq < expected {
                    // A duplicate. Re-acknowledge: the original ack may
                    // have been lost, and an unacked duplicate would make
                    // the primary retransmit forever.
                    inner
                        .duplicates_ignored
                        .set(inner.duplicates_ignored.get() + 1);
                    inner.send_ack();
                    continue;
                }
                if frame.seq > expected {
                    // A gap: hold (bounded — the link's reorder window is
                    // bounded, and lost frames are retransmitted).
                    inner.held.borrow_mut().insert(frame.seq, frame);
                    continue;
                }
                // The expected frame: apply it, then each held frame the
                // prefix now reaches, one at a time.
                let mut next = Some(frame);
                while let Some(frame) = next {
                    if let Err(stop) = inner.apply(&frame).await {
                        // No ack, now or ever: an ack never sent is always
                        // safe, and the primary's sync writers see silence,
                        // not an error.
                        inner.stopped.set(Some(stop));
                        return;
                    }
                    next = inner.held.borrow_mut().remove(&inner.expected.get());
                }
                inner.send_ack();
            }
        });
        standby
    }

    /// The applied prefix — what the device has accepted and the standby
    /// has (or is about to have) acknowledged — if anything applied.
    pub fn applied_hi(&self) -> Option<u64> {
        self.inner.expected.get().checked_sub(1)
    }

    /// Promotes the standby: it stops applying and stops acknowledging —
    /// frames from a zombie primary are refused and counted. Returns the
    /// report at the instant of promotion. Over a RapiLog device the
    /// applied prefix is dependable, not yet all on media: quiesce that
    /// instance before reading its disk image.
    pub fn promote(&self) -> StandbyReport {
        self.inner.promoted.set(true);
        self.inner.ctx.tracer().instant(
            self.inner.ctx.now(),
            Layer::Net,
            "standby_promote",
            Payload::None,
        );
        self.report()
    }

    /// Point-in-time application status.
    pub fn report(&self) -> StandbyReport {
        let inner = &self.inner;
        StandbyReport {
            promoted: inner.promoted.get(),
            stopped: inner.stopped.get(),
            frames_applied: inner.frames_applied.get(),
            duplicates_ignored: inner.duplicates_ignored.get(),
            frames_held: inner.held.borrow().len() as u64,
            refused_after_promotion: inner.refused_after_promotion.get(),
            applied_hi: self.applied_hi(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CapacitySpec, DrainConfig, OrderingMode, RapiLog};
    use rapilog_microvisor::{Hypervisor, Trust};
    use rapilog_simcore::{Sim, SimTime};
    use rapilog_simdisk::{specs, Disk, DiskSpec, SECTOR_SIZE};
    use rapilog_simnet::{LinkFaults, LinkSpec};
    use rapilog_simpower::{supplies, PowerSupply};
    use std::cell::Cell as StdCell;

    struct Fixture {
        rl: RapiLog,
        repl: Replicator,
        standby: Standby,
        primary_disk: Disk,
        standby_disk: Disk,
        ship: Link<ShipFrame>,
    }

    fn fixture(sim: &mut Sim, mode: ReplicationMode, faults: LinkFaults) -> Fixture {
        let primary = specs::instant(1 << 24);
        fixture_on(sim, mode, faults, primary, 16 << 20, DrainConfig::new())
    }

    /// The pair with a chosen primary: its log disk, buffer capacity and
    /// drain discipline. The standby always applies into an instant disk.
    fn fixture_on(
        sim: &mut Sim,
        mode: ReplicationMode,
        faults: LinkFaults,
        primary: DiskSpec,
        capacity: u64,
        drain: DrainConfig,
    ) -> Fixture {
        let ctx = sim.ctx();
        let hv = Hypervisor::new(&ctx);
        let pcell = hv.create_cell("primary", Trust::Trusted);
        let scell = hv.create_cell("standby", Trust::Trusted);
        let primary_disk = Disk::new(&ctx, primary);
        let standby_disk = Disk::new(&ctx, specs::instant(1 << 24));
        let ship = Link::new(&ctx, LinkSpec::lan("ship").with_faults(faults.clone()));
        let acks = Link::new(&ctx, LinkSpec::lan("acks").with_faults(faults));
        let repl = Replicator::new(&ctx, mode, ship.clone(), acks.clone());
        let standby = Standby::start(
            &ctx,
            &scell,
            Rc::new(standby_disk.clone()),
            ship.clone(),
            acks,
        );
        let rl = RapiLog::builder(&ctx)
            .cell(&pcell)
            .disk(primary_disk.clone())
            .capacity(CapacitySpec::Fixed(capacity))
            .drain_config(drain)
            .replicate(&repl)
            .build();
        std::mem::forget(pcell);
        std::mem::forget(scell);
        Fixture {
            rl,
            repl,
            standby,
            primary_disk,
            standby_disk,
            ship,
        }
    }

    fn assert_images_match(f: &Fixture, sectors: u64) {
        let mut p = vec![0u8; SECTOR_SIZE];
        let mut s = vec![0u8; SECTOR_SIZE];
        for sec in 0..sectors {
            f.primary_disk.peek_media(sec, &mut p);
            f.standby_disk.peek_media(sec, &mut s);
            assert_eq!(p, s, "replica diverged at sector {sec}");
        }
    }

    #[test]
    fn sync_mode_acks_only_after_the_standby_is_durable() {
        let mut sim = Sim::new(41);
        let ctx = sim.ctx();
        let f = fixture(&mut sim, ReplicationMode::Sync, LinkFaults::default());
        let dev = f.rl.device();
        let min_ack_ns = Rc::new(StdCell::new(u64::MAX));
        let m2 = Rc::clone(&min_ack_ns);
        sim.spawn(async move {
            for i in 0..32u64 {
                let t0 = ctx.now();
                dev.write(i, &vec![i as u8; SECTOR_SIZE], true)
                    .await
                    .unwrap();
                m2.set(m2.get().min((ctx.now() - t0).as_nanos()));
            }
        });
        sim.run_until(SimTime::from_secs(2));
        // A sync ack includes a network round trip: it can never be the
        // microsecond-class buffer ack.
        assert!(
            min_ack_ns.get() >= 100_000,
            "sync acks paid the round trip (min {} ns)",
            min_ack_ns.get()
        );
        assert!(f.repl.settled(), "everything acknowledged by the standby");
        assert_eq!(f.standby.applied_hi(), Some(31));
        assert_images_match(&f, 32);
        let report = f.rl.audit_report();
        assert!(report.guarantee_held());
        let repl_report = f.rl.snapshot().replication.expect("shipping enabled");
        assert_eq!(repl_report.acked_hi, Some(31));
        assert_eq!(repl_report.lag, 0);
        assert!(!repl_report.halted);
    }

    #[test]
    fn async_mode_keeps_buffer_speed_acks_and_converges() {
        let mut sim = Sim::new(42);
        let ctx = sim.ctx();
        let f = fixture(&mut sim, ReplicationMode::Async, LinkFaults::default());
        let dev = f.rl.device();
        let max_ack_ns = Rc::new(StdCell::new(0u64));
        let m2 = Rc::clone(&max_ack_ns);
        sim.spawn(async move {
            for i in 0..64u64 {
                let t0 = ctx.now();
                dev.write(i, &vec![i as u8; SECTOR_SIZE], true)
                    .await
                    .unwrap();
                m2.set(m2.get().max((ctx.now() - t0).as_nanos()));
            }
        });
        sim.run_until(SimTime::from_secs(2));
        assert!(
            max_ack_ns.get() < 100_000,
            "async acks stay buffer-speed (max {} ns)",
            max_ack_ns.get()
        );
        assert!(f.repl.settled(), "the replica caught up");
        assert_eq!(f.standby.applied_hi(), Some(63));
        assert_images_match(&f, 64);
        assert_eq!(f.rl.snapshot().replication.unwrap().lag, 0);
    }

    #[test]
    fn lossy_link_converges_through_retransmission() {
        let mut sim = Sim::new(43);
        let ctx = sim.ctx();
        // Aggressive chaos on both directions: drops, duplicates and
        // bounded reorder. End-to-end retransmission must still converge.
        let f = fixture(
            &mut sim,
            ReplicationMode::Async,
            LinkFaults::chaos(7, 0.2, 0.1, 0.3),
        );
        let dev = f.rl.device();
        sim.spawn(async move {
            for i in 0..100u64 {
                dev.write(i, &vec![i as u8; SECTOR_SIZE], true)
                    .await
                    .unwrap();
                ctx.sleep(SimDuration::from_micros(200)).await;
            }
        });
        sim.run_until(SimTime::from_secs(10));
        assert!(f.repl.settled(), "chaos link still converged");
        assert_eq!(f.standby.applied_hi(), Some(99));
        assert_images_match(&f, 100);
        let report = f.repl.report();
        assert!(
            report.retransmits > 0,
            "drops forced retransmission (the test would be vacuous otherwise)"
        );
        assert_eq!(f.standby.report().stopped, None);
        assert_eq!(report.lag, 0);
    }

    #[test]
    fn promoted_standby_refuses_a_zombie_primary() {
        let mut sim = Sim::new(44);
        let f = fixture(&mut sim, ReplicationMode::Async, LinkFaults::default());
        let dev = f.rl.device();
        let promoted_hi = Rc::new(StdCell::new(None));
        let p2 = Rc::clone(&promoted_hi);
        let standby = f.standby.clone();
        let repl = f.repl.clone();
        sim.spawn(async move {
            for i in 0..16u64 {
                dev.write(i, &vec![1u8; SECTOR_SIZE], true).await.unwrap();
            }
            repl.wait_settled().await;
            // Failover: the standby is promoted while the primary (a
            // zombie from the cluster's point of view) keeps writing.
            let report = standby.promote();
            p2.set(report.applied_hi);
            for i in 16..24u64 {
                dev.write(i, &vec![2u8; SECTOR_SIZE], true).await.unwrap();
            }
        });
        sim.run_until(SimTime::from_secs(2));
        let report = f.standby.report();
        assert_eq!(promoted_hi.get(), Some(15));
        assert!(
            report.refused_after_promotion > 0,
            "zombie frames were refused, not applied"
        );
        // The stale-ack probe: the applied prefix froze at promotion and
        // the primary never saw an ack beyond it.
        assert_eq!(f.standby.applied_hi(), Some(15));
        assert!(f.repl.report().acked_hi <= Some(15));
        // The zombie's post-promotion sectors never reached the replica.
        let mut s = vec![0u8; SECTOR_SIZE];
        f.standby_disk.peek_media(20, &mut s);
        assert_eq!(
            s,
            vec![0u8; SECTOR_SIZE],
            "zombie write absent from replica"
        );
    }

    #[test]
    fn halt_releases_sync_waiters_with_an_error() {
        let mut sim = Sim::new(45);
        let ctx = sim.ctx();
        let f = fixture(&mut sim, ReplicationMode::Sync, LinkFaults::default());
        // Partition the ship link so no frame ever reaches the standby,
        // then halt mid-wait: the blocked writer must fail, not hang.
        f.ship.partition(true);
        let dev = f.rl.device();
        let outcome = Rc::new(StdCell::new(None));
        let o2 = Rc::clone(&outcome);
        sim.spawn(async move {
            let r = dev.write(0, &vec![9u8; SECTOR_SIZE], true).await;
            o2.set(Some(r.is_err()));
        });
        let repl = f.repl.clone();
        sim.spawn(async move {
            ctx.sleep(SimDuration::from_millis(1)).await;
            repl.halt();
        });
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(outcome.get(), Some(true), "halt failed the blocked write");
        assert!(f.repl.report().halted);
    }

    #[test]
    fn sync_ack_does_not_wait_for_the_primarys_own_disk() {
        let mut sim = Sim::new(46);
        let ctx = sim.ctx();
        // The paper's log disk: a media write costs a seek plus rotation.
        let f = fixture_on(
            &mut sim,
            ReplicationMode::Sync,
            LinkFaults::default(),
            specs::hdd_7200(1 << 30),
            16 << 20,
            DrainConfig::new(),
        );
        let dev = f.rl.device();
        let primary_disk = f.primary_disk.clone();
        let payload = vec![0xA7u8; SECTOR_SIZE];
        // (ack latency in ns, was the write on primary media at the ack)
        let at_ack = Rc::new(StdCell::new(None));
        let a2 = Rc::clone(&at_ack);
        let p2 = payload.clone();
        sim.spawn(async move {
            let t0 = ctx.now();
            dev.write(20_000, &p2, true).await.unwrap();
            let mut media = vec![0u8; SECTOR_SIZE];
            primary_disk.peek_media(20_000, &mut media);
            a2.set(Some(((ctx.now() - t0).as_nanos(), media == p2)));
        });
        sim.run_until(SimTime::from_secs(1));
        let (ack_ns, on_media_at_ack) = at_ack.get().expect("the write was acknowledged");
        assert!(
            ack_ns < 1_000_000,
            "the sync ack is the network round trip, not a disk rotation ({ack_ns} ns)"
        );
        assert!(
            !on_media_at_ack,
            "the primary's own media write lands after the ack, beside the round trip"
        );
        assert_eq!(f.standby.applied_hi(), Some(0));
        let mut media = vec![0u8; SECTOR_SIZE];
        f.primary_disk.peek_media(20_000, &mut media);
        assert_eq!(media, payload, "the drain still took it to primary media");
        assert!(f.rl.audit_report().guarantee_held());
    }

    #[test]
    fn windowed_drain_standby_holds_exactly_the_admitted_prefix() {
        // The configuration the lag equality used to exclude: a windowed
        // drain retiring disjoint runs out of order on a 4-channel disk.
        // The tee sits at admission, so the equality no longer depends on
        // the drain's discipline at all.
        const WRITERS: u64 = 4;
        const WRITES: u64 = 48;
        let mut sim = Sim::new(47);
        let ctx = sim.ctx();
        let f = fixture_on(
            &mut sim,
            ReplicationMode::Async,
            LinkFaults::default(),
            specs::ssd_nvme(1 << 26).with_channels(4),
            16 << 20,
            // Single-extent batches: a batch is cut when a window slot comes
            // free, and out-of-order *retirement* takes batches that overlap
            // in flight, which one batch per slot guarantees.
            DrainConfig::new()
                .ordering(OrderingMode::PartiallyConstrained)
                .window_depth(4)
                .max_batch(SECTOR_SIZE),
        );
        // Each write owns a private, non-adjacent slot, so runs never merge
        // and every sector belongs to exactly one sequence number; mixed
        // sizes give the channels runs that finish out of dispatch order.
        let slot = |w: u64, k: u64| w * 8192 + k * 128;
        let fill = |w: u64, k: u64| {
            let sectors = [1, 64, 2, 16][((w + k) % 4) as usize];
            vec![(1 + w * WRITES + k) as u8; sectors * SECTOR_SIZE]
        };
        // In async mode nothing is awaited between admission and the
        // write's return, so this log is in sequence order: log[seq].
        let log: Rc<RefCell<Vec<(u64, u64)>>> = Rc::new(RefCell::new(Vec::new()));
        let mut writers = Vec::new();
        for w in 0..WRITERS {
            let dev = f.rl.device();
            let log = Rc::clone(&log);
            let ctx = ctx.clone();
            writers.push(sim.spawn(async move {
                for k in 0..WRITES {
                    dev.write(slot(w, k), &fill(w, k), true).await.unwrap();
                    log.borrow_mut().push((w, k));
                    ctx.sleep(SimDuration::from_micros(3 + w)).await;
                }
            }));
        }
        // Cut the ship link mid-load: the primary keeps admitting into the
        // partition, so the standby ends on a strict prefix.
        let ship = f.ship.clone();
        let c2 = ctx.clone();
        sim.spawn(async move {
            c2.sleep(SimDuration::from_micros(400)).await;
            ship.partition(true);
        });
        let rl = f.rl.clone();
        let quiesced = Rc::new(StdCell::new(false));
        let q2 = Rc::clone(&quiesced);
        sim.spawn(async move {
            for w in writers {
                let _ = w.await;
            }
            rl.quiesce().await;
            q2.set(true);
        });
        sim.run_until(SimTime::from_millis(50));
        assert!(quiesced.get(), "every admitted write reached primary media");
        let audit = f.rl.audit_report();
        assert!(audit.guarantee_held());
        assert!(
            audit.ooo_retirements > 0,
            "the windowed drain really retired out of order (potency)"
        );
        let log = log.borrow();
        assert_eq!(log.len() as u64, WRITERS * WRITES);
        let offered_hi = f.repl.report().offered_hi;
        assert_eq!(offered_hi, Some(log.len() as u64 - 1), "offered ≡ admitted");
        let applied = f.standby.applied_hi().map_or(0, |a| a + 1);
        assert!(
            applied > 0 && applied < log.len() as u64,
            "the partition left a real, partial prefix (applied {applied})"
        );
        // Standby image == apply(prefix), sector for sector; the writes it
        // lacks are exactly the suffix (applied_hi, offered_hi].
        let peek = |disk: &Disk, sector: u64, len: usize| {
            let mut image = vec![0u8; len];
            for (i, chunk) in image.chunks_exact_mut(SECTOR_SIZE).enumerate() {
                disk.peek_media(sector + i as u64, chunk);
            }
            image
        };
        let mut media_diff = 0u64;
        for (seq, &(w, k)) in log.iter().enumerate() {
            let expected = fill(w, k);
            let p = peek(&f.primary_disk, slot(w, k), expected.len());
            let s = peek(&f.standby_disk, slot(w, k), expected.len());
            assert_eq!(p, expected, "seq {seq} is on primary media");
            if (seq as u64) < applied {
                assert_eq!(s, p, "seq {seq} is inside the applied prefix");
            } else {
                assert_eq!(s, vec![0u8; s.len()], "seq {seq} is beyond it");
                media_diff += 1;
            }
        }
        assert_eq!(log.len() as u64 - applied, media_diff);
        assert_eq!(f.repl.report().lag, media_diff);
    }

    #[test]
    fn split_write_offers_one_frame_per_chunk_in_sequence_order() {
        let mut sim = Sim::new(48);
        // A 2-sector buffer splits an 8-sector write into four chunks.
        let f = fixture_on(
            &mut sim,
            ReplicationMode::Async,
            LinkFaults::default(),
            specs::instant(1 << 24),
            2 * SECTOR_SIZE as u64,
            DrainConfig::new(),
        );
        // Nothing is ever acknowledged, so every frame stays listed in
        // `unacked`, in the order the send loop took it from the offers.
        f.ship.partition(true);
        let dev = f.rl.device();
        let data: Vec<u8> = (0..8 * SECTOR_SIZE).map(|i| (i % 251) as u8).collect();
        let d2 = data.clone();
        sim.spawn(async move {
            dev.write(100, &d2, true).await.unwrap();
        });
        sim.run_until(SimTime::from_millis(2));
        let frames = f.repl.inner.unacked.borrow();
        assert_eq!(frames.len(), 4, "one frame per chunk");
        for (i, frame) in frames.iter().enumerate() {
            assert_eq!((frame.seq, frame.sector), (i as u64, 100 + 2 * i as u64));
            assert_eq!(
                frame.data.as_slice(),
                &data[i * 2 * SECTOR_SIZE..(i + 1) * 2 * SECTOR_SIZE]
            );
        }
        assert_eq!(f.repl.report().offered_hi, Some(3));
    }

    #[test]
    fn refused_admission_offers_nothing() {
        let mut sim = Sim::new(49);
        let f = fixture(&mut sim, ReplicationMode::Async, LinkFaults::default());
        let dev = f.rl.device();
        let buffer = f.rl.shards.shards()[0].buf.clone();
        let refused = Rc::new(StdCell::new(None));
        let r2 = Rc::clone(&refused);
        sim.spawn(async move {
            dev.write(0, &vec![1u8; SECTOR_SIZE], true).await.unwrap();
            // The power-fail warning: no admissions from here on.
            buffer.freeze();
            r2.set(Some(dev.write(1, &vec![2u8; SECTOR_SIZE], true).await));
        });
        sim.run_until(SimTime::from_millis(10));
        assert_eq!(refused.get(), Some(Err(IoError::PowerLoss)));
        let report = f.repl.report();
        assert_eq!(
            report.offered_hi,
            Some(0),
            "the refused write moved nothing"
        );
        assert_eq!(report.frames_shipped, 1);
        assert_eq!(report.frames_pending, 0);
        assert_eq!(f.standby.applied_hi(), Some(0));
    }

    /// A standby on its own, fed frames by hand over its ship link.
    struct Lone {
        standby: Standby,
        ship: Link<ShipFrame>,
        acks: Link<ShipAck>,
    }

    fn lone_standby(sim: &mut Sim, device: Rc<dyn BlockDevice>) -> Lone {
        let ctx = sim.ctx();
        let hv = Hypervisor::new(&ctx);
        let scell = hv.create_cell("standby", Trust::Trusted);
        let ship = Link::new(&ctx, LinkSpec::lan("ship"));
        let acks = Link::new(&ctx, LinkSpec::lan("acks"));
        let standby = Standby::start(&ctx, &scell, device, ship.clone(), acks.clone());
        std::mem::forget(scell);
        Lone {
            standby,
            ship,
            acks,
        }
    }

    /// A second RapiLog instance for the standby to apply into.
    fn standby_instance(sim: &mut Sim, spec: DiskSpec) -> (RapiLog, Disk) {
        let ctx = sim.ctx();
        let hv = Hypervisor::new(&ctx);
        let cell = hv.create_cell("standby-log", Trust::Trusted);
        let disk = Disk::new(&ctx, spec);
        let rl = RapiLog::builder(&ctx)
            .cell(&cell)
            .disk(disk.clone())
            .capacity(CapacitySpec::Fixed(1 << 20))
            .build();
        std::mem::forget(cell);
        (rl, disk)
    }

    /// The frame of sequence `seq`: `sectors` sectors of `fill` from
    /// `sector` on.
    fn frame(seq: u64, sector: u64, sectors: usize, fill: u8) -> ShipFrame {
        ShipFrame {
            seq,
            sector,
            data: SectorBuf::from_vec(vec![fill; sectors * SECTOR_SIZE]),
        }
    }

    fn send(link: &Link<ShipFrame>, frame: ShipFrame) {
        let bytes = frame.wire_bytes();
        link.send(frame, bytes);
    }

    fn media(disk: &Disk, sector: u64) -> Vec<u8> {
        let mut buf = vec![0u8; SECTOR_SIZE];
        disk.peek_media(sector, &mut buf);
        buf
    }

    #[test]
    fn a_rapilog_standby_acks_at_admission_and_its_drain_lands_the_bytes() {
        let mut sim = Sim::new(51);
        let ctx = sim.ctx();
        // The standby's log disk costs a seek and a rotation per write.
        let (srl, disk) = standby_instance(&mut sim, specs::hdd_7200(1 << 30));
        let lone = lone_standby(&mut sim, Rc::new(srl.device()));
        send(&lone.ship, frame(0, 20_000, 1, 0xB4));
        // (ack arrival in ns, was the write on standby media by then)
        let at_ack = Rc::new(StdCell::new(None));
        let a2 = Rc::clone(&at_ack);
        let (acks, d2) = (lone.acks.clone(), disk.clone());
        sim.spawn(async move {
            let ack = acks.recv().await.expect("the standby acknowledged");
            assert_eq!(ack.durable_hi, 0);
            let landed = media(&d2, 20_000) == vec![0xB4; SECTOR_SIZE];
            a2.set(Some((ctx.now().as_nanos(), landed)));
        });
        sim.run_until(SimTime::from_millis(1));
        let (ack_ns, on_media_at_ack) = at_ack.get().expect("acked inside a millisecond");
        assert!(
            ack_ns < 150_000,
            "two link crossings and one admission, no rotation ({ack_ns} ns)"
        );
        assert!(!on_media_at_ack, "the media write is behind the ack");
        // The ack was a promise about the buffer; the drain keeps it.
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(srl.occupancy(), 0);
        assert_eq!(media(&disk, 20_000), vec![0xB4; SECTOR_SIZE]);
        assert!(srl.audit_report().guarantee_held());
        assert_eq!(lone.standby.report().stopped, None);
    }

    #[test]
    fn a_refused_apply_stops_the_acks_but_does_not_wedge_the_image() {
        let mut sim = Sim::new(52);
        let (srl, disk) = standby_instance(&mut sim, specs::ssd_sata(1 << 24));
        let lone = lone_standby(&mut sim, Rc::new(srl.device()));
        send(&lone.ship, frame(0, 100, 1, 1));
        sim.run_until(SimTime::from_millis(1));
        assert_eq!(lone.acks.try_recv().map(|a| a.durable_hi), Some(0));
        // The standby box's power-fail warning: no admissions from here on.
        srl.shards.freeze_all();
        send(&lone.ship, frame(1, 101, 1, 2));
        send(&lone.ship, frame(2, 102, 1, 3));
        sim.run_until(SimTime::from_millis(2));
        let report = lone.standby.report();
        assert_eq!(
            report.stopped,
            Some(ApplyStop::Refused(IoError::PowerLoss)),
            "turned away whole"
        );
        assert!(!report.wedged(), "a refusal leaves a valid prefix");
        assert_eq!(lone.standby.applied_hi(), Some(0));
        assert!(lone.acks.try_recv().is_none(), "nothing refused is acked");
        assert_eq!(media(&disk, 100), vec![1u8; SECTOR_SIZE]);
        assert_eq!(media(&disk, 101), vec![0u8; SECTOR_SIZE]);
    }

    #[test]
    fn a_media_error_wedges_the_image() {
        let mut sim = Sim::new(53);
        let disk = Disk::new(&sim.ctx(), specs::ssd_sata(1 << 24));
        disk.mark_bad(201);
        let lone = lone_standby(&mut sim, Rc::new(disk.clone()));
        send(&lone.ship, frame(0, 200, 1, 1));
        send(&lone.ship, frame(1, 201, 1, 2));
        sim.run_until(SimTime::from_millis(2));
        let report = lone.standby.report();
        assert_eq!(
            report.stopped,
            Some(ApplyStop::Wedged(IoError::MediaError { sector: 201 }))
        );
        assert!(report.wedged());
        assert_eq!(lone.standby.applied_hi(), Some(0));
    }

    #[test]
    fn the_standby_applies_only_at_its_prefix_and_re_acks_a_duplicate() {
        let mut sim = Sim::new(54);
        let disk = Disk::new(&sim.ctx(), specs::ssd_sata(1 << 24));
        let lone = lone_standby(&mut sim, Rc::new(disk.clone()));
        // Sequence 1 rewrites the second sector of sequence 0, so the
        // media shows the order they were applied in.
        send(&lone.ship, frame(1, 11, 1, 2));
        sim.run_until(SimTime::from_millis(1));
        let report = lone.standby.report();
        assert_eq!(report.frames_held, 1, "ahead of the prefix: held");
        assert_eq!((report.frames_applied, report.applied_hi), (0, None));
        assert!(
            lone.acks.try_recv().is_none(),
            "nothing applied, nothing acked"
        );
        assert_eq!(disk.stats().writes, 0);

        send(&lone.ship, frame(0, 10, 2, 1));
        sim.run_until(SimTime::from_millis(2));
        let report = lone.standby.report();
        assert_eq!(report.frames_held, 0, "the gap filled");
        assert_eq!((report.frames_applied, report.applied_hi), (2, Some(1)));
        assert_eq!(lone.acks.try_recv().map(|a| a.durable_hi), Some(1));
        assert!(lone.acks.try_recv().is_none(), "one ack for the pair");
        assert_eq!(media(&disk, 10), vec![1u8; SECTOR_SIZE]);
        assert_eq!(media(&disk, 11), vec![2u8; SECTOR_SIZE], "0, then 1");
        assert_eq!(disk.stats().writes, 2);

        send(&lone.ship, frame(0, 10, 2, 3));
        sim.run_until(SimTime::from_millis(3));
        let report = lone.standby.report();
        assert_eq!(report.duplicates_ignored, 1);
        assert_eq!((report.frames_applied, report.applied_hi), (2, Some(1)));
        assert_eq!(
            lone.acks.try_recv().map(|a| a.durable_hi),
            Some(1),
            "the duplicate is re-acked"
        );
        assert_eq!(disk.stats().writes, 2, "and not written again");
        assert_eq!(media(&disk, 10), vec![1u8; SECTOR_SIZE]);
        assert_eq!(media(&disk, 11), vec![2u8; SECTOR_SIZE]);
    }

    #[test]
    fn a_death_hook_owning_the_replicator_does_not_leak_the_supply() {
        // The failover harness's wiring: the supply's death hook owns the
        // replicator (to halt it) and the disk (to darken it). If anything
        // on that chain held the supply, supply → hook → replicator → … →
        // supply would be a cycle and every power-kind trial would leak its
        // frames. The sentinel lives in the hook, so it dies exactly when
        // the supply does.
        let sentinel = Rc::new(());
        let supply_alive = Rc::downgrade(&sentinel);
        {
            let mut sim = Sim::new(50);
            let ctx = sim.ctx();
            let hv = Hypervisor::new(&ctx);
            let cell = hv.create_cell("primary", Trust::Trusted);
            let disk = Disk::new(&ctx, specs::ssd_sata(1 << 24));
            let ship = Link::new(&ctx, LinkSpec::lan("ship"));
            let acks = Link::new(&ctx, LinkSpec::lan("acks"));
            let repl = Replicator::new(&ctx, ReplicationMode::Sync, ship, acks);
            let psu = PowerSupply::new(&ctx, supplies::atx_psu());
            let rl = RapiLog::builder(&ctx)
                .cell(&cell)
                .disk(disk.clone())
                .supply(&psu)
                .replicate(&repl)
                .build();
            let r = repl.clone();
            psu.on_death(move || {
                let _owned = &sentinel;
                disk.power_cut();
                r.halt();
            });
            let dev = rl.device();
            sim.spawn(async move {
                let _ = dev.write(0, &vec![5u8; SECTOR_SIZE], true).await;
            });
            sim.run_until(SimTime::from_millis(1));
        }
        assert!(
            supply_alive.upgrade().is_none(),
            "dropping the trial's world must free the supply and its death hook"
        );
    }
}
