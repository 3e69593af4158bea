//! The composite simulated disk: timing model + media.
//!
//! One [`Disk`] owns a [`SectorStore`] (the media) and a [`TimingModel`]. A
//! single media actuator serialises all media accesses, which both matches
//! SATA semantics (no overlapped mechanical ops) and keeps runs
//! deterministic.
//!
//! # Power semantics
//!
//! The disk is write-through: it has no volatile write cache, so a write is
//! on the media when it completes, whatever its `fua` flag says (the
//! battery-backed or disabled cache a synchronous database needs is what
//! RapiLog's trusted buffer makes unnecessary). [`Disk::power_cut`] models
//! yanking the plug at the current instant:
//!
//! * a media write in flight commits only the sector prefix the head had
//!   passed on a rotating disk ([`crate::TimingSpec::torn_writes`]) —
//!   individual sectors are atomic, as real drives guarantee, which is what
//!   makes rewriting the WAL's partial tail block safe; on
//!   power-loss-protected flash the whole in-flight write commits;
//! * every pending and future request fails with [`IoError::PowerLoss`]
//!   until [`Disk::power_restore`].

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use rapilog_simcore::bytes::SectorBuf;
use rapilog_simcore::rng::SimRng;
use rapilog_simcore::sync::Semaphore;
use rapilog_simcore::trace::{Layer, Payload, Tracer};
use rapilog_simcore::{SimCtx, SimDuration, SimTime};

use crate::spec::DiskSpec;
use crate::store::SectorStore;
use crate::timing::{ServiceParts, TimingModel};
use crate::{
    BlockDevice, Geometry, IoError, IoReq, IoResult, LocalBoxFuture, ReqToken, SECTOR_SIZE,
};

/// Cumulative statistics for one device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Read requests accepted (well-formed, and the device online).
    pub reads: u64,
    /// Write requests accepted.
    pub writes: u64,
    /// Flush requests accepted.
    pub flushes: u64,
    /// Media operations performed.
    pub media_ops: u64,
    /// Sectors read from media.
    pub sectors_read: u64,
    /// Sectors written to media.
    pub sectors_written: u64,
    /// Media ops failed with [`IoError::Transient`] (injected or sick-mode).
    pub transient_errors: u64,
    /// Media ops failed with [`IoError::MediaError`].
    pub media_errors: u64,
    /// Media ops delayed by an injected firmware stall.
    pub stalls: u64,
    /// Sectors silently corrupted by the fault model (no error returned).
    pub corrupt_sectors: u64,
    /// Defective sectors remapped to spares ([`Disk::remap`]).
    pub remaps: u64,
    /// Requests rejected with [`IoError::PowerLoss`] because the device was
    /// offline (or lost power mid-request). A request refused on arrival is
    /// counted here and nowhere else.
    pub rejected_offline: u64,
    /// Requests submitted through the queued interface
    /// ([`BlockDevice::submit`]).
    pub queued_requests: u64,
    /// Queued requests outstanding right now (submitted, not yet
    /// completed).
    pub outstanding: u32,
    /// High-water mark of [`outstanding`](DiskStats::outstanding) — the
    /// deepest the submission queue has ever been. Stays 0 while every
    /// request arrives inline (`exec`, directly or through a wrapper);
    /// under the windowed drain it shows how much channel parallelism was
    /// actually exploited.
    pub max_outstanding: u32,
    /// Total time the actuator was busy.
    pub busy: SimDuration,
}

/// What a media operation moves: a read's destination, or a write's
/// segments laid out back to back.
enum Transfer<'a> {
    Read(&'a mut [u8]),
    Write(Vec<SectorBuf>),
}

struct Inflight {
    sector: u64,
    nsectors: u64,
    /// Scatter-gather view of the bytes a write is transferring; empty for
    /// a read, which a power cut leaves nothing of. Holding `SectorBuf`
    /// views instead of a copied `Vec` is what makes the in-flight window
    /// zero-copy: the drive "DMAs" straight from the caller's buffers, and
    /// only a power cut or media defect forces the committed prefix onto
    /// the store.
    segments: Vec<SectorBuf>,
    /// When the transfer starts (positioning is over) and how long it takes.
    transfer: (SimTime, SimDuration),
}

/// Commits the first `nsectors` sectors of `segments` (laid out from
/// `first`) onto the media — the torn-prefix rule for power cuts and media
/// defects mid-transfer.
fn commit_prefix(store: &mut SectorStore, first: u64, segments: &[SectorBuf], nsectors: u64) {
    let mut remaining = nsectors as usize * SECTOR_SIZE;
    let mut cursor = first;
    for seg in segments {
        if remaining == 0 {
            break;
        }
        let take = seg.len().min(remaining);
        store.write_run(cursor, &seg.as_slice()[..take]);
        cursor += (take / SECTOR_SIZE) as u64;
        remaining -= take;
    }
}

struct St {
    store: SectorStore,
    timing: TimingModel,
    /// Media operations currently in flight, keyed by an issue ticket. A
    /// single-actuator disk has at most one entry; an SSD holds up to one
    /// per channel. A power cut disposes of all of them at once (torn
    /// prefixes per the spec).
    inflight: BTreeMap<u64, Inflight>,
    next_ticket: u64,
}

struct DiskInner {
    ctx: SimCtx,
    spec: DiskSpec,
    geometry: Geometry,
    st: RefCell<St>,
    media_gate: Semaphore,
    offline: Cell<bool>,
    power_epoch: Cell<u64>,
    /// Dedicated fault RNG stream; present iff the spec has a
    /// [`FaultProfile`](crate::FaultProfile).
    fault_rng: Option<RefCell<SimRng>>,
    /// Sectors with a persistent media defect (grown or planted).
    bad_sectors: RefCell<BTreeSet<u64>>,
    /// Sick mode: every media op fails with [`IoError::Transient`] until
    /// cleared — models a drive in an error burst / firmware reset storm.
    sick: Cell<bool>,
    stats: RefCell<DiskStats>,
    tracer: Rc<Tracer>,
}

/// Outcome of the fault model for one media operation, decided up front so
/// the RNG stream advances identically regardless of request timing.
#[derive(Default)]
struct FaultPlan {
    /// Extra latency before the op is serviced.
    stall: Option<SimDuration>,
    /// Error to return after the service time elapses.
    outcome: Option<IoError>,
    /// Sector to silently corrupt after an otherwise successful write.
    corrupt: Option<u64>,
}

impl DiskInner {
    fn io_payload(&self, sector: u64, sectors: u64, write: bool, parts: ServiceParts) -> Payload {
        Payload::Io {
            sector,
            sectors,
            write,
            seek: parts.seek.as_nanos(),
            rotation: parts.rotation.as_nanos(),
            transfer: parts.transfer.as_nanos(),
        }
    }

    /// Records an offline rejection and returns the error to propagate.
    /// Every `PowerLoss` exit funnels through here, so each one shows in
    /// [`DiskStats::rejected_offline`].
    fn reject_offline(&self) -> IoError {
        self.stats.borrow_mut().rejected_offline += 1;
        IoError::PowerLoss
    }

    /// Decides what the fault model does to a media op on `count` sectors
    /// starting at `sector`. Draw order is fixed per op so the fault
    /// schedule replays exactly under the same profile seed.
    fn plan_faults(&self, sector: u64, count: u64, is_write: bool) -> FaultPlan {
        let mut plan = FaultPlan::default();
        if self.sick.get() {
            plan.outcome = Some(IoError::Transient);
            return plan;
        }
        // A known-bad sector in the range fails deterministically, with or
        // without a probabilistic profile (tests plant defects directly).
        if let Some(&bad) = self
            .bad_sectors
            .borrow()
            .range(sector..sector + count)
            .next()
        {
            plan.outcome = Some(IoError::MediaError { sector: bad });
            return plan;
        }
        let Some(rng) = &self.fault_rng else {
            return plan;
        };
        let profile = self.spec.fault.as_ref().expect("fault_rng implies profile");
        let mut rng = rng.borrow_mut();
        let r_stall = rng.next_f64();
        let r_transient = rng.next_f64();
        let r_defect = rng.next_f64();
        let r_corrupt = rng.next_f64();
        let pick = rng.next_u64();
        if r_stall < profile.stall_rate {
            plan.stall = Some(profile.stall);
        }
        if r_transient < profile.transient_rate {
            plan.outcome = Some(IoError::Transient);
        } else if is_write && r_defect < profile.grown_defect_rate {
            let s = sector + pick % count;
            self.bad_sectors.borrow_mut().insert(s);
            plan.outcome = Some(IoError::MediaError { sector: s });
        } else if is_write && r_corrupt < profile.corruption_rate {
            plan.corrupt = Some(sector + pick % count);
        }
        plan
    }

    /// Applies the pre-service parts of a fault plan (the stall) and traces
    /// it. Returns `Err` if power was lost during the stall.
    async fn serve_stall(&self, plan: &FaultPlan, sector: u64) -> IoResult<()> {
        let Some(stall) = plan.stall else {
            return Ok(());
        };
        self.stats.borrow_mut().stalls += 1;
        self.tracer.instant(
            self.ctx.now(),
            Layer::Disk,
            "disk_stall",
            Payload::Fault {
                kind: "stall",
                sector,
            },
        );
        let epoch = self.power_epoch.get();
        self.ctx.sleep(stall).await;
        if self.power_epoch.get() != epoch {
            return Err(self.reject_offline());
        }
        Ok(())
    }

    /// Books a planned post-service failure into stats + trace and returns
    /// it. Call sites have already paid the service time.
    fn book_failure(&self, err: IoError) -> IoError {
        let mut stats = self.stats.borrow_mut();
        let (name, kind, sector) = match err {
            IoError::Transient => {
                stats.transient_errors += 1;
                ("disk_transient", "transient", 0)
            }
            IoError::MediaError { sector } => {
                stats.media_errors += 1;
                ("disk_media_error", "media_error", sector)
            }
            _ => return err,
        };
        let fault = Payload::Fault { kind, sector };
        self.tracer
            .instant(self.ctx.now(), Layer::Disk, name, fault);
        err
    }
}

/// A cloneable handle to a simulated disk.
#[derive(Clone)]
pub struct Disk {
    inner: Rc<DiskInner>,
}

impl Disk {
    /// Creates a device.
    pub fn new(ctx: &SimCtx, spec: DiskSpec) -> Disk {
        let queue_depth = spec.queue_depth();
        let geometry = Geometry {
            sector_size: SECTOR_SIZE,
            sectors: spec.sectors,
            queue_depth,
        };
        let timing = TimingModel::from_spec(&spec.timing, spec.sectors);
        let inner = Rc::new(DiskInner {
            ctx: ctx.clone(),
            geometry,
            st: RefCell::new(St {
                store: SectorStore::new(),
                timing,
                inflight: BTreeMap::new(),
                next_ticket: 0,
            }),
            // One permit per concurrent media op: the single actuator of a
            // rotating disk, or one per flash channel on an SSD.
            media_gate: Semaphore::new(queue_depth as usize),
            offline: Cell::new(false),
            power_epoch: Cell::new(0),
            fault_rng: spec
                .fault
                .as_ref()
                .map(|f| RefCell::new(SimRng::seed_from_u64(f.seed))),
            bad_sectors: RefCell::new(BTreeSet::new()),
            sick: Cell::new(false),
            stats: RefCell::new(DiskStats::default()),
            tracer: ctx.tracer(),
            spec,
        });
        Disk { inner }
    }

    /// The device's spec (for sizing calculations upstream).
    pub fn spec(&self) -> &DiskSpec {
        &self.inner.spec
    }

    /// Snapshot of cumulative statistics.
    pub fn stats(&self) -> DiskStats {
        *self.inner.stats.borrow()
    }

    /// True if the device has lost power.
    pub fn is_offline(&self) -> bool {
        self.inner.offline.get()
    }

    /// Puts the device in (or takes it out of) sick mode: while sick, every
    /// media operation fails with [`IoError::Transient`]. Models an error
    /// burst — cabling fault, firmware reset storm — that ends.
    pub fn set_sick(&self, sick: bool) {
        if self.inner.sick.get() == sick {
            return;
        }
        self.inner.sick.set(sick);
        self.inner.tracer.instant(
            self.inner.ctx.now(),
            Layer::Disk,
            if sick { "disk_sick" } else { "disk_healthy" },
            Payload::Fault {
                kind: if sick { "sick" } else { "healthy" },
                sector: 0,
            },
        );
    }

    /// Fault hook: plants a persistent defect at `sector`. Every access
    /// touching it fails with [`IoError::MediaError`] until remapped.
    pub fn mark_bad(&self, sector: u64) {
        self.inner.bad_sectors.borrow_mut().insert(sector);
    }

    /// Remaps a defective sector to a spare. The spare reads as it was
    /// before the defect (old media contents persist); subsequent writes
    /// succeed. Returns false if the sector was not defective.
    pub fn remap(&self, sector: u64) -> bool {
        let was_bad = self.inner.bad_sectors.borrow_mut().remove(&sector);
        if was_bad {
            self.inner.stats.borrow_mut().remaps += 1;
            self.inner.tracer.instant(
                self.inner.ctx.now(),
                Layer::Disk,
                "disk_remap",
                Payload::Fault {
                    kind: "remap",
                    sector,
                },
            );
        }
        was_bad
    }

    /// Cuts power at the current instant. See the module docs for exactly
    /// what is lost. Idempotent.
    pub fn power_cut(&self) {
        if self.inner.offline.get() {
            return;
        }
        self.inner.offline.set(true);
        self.inner.power_epoch.set(self.inner.power_epoch.get() + 1);
        let now = self.inner.ctx.now();
        self.inner
            .tracer
            .instant(now, Layer::Power, "disk_power_cut", Payload::None);
        {
            let mut st = self.inner.st.borrow_mut();
            // Every media op in flight dies; each in-flight *write* commits
            // a prefix (a read has no segments to commit). Sectors are
            // written atomically and in order; a torn multi-sector write
            // commits the share of its transfer the head had done, none while
            // it positioned. Power-loss-protected flash finishes the command.
            let inflight = std::mem::take(&mut st.inflight);
            for inf in inflight.into_values() {
                let committed = if self.inner.spec.timing.torn_writes() {
                    let (start, len) = inf.transfer;
                    let frac =
                        now.saturating_duration_since(start) / len.max(SimDuration::from_nanos(1));
                    ((frac * inf.nsectors as f64).floor() as u64).min(inf.nsectors)
                } else {
                    inf.nsectors
                };
                if committed > 0 {
                    commit_prefix(&mut st.store, inf.sector, &inf.segments, committed);
                }
            }
        }
    }

    /// Restores power. Media contents persist.
    pub fn power_restore(&self) {
        self.inner.offline.set(false);
        self.inner.tracer.instant(
            self.inner.ctx.now(),
            Layer::Power,
            "disk_power_restore",
            Payload::None,
        );
    }

    /// Carries one request to completion in the caller's task: the one
    /// place the disk tells request kinds apart (a read and a write share
    /// `media_op`). The queued form ([`BlockDevice::submit`]) runs this in
    /// a task of its own.
    pub async fn exec(&self, req: IoReq) -> IoResult<Option<SectorBuf>> {
        match req {
            IoReq::Read { sector, sectors } => {
                // `sectors` is the guest's: in range before it sizes a buffer.
                self.inner.geometry.check(sector, sectors)?;
                self.arrive(|s| s.reads += 1)?;
                let mut buf = vec![0u8; sectors as usize * SECTOR_SIZE];
                self.media_op(sector, sectors, Transfer::Read(&mut buf))
                    .await?;
                Ok(Some(SectorBuf::from_vec(buf)))
            }
            // `fua` is ignored: the disk has no volatile cache to bypass.
            IoReq::Write {
                sector, segments, ..
            } => {
                let len = segments.iter().map(SectorBuf::len).sum();
                let count = self.inner.geometry.check_bytes(sector, len)?;
                if let Some(seg) = segments
                    .iter()
                    .find(|s| s.is_empty() || !s.len().is_multiple_of(SECTOR_SIZE))
                {
                    return Err(IoError::Misaligned { len: seg.len() });
                }
                self.arrive(|s| s.writes += 1)?;
                self.media_op(sector, count, Transfer::Write(segments))
                    .await?;
                Ok(None)
            }
            IoReq::Flush => {
                self.arrive(|s| s.flushes += 1)?;
                self.media_flush().await.map(|()| None)
            }
            // Advisory, and this model keeps no mapping to drop: done,
            // with the media, its gate and the head where they were.
            IoReq::Trim { .. } => Ok(None),
        }
    }

    /// A well-formed request arrives: refused with [`IoError::PowerLoss`]
    /// (and counted only as that) while the device is offline, else counted
    /// by `count`.
    fn arrive(&self, count: impl FnOnce(&mut DiskStats)) -> IoResult<()> {
        if self.inner.offline.get() {
            return Err(self.inner.reject_offline());
        }
        count(&mut self.inner.stats.borrow_mut());
        Ok(())
    }

    /// One media operation on `count` sectors from `sector`, read or write:
    /// the media gate, the fault plan and its stall, the service time with
    /// the operation in flight (where a power cut finds it), its
    /// `media_read` / `media_write` span and the counters. Only the landing
    /// tells the two apart: a read copies the store into its buffer, a
    /// write lays its segments onto the store.
    async fn media_op(&self, sector: u64, count: u64, xfer: Transfer<'_>) -> IoResult<()> {
        let inner = &*self.inner;
        let write = matches!(xfer, Transfer::Write(_));
        let span = if write { "media_write" } else { "media_read" };
        let _permit = inner.media_gate.acquire(1).await;
        if inner.offline.get() {
            return Err(inner.reject_offline());
        }
        let plan = inner.plan_faults(sector, count, write);
        inner.serve_stall(&plan, sector).await?;
        let epoch = inner.power_epoch.get();
        let (dur, ticket) = {
            let mut st = inner.st.borrow_mut();
            let now = inner.ctx.now();
            let parts = st.timing.service(now, sector, count, write);
            let dur = parts.total();
            let ticket = st.next_ticket;
            st.next_ticket += 1;
            let segments = match &xfer {
                Transfer::Read(_) => Vec::new(),
                Transfer::Write(segments) => segments.clone(),
            };
            st.inflight.insert(
                ticket,
                Inflight {
                    sector,
                    nsectors: count,
                    segments,
                    transfer: (now + (dur - parts.transfer), parts.transfer),
                },
            );
            let payload = inner.io_payload(sector, count, write, parts);
            inner.tracer.begin(now, Layer::Disk, span, payload);
            (dur, ticket)
        };
        inner.ctx.sleep(dur).await;
        let now = inner.ctx.now();
        if inner.power_epoch.get() != epoch {
            // The power-cut handler already disposed of the in-flight op
            // (committing a torn prefix of a write if configured).
            let lost = Payload::Text { text: "power_loss" };
            inner.tracer.end(now, Layer::Disk, span, lost);
            return Err(inner.reject_offline());
        }
        let end = match plan.outcome {
            Some(IoError::Transient) => Payload::Text { text: "transient" },
            Some(IoError::MediaError { .. }) => Payload::Text {
                text: "media_error",
            },
            _ => Payload::None,
        };
        inner.tracer.end(now, Layer::Disk, span, end);
        let mut st = inner.st.borrow_mut();
        st.inflight.remove(&ticket);
        let mut stats = inner.stats.borrow_mut();
        stats.media_ops += 1;
        stats.busy += dur;
        if let Some(err) = plan.outcome {
            // A media error mid-write commits the sectors before the defect
            // — the head wrote them before hitting the bad one. A transient
            // abort commits nothing, and a failed read returns nothing.
            if let (IoError::MediaError { sector: bad }, Transfer::Write(segments)) = (err, &xfer) {
                commit_prefix(&mut st.store, sector, segments, bad - sector);
            }
            drop((st, stats));
            return Err(inner.book_failure(err));
        }
        match xfer {
            Transfer::Read(buf) => {
                st.store.read_run(sector, buf);
                stats.sectors_read += count;
            }
            Transfer::Write(segments) => {
                // The one real copy on the acknowledged-byte path: segments
                // land on the media store, like DMA completing into the
                // platter.
                st.store.write_segments(sector, &segments);
                stats.sectors_written += count;
                // Silent corruption: the op reports success, but one
                // sector's contents landed wrong. Only a later read-back
                // can notice.
                if let Some(cs) = plan.corrupt {
                    let mut sec = vec![0u8; SECTOR_SIZE];
                    st.store.read_run(cs, &mut sec);
                    for b in sec.iter_mut().take(32) {
                        *b ^= 0xA5;
                    }
                    st.store.write_run(cs, &sec);
                    stats.corrupt_sectors += 1;
                    let fault = Payload::Fault {
                        kind: "corrupt",
                        sector: cs,
                    };
                    inner
                        .tracer
                        .instant(now, Layer::Disk, "disk_corrupt", fault);
                }
            }
        }
        Ok(())
    }

    /// Resolves once every acknowledged write is on stable media: the media
    /// gate and the drive's flush time, with no sectors moved.
    async fn media_flush(&self) -> IoResult<()> {
        let inner = &*self.inner;
        let _permit = inner.media_gate.acquire(1).await;
        if inner.offline.get() {
            return Err(inner.reject_offline());
        }
        if inner.sick.get() {
            return Err(inner.book_failure(IoError::Transient));
        }
        let epoch = inner.power_epoch.get();
        let dur = inner.st.borrow().timing.flush_time();
        let start = inner.ctx.now();
        inner
            .tracer
            .begin(start, Layer::Disk, "media_flush", Payload::None);
        inner.ctx.sleep(dur).await;
        let lost = inner.power_epoch.get() != epoch;
        let end = if lost {
            Payload::Text { text: "power_loss" }
        } else {
            Payload::None
        };
        inner
            .tracer
            .end(inner.ctx.now(), Layer::Disk, "media_flush", end);
        if lost {
            return Err(inner.reject_offline());
        }
        Ok(())
    }

    /// Reads the media contents directly, bypassing all timing. Durability auditors inspect what would survive a crash with
    /// it, and a RapiLog instance reads the sectors it keeps through it:
    /// the store holds exactly what the instance's landing wrote there, so
    /// the simulator keeps those bytes once, not twice.
    pub fn peek_media(&self, sector: u64, buf: &mut [u8]) {
        self.inner.st.borrow().store.read_run(sector, buf);
    }

    /// Test/fault hook: overwrites media contents directly, bypassing
    /// timing. Used to plant corruption (torn pages) for
    /// recovery tests.
    pub fn poke_media(&self, sector: u64, data: &[u8]) {
        self.inner.st.borrow_mut().store.write_run(sector, data);
    }
}

impl BlockDevice for Disk {
    fn geometry(&self) -> Geometry {
        self.inner.geometry
    }

    fn exec(&self, req: IoReq) -> LocalBoxFuture<'_, IoResult<Option<SectorBuf>>> {
        Box::pin(self.exec(req))
    }

    /// The disk meters its own queue (`queued_requests`, `outstanding`,
    /// `max_outstanding`, the `disk_queue_depth` instant), so it spells the
    /// queued form out around [`ReqToken::spawn`]'s task. A request that
    /// reaches the disk through a wrapper's inline `exec` is not counted
    /// here.
    fn submit(&self, req: IoReq) -> ReqToken {
        let depth = {
            let mut stats = self.inner.stats.borrow_mut();
            stats.queued_requests += 1;
            stats.outstanding += 1;
            stats.max_outstanding = stats.max_outstanding.max(stats.outstanding);
            stats.outstanding
        };
        // Make the reordering observable: mark every change in queue depth
        // on the disk trace layer.
        self.inner.tracer.instant(
            self.inner.ctx.now(),
            Layer::Disk,
            "disk_queue_depth",
            Payload::Bytes {
                bytes: u64::from(depth),
            },
        );
        let disk = self.clone();
        ReqToken(self.inner.ctx.spawn(async move {
            let outcome = disk.exec(req).await;
            disk.inner.stats.borrow_mut().outstanding -= 1;
            outcome
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::specs;
    use rapilog_simcore::{Sim, SimTime};
    use std::cell::Cell;

    fn run_on_disk<F, Fut>(spec: DiskSpec, f: F) -> SimTime
    where
        F: FnOnce(SimCtx, Disk) -> Fut + 'static,
        Fut: std::future::Future<Output = ()> + 'static,
    {
        let mut sim = Sim::new(7);
        let ctx = sim.ctx();
        let disk = Disk::new(&ctx, spec);
        sim.spawn(f(ctx, disk));
        sim.run().now
    }

    fn pattern(len: usize, tag: u8) -> Vec<u8> {
        (0..len).map(|i| (i as u8) ^ tag).collect()
    }

    #[test]
    fn write_read_roundtrip_multisector() {
        run_on_disk(specs::instant(1 << 20), |_ctx, disk| async move {
            let data = pattern(4 * SECTOR_SIZE, 0x3C);
            disk.write(10, &data, true).await.unwrap();
            let mut buf = vec![0u8; 4 * SECTOR_SIZE];
            disk.read(10, &mut buf).await.unwrap();
            assert_eq!(buf, data);
        });
    }

    #[test]
    fn bounds_and_alignment_errors() {
        run_on_disk(specs::instant(1 << 20), |_ctx, disk| async move {
            let sectors = disk.geometry().sectors;
            let data = vec![0u8; SECTOR_SIZE];
            assert_eq!(
                disk.write(sectors, &data, true).await,
                Err(IoError::OutOfRange {
                    sector: sectors,
                    count: 1
                })
            );
            assert_eq!(
                disk.write(0, &data[..100], true).await,
                Err(IoError::Misaligned { len: 100 })
            );
            let mut buf = vec![0u8; 0];
            assert_eq!(
                disk.read(0, &mut buf).await,
                Err(IoError::Misaligned { len: 0 })
            );
        });
    }

    #[test]
    fn sync_writes_on_hdd_cost_rotations() {
        let end = run_on_disk(specs::hdd_7200(1 << 30), |ctx, disk| async move {
            let data = pattern(8 * SECTOR_SIZE, 1);
            let mut sector = 0;
            for _ in 0..10 {
                disk.write(sector, &data, true).await.unwrap();
                sector += 8;
                // Database "thinks" between commits.
                ctx.sleep(SimDuration::from_micros(300)).await;
            }
        });
        // Ten sync writes, each dominated by a ~8.3 ms rotation.
        assert!(
            end > SimTime::from_millis(40),
            "finished suspiciously fast: {end}"
        );
    }

    #[test]
    fn acked_write_survives_immediate_power_cut_whatever_its_fua() {
        for fua in [true, false] {
            run_on_disk(specs::hdd_7200(1 << 30), move |_ctx, disk| async move {
                let data = pattern(SECTOR_SIZE, 4);
                disk.write(6, &data, fua).await.unwrap();
                disk.power_cut();
                disk.power_restore();
                let mut buf = vec![0u8; SECTOR_SIZE];
                disk.read(6, &mut buf).await.unwrap();
                assert_eq!(
                    buf, data,
                    "fua {fua}: the write-through disk lost an acked write"
                );
            });
        }
    }

    #[test]
    fn ops_fail_while_offline() {
        run_on_disk(specs::instant(1 << 20), |_ctx, disk| async move {
            disk.power_cut();
            assert!(disk.is_offline());
            let data = vec![0u8; SECTOR_SIZE];
            assert_eq!(disk.write(0, &data, true).await, Err(IoError::PowerLoss));
            let mut buf = vec![0u8; SECTOR_SIZE];
            assert_eq!(disk.read(0, &mut buf).await, Err(IoError::PowerLoss));
            assert_eq!(disk.flush().await, Err(IoError::PowerLoss));
            disk.power_restore();
            assert!(disk.write(0, &data, true).await.is_ok());
        });
    }

    #[test]
    fn inflight_write_fails_and_tears_on_power_cut() {
        let mut sim = Sim::new(7);
        let ctx = sim.ctx();
        let disk = Disk::new(&ctx, specs::hdd_7200(1 << 30));
        let failed = Rc::new(Cell::new(false));
        let f2 = Rc::clone(&failed);
        let d2 = disk.clone();
        // A large write takes several ms of media time.
        let data = Rc::new(pattern(2048 * SECTOR_SIZE, 5));
        let data2 = Rc::clone(&data);
        sim.spawn(async move {
            let res = d2.write(0, &data2, true).await;
            assert_eq!(res, Err(IoError::PowerLoss));
            f2.set(true);
        });
        // Cut mid-transfer: the 1 MiB write waits most of a rotation for
        // sector 0 (the command overhead carried the head past it) first.
        let spec = specs::hdd_7200(1 << 30);
        let parts = TimingModel::from_spec(&spec.timing, spec.sectors).service(
            SimTime::ZERO,
            0,
            2048,
            true,
        );
        let cut = parts.seek + parts.rotation + parts.transfer / 2;
        let d3 = disk.clone();
        sim.spawn({
            let ctx = ctx.clone();
            async move {
                ctx.sleep(cut).await;
                d3.power_cut();
            }
        });
        sim.run();
        assert!(failed.get(), "writer observed the power loss");
        // Audit the media: a clean prefix of whole sectors committed; every
        // later sector is untouched (still zero). No mid-sector garbage:
        // sector writes are atomic.
        let mut committed = 0u64;
        let mut buf = vec![0u8; SECTOR_SIZE];
        for s in 0..2048u64 {
            disk.peek_media(s, &mut buf);
            let expect = &data[(s as usize) * SECTOR_SIZE..(s as usize + 1) * SECTOR_SIZE];
            if buf == expect {
                committed += 1;
            } else {
                break;
            }
        }
        assert!(
            committed > 0 && committed < 2048,
            "expected a partial commit, got {committed}/2048"
        );
        for s in committed..2048u64 {
            disk.peek_media(s, &mut buf);
            assert_eq!(
                buf,
                vec![0u8; SECTOR_SIZE],
                "sector {s} past the torn prefix must be untouched"
            );
        }
    }

    #[test]
    fn stats_track_operations() {
        run_on_disk(specs::instant(1 << 20), |_ctx, disk| async move {
            let data = vec![1u8; 2 * SECTOR_SIZE];
            disk.write(0, &data, true).await.unwrap();
            let mut buf = vec![0u8; SECTOR_SIZE];
            disk.read(0, &mut buf).await.unwrap();
            disk.flush().await.unwrap();
            let s = disk.stats();
            assert_eq!(s.writes, 1);
            assert_eq!(s.reads, 1);
            assert_eq!(s.flushes, 1);
            assert_eq!(s.sectors_written, 2);
            assert_eq!(s.sectors_read, 1);
        });
    }

    #[test]
    fn dyn_block_device_usable() {
        let mut sim = Sim::new(7);
        let ctx = sim.ctx();
        let disk: Rc<dyn BlockDevice> = Rc::new(Disk::new(&ctx, specs::instant(1 << 20)));
        sim.spawn(async move {
            let data = vec![9u8; SECTOR_SIZE];
            disk.write(1, &data, true).await.unwrap();
            let mut buf = vec![0u8; SECTOR_SIZE];
            disk.read(1, &mut buf).await.unwrap();
            assert_eq!(buf, data);
            assert_eq!(disk.geometry().sector_size, SECTOR_SIZE);
        });
        sim.run();
    }

    #[test]
    fn concurrent_writers_serialise_on_the_actuator() {
        let mut sim = Sim::new(7);
        let ctx = sim.ctx();
        let disk = Disk::new(&ctx, specs::hdd_7200(1 << 30));
        for i in 0..4u64 {
            let disk = disk.clone();
            sim.spawn(async move {
                let data = pattern(SECTOR_SIZE, i as u8);
                disk.write(i * 1000, &data, true).await.unwrap();
            });
        }
        let report = sim.run();
        let stats = disk.stats();
        assert_eq!(stats.media_ops, 4);
        // Busy time cannot exceed elapsed wall (virtual) time: serialised.
        assert!(stats.busy.as_nanos() <= report.now.as_nanos());
    }

    #[test]
    fn queued_interface_roundtrips_and_counts_depth() {
        run_on_disk(specs::instant(1 << 20), |_ctx, disk| async move {
            let data = pattern(2 * SECTOR_SIZE, 0x5A);
            let w = disk.submit(IoReq::Write {
                sector: 8,
                segments: vec![SectorBuf::from_vec(data.clone())],
                fua: true,
            });
            let r = disk.submit(IoReq::Read {
                sector: 8,
                sectors: 2,
            });
            let f = disk.submit(IoReq::Flush);
            assert_eq!(disk.wait(w).await, Ok(None));
            let got = disk.wait(r).await.unwrap().expect("read data");
            assert_eq!(got.as_slice(), &data[..]);
            assert_eq!(disk.wait(f).await, Ok(None));
            let s = disk.stats();
            assert_eq!(s.queued_requests, 3);
            assert_eq!(s.outstanding, 0);
            assert!(s.max_outstanding >= 2, "requests overlapped in the queue");
        });
    }

    /// A device over a disk that keeps a view of every payload it reads,
    /// so a test can tell whether anything else still holds one.
    #[derive(Clone)]
    struct KeepsReads {
        ctx: SimCtx,
        disk: Disk,
        seen: Rc<RefCell<Vec<SectorBuf>>>,
    }

    impl BlockDevice for KeepsReads {
        fn geometry(&self) -> Geometry {
            self.disk.geometry()
        }

        fn exec(&self, req: IoReq) -> LocalBoxFuture<'_, IoResult<Option<SectorBuf>>> {
            Box::pin(async move {
                let outcome = self.disk.exec(req).await;
                if let Ok(Some(data)) = &outcome {
                    self.seen.borrow_mut().push(data.clone());
                }
                outcome
            })
        }

        fn submit(&self, req: IoReq) -> ReqToken {
            ReqToken::spawn(&self.ctx, self.clone(), req)
        }
    }

    #[test]
    fn a_dropped_token_still_reads_and_its_payload_is_freed_when_the_read_finishes() {
        let mut sim = Sim::new(7);
        let ctx = sim.ctx();
        let disk = Disk::new(&ctx, specs::hdd_7200(1 << 20));
        let dev = KeepsReads {
            ctx,
            disk: disk.clone(),
            seen: Rc::default(),
        };
        let read = IoReq::Read {
            sector: 8,
            sectors: 4,
        };
        let pool = crate::SectorPool::new();
        drop(dev.submit(read.clone()));
        assert!(sim.run().now > SimTime::ZERO, "the read took media time");
        assert_eq!(disk.stats().reads, 1, "the given-up read reached the disk");
        pool.recycle(dev.seen.borrow_mut().pop().expect("the read finished"));
        assert_eq!(pool.idle(), 1, "nothing holds the given-up read's payload");
        // Potency: a token still held keeps its payload alive.
        let kept = dev.submit(read);
        sim.run();
        pool.recycle(dev.seen.borrow_mut().pop().expect("the read finished"));
        assert_eq!(pool.idle(), 1, "the held token's payload is not freed");
        drop(kept);
    }

    #[test]
    fn a_trim_completes_at_once_and_touches_neither_media_nor_head() {
        run_on_disk(specs::hdd_7200(1 << 20), |ctx, disk| async move {
            disk.write(8, &pattern(SECTOR_SIZE, 0x5A), true)
                .await
                .unwrap();
            let (before, t0) = (disk.stats(), ctx.now());
            let t = disk.submit(IoReq::Trim {
                sector: 0,
                sectors: 64,
            });
            assert_eq!(disk.wait(t).await, Ok(None));
            assert_eq!(ctx.now(), t0);
            let after = disk.stats();
            assert_eq!(after.media_ops, before.media_ops);
            assert_eq!(after.busy, before.busy);
            let mut media = vec![0u8; SECTOR_SIZE];
            disk.peek_media(8, &mut media);
            assert_eq!(media, pattern(SECTOR_SIZE, 0x5A));
        });
    }

    #[test]
    fn ssd_channels_serve_writes_concurrently() {
        // Four 15 µs writes: depth 1 takes ~4× as long as four channels.
        fn elapsed(channels: u32) -> SimTime {
            let mut sim = Sim::new(7);
            let ctx = sim.ctx();
            let spec = specs::ssd_nvme(1 << 20).with_channels(channels);
            let disk = Disk::new(&ctx, spec);
            sim.spawn(async move {
                let tokens: Vec<_> = (0..4u64)
                    .map(|i| {
                        disk.submit(IoReq::Write {
                            sector: i * 100,
                            segments: vec![SectorBuf::from_vec(vec![i as u8; SECTOR_SIZE])],
                            fua: true,
                        })
                    })
                    .collect();
                for t in tokens {
                    disk.wait(t).await.unwrap();
                }
            });
            sim.run().now
        }
        let serial = elapsed(1);
        let parallel = elapsed(4);
        assert!(
            parallel.as_nanos() * 3 < serial.as_nanos(),
            "4 channels should be ~4x faster: serial {serial}, parallel {parallel}"
        );
    }

    #[test]
    fn hdd_queue_depth_stays_one() {
        let mut sim = Sim::new(7);
        let ctx = sim.ctx();
        let disk = Disk::new(&ctx, specs::hdd_7200(1 << 30));
        assert_eq!(disk.geometry().queue_depth, 1);
        let d2 = disk.clone();
        sim.spawn(async move {
            let tokens: Vec<_> = (0..3u64)
                .map(|i| {
                    d2.submit(IoReq::Write {
                        sector: i * 1000,
                        segments: vec![SectorBuf::from_vec(vec![i as u8; SECTOR_SIZE])],
                        fua: true,
                    })
                })
                .collect();
            for t in tokens {
                d2.wait(t).await.unwrap();
            }
        });
        let report = sim.run();
        let stats = disk.stats();
        assert_eq!(stats.media_ops, 3);
        // The actuator still serialises: busy time ≤ elapsed time.
        assert!(stats.busy.as_nanos() <= report.now.as_nanos());
    }

    #[test]
    fn vectored_write_lays_segments_contiguously_in_one_media_op() {
        run_on_disk(specs::instant(1 << 20), |_ctx, disk| async move {
            let segs = vec![
                SectorBuf::from_vec(pattern(2 * SECTOR_SIZE, 0x10)),
                SectorBuf::from_vec(pattern(SECTOR_SIZE, 0x20)),
                SectorBuf::from_vec(pattern(3 * SECTOR_SIZE, 0x30)),
            ];
            let mut expect = Vec::new();
            for s in &segs {
                expect.extend_from_slice(s.as_slice());
            }
            let req = IoReq::Write {
                sector: 20,
                segments: segs,
                fua: true,
            };
            disk.exec(req).await.unwrap();
            let s = disk.stats();
            assert_eq!(s.media_ops, 1, "one command for the whole run");
            assert_eq!(s.sectors_written, 6);
            let mut buf = vec![0u8; 6 * SECTOR_SIZE];
            disk.read(20, &mut buf).await.unwrap();
            assert_eq!(buf, expect);
        });
    }

    #[test]
    fn vectored_write_rejects_misaligned_segments() {
        run_on_disk(specs::instant(1 << 20), |_ctx, disk| async move {
            let segs = vec![
                SectorBuf::from_vec(vec![0u8; SECTOR_SIZE]),
                SectorBuf::from_vec(vec![0u8; 100]),
                // Pad the total to a sector multiple so only the per-segment
                // check can catch the bad one.
                SectorBuf::from_vec(vec![0u8; SECTOR_SIZE - 100]),
            ];
            let req = IoReq::Write {
                sector: 0,
                segments: segs,
                fua: true,
            };
            assert_eq!(disk.exec(req).await, Err(IoError::Misaligned { len: 100 }));
        });
    }

    #[test]
    fn vectored_write_over_defect_commits_prefix_across_segments() {
        run_on_disk(specs::instant(1 << 20), |_ctx, disk| async move {
            disk.mark_bad(12);
            let a = pattern(2 * SECTOR_SIZE, 0x40); // sectors 10,11
            let b = pattern(2 * SECTOR_SIZE, 0x50); // sectors 12,13
            let segs = vec![SectorBuf::from_vec(a.clone()), SectorBuf::from_vec(b)];
            let req = IoReq::Write {
                sector: 10,
                segments: segs,
                fua: true,
            };
            assert_eq!(
                disk.exec(req).await,
                Err(IoError::MediaError { sector: 12 })
            );
            let mut buf = vec![0u8; SECTOR_SIZE];
            disk.peek_media(11, &mut buf);
            assert_eq!(&buf[..], &a[SECTOR_SIZE..], "prefix committed");
            disk.peek_media(12, &mut buf);
            assert_eq!(buf, vec![0u8; SECTOR_SIZE], "defective sector untouched");
        });
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::spec::{specs, FaultProfile};
    use rapilog_simcore::trace::Phase;
    use rapilog_simcore::{Sim, SimTime};

    fn run_with_faults<F, Fut>(spec: DiskSpec, f: F) -> (Disk, SimTime)
    where
        F: FnOnce(SimCtx, Disk) -> Fut + 'static,
        Fut: std::future::Future<Output = ()> + 'static,
    {
        let mut sim = Sim::new(11);
        let ctx = sim.ctx();
        let disk = Disk::new(&ctx, spec);
        sim.spawn(f(ctx, disk.clone()));
        let end = sim.run().now;
        (disk, end)
    }

    #[test]
    fn transient_faults_hit_at_roughly_the_configured_rate() {
        let spec = specs::instant(1 << 20).with_faults(FaultProfile::transient(42, 0.2));
        let (disk, _) = run_with_faults(spec, |_ctx, disk| async move {
            let data = vec![7u8; SECTOR_SIZE];
            let mut failures = 0u32;
            for i in 0..500u64 {
                if disk.write(i % 100, &data, true).await == Err(IoError::Transient) {
                    failures += 1;
                }
            }
            assert!(
                (60..160).contains(&failures),
                "expected ~100 transient failures, got {failures}"
            );
        });
        let s = disk.stats();
        assert!(s.transient_errors > 0);
        assert_eq!(s.media_errors, 0);
    }

    #[test]
    fn fault_schedule_is_deterministic_per_seed() {
        fn stats_for(seed: u64) -> DiskStats {
            let spec = specs::instant(1 << 20).with_faults(FaultProfile {
                seed,
                transient_rate: 0.1,
                grown_defect_rate: 0.02,
                stall_rate: 0.05,
                stall: SimDuration::from_micros(10),
                corruption_rate: 0.0,
            });
            let (disk, _) = run_with_faults(spec, |_ctx, disk| async move {
                let data = vec![9u8; SECTOR_SIZE];
                for i in 0..300u64 {
                    let sector = i % 200;
                    if disk.write(sector, &data, true).await == Err(IoError::MediaError { sector })
                    {
                        disk.remap(sector);
                    }
                }
            });
            disk.stats()
        }
        assert_eq!(stats_for(7), stats_for(7), "same seed, same schedule");
        assert_ne!(stats_for(7), stats_for(8), "different seed diverges");
    }

    #[test]
    fn bad_sector_fails_until_remapped() {
        let (disk, _) = run_with_faults(specs::instant(1 << 20), |_ctx, disk| async move {
            let data = vec![3u8; SECTOR_SIZE];
            disk.write(40, &data, true).await.unwrap();
            disk.mark_bad(40);
            assert_eq!(
                disk.write(40, &data, true).await,
                Err(IoError::MediaError { sector: 40 })
            );
            let mut buf = vec![0u8; SECTOR_SIZE];
            assert_eq!(
                disk.read(40, &mut buf).await,
                Err(IoError::MediaError { sector: 40 })
            );
            assert!(disk.remap(40), "sector was defective");
            assert!(!disk.remap(40), "already remapped");
            disk.write(40, &data, true).await.unwrap();
            disk.read(40, &mut buf).await.unwrap();
            assert_eq!(buf, data);
        });
        let s = disk.stats();
        assert_eq!(s.media_errors, 2);
        assert_eq!(s.remaps, 1);
        assert!(disk.inner.bad_sectors.borrow().is_empty());
    }

    #[test]
    fn multisector_write_over_defect_commits_the_prefix() {
        let (disk, _) = run_with_faults(specs::instant(1 << 20), |_ctx, disk| async move {
            disk.mark_bad(12);
            let data: Vec<u8> = (0..4 * SECTOR_SIZE).map(|i| i as u8).collect();
            assert_eq!(
                disk.write(10, &data, true).await,
                Err(IoError::MediaError { sector: 12 })
            );
            // Sectors 10 and 11 made it; 12 and 13 did not.
            let mut buf = vec![0u8; SECTOR_SIZE];
            disk.peek_media(10, &mut buf);
            assert_eq!(buf, data[..SECTOR_SIZE]);
            disk.peek_media(11, &mut buf);
            assert_eq!(buf, data[SECTOR_SIZE..2 * SECTOR_SIZE]);
            disk.peek_media(13, &mut buf);
            assert_eq!(buf, vec![0u8; SECTOR_SIZE]);
        });
        drop(disk);
    }

    #[test]
    fn sick_mode_fails_everything_and_recovers() {
        let (disk, _) = run_with_faults(specs::instant(1 << 20), |_ctx, disk| async move {
            let data = vec![5u8; SECTOR_SIZE];
            disk.set_sick(true);
            assert!(disk.inner.sick.get());
            assert_eq!(disk.write(0, &data, true).await, Err(IoError::Transient));
            let mut buf = vec![0u8; SECTOR_SIZE];
            assert_eq!(disk.read(0, &mut buf).await, Err(IoError::Transient));
            assert_eq!(disk.flush().await, Err(IoError::Transient));
            disk.set_sick(false);
            disk.write(0, &data, true).await.unwrap();
            disk.read(0, &mut buf).await.unwrap();
            assert_eq!(buf, data);
        });
        assert_eq!(disk.stats().transient_errors, 3);
    }

    #[test]
    fn stalls_add_latency_and_are_counted() {
        let spec = specs::instant(1 << 20).with_faults(FaultProfile {
            seed: 3,
            stall_rate: 1.0,
            stall: SimDuration::from_millis(25),
            ..FaultProfile::default()
        });
        let (disk, end) = run_with_faults(spec, |_ctx, disk| async move {
            let data = vec![1u8; SECTOR_SIZE];
            for i in 0..4u64 {
                disk.write(i, &data, true).await.unwrap();
            }
        });
        assert_eq!(disk.stats().stalls, 4);
        assert!(
            end >= SimTime::from_millis(100),
            "four 25 ms stalls must show in elapsed time, got {end}"
        );
    }

    #[test]
    fn silent_corruption_alters_media_without_an_error() {
        let spec = specs::instant(1 << 20).with_faults(FaultProfile {
            seed: 5,
            corruption_rate: 1.0,
            ..FaultProfile::default()
        });
        let (disk, _) = run_with_faults(spec, |_ctx, disk| async move {
            let data = vec![0x11u8; SECTOR_SIZE];
            disk.write(77, &data, true).await.unwrap();
            let mut buf = vec![0u8; SECTOR_SIZE];
            disk.read(77, &mut buf).await.unwrap();
            assert_ne!(buf, data, "corruption flipped bytes silently");
        });
        assert_eq!(disk.stats().corrupt_sectors, 1);
    }

    /// Sectors in each request of the fault table, from sector [`AT`].
    const N: u64 = 16;
    const AT: u64 = 40;

    /// What one request did to a fresh disk.
    #[derive(Debug)]
    struct Seen {
        /// A read's sectors returned, or a write's sectors found on the
        /// media from [`AT`] on (the committed prefix), or the error.
        result: Result<u64, IoError>,
        /// The leading sectors of a write that reached the media, error or
        /// not; a read always leaves the media as it was.
        landed: u64,
        stats: DiskStats,
        /// Payload of the end of the request's media span, if it had one.
        span_end: Option<Payload>,
        took: SimDuration,
    }

    /// Runs one read or write of [`N`] sectors on a fresh disk after
    /// `setup`, cutting power `cut` after it is issued.
    fn one_request(
        spec: DiskSpec,
        write: bool,
        setup: fn(&Disk),
        cut: Option<SimDuration>,
    ) -> Seen {
        let mut sim = Sim::new(11);
        let ctx = sim.ctx();
        ctx.tracer().set_enabled(true);
        let disk = Disk::new(&ctx, spec);
        let data = (0..N as usize * SECTOR_SIZE)
            .map(|i| (i % 251) as u8 + 1)
            .collect::<Vec<u8>>();
        if !write {
            disk.poke_media(AT, &data);
        }
        setup(&disk);
        let out = Rc::new(RefCell::new(None));
        let (d, o, payload) = (disk.clone(), Rc::clone(&out), data.clone());
        let c = ctx.clone();
        sim.spawn(async move {
            let req = if write {
                IoReq::Write {
                    sector: AT,
                    segments: vec![SectorBuf::from_vec(payload)],
                    fua: true,
                }
            } else {
                IoReq::Read {
                    sector: AT,
                    sectors: N,
                }
            };
            let got = d.exec(req).await;
            *o.borrow_mut() = Some((got, c.now()));
        });
        if let Some(after) = cut {
            let (d, c) = (disk.clone(), ctx.clone());
            sim.spawn(async move {
                c.sleep(after).await;
                d.power_cut();
            });
        }
        sim.run();
        let (got, at) = out.borrow_mut().take().expect("the request finished");
        let mut sector = vec![0u8; SECTOR_SIZE];
        let landed = (0..N)
            .take_while(|&i| {
                disk.peek_media(AT + i, &mut sector);
                let i = i as usize;
                sector == data[i * SECTOR_SIZE..(i + 1) * SECTOR_SIZE]
            })
            .count() as u64;
        let result = match got {
            Ok(Some(buf)) => {
                assert_eq!(buf.as_slice(), &data[..], "a read returns the media");
                Ok(N)
            }
            Ok(None) => Ok(landed),
            Err(e) => Err(e),
        };
        let name = if write { "media_write" } else { "media_read" };
        let span_end = ctx
            .tracer()
            .snapshot()
            .events
            .iter()
            .rfind(|e| e.layer == Layer::Disk && e.phase == Phase::End && e.name == name)
            .map(|e| e.payload);
        Seen {
            result,
            landed: if write { landed } else { 0 },
            stats: disk.stats(),
            span_end,
            took: at - SimTime::ZERO,
        }
    }

    /// A power cut tears an HDD write by the share of its *transfer* the
    /// head had done: a cut while it still seeks or waits for the sector
    /// commits nothing, and one halfway through the transfer commits half
    /// the sectors.
    #[test]
    fn a_torn_write_commits_the_transferred_share_only() {
        let spec = specs::hdd_7200(1 << 30);
        let mut timing = TimingModel::from_spec(&spec.timing, spec.sectors);
        let parts = timing.service(SimTime::ZERO, AT, N, true);
        let positioned = parts.seek + parts.rotation;
        assert!(parts.seek > SimDuration::ZERO && parts.rotation > parts.transfer);
        for (cut, want) in [
            (parts.seek, 0),
            (positioned - SimDuration::from_nanos(1), 0),
            // Halfway, rounded up to the nanosecond.
            (
                positioned + (parts.transfer + SimDuration::from_nanos(1)) / 2,
                N / 2,
            ),
            (parts.total() - SimDuration::from_nanos(1), N - 1),
        ] {
            let seen = one_request(spec.clone(), true, |_| {}, Some(cut));
            assert_eq!(seen.result, Err(IoError::PowerLoss), "cut at {cut:?}");
            assert_eq!(seen.landed, want, "cut at {cut:?} of {parts:?}");
        }
    }

    /// Every outcome of the fault model, on a read and on a write of the
    /// same sectors: the result, the counters it moves (on a fresh disk,
    /// the stats are the deltas), how its media span ends, and what reaches
    /// the media. A read and a write differ only where the landing does: a
    /// read counts `reads` / `sectors_read`, a write `writes` /
    /// `sectors_written`, and a failed write can leave a prefix behind.
    #[test]
    fn every_fault_outcome_is_the_same_on_a_read_and_a_write() {
        let instant = specs::instant(1 << 20);
        let stall = SimDuration::from_millis(25);
        let stalled = instant.clone().with_faults(FaultProfile {
            seed: 3,
            stall_rate: 1.0,
            stall,
            ..FaultProfile::default()
        });
        let transient = instant.clone().with_faults(FaultProfile::transient(4, 1.0));
        let none = |_: &Disk| {};
        let text = |text| Some(Payload::Text { text });
        for write in [false, true] {
            let dir = if write { "write" } else { "read" };
            // The counters a request moves, beside the per-case ones.
            let counted = |s: DiskStats, sectors: u64| {
                let mut s = s;
                if write {
                    s.writes += 1;
                    s.sectors_written += sectors;
                } else {
                    s.reads += 1;
                    s.sectors_read += sectors;
                }
                s
            };
            let media = |s: DiskStats| DiskStats { media_ops: 1, ..s };
            let base = DiskStats::default();
            let check = |case: &str, seen: &Seen, stats: DiskStats, span: Option<Payload>| {
                let mut want = stats;
                want.busy = seen.stats.busy;
                assert_eq!(seen.stats, want, "{dir} {case}: counters");
                assert!(
                    want.media_ops > 0 || seen.stats.busy.is_zero(),
                    "{dir} {case}: busy time without a finished media op"
                );
                assert_eq!(seen.span_end, span, "{dir} {case}: media span end");
            };

            let seen = one_request(instant.clone(), write, none, None);
            assert_eq!(
                (seen.result, seen.landed),
                (Ok(N), if write { N } else { 0 })
            );
            check("clean", &seen, media(counted(base, N)), Some(Payload::None));

            let seen = one_request(stalled.clone(), write, none, None);
            assert_eq!(seen.result, Ok(N), "{dir} stall");
            assert!(seen.took >= stall, "{dir}: the stall shows in latency");
            let want = DiskStats {
                stalls: 1,
                ..media(counted(base, N))
            };
            check("stall", &seen, want, Some(Payload::None));

            let seen = one_request(transient.clone(), write, none, None);
            assert_eq!((seen.result, seen.landed), (Err(IoError::Transient), 0));
            let want = DiskStats {
                transient_errors: 1,
                ..media(counted(base, 0))
            };
            check("transient", &seen, want, text("transient"));

            // A defect two sectors in: a write commits the two before it.
            let seen = one_request(instant.clone(), write, |d| d.mark_bad(AT + 2), None);
            let err = IoError::MediaError { sector: AT + 2 };
            assert_eq!(seen.result, Err(err), "{dir} defect");
            assert_eq!(seen.landed, if write { 2 } else { 0 }, "{dir} defect");
            let want = DiskStats {
                media_errors: 1,
                ..media(counted(base, 0))
            };
            check("defect", &seen, want, text("media_error"));

            let seen = one_request(instant.clone(), write, |d| d.set_sick(true), None);
            assert_eq!((seen.result, seen.landed), (Err(IoError::Transient), 0));
            let want = DiskStats {
                transient_errors: 1,
                ..media(counted(base, 0))
            };
            check("sick", &seen, want, text("transient"));

            // Power cut halfway through the media op. On `hdd_7200` that is
            // 122.8 µs into 60 µs of seek, 115.4 µs of rotational wait and
            // 70.2 µs of transfer: the head has not reached the first
            // sector, so nothing commits (the torn-write test above cuts
            // inside the transfer). Power-loss-protected flash finishes the
            // whole write.
            for spec in [specs::hdd_7200(1 << 30), specs::ssd_sata(1 << 30)] {
                let torn = spec.timing.torn_writes();
                let full = one_request(spec.clone(), write, none, None).took;
                let seen = one_request(spec, write, none, Some(full / 2));
                assert_eq!(seen.result, Err(IoError::PowerLoss), "{dir} cut");
                let landed = if write && !torn { N } else { 0 };
                assert_eq!(seen.landed, landed, "{dir} cut, torn writes {torn}");
                let want = DiskStats {
                    rejected_offline: 1,
                    ..counted(base, 0)
                };
                check("cut", &seen, want, text("power_loss"));
            }

            // Offline on arrival: refused, counted only as refused.
            let seen = one_request(instant.clone(), write, |d| d.power_cut(), None);
            assert_eq!((seen.result, seen.landed), (Err(IoError::PowerLoss), 0));
            let want = DiskStats {
                rejected_offline: 1,
                ..base
            };
            check("offline", &seen, want, None);
        }
        // A flush meets the same arrival check and moves no sectors.
        let flushed = DiskStats {
            flushes: 1,
            ..DiskStats::default()
        };
        // A case: its name, the fault set up, the result, the counters.
        type FlushCase = (&'static str, fn(&Disk), IoResult<()>, DiskStats);
        let cases: [FlushCase; 3] = [
            ("clean", none, Ok(()), flushed),
            (
                "sick",
                |d| d.set_sick(true),
                Err(IoError::Transient),
                DiskStats {
                    transient_errors: 1,
                    ..flushed
                },
            ),
            (
                "offline",
                |d| d.power_cut(),
                Err(IoError::PowerLoss),
                DiskStats {
                    rejected_offline: 1,
                    ..DiskStats::default()
                },
            ),
        ];
        for (case, setup, result, want) in cases {
            let (disk, _) = run_with_faults(instant.clone(), move |_ctx, disk| async move {
                setup(&disk);
                let got = disk.exec(IoReq::Flush).await.map(|_| ());
                assert_eq!(got, result, "flush {case}");
            });
            assert_eq!(disk.stats(), want, "flush {case}: counters");
        }
    }
}
