//! The guest-facing virtual log disk.
//!
//! [`RapiLogDevice`] implements [`BlockDevice`], so a database engine's log
//! partition can point at it unchanged. The semantics it exports are the
//! paper's:
//!
//! * `write` (FUA or not) returns once the bytes are in the dependable
//!   buffer — microseconds, independent of disk mechanics. The FUA flag is
//!   honoured *semantically*: acknowledged data is guaranteed to reach
//!   media even across OS crash and power cut, which is the property FUA
//!   exists to provide.
//! * `flush` returns immediately: there is never acknowledged-but-
//!   undependable data.
//! * `read` sees the newest acknowledged bytes: what the buffer holds on
//!   its way to the media, what it has kept of what landed — copied from
//!   the disk's media store, which holds exactly what that landing wrote,
//!   at the buffer's cost — and the physical disk for the rest. A rebooted
//!   guest reading its log back gets exactly what was acknowledged before
//!   the crash, mostly without waiting on the disk.
//! * `IoReq::Trim` is noted by the buffer and goes no further: until the
//!   guest rewrites them, trimmed sectors the buffer does not hold read as
//!   zeros, without a disk access.
//! * When the buffer is full, `write` waits: RapiLog degrades to the
//!   drain's (= the disk's sequential) throughput, never below the raw
//!   synchronous path.

use std::rc::Rc;

use rapilog_simcore::bytes::SectorBuf;
use rapilog_simcore::trace::{Layer, Payload, Tracer};
use rapilog_simcore::{SimCtx, SimDuration};
use rapilog_simdisk::{
    flatten, BlockDevice, Disk, Geometry, IoError, IoReq, IoResult, LocalBoxFuture, ReqToken,
    SECTOR_SIZE,
};

use crate::buffer::{DependableBuffer, PushError};
use crate::replicate::{ReplicationMode, Replicator};
use crate::{ModeState, RapiLogConfig};

/// The virtual block device backed by the dependable buffer.
#[derive(Clone)]
pub struct RapiLogDevice {
    ctx: SimCtx,
    /// `None` in write-through mode (residual window too small to buffer).
    buffer: Option<DependableBuffer>,
    /// The log disk the drain lands on: it serves the reads the buffer
    /// cannot answer, and its media store the sectors the buffer kept.
    backing: Disk,
    cfg: RapiLogConfig,
    /// Shared with the drain: while degraded, acks wait for media.
    mode: Rc<ModeState>,
    /// The replication tee: the shipper every admitted extent is offered
    /// to (and, in sync mode, whose standby ack the write waits for).
    /// `None` when shipping is off.
    repl: Option<Replicator>,
    geometry: Geometry,
    tracer: Rc<Tracer>,
}

impl RapiLogDevice {
    /// Builds the device over `buffer`, or without one a write-through
    /// device: every write forwards synchronously (FUA) to the backing
    /// disk, as when the residual-energy window is too small to honour the
    /// buffering guarantee.
    pub(crate) fn new(
        ctx: &SimCtx,
        buffer: Option<DependableBuffer>,
        backing: &Disk,
        cfg: RapiLogConfig,
        mode: &Rc<ModeState>,
        repl: Option<Replicator>,
    ) -> RapiLogDevice {
        let geometry = backing.geometry();
        RapiLogDevice {
            ctx: ctx.clone(),
            buffer,
            backing: backing.clone(),
            cfg,
            mode: Rc::clone(mode),
            repl,
            geometry,
            tracer: ctx.tracer(),
        }
    }

    /// True if the device is running in write-through (unbuffered) mode.
    pub fn is_write_through(&self) -> bool {
        self.buffer.is_none()
    }

    fn ack_cost(&self, bytes: usize) -> SimDuration {
        self.cfg.ack_base + self.cfg.ack_per_kib * (bytes as u64).div_ceil(1024)
    }

    /// The guest no longer needs these sectors: the buffer notes the range
    /// and answers reads of it with zeros from then on. It goes no further
    /// — the backing disk is never told, and a write-through instance, which
    /// has nowhere to note it, reads the media as before.
    async fn trim(&self, sector: u64, sectors: u64) -> IoResult<()> {
        self.geometry.check(sector, sectors)?;
        let Some(buffer) = &self.buffer else {
            return Ok(());
        };
        if buffer.is_frozen() {
            return Err(IoError::PowerLoss);
        }
        self.ctx.sleep(self.cfg.ack_base).await;
        buffer.trim(sector, sectors);
        Ok(())
    }

    /// The admission path of every write. `data` is *viewed* all the way
    /// into the buffer:
    /// chunking for a small buffer is O(1) sub-slicing, and no byte is
    /// copied between here and the media store.
    async fn write_inner(&self, sector: u64, data: SectorBuf) -> IoResult<()> {
        self.geometry.check_bytes(sector, data.len())?;
        let Some(buffer) = &self.buffer else {
            // Write-through: honest synchronous durability.
            let payload = Payload::Extent {
                seq: 0,
                sector,
                bytes: data.len() as u64,
            };
            self.tracer
                .begin(self.ctx.now(), Layer::Buffer, "write_through", payload);
            let res = self.backing.write_buf(sector, data, true).await;
            self.tracer
                .end(self.ctx.now(), Layer::Buffer, "write_through", payload);
            return res;
        };
        let bytes = Payload::Bytes {
            bytes: data.len() as u64,
        };
        self.tracer
            .begin(self.ctx.now(), Layer::Buffer, "ack", bytes);
        self.ctx.sleep(self.ack_cost(data.len())).await;
        self.tracer.end(self.ctx.now(), Layer::Buffer, "ack", bytes);
        // A write larger than the buffer — or than the supply's window
        // drains in one region — is split into extents that fit; each chunk
        // waits for drain space (backpressure), so a tiny buffer degrades to
        // streaming at disk speed instead of refusing large transfers.
        let chunk_sectors = (buffer.largest_extent() as usize / SECTOR_SIZE).clamp(1, 128);
        let mut offset = 0usize;
        let mut first = sector;
        // Some push always runs: a write of no sectors was refused above.
        let mut last_seq = 0;
        while offset < data.len() {
            let take = (data.len() - offset).min(chunk_sectors * SECTOR_SIZE);
            match buffer.push(first, data.slice(offset..offset + take)).await {
                Ok(seq) => {
                    last_seq = seq;
                    self.tracer.instant(
                        self.ctx.now(),
                        Layer::Buffer,
                        "admit",
                        Payload::Extent {
                            seq,
                            sector: first,
                            bytes: take as u64,
                        },
                    );
                    // The replication tee sits at the one point every
                    // write passes, in the same poll as the admission (no
                    // await since `push` returned): an admitted extent is
                    // already dependable locally, so it ships now and the
                    // drain's media write overlaps the round trip.
                    if let Some(repl) = &self.repl {
                        repl.offer(seq, first, data.slice(offset..offset + take));
                    }
                }
                // Frozen buffer means the power-fail warning has fired:
                // from the guest's perspective the machine is dying.
                Err(PushError::Frozen) => return Err(IoError::PowerLoss),
            }
            offset += take;
            first += (take / SECTOR_SIZE) as u64;
        }
        // Degraded mode: the log disk is misbehaving, so the early ack
        // would be a promise the drain might take arbitrarily long to
        // keep. Hold the acknowledgement until the drain has pushed this
        // write (same ordered pipeline, so ordering is free) all the way
        // to media.
        if self.mode.get() {
            let mark = Payload::Mark { value: last_seq };
            self.tracer
                .begin(self.ctx.now(), Layer::Buffer, "degraded_ack", mark);
            let committed = buffer.wait_completed(last_seq).await;
            self.tracer
                .end(self.ctx.now(), Layer::Buffer, "degraded_ack", mark);
            if !committed {
                return Err(IoError::PowerLoss);
            }
        }
        // Synchronous replication: the acknowledgement is a promise about
        // the *standby* too, so hold it until the standby has acked this
        // write's sequence — the standby's ack only; local durability is
        // the buffer's job. A halted shipper (primary power death) fails
        // the write instead — a dying box must not promise remote
        // durability it can no longer deliver.
        let sync_repl = self
            .repl
            .as_ref()
            .filter(|r| r.mode() == ReplicationMode::Sync);
        if let Some(repl) = sync_repl {
            let mark = Payload::Mark { value: last_seq };
            self.tracer
                .begin(self.ctx.now(), Layer::Net, "repl_wait", mark);
            let replicated = repl.wait_replicated(last_seq).await;
            self.tracer
                .end(self.ctx.now(), Layer::Net, "repl_wait", mark);
            if !replicated {
                return Err(IoError::PowerLoss);
            }
        }
        Ok(())
    }

    /// Sees the newest acknowledged bytes: what the buffer answers for
    /// first, the backing disk for the rest. `sectors` is the guest's, so
    /// the range is checked before the buffer is sized from it.
    async fn read_inner(&self, sector: u64, sectors: u64) -> IoResult<Option<SectorBuf>> {
        self.geometry.check(sector, sectors)?;
        let Some(buffer) = &self.buffer else {
            return self.backing.exec(IoReq::Read { sector, sectors }).await;
        };
        let mut buf = vec![0u8; sectors as usize * SECTOR_SIZE];
        // What the buffer answers for needs no disk access: acked bytes on
        // their way to it, and landed ones still kept (a rebooted guest's
        // log), which read as the media has them.
        self.backing.peek_media(sector, &mut buf);
        let disk = match buffer.read_held(sector, &mut buf) {
            None => {
                self.ctx.sleep(self.ack_cost(buf.len())).await;
                0
            }
            // One read, from the first to the last sector not held.
            Some((first, last)) => {
                let from = (first - sector) as usize * SECTOR_SIZE;
                let span = &mut buf[from..(last + 1 - sector) as usize * SECTOR_SIZE];
                self.backing.read(first, span).await?;
                // Sectors held inside the span are as new as the disk's
                // or newer, whatever was admitted or landed meanwhile.
                buffer.read_held(first, span);
                span.len() as u64
            }
        };
        let memory = buf.len() as u64 - disk;
        buffer.note_read(memory, disk);
        let served = Payload::Read {
            sector,
            memory,
            disk,
        };
        self.tracer
            .instant(self.ctx.now(), Layer::Buffer, "read", served);
        Ok(Some(SectorBuf::from_vec(buf)))
    }

    async fn flush_inner(&self) -> IoResult<()> {
        let Some(buffer) = &self.buffer else {
            return self.backing.flush().await;
        };
        // Nothing to do: every acknowledged write is already
        // dependable. This is the entire point.
        if buffer.is_frozen() {
            return Err(IoError::PowerLoss);
        }
        self.ctx.sleep(self.cfg.ack_base).await;
        Ok(())
    }
}

impl BlockDevice for RapiLogDevice {
    fn geometry(&self) -> Geometry {
        self.geometry
    }

    fn exec(&self, req: IoReq) -> LocalBoxFuture<'_, IoResult<Option<SectorBuf>>> {
        Box::pin(async move {
            match req {
                IoReq::Read { sector, sectors } => self.read_inner(sector, sectors).await,
                // FUA or not: acknowledged is dependable.
                IoReq::Write {
                    sector,
                    mut segments,
                    ..
                } => {
                    // A single segment rides zero-copy into the admission
                    // path; a scatter list is flattened once.
                    flatten(&mut segments);
                    let data = segments.pop().ok_or(IoError::Misaligned { len: 0 })?;
                    self.write_inner(sector, data).await.map(|()| None)
                }
                IoReq::Flush => self.flush_inner().await.map(|()| None),
                IoReq::Trim { sector, sectors } => self.trim(sector, sectors).await.map(|()| None),
            }
        })
    }

    fn submit(&self, req: IoReq) -> ReqToken {
        ReqToken::spawn(&self.ctx, self.clone(), req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CapacitySpec, RapiLog};
    use rapilog_microvisor::{Hypervisor, Trust};
    use rapilog_simcore::{Sim, SimTime};
    use rapilog_simdisk::{specs, Disk, FaultProfile};
    use std::cell::Cell as StdCell;

    fn setup(sim: &mut Sim, capacity: CapacitySpec) -> (RapiLog, RapiLogDevice, Disk) {
        let ctx = sim.ctx();
        let hv = Hypervisor::new(&ctx);
        let cell = hv.create_cell("rapilog", Trust::Trusted);
        let disk = Disk::new(&ctx, specs::hdd_7200(1 << 30));
        let rl = RapiLog::builder(&ctx)
            .cell(&cell)
            .disk(disk.clone())
            .capacity(capacity)
            .build();
        let dev = rl.device();
        std::mem::forget(cell);
        (rl, dev, disk)
    }

    #[test]
    fn sync_write_acks_in_microseconds_then_reaches_media() {
        let mut sim = Sim::new(3);
        let (rl, dev, disk) = setup(&mut sim, CapacitySpec::Fixed(16 << 20));
        let ack_ns = Rc::new(StdCell::new(0u64));
        let a2 = Rc::clone(&ack_ns);
        let ctx = sim.ctx();
        sim.spawn(async move {
            let t0 = ctx.now();
            dev.write(0, &vec![0x5A; 8 * SECTOR_SIZE], true)
                .await
                .unwrap();
            a2.set((ctx.now() - t0).as_nanos());
        });
        sim.run_until(SimTime::from_secs(1));
        assert!(
            ack_ns.get() < 50_000,
            "ack took {} ns, should be microseconds",
            ack_ns.get()
        );
        // The drain has long since committed it.
        assert_eq!(rl.occupancy(), 0);
        let mut media = vec![0u8; SECTOR_SIZE];
        disk.peek_media(0, &mut media);
        assert_eq!(media, vec![0x5A; SECTOR_SIZE]);
        assert!(rl.audit_report().guarantee_held());
    }

    #[test]
    fn flush_is_instant_and_reads_see_buffered_tail() {
        let mut sim = Sim::new(3);
        let (_rl, dev, _disk) = setup(&mut sim, CapacitySpec::Fixed(16 << 20));
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        let ctx = sim.ctx();
        sim.spawn(async move {
            dev.write(10, &vec![1; SECTOR_SIZE], false).await.unwrap();
            let t0 = ctx.now();
            dev.flush().await.unwrap();
            assert!((ctx.now() - t0).as_micros() < 100, "flush must not wait");
            // Immediately read back: served from the overlay even though
            // the drain has not finished.
            let mut buf = vec![0u8; SECTOR_SIZE];
            dev.read(10, &mut buf).await.unwrap();
            assert_eq!(buf, vec![1; SECTOR_SIZE]);
            d2.set(true);
        });
        sim.run_until(SimTime::from_secs(1));
        assert!(done.get());
    }

    #[test]
    fn read_mixes_media_and_overlay() {
        let mut sim = Sim::new(3);
        let (_rl, dev, disk) = setup(&mut sim, CapacitySpec::Fixed(16 << 20));
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        sim.spawn(async move {
            // Old data directly on media.
            disk.poke_media(20, &vec![7u8; SECTOR_SIZE]);
            disk.poke_media(21, &vec![8u8; SECTOR_SIZE]);
            // Newer data for sector 21 sits in the buffer.
            dev.write(21, &vec![9u8; SECTOR_SIZE], true).await.unwrap();
            let mut buf = vec![0u8; 2 * SECTOR_SIZE];
            dev.read(20, &mut buf).await.unwrap();
            assert_eq!(&buf[..SECTOR_SIZE], &vec![7u8; SECTOR_SIZE][..]);
            assert_eq!(&buf[SECTOR_SIZE..], &vec![9u8; SECTOR_SIZE][..]);
            d2.set(true);
        });
        sim.run_until(SimTime::from_secs(1));
        assert!(done.get());
    }

    /// Writes `written` (first sector, count) through the device over media
    /// that holds something else everywhere, lets it all land, rewrites the
    /// first sector of each range, then reads sectors 100..116 in one
    /// request. The backing disk must be asked for `span` (first, last) and
    /// nothing else, and every sector must read as the newest bytes
    /// acknowledged for it, else the media's.
    fn read_with_holes(written: &'static [(u64, u64)], span: (u64, u64)) {
        let mut sim = Sim::new(3);
        sim.ctx().tracer().set_enabled(true);
        let (rl, dev, disk) = setup(&mut sim, CapacitySpec::Fixed(16 << 20));
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        let rl2 = rl.clone();
        sim.spawn(async move {
            let media = |s: u64| vec![s as u8; SECTOR_SIZE];
            let acked = |s: u64| vec![0x80 | s as u8; SECTOR_SIZE];
            let rewritten = |s: u64| vec![0x40 | s as u8; SECTOR_SIZE];
            for s in 100..116 {
                disk.poke_media(s, &media(s));
            }
            for &(first, count) in written {
                let data: Vec<u8> = (first..first + count).flat_map(acked).collect();
                dev.write(first, &data, true).await.unwrap();
            }
            rl2.quiesce().await;
            // The media under a dirty sector is not what a read returns:
            // scribble on each to prove they are the buffer's, before and
            // after the disk has answered. Kept sectors read as the media.
            for &(first, _) in written {
                dev.write(first, &rewritten(first), true).await.unwrap();
                disk.poke_media(first, &[0xEE; SECTOR_SIZE]);
            }
            let held = |s: u64| written.iter().any(|&(f, n)| (f..f + n).contains(&s));
            let dirty = |s: u64| written.iter().any(|&(f, _)| f == s);
            let before = disk.stats();
            let mut buf = vec![0u8; 16 * SECTOR_SIZE];
            dev.read(100, &mut buf).await.unwrap();
            let after = disk.stats();
            assert_eq!(after.reads - before.reads, 1, "one backing read");
            assert_eq!(
                after.sectors_read - before.sectors_read,
                span.1 + 1 - span.0
            );
            for (s, got) in (100..116).zip(buf.chunks_exact(SECTOR_SIZE)) {
                let want = match (dirty(s), held(s)) {
                    (true, _) => rewritten(s),
                    (false, true) => acked(s),
                    (false, false) => media(s),
                };
                assert_eq!(got, want, "sector {s}");
            }
            d2.set(true);
        });
        sim.run_until(SimTime::from_secs(1));
        assert!(done.get());
        let disk_bytes = (span.1 + 1 - span.0) * SECTOR_SIZE as u64;
        let stats = rl.snapshot().buffer;
        assert_eq!(stats.read_disk_bytes, disk_bytes);
        assert_eq!(
            stats.read_memory_bytes,
            16 * SECTOR_SIZE as u64 - disk_bytes
        );
        let reads: Vec<Payload> = sim
            .ctx()
            .tracer()
            .snapshot()
            .events
            .iter()
            .filter(|ev| ev.layer == Layer::Buffer && ev.name == "read")
            .map(|ev| ev.payload)
            .collect();
        let (memory, disk) = (stats.read_memory_bytes, stats.read_disk_bytes);
        let sector = 100;
        assert_eq!(
            reads,
            [Payload::Read {
                sector,
                memory,
                disk
            }]
        );
    }

    #[test]
    fn a_hole_at_the_front_is_read_alone() {
        read_with_holes(&[(104, 12)], (100, 103));
    }

    #[test]
    fn holes_in_the_middle_are_one_read_from_the_first_to_the_last() {
        read_with_holes(&[(100, 2), (103, 7), (111, 5)], (102, 110));
    }

    #[test]
    fn a_hole_at_the_end_is_read_alone() {
        read_with_holes(&[(100, 9)], (109, 115));
    }

    #[test]
    fn a_landed_range_is_read_back_without_the_disk_at_the_cost_of_an_ack() {
        let mut sim = Sim::new(3);
        let (rl, dev, disk) = setup(&mut sim, CapacitySpec::Fixed(16 << 20));
        let ctx = sim.ctx();
        let took = Rc::new(StdCell::new(None));
        let t2 = Rc::clone(&took);
        let rl2 = rl.clone();
        sim.spawn(async move {
            let data = vec![0x42u8; 64 * SECTOR_SIZE];
            dev.write(200, &data, true).await.unwrap();
            let t0 = ctx.now();
            rl2.quiesce().await;
            assert!((ctx.now() - t0).as_micros() > 100, "the bytes did land");
            let reads = disk.stats().reads;
            let t0 = ctx.now();
            let mut buf = vec![0u8; 64 * SECTOR_SIZE];
            dev.read(200, &mut buf).await.unwrap();
            assert_eq!(buf, data);
            assert_eq!(disk.stats().reads, reads, "no backing read");
            t2.set(Some(ctx.now() - t0));
        });
        sim.run_until(SimTime::from_secs(1));
        // 2 us + 32 KiB at 250 ns per KiB: what acknowledging them cost.
        assert_eq!(took.get(), Some(SimDuration::from_micros(10)));
        let snap = rl.snapshot();
        assert_eq!((snap.occupancy, snap.buffer.kept_bytes), (0, 32 << 10));
        assert_eq!(snap.buffer.read_memory_bytes, 32 << 10);
        assert_eq!(snap.buffer.read_disk_bytes, 0);
    }

    /// The one landing whose bytes the buffer keeps: the disk may have
    /// corrupted a sector of it, so a read of it returns what was acked —
    /// from memory, as every kept read — not what the media says.
    #[test]
    fn a_corrupted_landing_reads_back_as_acked_from_memory() {
        let mut sim = Sim::new(3);
        let ctx = sim.ctx();
        let hv = Hypervisor::new(&ctx);
        let cell = hv.create_cell("rapilog", Trust::Trusted);
        let every_write_corrupts = FaultProfile {
            seed: 5,
            corruption_rate: 1.0,
            ..FaultProfile::default()
        };
        let disk = Disk::new(
            &ctx,
            specs::hdd_7200(1 << 30).with_faults(every_write_corrupts),
        );
        let rl = RapiLog::builder(&ctx)
            .cell(&cell)
            .disk(disk.clone())
            .capacity(CapacitySpec::Fixed(16 << 20))
            .build();
        let (dev, rl2) = (rl.device(), rl.clone());
        std::mem::forget(cell);
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        sim.spawn(async move {
            let acked = vec![0x42u8; SECTOR_SIZE];
            dev.write(200, &acked, true).await.unwrap();
            rl2.quiesce().await;
            let mut media = vec![0u8; SECTOR_SIZE];
            disk.peek_media(200, &mut media);
            assert_ne!(media, acked, "the landing was corrupted");
            let reads = disk.stats().reads;
            let mut buf = vec![0u8; SECTOR_SIZE];
            dev.read(200, &mut buf).await.unwrap();
            assert_eq!(buf, acked);
            assert_eq!(disk.stats().reads, reads, "no backing read");
            d2.set(true);
        });
        sim.run_until(SimTime::from_secs(1));
        assert!(done.get());
        let stats = rl.snapshot().buffer;
        assert_eq!((stats.read_memory_bytes, stats.read_disk_bytes), (512, 0));
    }

    #[test]
    fn a_read_from_the_disk_sees_a_write_admitted_meanwhile() {
        let mut sim = Sim::new(3);
        let (rl, dev, disk) = setup(&mut sim, CapacitySpec::Fixed(16 << 20));
        let ctx = sim.ctx();
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        sim.spawn(async move {
            let media = |s: u64| [s as u8; SECTOR_SIZE];
            for s in 200..204 {
                disk.poke_media(s, &media(s));
            }
            let mut buf = vec![0u8; 4 * SECTOR_SIZE];
            dev.read(200, &mut buf).await.unwrap();
            for (s, got) in (200..204).zip(buf.chunks_exact(SECTOR_SIZE)) {
                assert_eq!(got, media(s), "sector {s}");
            }
            // A write admitted while the read is on the disk is newer than
            // what the disk read.
            let (c2, d2v) = (ctx.clone(), dev.clone());
            let writer = ctx.spawn(async move {
                c2.sleep(SimDuration::from_micros(50)).await;
                d2v.write(202, &[0x77; SECTOR_SIZE], true).await.unwrap();
            });
            let t0 = ctx.now();
            dev.read(200, &mut buf).await.unwrap();
            assert!(writer.is_finished(), "the write was admitted meanwhile");
            assert!(ctx.now() - t0 > SimDuration::from_micros(50));
            for (s, got) in (200..204).zip(buf.chunks_exact(SECTOR_SIZE)) {
                let want = if s == 202 {
                    [0x77; SECTOR_SIZE]
                } else {
                    media(s)
                };
                assert_eq!(got, want, "sector {s}");
            }
            d2.set(true);
        });
        sim.run_until(SimTime::from_secs(1));
        assert!(done.get());
        let stats = rl.snapshot().buffer;
        assert_eq!(stats.read_disk_bytes, 8 * SECTOR_SIZE as u64);
        assert_eq!(stats.read_memory_bytes, 0);
    }

    #[test]
    fn trimmed_sectors_read_as_zeros_without_the_disk_at_the_cost_of_an_ack() {
        let mut sim = Sim::new(3);
        let (rl, dev, disk) = setup(&mut sim, CapacitySpec::Fixed(16 << 20));
        let ctx = sim.ctx();
        let rl2 = rl.clone();
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        sim.spawn(async move {
            // Whatever the media holds there.
            for s in 300..364 {
                disk.poke_media(s, &[0xEE; SECTOR_SIZE]);
            }
            let trim = |sector, sectors| {
                let token = dev.submit(IoReq::Trim { sector, sectors });
                dev.wait(token)
            };
            let t0 = ctx.now();
            assert_eq!(trim(300, 64).await, Ok(None));
            assert_eq!(ctx.now() - t0, SimDuration::from_micros(2), "ack_base");
            dev.write(310, &vec![7u8; 2 * SECTOR_SIZE], true)
                .await
                .unwrap();
            rl2.quiesce().await;
            let (before, t0) = (disk.stats(), ctx.now());
            let mut buf = vec![0x55u8; 64 * SECTOR_SIZE];
            dev.read(300, &mut buf).await.unwrap();
            // 2 us + 32 KiB at 250 ns per KiB, like any 64 held sectors.
            assert_eq!(ctx.now() - t0, SimDuration::from_micros(10));
            let after = disk.stats();
            assert_eq!(after.reads, before.reads, "no backing read");
            for (s, got) in (300..364).zip(buf.chunks_exact(SECTOR_SIZE)) {
                let want = if (310..312).contains(&s) { 7 } else { 0 };
                assert_eq!(got, [want; SECTOR_SIZE], "sector {s}");
            }
            // The disk was told nothing, and its media is what it was.
            assert_eq!(after.queued_requests, before.queued_requests);
            let mut media = [0u8; SECTOR_SIZE];
            disk.peek_media(300, &mut media);
            assert_eq!(media, [0xEE; SECTOR_SIZE]);
            // Out of range is refused; on a frozen buffer a trim answers
            // what a flush does.
            let sectors = dev.geometry().sectors;
            assert_eq!(
                trim(sectors - 1, 2).await,
                Err(IoError::OutOfRange {
                    sector: sectors - 1,
                    count: 2
                })
            );
            dev.buffer.as_ref().expect("buffered").freeze();
            assert_eq!(trim(300, 1).await, Err(IoError::PowerLoss));
            assert_eq!(dev.flush().await, Err(IoError::PowerLoss));
            d2.set(true);
        });
        sim.run_until(SimTime::from_secs(1));
        assert!(done.get());
        let stats = rl.snapshot().buffer;
        assert_eq!(stats.read_memory_bytes, 32 << 10);
        assert_eq!(stats.read_disk_bytes, 0);
    }

    #[test]
    fn over_a_disk_that_does_not_rotate_landed_sectors_are_not_kept() {
        let mut sim = Sim::new(3);
        let ctx = sim.ctx();
        let hv = Hypervisor::new(&ctx);
        let cell = hv.create_cell("rapilog", Trust::Trusted);
        let disk = Disk::new(&ctx, specs::ssd_sata(1 << 30));
        let rl = RapiLog::builder(&ctx)
            .cell(&cell)
            .disk(disk.clone())
            .build();
        let (dev, rl2) = (rl.device(), rl.clone());
        std::mem::forget(cell);
        sim.spawn(async move {
            let data = vec![0x42u8; 8 * SECTOR_SIZE];
            dev.write(200, &data, true).await.unwrap();
            rl2.quiesce().await;
            let mut buf = vec![0u8; 8 * SECTOR_SIZE];
            dev.read(200, &mut buf).await.unwrap();
            assert_eq!(buf, data);
            assert_eq!(disk.stats().sectors_read, 8, "from the disk");
        });
        sim.run_until(SimTime::from_secs(1));
        let stats = rl.snapshot().buffer;
        assert_eq!((stats.kept_bytes, stats.read_memory_bytes), (0, 0));
        assert_eq!(stats.read_disk_bytes, 8 * SECTOR_SIZE as u64);
    }

    #[test]
    fn full_buffer_degrades_to_disk_speed_not_below() {
        let mut sim = Sim::new(3);
        // Tiny buffer: 4 sectors.
        let (rl, dev, _disk) = setup(&mut sim, CapacitySpec::Fixed(4 * SECTOR_SIZE as u64));
        let ctx = sim.ctx();
        let finished = Rc::new(StdCell::new(0u64));
        let f2 = Rc::clone(&finished);
        sim.spawn(async move {
            // Stream far more than the buffer holds; each write beyond the
            // cap must wait for the drain.
            for i in 0..64u64 {
                dev.write(i, &vec![i as u8; SECTOR_SIZE], true)
                    .await
                    .unwrap();
            }
            f2.set(ctx.now().as_nanos());
        });
        sim.run_until(SimTime::from_secs(10));
        let stats = rl.stats();
        assert!(
            stats.backpressure_events > 0,
            "the writer must have hit backpressure"
        );
        assert!(stats.peak_occupancy <= 4 * SECTOR_SIZE as u64, "cap held");
        assert!(
            finished.get() > 0,
            "stream completed despite the tiny buffer"
        );
        assert!(rl.audit_report().guarantee_held());
    }

    #[test]
    fn oversized_write_is_chunked_through_a_tiny_buffer() {
        let mut sim = Sim::new(3);
        // Buffer of 2 sectors; write 64 sectors through it.
        let (rl, dev, disk) = setup(&mut sim, CapacitySpec::Fixed(2 * SECTOR_SIZE as u64));
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        sim.spawn(async move {
            let data: Vec<u8> = (0..64 * SECTOR_SIZE).map(|i| (i % 251) as u8).collect();
            dev.write(100, &data, true).await.unwrap();
            d2.set(true);
        });
        sim.run_until(SimTime::from_secs(30));
        assert!(done.get(), "large write completed via chunking");
        let stats = rl.stats();
        assert!(stats.accepted_writes >= 32, "split into many extents");
        assert!(stats.peak_occupancy <= 2 * SECTOR_SIZE as u64, "cap held");
        // Contents arrived intact and in order.
        let mut media = vec![0u8; 64 * SECTOR_SIZE];
        for i in 0..64u64 {
            disk.peek_media(
                100 + i,
                &mut media[i as usize * SECTOR_SIZE..][..SECTOR_SIZE],
            );
        }
        let expect: Vec<u8> = (0..64 * SECTOR_SIZE).map(|i| (i % 251) as u8).collect();
        assert_eq!(media, expect);
    }

    #[test]
    fn bounds_are_checked() {
        let mut sim = Sim::new(3);
        let (_rl, dev, _disk) = setup(&mut sim, CapacitySpec::Fixed(1 << 20));
        sim.spawn(async move {
            let sectors = dev.geometry().sectors;
            assert_eq!(
                dev.write(sectors, &vec![0; SECTOR_SIZE], true).await,
                Err(IoError::OutOfRange {
                    sector: sectors,
                    count: 1
                })
            );
            assert_eq!(
                dev.write(0, &[0; 100], true).await,
                Err(IoError::Misaligned { len: 100 })
            );
        });
        sim.run_until(SimTime::from_secs(1));
    }
}

#[cfg(test)]
mod write_through_tests {
    use super::*;
    use crate::{CapacitySpec, RapiLog};
    use rapilog_microvisor::{Hypervisor, Trust};
    use rapilog_simcore::{Sim, SimDuration, SimTime};
    use rapilog_simdisk::{specs, Disk};
    use rapilog_simpower::{PowerSupply, SupplySpec};
    use std::cell::Cell as StdCell;
    use std::rc::Rc;

    #[test]
    fn hopeless_supply_falls_back_to_write_through() {
        let mut sim = Sim::new(19);
        let ctx = sim.ctx();
        let hv = Hypervisor::new(&ctx);
        let cell = hv.create_cell("rapilog", Trust::Trusted);
        let disk = Disk::new(&ctx, specs::hdd_7200(1 << 30));
        // A brownout supply: 5 ms window, below one positioning.
        let psu = PowerSupply::new(
            &ctx,
            SupplySpec {
                name: "brownout".to_string(),
                residual_joules: 1.0,
                drain_draw_watts: 200.0,
                warning_latency: SimDuration::from_millis(1),
            },
        );
        let rl = RapiLog::builder(&ctx)
            .cell(&cell)
            .disk(disk.clone())
            .supply(&psu)
            .capacity(CapacitySpec::FromSupply)
            .build();
        let dev = rl.device();
        assert!(dev.is_write_through());
        assert_eq!(rl.capacity(), 0);
        std::mem::forget(cell);
        let wrote_slow = Rc::new(StdCell::new(false));
        let w2 = Rc::clone(&wrote_slow);
        let c2 = ctx.clone();
        sim.spawn(async move {
            let t0 = c2.now();
            dev.write(0, &vec![3u8; SECTOR_SIZE], true).await.unwrap();
            // Synchronous: pays real disk time, not buffer-ack time.
            w2.set((c2.now() - t0) > SimDuration::from_micros(50));
            let mut buf = vec![0u8; SECTOR_SIZE];
            dev.read(0, &mut buf).await.unwrap();
            assert_eq!(buf, vec![3u8; SECTOR_SIZE]);
            dev.flush().await.unwrap();
            // Nowhere to note a trim: accepted, and the media reads as it did.
            let token = dev.submit(IoReq::Trim {
                sector: 0,
                sectors: 1,
            });
            assert_eq!(dev.wait(token).await, Ok(None));
            dev.read(0, &mut buf).await.unwrap();
            assert_eq!(buf, vec![3u8; SECTOR_SIZE]);
        });
        sim.run_until(SimTime::from_secs(1));
        assert!(wrote_slow.get(), "write-through pays the disk's price");
        // Nothing buffered: nothing to lose at the (instant) power death.
        assert_eq!(rl.occupancy(), 0);
    }
}
