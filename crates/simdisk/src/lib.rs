#![warn(missing_docs)]

//! Simulated block devices with honest timing and power-loss semantics.
//!
//! This crate is the stable-storage substrate of the RapiLog reproduction.
//! The paper's entire argument hinges on two physical facts that this crate
//! models faithfully:
//!
//! 1. **Synchronous small writes to a rotating disk cost about one platter
//!    rotation each.** A database forcing its log at every commit therefore
//!    commits at ~`rpm/60` transactions per second per stream, even though
//!    the writes are sequential — by the time the next log record is ready,
//!    the head has just passed the target sector. The HDD model tracks the
//!    angular position of the platter continuously, so this effect *emerges*
//!    rather than being hard-coded.
//! 2. **Large sequential writes run at full media bandwidth**, because the
//!    rotational miss is paid once per multi-track transfer. This is what
//!    lets RapiLog's batched asynchronous drain keep up with a log stream
//!    that the synchronous path cannot sustain.
//!
//! Devices store **real bytes** (sparse, in memory), so crash-recovery code
//! upstream is genuinely exercised: after a simulated power cut, exactly the
//! sectors that had reached the media are readable and an in-flight
//! multi-sector write may be torn. Every modelled device is write-through:
//! a completed write is on the media.
//!
//! Every device, simulated or virtual, is a [`BlockDevice`]: it handles a
//! request in one method, [`BlockDevice::exec`], in the caller's task. The
//! queued form runs that in a task of its own: [`BlockDevice::submit`]
//! returns the task as a [`ReqToken`], [`BlockDevice::wait`] awaits it, and
//! dropping the token gives the request up.
//!
//! # Examples
//!
//! ```
//! use rapilog_simcore::Sim;
//! use rapilog_simdisk::{specs, BlockDevice, Disk};
//!
//! let mut sim = Sim::new(1);
//! let ctx = sim.ctx();
//! let disk = Disk::new(&ctx, specs::hdd_7200(64 * 1024 * 1024));
//! sim.spawn(async move {
//!     let data = vec![0xAB; 512];
//!     disk.write(0, &data, true).await.unwrap();
//!     let mut buf = vec![0; 512];
//!     disk.read(0, &mut buf).await.unwrap();
//!     assert_eq!(buf, data);
//! });
//! sim.run();
//! ```

pub mod disk;
pub mod spec;
pub mod store;
pub mod timing;

pub use disk::{Disk, DiskStats};
pub use rapilog_simcore::bytes::{SectorBuf, SectorPool};
pub use spec::{specs, DiskSpec, FaultProfile, TimingSpec};
pub use store::SectorStore;
pub use timing::ServiceParts;

use std::fmt;
use std::future::Future;
use std::pin::Pin;

use rapilog_simcore::{JoinHandle, SimCtx};

/// Sector size used by every device in the suite (bytes).
pub const SECTOR_SIZE: usize = 512;

/// Boxed single-threaded future, used so [`BlockDevice`] stays object-safe.
pub type LocalBoxFuture<'a, T> = Pin<Box<dyn Future<Output = T> + 'a>>;

/// Errors returned by block-device operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoError {
    /// Access past the end of the device.
    OutOfRange {
        /// First sector of the offending access.
        sector: u64,
        /// Sectors in the access.
        count: u64,
    },
    /// Buffer length is not a positive multiple of the sector size.
    Misaligned {
        /// Offending length in bytes.
        len: usize,
    },
    /// The device has lost power; the request did not complete.
    PowerLoss,
    /// The command failed transiently (bus glitch, command timeout, drive
    /// firmware hiccup). The same request may well succeed if retried —
    /// resilient layers above are expected to do exactly that.
    Transient,
    /// A persistent media defect: the addressed sector is unreadable /
    /// unwritable until it is remapped to a spare ([`Disk::remap`]).
    MediaError {
        /// The defective sector.
        sector: u64,
    },
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::OutOfRange { sector, count } => {
                write!(f, "access out of range: {count} sectors at {sector}")
            }
            IoError::Misaligned { len } => {
                write!(f, "buffer not sector-aligned: {len} bytes")
            }
            IoError::PowerLoss => write!(f, "device lost power"),
            IoError::Transient => write!(f, "transient command failure"),
            IoError::MediaError { sector } => {
                write!(f, "unrecoverable media error at sector {sector}")
            }
        }
    }
}

impl std::error::Error for IoError {}

/// Result alias for device operations.
pub type IoResult<T> = Result<T, IoError>;

/// Static description of a device's addressable space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Bytes per sector.
    pub sector_size: usize,
    /// Total addressable sectors.
    pub sectors: u64,
    /// How many requests the device services concurrently: the flash
    /// channel count for SSDs, 1 for a single-actuator rotating disk.
    /// Submitting more than this never fails — excess requests queue
    /// inside the device — but only `queue_depth` make media progress
    /// at once.
    pub queue_depth: u32,
}

impl Geometry {
    /// Checks an access of `count` sectors at `sector` against the device:
    /// none at all is [`IoError::Misaligned`]` { len: 0 }`, past the end is
    /// [`IoError::OutOfRange`]. `count` comes from the guest, so this runs
    /// before anything is sized from it.
    pub fn check(&self, sector: u64, count: u64) -> IoResult<()> {
        if count == 0 {
            return Err(IoError::Misaligned { len: 0 });
        }
        if sector
            .checked_add(count)
            .is_none_or(|end| end > self.sectors)
        {
            return Err(IoError::OutOfRange { sector, count });
        }
        Ok(())
    }

    /// Checks a transfer of `len` bytes at `sector`: whole sectors, at
    /// least one, else [`IoError::Misaligned`], then [`check`](Self::check)
    /// on them. Returns the sector count.
    pub fn check_bytes(&self, sector: u64, len: usize) -> IoResult<u64> {
        if len == 0 || !len.is_multiple_of(self.sector_size) {
            return Err(IoError::Misaligned { len });
        }
        let count = (len / self.sector_size) as u64;
        self.check(sector, count).map(|()| count)
    }
}

/// One request to a [`BlockDevice`].
///
/// Carried out inline by [`BlockDevice::exec`], or queued with
/// [`BlockDevice::submit`], in which case [`BlockDevice::wait`] on its
/// token yields the result (and, for reads, the data).
#[derive(Debug, Clone)]
pub enum IoReq {
    /// Read `sectors` sectors starting at `sector`.
    Read {
        /// First sector of the access.
        sector: u64,
        /// Number of sectors to read.
        sectors: u64,
    },
    /// Write `segments` laid out back to back starting at `sector`.
    Write {
        /// First sector of the access.
        sector: u64,
        /// Byte segments, each a multiple of the sector size.
        segments: Vec<SectorBuf>,
        /// Force unit access: data is on stable media at completion. No
        /// modelled device reads it: every one is write-through, so every
        /// completed write is on stable media (or, behind RapiLog, in the
        /// trusted buffer).
        fua: bool,
    },
    /// Barrier: completes once every previously acknowledged write is on
    /// stable media.
    Flush,
    /// Advisory: the submitter no longer needs `sectors` sectors starting
    /// at `sector`; until it rewrites them they may read as zeros or as
    /// their last contents. Never a durability event, and nothing a device
    /// has to remember: a device that does nothing with it is correct.
    Trim {
        /// First sector no longer needed.
        sector: u64,
        /// Number of sectors no longer needed.
        sectors: u64,
    },
}

/// An owned handle to a submitted request: the task that carries it to
/// completion.
///
/// [`BlockDevice::submit`] returns one and [`BlockDevice::wait`] consumes it
/// for the request's result. Dropping a token gives the request up: it still
/// runs on the device, and its result (a read's payload) is freed when it
/// finishes. A token is not `Copy`, so it is claimed at most once; waiting
/// on one twice does not compile:
///
/// ```compile_fail,E0382
/// use rapilog_simcore::Sim;
/// use rapilog_simdisk::{specs, BlockDevice, Disk, IoReq};
///
/// let mut sim = Sim::new(1);
/// let disk = Disk::new(&sim.ctx(), specs::instant(1 << 20));
/// sim.spawn(async move {
///     let token = disk.submit(IoReq::Flush);
///     let _ = disk.wait(token).await;
///     let _ = disk.wait(token).await;
/// });
/// ```
pub struct ReqToken(JoinHandle<IoResult<Option<SectorBuf>>>);

impl ReqToken {
    /// The queued form of `dev.exec(req)`: carries the request to
    /// completion in a task of its own and hands out that task. The task
    /// is in the root domain, so a request outlives the task that submitted
    /// it, as one a device has accepted does. `dev` is the device's own
    /// (cheap) clone of itself, which the task keeps alive.
    pub fn spawn<D>(ctx: &SimCtx, dev: D, req: IoReq) -> ReqToken
    where
        D: BlockDevice + 'static,
    {
        ReqToken(ctx.spawn(async move { dev.exec(req).await }))
    }
}

/// An asynchronous, sector-addressed block device.
///
/// Implemented by the raw simulated [`Disk`] and — crucially — by the
/// RapiLog virtual log disk, which is how an unmodified database engine is
/// pointed at either one. All methods are object-safe (they return boxed
/// futures) so engines can hold `Rc<dyn BlockDevice>`.
///
/// # What a device implements
///
/// One method carries the device's logic: [`exec`](BlockDevice::exec)
/// takes an [`IoReq`] and carries it to completion in the caller's own
/// task. Everything else is derived from it, so a request kind is handled
/// in exactly one place per device:
///
/// * **The queued form.** [`submit`](BlockDevice::submit) runs `exec` in a
///   task of its own and returns that task as a [`ReqToken`]
///   ([`ReqToken::spawn`]: a device's `submit` is that one line, unless it
///   meters its own queue as the [`Disk`] does); [`wait`](BlockDevice::wait)
///   awaits the task. Dropping a token gives the request up.
///   Multiple requests may be outstanding at once — up to
///   [`Geometry::queue_depth`] of them make media progress concurrently —
///   which is what lets the RapiLog drain keep several flash channels busy.
///   Completion order is *not* submission order; callers that need ordering
///   express it by waiting before submitting the dependent request.
/// * **The one-at-a-time form.** [`read`](BlockDevice::read),
///   [`write`](BlockDevice::write), [`flush`](BlockDevice::flush) and
///   [`write_buf`](BlockDevice::write_buf) are provided methods that build
///   the request and `exec` it inline — no task, no token. No device
///   overrides them (`scripts/design_gate.sh` fails one that does).
///
/// A wrapper (the retry layer, the virtio ring's backend) calls its inner
/// device's `exec`, so a request crosses the whole stack in the task that
/// issued it, or in the one task its `submit` spawned, and only the device
/// it was submitted to sees it queued.
///
/// Every device answers a malformed request the same way: a write with no
/// bytes (or no segments) and a zero-sector read are
/// [`IoError::Misaligned`]` { len: 0 }`, and a range is checked against the
/// [`Geometry`] before anything is sized from it — `sectors` comes from
/// the guest.
pub trait BlockDevice {
    /// The device's geometry.
    fn geometry(&self) -> Geometry;

    /// Carries `req` to completion in the caller's task; a completed read
    /// yields `Some(data)`. The one place a device handles a request.
    fn exec(&self, req: IoReq) -> LocalBoxFuture<'_, IoResult<Option<SectorBuf>>>;

    /// Starts `req` in a task of its own and returns that task. Never
    /// blocks: admission control beyond [`Geometry::queue_depth`] happens
    /// inside the device, not at submission.
    fn submit(&self, req: IoReq) -> ReqToken;

    /// Waits for a submitted request and takes its result; a completed
    /// read yields `Some(data)`. Never panics: a request whose task did not
    /// finish reads as [`IoError::PowerLoss`].
    fn wait(&self, token: ReqToken) -> LocalBoxFuture<'_, IoResult<Option<SectorBuf>>> {
        Box::pin(async move { token.0.await.unwrap_or(Err(IoError::PowerLoss)) })
    }

    /// Reads `buf.len() / sector_size` sectors starting at `sector`.
    /// The buffer length must be a positive multiple of the sector size.
    /// An [`IoReq::Read`] run inline, plus one copy into the borrowed
    /// buffer.
    fn read<'a>(&'a self, sector: u64, buf: &'a mut [u8]) -> LocalBoxFuture<'a, IoResult<()>> {
        Box::pin(async move {
            if !buf.len().is_multiple_of(SECTOR_SIZE) {
                return Err(IoError::Misaligned { len: buf.len() });
            }
            let sectors = (buf.len() / SECTOR_SIZE) as u64;
            let data = self.exec(IoReq::Read { sector, sectors }).await?;
            let data = data.expect("a completed read carries its data");
            buf.copy_from_slice(data.as_slice());
            Ok(())
        })
    }

    /// Writes `data` starting at `sector`. `fua` (force unit access) is
    /// carried in the [`IoReq::Write`], which no modelled device reads:
    /// each is write-through, so the write is durable when the future
    /// resolves either way. One copy of `data` into an owned buffer, then
    /// [`write_buf`](BlockDevice::write_buf).
    fn write<'a>(
        &'a self,
        sector: u64,
        data: &'a [u8],
        fua: bool,
    ) -> LocalBoxFuture<'a, IoResult<()>> {
        self.write_buf(sector, SectorBuf::copy_from(data), fua)
    }

    /// Barrier: resolves once every previously acknowledged write is on
    /// stable media. An [`IoReq::Flush`] run inline.
    fn flush(&self) -> LocalBoxFuture<'_, IoResult<()>> {
        Box::pin(async move { self.exec(IoReq::Flush).await.map(|_| ()) })
    }

    /// Writes an owned, reference-counted buffer starting at `sector`: a
    /// single-segment [`IoReq::Write`] run inline.
    ///
    /// This is the zero-copy entry point of the log data path: layers that
    /// keep the bytes alive (the RapiLog buffer, the virtio transport, the
    /// media model's in-flight window) take an O(1) view of `data` instead
    /// of copying it.
    fn write_buf(
        &self,
        sector: u64,
        data: SectorBuf,
        fua: bool,
    ) -> LocalBoxFuture<'_, IoResult<()>> {
        let req = IoReq::Write {
            sector,
            segments: vec![data],
            fua,
        };
        Box::pin(async move { self.exec(req).await.map(|_| ()) })
    }
}

/// Makes a scatter list one buffer, for a device whose next hop carries
/// exactly one: a single segment stays as it is (no copy), several are
/// copied once into a new one, none stay none.
pub fn flatten(segments: &mut Vec<SectorBuf>) {
    if segments.len() > 1 {
        let mut flat = Vec::with_capacity(segments.iter().map(SectorBuf::len).sum());
        for seg in segments.iter() {
            flat.extend_from_slice(seg.as_slice());
        }
        *segments = vec![SectorBuf::from_vec(flat)];
    }
}

/// One contiguous scatter-gather write: `segments` laid out back to back
/// starting at `sector`. Produced by the RapiLog drain's consolidation pass,
/// which writes each run as one [`IoReq::Write`]: the segments are copied
/// onto the media in a single operation — the one real copy on the
/// acknowledged-byte path.
#[derive(Debug, Clone)]
pub struct IoRun {
    /// First sector of the run.
    pub sector: u64,
    /// Byte segments, each a multiple of the sector size, laid out
    /// contiguously from `sector`.
    pub segments: Vec<SectorBuf>,
}

impl IoRun {
    /// Total bytes across all segments.
    pub fn bytes(&self) -> usize {
        self.segments.iter().map(SectorBuf::len).sum()
    }

    /// Total sectors covered by the run.
    pub fn sectors(&self) -> u64 {
        (self.bytes() / SECTOR_SIZE) as u64
    }
}
