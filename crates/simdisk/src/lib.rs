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
//! sectors that had reached the media are readable, the volatile write cache
//! is lost, and an in-flight multi-sector write may be torn.
//!
//! # Examples
//!
//! ```
//! use rapilog_simcore::Sim;
//! use rapilog_simdisk::{specs, Disk};
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
pub mod queue;
pub mod spec;
pub mod store;
pub mod timing;

pub use disk::{Disk, DiskStats};
pub use queue::IoQueue;
pub use rapilog_simcore::bytes::{SectorBuf, SectorPool};
pub use spec::{specs, CacheSpec, DiskSpec, FaultProfile, TimingSpec};
pub use store::SectorStore;
pub use timing::ServiceParts;

use std::fmt;
use std::future::Future;
use std::pin::Pin;

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
    /// Device capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.sectors * self.sector_size as u64
    }
}

/// One request on the queued [`BlockDevice`] interface.
///
/// Submitted with [`BlockDevice::submit`]; the matching [`Completion`]
/// carries the result (and, for reads, the data).
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
        /// Force unit access: data is on stable media at completion.
        fua: bool,
    },
    /// Barrier: completes once every previously acknowledged write is on
    /// stable media.
    Flush,
    /// Advisory: the submitter no longer needs `sectors` sectors starting
    /// at `sector`; until it rewrites them they may read as zeros or as
    /// their last contents. Never a durability event, and nothing a device
    /// has to remember: a device that does nothing with it is correct.
    /// (`Trim`, because [`BlockDevice::discard`] gives up a token.)
    Trim {
        /// First sector no longer needed.
        sector: u64,
        /// Number of sectors no longer needed.
        sectors: u64,
    },
}

/// Opaque handle identifying a submitted request.
///
/// Tokens are unique per device instance and must be claimed exactly once,
/// via [`BlockDevice::wait`], [`BlockDevice::completions`] or
/// [`BlockDevice::discard`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReqToken(pub(crate) u64);

/// The finished half of a queued request.
#[derive(Debug, Clone)]
pub struct Completion {
    /// Token returned by the [`BlockDevice::submit`] that started this
    /// request.
    pub token: ReqToken,
    /// Outcome of the request.
    pub result: IoResult<()>,
    /// Data of a completed read; `None` for writes, flushes, and errors.
    pub data: Option<SectorBuf>,
}

/// An asynchronous, sector-addressed block device.
///
/// Implemented by the raw simulated [`Disk`] and — crucially — by the
/// RapiLog virtual log disk, which is how an unmodified database engine is
/// pointed at either one. All methods are object-safe (they return boxed
/// futures) so engines can hold `Rc<dyn BlockDevice>`.
///
/// # The queued interface
///
/// The primary surface is queue-based: [`submit`](BlockDevice::submit)
/// enqueues a request and returns immediately with a [`ReqToken`]; the
/// result is collected later with [`wait`](BlockDevice::wait) (one token)
/// or [`completions`](BlockDevice::completions) (everything finished).
/// Multiple requests may be outstanding at once — up to
/// [`Geometry::queue_depth`] of them make media progress concurrently —
/// which is what lets the RapiLog drain keep several flash channels busy.
/// Completion order is *not* submission order; callers that need ordering
/// express it by waiting before submitting the dependent request.
///
/// Each token must be claimed exactly once, through either `wait` or
/// `completions`, never both: `completions` drains every unclaimed result,
/// so mixing the two styles on one device handle steals tokens from the
/// `wait`ers.
///
/// The older one-future-per-op methods ([`read`](BlockDevice::read),
/// [`write`](BlockDevice::write), [`flush`](BlockDevice::flush),
/// [`write_buf`](BlockDevice::write_buf)) remain as default-method shims
/// over depth-1 submission. They are **deprecated as a primary interface**
/// — new code should submit — but stay supported indefinitely as the
/// convenient form for engines that want one request at a time.
pub trait BlockDevice {
    /// The device's geometry.
    fn geometry(&self) -> Geometry;

    /// Enqueues `req` and returns its token. Never blocks: admission
    /// control beyond [`Geometry::queue_depth`] happens inside the device,
    /// not at submission.
    fn submit(&self, req: IoReq) -> ReqToken;

    /// Waits until at least one submitted request has finished, then
    /// returns every unclaimed [`Completion`] (ascending token order).
    fn completions(&self) -> LocalBoxFuture<'_, Vec<Completion>>;

    /// Waits for one specific request and takes its result; a completed
    /// read yields `Some(data)`.
    fn wait(&self, token: ReqToken) -> LocalBoxFuture<'_, IoResult<Option<SectorBuf>>>;

    /// Gives up the claim on `token` without waiting: the request still
    /// runs on the device, but its result (and a read's payload) is dropped
    /// on arrival instead of being held for a `wait` that never comes.
    /// This is how a reader abandons read-ahead it turned out not to need.
    /// Counts as the token's one claim.
    ///
    /// The default does nothing, which leaves the completion in the
    /// device's mailbox until [`completions`](BlockDevice::completions)
    /// drains it; every device built on [`IoQueue`] overrides it with
    /// [`IoQueue::forget`].
    fn discard(&self, token: ReqToken) {
        let _ = token;
    }

    /// Reads `buf.len() / sector_size` sectors starting at `sector`.
    /// The buffer length must be a positive multiple of the sector size.
    ///
    /// Deprecated shim: depth-1 [`submit`](BlockDevice::submit) +
    /// [`wait`](BlockDevice::wait), plus one copy into the borrowed
    /// buffer. Prefer submitting an [`IoReq::Read`].
    fn read<'a>(&'a self, sector: u64, buf: &'a mut [u8]) -> LocalBoxFuture<'a, IoResult<()>> {
        Box::pin(async move {
            if buf.is_empty() || !buf.len().is_multiple_of(SECTOR_SIZE) {
                return Err(IoError::Misaligned { len: buf.len() });
            }
            let token = self.submit(IoReq::Read {
                sector,
                sectors: (buf.len() / SECTOR_SIZE) as u64,
            });
            let data = self.wait(token).await?;
            let data = data.expect("read completion must carry data");
            buf.copy_from_slice(data.as_slice());
            Ok(())
        })
    }

    /// Writes `data` starting at `sector`. With `fua` (force unit access)
    /// the data is on stable media when the future resolves; without it the
    /// write may land in a volatile cache.
    ///
    /// Deprecated shim: depth-1 [`submit`](BlockDevice::submit) +
    /// [`wait`](BlockDevice::wait), plus one copy of `data` into an owned
    /// buffer. Prefer submitting an [`IoReq::Write`].
    fn write<'a>(
        &'a self,
        sector: u64,
        data: &'a [u8],
        fua: bool,
    ) -> LocalBoxFuture<'a, IoResult<()>> {
        Box::pin(async move {
            if data.is_empty() || !data.len().is_multiple_of(SECTOR_SIZE) {
                return Err(IoError::Misaligned { len: data.len() });
            }
            let token = self.submit(IoReq::Write {
                sector,
                segments: vec![SectorBuf::copy_from(data)],
                fua,
            });
            self.wait(token).await.map(|_| ())
        })
    }

    /// Barrier: resolves once every previously acknowledged write is on
    /// stable media.
    ///
    /// Deprecated shim: depth-1 submission of [`IoReq::Flush`].
    fn flush(&self) -> LocalBoxFuture<'_, IoResult<()>> {
        Box::pin(async move {
            let token = self.submit(IoReq::Flush);
            self.wait(token).await.map(|_| ())
        })
    }

    /// Writes an owned, reference-counted buffer starting at `sector`.
    ///
    /// This is the zero-copy entry point of the log data path: layers that
    /// keep the bytes alive (the RapiLog buffer, the virtio transport, the
    /// media model's in-flight window) take an O(1) view of `data` instead
    /// of copying it. The default implementation submits a single-segment
    /// [`IoReq::Write`], so existing devices keep working and pay at most
    /// what they paid before.
    fn write_buf(
        &self,
        sector: u64,
        data: SectorBuf,
        fua: bool,
    ) -> LocalBoxFuture<'_, IoResult<()>> {
        Box::pin(async move {
            if data.is_empty() || !data.len().is_multiple_of(SECTOR_SIZE) {
                return Err(IoError::Misaligned { len: data.len() });
            }
            let token = self.submit(IoReq::Write {
                sector,
                segments: vec![data],
                fua,
            });
            self.wait(token).await.map(|_| ())
        })
    }
}

/// One contiguous scatter-gather write: `segments` laid out back to back
/// starting at `sector`. Produced by the RapiLog drain's consolidation pass
/// and consumed by [`Disk::write_runs`](crate::Disk::write_runs), which
/// copies the segments onto the media in a single device operation — the one
/// real copy on the acknowledged-byte path.
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
