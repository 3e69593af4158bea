//! Write-ahead log: record format, group-commit writer, reader.
//!
//! The log is a byte stream addressed by [`Lsn`] (byte offset), stored
//! circularly in a region of the log device starting at sector 1 (sector 0
//! lies outside it; the [`Superblock`] lives on the data device, in the last
//! sector of the catalog page). A frame is `varint(len) | crc | kind |
//! payload`, `len` counting kind and payload; its CRC covers the LSN's low
//! 32 bits, kind and payload, so a frame checks only where it was written
//! (DESIGN "WAL record layout"). That gives the torn-tail rule on recovery:
//! scan forward checking each CRC at the LSN the frame should start at; the
//! first failure is the end of the durable log. Everything the engine
//! acknowledged as committed lies before that point **iff** the commit
//! record was durable — exactly the property the durability audit checks.
//!
//! # Commit policies
//!
//! The flusher task turns staged bytes into FUA device writes, and it
//! writes because somebody asked, never because bytes are staged: it keeps
//! one mark, the highest LSN anybody has asked to have on the device, and
//! runs while that mark is ahead of `durable`. [`Wal::wait_durable`] (a
//! commit, a checkpoint) raises the mark to the LSN it waits for,
//! [`Wal::flush_to`] (a page write-back: WAL-before-data) to the record
//! its page was stamped with, and [`Wal::kick`] to the current end — for
//! callers that owe the log their records but wait for nothing: an abort's
//! compensation records, recovery's undo, a commit under
//! `wait_for_durable = false`. An update record appended while the device
//! is busy is nobody's request; it rides the write its own transaction's
//! commit asks for, so a commit costs one device write, not one per stretch
//! of device time its neighbours kept appending through.
//!
//! Each write still snapshots *everything* staged, so `durable` may land
//! past the mark, and while one write is in flight later commits accumulate
//! and ride the next — the *natural group commit* every engine exhibits
//! under concurrency. An explicit `group_delay` (PostgreSQL's
//! `commit_delay`) can force extra batching; `wait_for_durable = false`
//! models the unsafe `synchronous_commit = off` configuration used as an
//! ablation.
//!
//! What bounds the staging buffer is the same rule read backwards: it holds
//! what has been appended since the last request by anybody, and every
//! transaction ends in one (commit waits, abort kicks), so it never holds
//! more than each open transaction's own records — its full-page images
//! included, and open until the write carrying its commit is done — plus
//! the part-filled last sector of the durable log, which the next write
//! rewrites whole; and a dirty page cannot leave the pool without forcing
//! the log past itself. [`WalStats::peak_staged_bytes`] reports the
//! high-water mark (175 KB in the benchmark's TPC-C load, whose
//! transactions are 500 inserts long); the unit test
//! `the_staging_buffer_holds_no_more_than_the_open_transactions` holds it
//! to the bound.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use rapilog_simcore::bytes::{SectorBuf, SectorPool};
use rapilog_simcore::sync::Notify;
use rapilog_simcore::trace::{Layer, Payload, Tracer};
use rapilog_simcore::{SimCtx, SimDuration};
use rapilog_simdisk::{BlockDevice, IoReq, IoResult, ReqToken, SECTOR_SIZE};

use crate::error::{DbError, DbResult};
use crate::types::{Lsn, PageId, TableId, TxnId};
use crate::util::{crc32, crc32_seeded, put_bytes, put_delta, put_u32, put_u64, put_var, Cursor};

/// The longest frame header: a `len` of four varint bytes (its body is under
/// 16 MiB), the CRC, the kind.
pub(crate) const MAX_HEADER: usize = 9;
/// First device sector of the circular log region.
const LOG_BASE_SECTOR: u64 = 1;
/// Data-device sector of the [`Superblock`]: the last of the catalog page
/// (page 0), so the catalog read that opens a database reads it too.
pub const SUPERBLOCK_SECTOR: u64 = crate::page::PAGE_SECTORS - 1;

/// What a CLR does when replayed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClrAction {
    /// Restore a slot to these bytes (undo of update/delete).
    Restore(Vec<u8>),
    /// Clear the slot (undo of insert).
    Clear,
}

/// A decoded log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// Transaction start.
    Begin {
        /// The transaction.
        txn: TxnId,
    },
    /// Transaction commit — the durability point.
    Commit {
        /// The transaction.
        txn: TxnId,
    },
    /// Transaction abort (rollback completed).
    Abort {
        /// The transaction.
        txn: TxnId,
    },
    /// Physical slot update.
    Update {
        /// The transaction.
        txn: TxnId,
        /// Previous record of the same transaction (undo chain).
        prev: Lsn,
        /// Table owning the slot.
        table: TableId,
        /// Page holding the slot.
        page: PageId,
        /// Slot index within the page.
        slot: u16,
        /// Row key (for audits; the slot also stores it).
        key: u64,
        /// Before-image of the row bytes.
        before: Vec<u8>,
        /// After-image of the row bytes.
        after: Vec<u8>,
    },
    /// Physical slot insert.
    Insert {
        /// The transaction.
        txn: TxnId,
        /// Undo-chain predecessor.
        prev: Lsn,
        /// Table owning the slot.
        table: TableId,
        /// Page holding the slot.
        page: PageId,
        /// Slot index within the page.
        slot: u16,
        /// Row key.
        key: u64,
        /// Row bytes.
        after: Vec<u8>,
    },
    /// Physical slot delete.
    Delete {
        /// The transaction.
        txn: TxnId,
        /// Undo-chain predecessor.
        prev: Lsn,
        /// Table owning the slot.
        table: TableId,
        /// Page holding the slot.
        page: PageId,
        /// Slot index within the page.
        slot: u16,
        /// Row key.
        key: u64,
        /// Before-image of the row bytes.
        before: Vec<u8>,
    },
    /// Compensation log record: one undo step, never itself undone.
    Clr {
        /// The transaction being rolled back.
        txn: TxnId,
        /// Next record to undo (the undone record's `prev`).
        undo_next: Lsn,
        /// Page holding the slot.
        page: PageId,
        /// Slot index within the page.
        slot: u16,
        /// Row key.
        key: u64,
        /// What to do to the slot.
        action: ClrAction,
    },
    /// Fuzzy checkpoint: records the transactions active at the checkpoint
    /// and the buffer pool's dirty-page table (page → recLSN, the LSN of the
    /// first record that dirtied the page since it was last clean). Redo must
    /// start at `min(recLSN)` over the table (the superblock stores that
    /// bound); pages absent from the table were clean on media when the
    /// checkpoint was taken.
    Checkpoint {
        /// Transactions active at the checkpoint with their last LSN.
        active: Vec<(TxnId, Lsn)>,
        /// Dirty-page table: pages not yet flushed, with their recLSN.
        dirty: Vec<(PageId, Lsn)>,
    },
    /// Full-page image (first modification after a checkpoint); makes torn
    /// data pages recoverable, as PostgreSQL's `full_page_writes` does.
    FullPage {
        /// The page.
        page: PageId,
        /// Complete page image (post-modification).
        image: Vec<u8>,
    },
}

impl Record {
    /// A row change's `(txn, prev, table, page, slot, key)`.
    pub(crate) fn row_head(&self) -> Option<(TxnId, Lsn, TableId, PageId, u16, u64)> {
        match *self {
            Record::Update {
                txn,
                prev,
                table,
                page,
                slot,
                key,
                ..
            }
            | Record::Insert {
                txn,
                prev,
                table,
                page,
                slot,
                key,
                ..
            }
            | Record::Delete {
                txn,
                prev,
                table,
                page,
                slot,
                key,
                ..
            } => Some((txn, prev, table, page, slot, key)),
            _ => None,
        }
    }

    /// The CLR that undoes this row change: it gives the slot back its
    /// before-image (empties it, for an insert) and sends undo on to the
    /// change before. Any other record comes back as the error.
    pub(crate) fn compensation(self) -> Result<Record, Record> {
        let Some((txn, undo_next, _, page, slot, key)) = self.row_head() else {
            return Err(self);
        };
        let action = match self {
            Record::Update { before, .. } | Record::Delete { before, .. } => {
                ClrAction::Restore(before)
            }
            _ => ClrAction::Clear,
        };
        Ok(Record::Clr {
            txn,
            undo_next,
            page,
            slot,
            key,
            action,
        })
    }

    fn kind(&self) -> u8 {
        match self {
            Record::Begin { .. } => 1,
            Record::Commit { .. } => 2,
            Record::Abort { .. } => 3,
            Record::Update { .. } => 4,
            Record::Insert { .. } => 5,
            Record::Delete { .. } => 6,
            Record::Clr { .. } => 7,
            Record::Checkpoint { .. } => 8,
            Record::FullPage { .. } => 9,
        }
    }

    /// The transaction a record belongs to, if any.
    pub fn txn(&self) -> Option<TxnId> {
        match self {
            Record::Begin { txn } | Record::Commit { txn } | Record::Abort { txn } => Some(*txn),
            Record::Clr { txn, .. } => Some(*txn),
            _ => self.row_head().map(|(txn, ..)| txn),
        }
    }

    /// The page a record changes, if any: what redo replays it on.
    pub fn page(&self) -> Option<PageId> {
        match self {
            Record::FullPage { page, .. } | Record::Clr { page, .. } => Some(*page),
            _ => self.row_head().map(|(_, _, _, page, ..)| page),
        }
    }

    /// The payload: integers as [`put_var`] varints, byte strings behind a
    /// varint length, an undo-chain pointer as its distance back from
    /// `lsn`, the record's own LSN (so [`Lsn::ZERO`] is stored as `lsn`),
    /// and an update's after-image as its [`put_delta`] from the before-image.
    fn encode_payload(&self, lsn: Lsn, buf: &mut Vec<u8>) {
        let back = |to: Lsn| lsn.0.wrapping_sub(to.0);
        match self {
            Record::Begin { txn } | Record::Commit { txn } | Record::Abort { txn } => {
                put_var(buf, txn.0);
            }
            Record::Clr {
                txn,
                undo_next,
                page,
                slot,
                key,
                action,
            } => {
                for v in [txn.0, back(*undo_next), page.0, u64::from(*slot), *key] {
                    put_var(buf, v);
                }
                buf.push(u8::from(matches!(action, ClrAction::Restore(_))));
                if let ClrAction::Restore(bytes) = action {
                    put_bytes(buf, bytes);
                }
            }
            Record::Checkpoint { active, dirty } => {
                let active = active.iter().map(|&(txn, lsn)| [txn.0, lsn.0]);
                let dirty = dirty.iter().map(|&(page, lsn)| [page.0, lsn.0]);
                put_var(buf, active.len() as u64);
                active.flatten().for_each(|v| put_var(buf, v));
                put_var(buf, dirty.len() as u64);
                dirty.flatten().for_each(|v| put_var(buf, v));
            }
            Record::FullPage { page, image } => {
                put_var(buf, page.0);
                put_bytes(buf, image);
            }
            Record::Update { .. } | Record::Insert { .. } | Record::Delete { .. } => {
                let (txn, prev, table, page, slot, key) = self.row_head().expect("a row change");
                for v in [txn.0, back(prev), table.0.into(), page.0, slot.into(), key] {
                    put_var(buf, v);
                }
                if let Record::Update { before, .. } | Record::Delete { before, .. } = self {
                    put_bytes(buf, before);
                }
                match self {
                    Record::Update { before, after, .. } => put_delta(buf, before, after),
                    Record::Insert { after, .. } => put_bytes(buf, after),
                    _ => {}
                }
            }
        }
    }

    fn decode_payload(kind: u8, lsn: Lsn, payload: &[u8], images: bool) -> Option<Record> {
        let mut c = Cursor::new(payload);
        let back = |c: &mut Cursor| Some(Lsn(lsn.0.wrapping_sub(c.var()?)));
        let rec = match kind {
            1..=3 => {
                let txn = TxnId(c.var()?);
                match kind {
                    1 => Record::Begin { txn },
                    2 => Record::Commit { txn },
                    _ => Record::Abort { txn },
                }
            }
            4..=6 => {
                let (txn, prev, table) = (TxnId(c.var()?), back(&mut c)?, TableId(c.var()?));
                let (page, slot, key) = (PageId(c.var()?), c.var()?, c.var()?);
                match kind {
                    4 => {
                        let (before, after) = c.delta(images)?;
                        Record::Update {
                            txn,
                            prev,
                            table,
                            page,
                            slot,
                            key,
                            before,
                            after,
                        }
                    }
                    5 => Record::Insert {
                        txn,
                        prev,
                        table,
                        page,
                        slot,
                        key,
                        after: c.bytes(images)?,
                    },
                    _ => Record::Delete {
                        txn,
                        prev,
                        table,
                        page,
                        slot,
                        key,
                        before: c.bytes(images)?,
                    },
                }
            }
            7 => Record::Clr {
                txn: TxnId(c.var()?),
                undo_next: back(&mut c)?,
                page: PageId(c.var()?),
                slot: c.var()?,
                key: c.var()?,
                action: match c.u8()? {
                    0 => ClrAction::Clear,
                    1 => ClrAction::Restore(c.bytes(images)?),
                    _ => return None,
                },
            },
            8 => {
                // A damaged count reserves nothing: it runs out of payload.
                let n: u64 = c.var()?;
                let active = (0..n).map(|_| Some((TxnId(c.var()?), Lsn(c.var()?))));
                let active = active.collect::<Option<_>>()?;
                let n: u64 = c.var()?;
                let dirty = (0..n).map(|_| Some((PageId(c.var()?), Lsn(c.var()?))));
                let dirty = dirty.collect::<Option<_>>()?;
                Record::Checkpoint { active, dirty }
            }
            9 => Record::FullPage {
                page: PageId(c.var()?),
                image: c.bytes(images)?,
            },
            _ => return None,
        };
        if c.remaining() != 0 {
            return None;
        }
        Some(rec)
    }

    /// Encodes the full framed record at `lsn`, appending to `out` in
    /// place (no intermediate allocation — this is the WAL staging hot
    /// path). Returns the encoded length.
    pub fn encode_into(&self, lsn: Lsn, out: &mut Vec<u8>) -> usize {
        // One length byte is reserved: a body of 128 B or more moves right.
        let base = out.len();
        out.extend_from_slice(&[0; 5]);
        out.push(self.kind());
        self.encode_payload(lsn, out);
        let body = out.len() - base - 5;
        let width = (usize::BITS - body.leading_zeros()).div_ceil(7) as usize;
        if width > 1 {
            let end = out.len();
            out.resize(end + width - 1, 0);
            out.copy_within(base + 1..end, base + width);
        }
        for (i, b) in out[base..base + width].iter_mut().enumerate() {
            *b = (body >> (7 * i)) as u8 | 0x80;
        }
        out[base + width - 1] &= 0x7F;
        let crc = crc32_seeded(lsn.0 as u32, &out[base + width + 4..]);
        out[base + width..base + width + 4].copy_from_slice(&crc.to_le_bytes());
        out.len() - base
    }

    /// Decodes one framed record from the front of `data`, verifying frame
    /// length and that the CRC is the one the record has at `lsn`. Returns
    /// the record and its total encoded length.
    pub fn decode(data: &[u8], lsn: Lsn) -> Option<(Record, usize)> {
        Record::decode_as(data, lsn, true, true)
    }

    /// [`Record::decode`] as recovery needs it: without `verify` the CRC
    /// goes unchecked (the scan has checked it), and without `images` every
    /// row and page image comes back empty and unallocated (analysis only
    /// classifies a record).
    pub(crate) fn decode_as(
        data: &[u8],
        lsn: Lsn,
        verify: bool,
        images: bool,
    ) -> Option<(Record, usize)> {
        let (width, total) = frame_head(data)?;
        let (crc, body) = data.get(width..total)?.split_at(4);
        if verify && crc32_seeded(lsn.0 as u32, body) != u32::from_le_bytes(crc.try_into().ok()?) {
            return None;
        }
        let rec = Record::decode_payload(body[0], lsn, &body[1..], images)?;
        Some((rec, total))
    }
}

/// The width of the frame's `len` and the frame's whole length: `None` if
/// `len` is cut short, not in its shortest form, 0, or 16 MiB or more.
pub(crate) fn frame_head(data: &[u8]) -> Option<(usize, usize)> {
    let mut c = Cursor::new(data);
    let body: usize = c.var()?;
    let width = data.len() - c.remaining();
    let shortest = width == 1 || data[width - 1] != 0;
    (shortest && (1..16 << 20).contains(&body)).then_some((width, width + 4 + body))
}

/// How commits interact with log flushing.
#[derive(Debug, Clone, Copy)]
pub struct CommitPolicy {
    /// Extra wait before each flush to accumulate a batch (PostgreSQL's
    /// `commit_delay`). Zero disables.
    pub group_delay: SimDuration,
    /// If false, `commit` returns before the record is durable
    /// (`synchronous_commit = off`): fast and **unsafe** — the durability
    /// audit demonstrates the loss.
    pub wait_for_durable: bool,
}

impl Default for CommitPolicy {
    fn default() -> Self {
        CommitPolicy {
            group_delay: SimDuration::ZERO,
            wait_for_durable: true,
        }
    }
}

/// Cumulative WAL statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct WalStats {
    /// Records appended.
    pub records: u64,
    /// Bytes appended.
    pub bytes: u64,
    /// Device flush operations (group-commit batches).
    pub flushes: u64,
    /// Records that were commits.
    pub commits: u64,
    /// High-water mark of the staging buffer: the most log held in memory
    /// awaiting a write somebody asks for.
    pub peak_staged_bytes: u64,
}

struct WalSt {
    /// Next byte to be assigned.
    next: Lsn,
    /// Staged-but-unflushed bytes; starts at the sector floor of `durable`.
    buf: Vec<u8>,
    /// Stream offset of `buf[0]` (sector aligned).
    buf_start: Lsn,
    /// Everything below is on the device.
    durable: Lsn,
    /// The highest LSN anybody has asked to have on the device; the flusher
    /// writes while this is ahead of `durable`.
    wanted: Lsn,
    /// Oldest byte that must remain readable (checkpoint/undo horizon).
    recovery_start: Lsn,
    stopped: bool,
    stats: WalStats,
}

/// The write-ahead log manager. Cheap to clone.
#[derive(Clone)]
pub struct Wal {
    inner: Rc<WalInner>,
}

struct WalInner {
    ctx: SimCtx,
    dev: Rc<dyn BlockDevice>,
    region_sectors: u64,
    policy: CommitPolicy,
    st: RefCell<WalSt>,
    kick: Notify,
    durable_changed: Notify,
    tracer: Rc<Tracer>,
    /// Recycled flush buffers: in steady state each group commit reuses an
    /// allocation instead of growing a fresh `Vec` per batch.
    pool: SectorPool,
}

impl Wal {
    /// Creates the WAL manager over `dev`, with the stream starting at
    /// `start` (0 for a fresh database, the recovered end for reopen).
    /// `spawn_domain` decides which cancellation domain the flusher task
    /// lives in — the DBMS's own domain, so a guest crash kills it.
    /// Refuses a region of two sectors or fewer, or of a multiple of 2³²
    /// bytes: there the CRC seed repeats every lap.
    pub fn new(
        ctx: &SimCtx,
        dev: Rc<dyn BlockDevice>,
        policy: CommitPolicy,
        start: Lsn,
        recovery_start: Lsn,
        spawn_domain: rapilog_simcore::DomainId,
    ) -> DbResult<Wal> {
        let region_sectors = dev.geometry().sectors.saturating_sub(LOG_BASE_SECTOR);
        if region_sectors <= 2 || (region_sectors * SECTOR_SIZE as u64).trailing_zeros() >= 32 {
            return Err(DbError::Corrupt("a log region of an unsafe size".into()));
        }
        let buf_start = Lsn(start.0 / SECTOR_SIZE as u64 * SECTOR_SIZE as u64);
        let inner = Rc::new(WalInner {
            ctx: ctx.clone(),
            dev,
            region_sectors,
            policy,
            st: RefCell::new(WalSt {
                next: start,
                buf: Vec::new(),
                buf_start,
                durable: start,
                wanted: start,
                recovery_start,
                stopped: false,
                stats: WalStats::default(),
            }),
            kick: Notify::new(),
            durable_changed: Notify::new(),
            tracer: ctx.tracer(),
            pool: SectorPool::new(),
        });
        let flusher = Rc::clone(&inner);
        ctx.spawn_in(spawn_domain, async move {
            flusher_loop(flusher).await;
        });
        Ok(Wal { inner })
    }

    /// Injects the bytes of the current partial tail sector (recovery path:
    /// the stream does not end on a sector boundary, and future flushes
    /// rewrite that sector).
    ///
    /// # Panics
    ///
    /// Panics if bytes have already been staged.
    pub fn preload_tail(&self, tail: &[u8]) {
        let mut st = self.inner.st.borrow_mut();
        assert!(st.buf.is_empty(), "preload_tail after staging");
        assert_eq!(
            st.buf_start.0 + tail.len() as u64,
            st.next.0,
            "tail does not line up with the stream position"
        );
        st.buf = tail.to_vec();
    }

    /// Current end of the stream (next LSN to be assigned).
    pub fn end(&self) -> Lsn {
        self.inner.st.borrow().next
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> WalStats {
        self.inner.st.borrow().stats
    }

    /// The commit policy in force.
    pub fn policy(&self) -> CommitPolicy {
        self.inner.policy
    }

    /// Raises the truncation horizon (checkpointer only), once the device
    /// has been told that the whole sectors the horizon leaves behind are
    /// no longer needed. In that order: those sectors take new log only
    /// after the horizon has moved, so no write can race their trim.
    pub async fn set_recovery_start(&self, lsn: Lsn) -> IoResult<()> {
        let old = self.inner.st.borrow().recovery_start;
        assert!(lsn >= old, "recovery horizon moved backwards");
        let sector = SECTOR_SIZE as u64;
        self.trim(old.0 / sector, lsn.0 / sector).await?;
        self.inner.st.borrow_mut().recovery_start = lsn;
        Ok(())
    }

    /// Establishes what the engine keeps true of its log device from then
    /// on: every whole sector of the log region outside
    /// `[recovery_start, end]` is trimmed. A scan has to treat whatever
    /// lies past the torn tail as garbage anyway, so a device may answer
    /// for those sectors without looking. Call it with the log at rest
    /// (a fresh database, the end of recovery): a write staged meanwhile
    /// could land in a sector this trims.
    pub async fn trim_unused(&self) -> IoResult<()> {
        let (start, end) = {
            let st = self.inner.st.borrow();
            (st.recovery_start, st.next)
        };
        let sector = SECTOR_SIZE as u64;
        let circle = start.0 / sector + self.inner.region_sectors;
        self.trim(end.0.div_ceil(sector), circle).await
    }

    /// Trims stream sectors `[from, to)`, split at the circular wrap.
    async fn trim(&self, from: u64, to: u64) -> IoResult<()> {
        for (sector, sectors) in runs(self.inner.region_sectors, from, to.saturating_sub(from)) {
            let token = self.inner.dev.submit(IoReq::Trim { sector, sectors });
            self.inner.dev.wait(token).await?;
        }
        Ok(())
    }

    /// Marks the WAL stopped (device dead / shutdown); wakes all waiters
    /// with [`DbError::Stopped`].
    pub fn stop(&self) {
        self.inner.st.borrow_mut().stopped = true;
        self.inner.durable_changed.notify_all();
        self.inner.kick.notify_one();
    }

    /// Appends a record, returning `(start, end)` LSNs. The record is
    /// staged only; durability requires [`Wal::wait_durable`] /
    /// [`Wal::flush_to`]. Fails with [`DbError::Stopped`] once the WAL is
    /// stopped (crash/shutdown) so in-flight operations unwind cleanly.
    ///
    /// # Panics
    ///
    /// Panics if the log region is exhausted (checkpointing misconfigured).
    pub fn append(&self, rec: &Record) -> DbResult<(Lsn, Lsn)> {
        let mut st = self.inner.st.borrow_mut();
        if st.stopped {
            return Err(DbError::Stopped);
        }
        let lsn = st.next;
        // Frame the record directly into the staging buffer: no
        // per-record temporaries on the commit hot path.
        let staged = rec.encode_into(lsn, &mut st.buf) as u64;
        let region_bytes = self.inner.region_sectors * SECTOR_SIZE as u64;
        let used = lsn.0 + staged - st.recovery_start.0;
        assert!(
            used + SECTOR_SIZE as u64 <= region_bytes,
            "log region exhausted ({used} of {region_bytes} bytes): \
             increase log_region or checkpoint more often"
        );
        st.next = lsn.advance(staged);
        st.stats.records += 1;
        st.stats.bytes += staged;
        st.stats.peak_staged_bytes = st.stats.peak_staged_bytes.max(st.buf.len() as u64);
        if matches!(rec, Record::Commit { .. }) {
            st.stats.commits += 1;
        }
        let end = st.next;
        drop(st);
        self.inner.tracer.instant(
            self.inner.ctx.now(),
            Layer::Wal,
            "append",
            Payload::Wal {
                lsn: lsn.0,
                bytes: staged,
                records: 1,
            },
        );
        Ok((lsn, end))
    }

    /// Asks for everything appended so far to reach the device, without
    /// waiting for it: what a caller that promised nothing still owes the
    /// log (an abort's compensation records, recovery's undo, a commit
    /// under `wait_for_durable = false`).
    pub fn kick(&self) {
        self.request(self.end());
    }

    /// Raises the flusher's mark to `upto` and wakes it.
    fn request(&self, upto: Lsn) {
        let mut st = self.inner.st.borrow_mut();
        st.wanted = st.wanted.max(upto);
        drop(st);
        self.inner.kick.notify_one();
    }

    /// Waits until everything below `upto` is durable. An `upto` beyond
    /// the current stream end is clamped to it (waits for everything
    /// appended so far).
    pub async fn wait_durable(&self, upto: Lsn) -> DbResult<()> {
        let upto = upto.min(self.end());
        loop {
            {
                let st = self.inner.st.borrow();
                if st.durable >= upto {
                    return Ok(());
                }
                if st.stopped {
                    return Err(DbError::Stopped);
                }
            }
            self.request(upto);
            self.inner.durable_changed.notified().await;
        }
    }

    /// Forces the log through the record that starts at `lsn` — what a
    /// page is stamped with, and what must be on the device before the
    /// page is (WAL-before-data). `durable` only ever rests on a record
    /// boundary, so the record's first byte stands for all of it.
    pub async fn flush_to(&self, lsn: Lsn) -> DbResult<()> {
        self.wait_durable(lsn.advance(1)).await
    }
}

/// Reads `len` bytes of the stream starting at `from` from a log device of
/// `region_sectors` sectors of log: one read per run.
pub async fn read_stream(
    dev: &dyn BlockDevice,
    region_sectors: u64,
    from: Lsn,
    len: usize,
) -> IoResult<Vec<u8>> {
    let offset = (from.0 % SECTOR_SIZE as u64) as usize;
    let span = (offset + len).div_ceil(SECTOR_SIZE).max(1) * SECTOR_SIZE;
    let mut reader = StreamReader::new(dev, region_sectors, from, span, 1);
    let mut out = Vec::with_capacity(span);
    reader.fill(&mut out).await?;
    out.drain(..offset);
    out.truncate(len);
    Ok(out)
}

/// The device runs of `n` stream sectors from `from` on, as `(sector,
/// sectors)`: one per contiguous stretch of the circular region, so two
/// where it wraps.
fn runs(region_sectors: u64, mut from: u64, n: u64) -> impl Iterator<Item = (u64, u64)> {
    let end = from + n;
    std::iter::from_fn(move || {
        let at = from % region_sectors;
        let run = (end - from).min(region_sectors - at);
        from += run;
        (run > 0).then_some((LOG_BASE_SECTOR + at, run))
    })
}

/// Windowed log-stream reader: keeps up to `window` chunk reads submitted,
/// so checking one chunk overlaps the media latency of the next. Recovery
/// passes `Geometry::queue_depth + 1`, a read per channel and one waiting at
/// the device, so a rotating disk continues into the next chunk instead of
/// paying a rotation for the request round-trip (DESIGN §16.1).
///
/// The reader yields whole sectors, starting at the sector floor of `from`:
/// the caller skips the leading `from % SECTOR_SIZE` bytes itself, and in
/// exchange always holds the complete sector its cursor is in — which is
/// the partial tail sector the rebuilt WAL needs once the scan stops.
///
/// Dropping the reader mid-stream (once the torn tail is found, or on an
/// error) drops the tokens of its read-ahead: those reads still run, and
/// their payloads are freed as they finish.
pub struct StreamReader<'a> {
    dev: &'a dyn BlockDevice,
    region_sectors: u64,
    /// Next stream sector a read will be submitted for.
    next_stream_sector: u64,
    /// Stream sectors not yet submitted (at most one full region circle).
    unsubmitted: u64,
    /// Submitted chunks, oldest first; a chunk split by the circular wrap
    /// carries one token per contiguous device run.
    inflight: VecDeque<Vec<ReqToken>>,
    chunk_sectors: u64,
    window: usize,
}

impl<'a> StreamReader<'a> {
    /// Starts a reader at the sector containing stream position `from`,
    /// covering at most one full circle of the `region_sectors`-sector
    /// circular log region.
    pub fn new(
        dev: &'a dyn BlockDevice,
        region_sectors: u64,
        from: Lsn,
        chunk_bytes: usize,
        window: usize,
    ) -> Self {
        assert!(window >= 1, "stream reader window must be at least 1");
        assert!(chunk_bytes >= SECTOR_SIZE, "chunk must cover a sector");
        StreamReader {
            dev,
            region_sectors,
            next_stream_sector: from.0 / SECTOR_SIZE as u64,
            unsubmitted: region_sectors,
            inflight: VecDeque::new(),
            chunk_sectors: (chunk_bytes / SECTOR_SIZE) as u64,
            window,
        }
    }

    fn top_up(&mut self) {
        while self.inflight.len() < self.window && self.unsubmitted > 0 {
            let n = self.chunk_sectors.min(self.unsubmitted);
            self.unsubmitted -= n;
            let read = |(sector, sectors)| self.dev.submit(IoReq::Read { sector, sectors });
            let runs = runs(self.region_sectors, self.next_stream_sector, n);
            self.inflight.push_back(runs.map(read).collect());
            self.next_stream_sector += n;
        }
    }

    /// Appends the next chunk's stream bytes to `out` and tops the window
    /// back up. Returns the number of bytes appended; `Ok(0)` once one full
    /// region circle has been consumed.
    pub async fn fill(&mut self, out: &mut Vec<u8>) -> IoResult<usize> {
        self.top_up();
        let Some(tokens) = self.inflight.pop_front() else {
            return Ok(0);
        };
        let before = out.len();
        for token in tokens {
            let data = self.dev.wait(token).await?;
            let data = data.expect("read completion must carry data");
            out.extend_from_slice(data.as_slice());
        }
        Ok(out.len() - before)
    }
}

/// Where recovery starts, kept in the data device's [`SUPERBLOCK_SECTOR`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Superblock {
    /// LSN of the most recent checkpoint record.
    pub checkpoint: Lsn,
    /// Oldest LSN that must remain readable (undo horizon).
    pub recovery_start: Lsn,
}

const SB_MAGIC: u32 = 0x5250_4C47; // "RPLG"

impl Superblock {
    /// Serialises into one sector.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(SECTOR_SIZE);
        put_u32(&mut buf, SB_MAGIC);
        put_u64(&mut buf, self.checkpoint.0);
        put_u64(&mut buf, self.recovery_start.0);
        buf.extend_from_slice(&crc32(&buf).to_le_bytes());
        buf.resize(SECTOR_SIZE, 0);
        buf
    }

    /// Parses a sector; `None` if blank or damaged, its padding included.
    pub fn decode(sector: &[u8]) -> Option<Superblock> {
        let mut c = Cursor::new(sector);
        let (magic, checkpoint, recovery_start) = (c.u32()?, Lsn(c.u64()?), Lsn(c.u64()?));
        let (crc, padding) = (c.u32()?, &sector[24..]);
        if magic != SB_MAGIC || crc32(&sector[..20]) != crc || padding.iter().any(|&b| b != 0) {
            return None;
        }
        Some(Superblock {
            checkpoint,
            recovery_start,
        })
    }
}

async fn flusher_loop(inner: Rc<WalInner>) {
    loop {
        inner.kick.notified().await;
        loop {
            // Anything anybody asked for? Staged bytes alone are not a
            // reason to write: they ride the write somebody waits for.
            let pending = {
                let st = inner.st.borrow();
                if st.stopped {
                    return;
                }
                st.wanted > st.durable
            };
            if !pending {
                break;
            }
            if !inner.policy.group_delay.is_zero() {
                inner.ctx.sleep(inner.policy.group_delay).await;
            }
            // Snapshot the staged range (latecomers during the device write
            // ride the next batch). The snapshot goes into a pooled, frozen
            // buffer: downstream layers (virtio ring, RapiLog buffer and
            // drain) take views of it instead of copying, and in steady
            // state the allocation itself is recycled batch to batch.
            let (start_sector_lsn, data, end) = {
                let st = inner.st.borrow();
                let mut v = inner.pool.take(st.buf.len() + SECTOR_SIZE);
                v.extend_from_slice(&st.buf);
                let pad = (SECTOR_SIZE - v.len() % SECTOR_SIZE) % SECTOR_SIZE;
                v.resize(v.len() + pad, 0);
                (st.buf_start, SectorBuf::from_vec(v), st.next)
            };
            let batch_bytes = data.len() as u64;
            let span = |lsn: Lsn| Payload::Wal {
                lsn: lsn.0,
                bytes: batch_bytes,
                records: 0,
            };
            let (tracer, now) = (&inner.tracer, || inner.ctx.now());
            tracer.begin(now(), Layer::Wal, "group_commit", span(start_sector_lsn));
            // Write, splitting at the circular-region wrap. Each split is
            // an O(1) view of the pooled batch, carried down to the device
            // in this task (`exec`, not `write_buf`: one boxed future less
            // per log write).
            let sector = SECTOR_SIZE as u64;
            let (first, sectors) = (start_sector_lsn.0 / sector, data.len() as u64 / sector);
            let mut ok = true;
            let mut off = 0;
            for (sector, sectors) in runs(inner.region_sectors, first, sectors) {
                let segment = data.slice(off..off + sectors as usize * SECTOR_SIZE);
                off += segment.len();
                let write = IoReq::Write {
                    sector,
                    segments: vec![segment],
                    fua: true,
                };
                ok = inner.dev.exec(write).await.is_ok();
                if !ok {
                    break;
                }
            }
            // Reclaim the batch allocation if every downstream view has
            // been dropped (always true over a synchronous disk; over
            // RapiLog the drain may still hold views, in which case the
            // allocation is simply freed later).
            inner.pool.recycle(data);
            {
                let mut st = inner.st.borrow_mut();
                if !ok {
                    st.stopped = true;
                    drop(st);
                    let lost = Payload::Text {
                        text: "device_lost",
                    };
                    tracer.end(now(), Layer::Wal, "group_commit", lost);
                    inner.durable_changed.notify_all();
                    return;
                }
                st.stats.flushes += 1;
                st.durable = st.durable.max(end);
                // Trim everything before the sector floor of the new end.
                let new_start = Lsn(end.0 / SECTOR_SIZE as u64 * SECTOR_SIZE as u64);
                let drop_bytes = ((new_start.0 - st.buf_start.0) as usize).min(st.buf.len());
                st.buf.drain(..drop_bytes);
                st.buf_start = new_start;
            }
            tracer.end(now(), Layer::Wal, "group_commit", span(end));
            inner.durable_changed.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapilog_simcore::rng::SimRng;
    use rapilog_simcore::{DomainId, Sim, SimTime};
    use rapilog_simdisk::{specs, Disk};
    use std::cell::Cell as StdCell;

    impl Record {
        /// The framed record at `lsn`, in a `Vec` of its own.
        fn encode(&self, lsn: Lsn) -> Vec<u8> {
            let mut out = Vec::new();
            self.encode_into(lsn, &mut out);
            out
        }
    }

    impl Wal {
        /// Highest durable LSN.
        pub(crate) fn durable(&self) -> Lsn {
            self.inner.st.borrow().durable
        }
    }

    fn upd(txn: u64, key: u64) -> Record {
        Record::Update {
            txn: TxnId(txn),
            prev: Lsn(0),
            table: TableId(1),
            page: PageId(3),
            slot: 4,
            key,
            before: vec![1, 2, 3],
            after: vec![4, 5, 6, 7],
        }
    }

    #[test]
    fn record_roundtrip_all_kinds() {
        let records = vec![
            Record::Begin { txn: TxnId(7) },
            Record::Commit { txn: TxnId(7) },
            Record::Abort { txn: TxnId(7) },
            upd(7, 99),
            Record::Insert {
                txn: TxnId(8),
                prev: Lsn(10),
                table: TableId(2),
                page: PageId(5),
                slot: 0,
                key: 42,
                after: vec![9; 100],
            },
            Record::Delete {
                txn: TxnId(8),
                prev: Lsn(20),
                table: TableId(2),
                page: PageId(5),
                slot: 0,
                key: 42,
                before: vec![9; 100],
            },
            Record::Clr {
                txn: TxnId(9),
                undo_next: Lsn(5),
                page: PageId(6),
                slot: 3,
                key: 1,
                action: ClrAction::Restore(vec![1]),
            },
            Record::Clr {
                txn: TxnId(9),
                undo_next: Lsn(0),
                page: PageId(6),
                slot: 3,
                key: 1,
                action: ClrAction::Clear,
            },
            Record::Checkpoint {
                active: vec![(TxnId(1), Lsn(100)), (TxnId(2), Lsn(200))],
                dirty: vec![(PageId(7), Lsn(90)), (PageId(11), Lsn(150))],
            },
            Record::FullPage {
                page: PageId(11),
                image: vec![0xAB; 8192],
            },
        ];
        let mut lsn = Lsn(1234);
        for rec in records {
            let bytes = rec.encode(lsn);
            let (back, n) = Record::decode(&bytes, lsn).expect("decodes");
            assert_eq!(back, rec);
            assert_eq!(n, bytes.len());
            lsn = lsn.advance(n as u64);
        }
    }

    #[test]
    fn decode_rejects_bad_crc_bad_lsn_and_truncation() {
        let rec = upd(1, 2);
        let mut bytes = rec.encode(Lsn(50));
        assert!(Record::decode(&bytes, Lsn(51)).is_none(), "wrong lsn");
        assert!(
            Record::decode(&bytes[..10], Lsn(50)).is_none(),
            "truncated frame"
        );
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert!(Record::decode(&bytes, Lsn(50)).is_none(), "bad crc");
    }

    /// Frames `body`, a kind and a payload, at `lsn` with a length and CRC
    /// that match it, so that the payload parser itself sees whatever was
    /// done to the body.
    fn seal(lsn: Lsn, body: &[u8]) -> Vec<u8> {
        let mut frame = Vec::new();
        put_var(&mut frame, body.len() as u64);
        put_u32(&mut frame, crc32_seeded(lsn.0 as u32, body));
        frame.extend_from_slice(body);
        frame
    }

    /// The body of a well-formed frame: what follows its length and CRC.
    fn body(frame: &[u8]) -> &[u8] {
        let (width, total) = frame_head(frame).expect("a frame");
        &frame[width + 4..total]
    }

    /// The header is the body's varint length, the CRC and the kind: six
    /// bytes under a 128-byte body, seven from there to 16 KiB.
    #[test]
    fn a_frame_header_is_six_bytes_under_a_128_byte_body() {
        for n in 100..140 {
            let rec = Record::FullPage {
                page: PageId(1),
                image: vec![3; n],
            };
            let frame = rec.encode(Lsn(512));
            let body = body(&frame).len();
            let header = frame.len() - body + 1;
            assert_eq!(header, if body < 128 { 6 } else { 7 }, "a body of {body}");
            assert_eq!(Record::decode(&frame, Lsn(512)), Some((rec, frame.len())));
        }
        assert_eq!(Record::Begin { txn: TxnId(7) }.encode(Lsn(9)).len(), 7);
    }

    /// `Wal::new` refuses a region whose byte size is a multiple of 2³²,
    /// where the CRC seed would repeat every lap, and one too small to hold
    /// a log; the region one sector longer is fine.
    #[test]
    fn a_region_of_a_multiple_of_four_gib_is_refused() {
        let sim = Sim::new(1);
        let ctx = sim.ctx();
        let region = |bytes: u64| {
            let disk = Disk::new(&ctx, specs::instant(bytes + SECTOR_SIZE as u64));
            let policy = CommitPolicy::default();
            Wal::new(
                &ctx,
                Rc::new(disk),
                policy,
                Lsn::ZERO,
                Lsn::ZERO,
                DomainId::ROOT,
            )
        };
        assert!(matches!(region(1 << 32), Err(DbError::Corrupt(_))));
        assert!(matches!(region(3 << 32), Err(DbError::Corrupt(_))));
        assert!(matches!(
            region(2 * SECTOR_SIZE as u64),
            Err(DbError::Corrupt(_))
        ));
        assert!(region((1 << 32) + SECTOR_SIZE as u64).is_ok());
        assert!(region(3 * SECTOR_SIZE as u64).is_ok());
    }

    /// A CRC-valid checkpoint whose entry count exceeds its payload is
    /// rejected, not reserved for: `u64::MAX` entries would not fit memory.
    #[test]
    fn a_checkpoint_count_beyond_its_payload_is_rejected() {
        let mut frame = Record::Checkpoint {
            active: Vec::new(),
            dirty: Vec::new(),
        }
        .encode(Lsn(64));
        let mut damaged = body(&frame)[..1].to_vec();
        put_var(&mut damaged, u64::MAX);
        damaged.push(0);
        frame = seal(Lsn(64), &damaged);
        assert!(Record::decode(&frame, Lsn(64)).is_none());
    }

    /// A begin, every row record and both CLRs with the largest
    /// transaction, key, page, slot and table, the undo pointer `prev` and
    /// `image` as both images.
    fn extreme_records(prev: Lsn, image: &[u8]) -> Vec<Record> {
        let (txn, page, slot, key) = (TxnId(u64::MAX), PageId(u64::MAX), u16::MAX, u64::MAX);
        let table = TableId(u16::MAX);
        let (before, after) = (image.to_vec(), image.to_vec());
        let restore = ClrAction::Restore(image.to_vec());
        vec![
            Record::Begin { txn },
            Record::Update {
                txn,
                prev,
                table,
                page,
                slot,
                key,
                before: before.clone(),
                after: after.clone(),
            },
            Record::Insert {
                txn,
                prev,
                table,
                page,
                slot,
                key,
                after,
            },
            Record::Delete {
                txn,
                prev,
                table,
                page,
                slot,
                key,
                before,
            },
            Record::Clr {
                txn,
                undo_next: prev,
                page,
                slot,
                key,
                action: restore,
            },
            Record::Clr {
                txn,
                undo_next: prev,
                page,
                slot,
                key,
                action: ClrAction::Clear,
            },
        ]
    }

    /// Every field at its extreme round-trips: an undo pointer of
    /// `Lsn::ZERO` or the record's own LSN, empty and 8 KiB images, at LSNs
    /// from the first to the last.
    #[test]
    fn fields_at_their_extremes_roundtrip() {
        for lsn in [Lsn::ZERO, Lsn(1), Lsn(4096), Lsn(u64::MAX)] {
            for prev in [Lsn::ZERO, lsn] {
                for image in [&[][..], &[0xA5; 8192][..]] {
                    for rec in extreme_records(prev, image) {
                        let bytes = rec.encode(lsn);
                        assert_eq!(Record::decode(&bytes, lsn), Some((rec, bytes.len())));
                    }
                }
            }
        }
    }

    /// Every cut and every one-byte change of an encoded row record or CLR,
    /// its header included, is refused as it stands (the CRC and length
    /// catch it), and a cut or changed body, once sealed again, reaches the
    /// payload parser, which answers `None` or a record, never a panic.
    #[test]
    fn every_cut_and_byte_change_of_a_row_record_or_clr_is_refused_or_decodes() {
        let lsn = Lsn(70_000);
        for rec in extreme_records(Lsn(69_000), &[7; 8]) {
            let valid = rec.encode(lsn);
            let head = valid.len() - body(&valid).len();
            for cut in 0..valid.len() {
                let frame = &valid[..cut];
                assert_eq!(Record::decode(frame, lsn), None, "{rec:?} cut at {cut}");
                assert_eq!(frame_head(frame).filter(|&(_, n)| n <= cut), None);
                if cut > head {
                    let _ = Record::decode(&seal(lsn, &frame[head..]), lsn);
                }
            }
            for at in 0..valid.len() {
                for x in 1..=u8::MAX {
                    let mut frame = valid.clone();
                    frame[at] ^= x;
                    assert_eq!(Record::decode(&frame, lsn), None, "byte {at} ^ {x:#x}");
                    if at >= head {
                        let _ = Record::decode(&seal(lsn, &frame[head..]), lsn);
                    }
                }
            }
        }
    }

    /// The header cannot panic the reader either, and damage to it is
    /// refused: a body length in more bytes than its shortest form or past
    /// ten bytes, a length of 0, one of 16 MiB or more (however much data
    /// follows), and every single-bit flip of a whole frame of each kind.
    #[test]
    fn a_damaged_frame_header_is_refused() {
        let lsn = Lsn(4096);
        let valid = Record::Commit { txn: TxnId(5) }.encode(lsn);
        let (crc_and_body, n) = (&valid[1..], valid.len() - 5);
        let with_length = |length: &[u8]| {
            let mut frame = length.to_vec();
            frame.extend_from_slice(crc_and_body);
            frame.resize(frame.len() + 64, 0);
            frame
        };
        let overlong = [0x80 | n as u8, 0x00];
        let mut max = Vec::new();
        put_var(&mut max, 16 << 20);
        for length in [&overlong[..], &[0x80; 11], &[0x00], &max, &[0xFF; 5]] {
            let frame = with_length(length);
            assert_eq!(frame_head(&frame), None, "{length:x?}");
            assert_eq!(Record::decode(&frame, lsn), None, "{length:x?}");
        }
        assert!(Record::decode(&with_length(&[n as u8]), lsn).is_some());
        let mut rng = SimRng::seed_from_u64(0xF11B);
        for _ in 0..200 {
            let rec = random_record(&mut rng);
            let valid = rec.encode(lsn);
            for bit in 0..valid.len() * 8 {
                let mut frame = valid.clone();
                frame[bit / 8] ^= 1 << (bit % 8);
                assert_eq!(Record::decode(&frame, lsn), None, "{rec:?} bit {bit}");
            }
        }
    }

    /// An undo pointer is stored as its distance back: one byte to a
    /// neighbour, the width of the record's own LSN for `Lsn::ZERO`. A
    /// forward pointer, which the engine never writes, costs ten bytes and
    /// still round-trips: the distance wraps, so every `u64` does.
    #[test]
    fn an_undo_pointer_is_stored_as_its_distance_back() {
        let lsn = Lsn(1 << 20);
        let at = |prev: Lsn| {
            let mut rec = upd(1, 2);
            if let Record::Update { prev: p, .. } = &mut rec {
                *p = prev;
            }
            let bytes = rec.encode(lsn);
            assert_eq!(Record::decode(&bytes, lsn), Some((rec, bytes.len())));
            bytes.len()
        };
        let near = at(Lsn(lsn.0 - 41));
        assert_eq!(at(Lsn::ZERO), near + 2, "2^20 is a three-byte varint");
        assert_eq!(at(Lsn(lsn.0 + 1)), near + 9, "a forward pointer wraps");
    }

    /// A varint of eleven bytes, or one whose tenth byte carries a bit past
    /// the 64th, makes the record undecodable however valid its frame.
    #[test]
    fn an_overlong_varint_is_refused() {
        for bad in [
            &[0x80; 10][..],
            &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02],
        ] {
            let mut damaged = vec![Record::Begin { txn: TxnId(1) }.kind()];
            damaged.extend_from_slice(bad);
            damaged.push(0);
            let frame = seal(Lsn(64), &damaged);
            assert_eq!(Record::decode(&frame, Lsn(64)), None, "{bad:x?}");
        }
    }

    /// A record of any kind with random fields and short random byte
    /// strings.
    fn random_record(rng: &mut SimRng) -> Record {
        fn bytes(rng: &mut SimRng) -> Vec<u8> {
            let n = rng.gen_range(0..100usize);
            (0..n).map(|_| rng.next_u64() as u8).collect()
        }
        let txn = TxnId(rng.next_u64());
        let (lsn, table, page) = (
            Lsn(rng.next_u64()),
            TableId(rng.gen_range(0..=u16::MAX)),
            PageId(rng.next_u64()),
        );
        let (slot, key) = (rng.gen_range(0..=u16::MAX), rng.next_u64());
        match rng.gen_range(1..=9u8) {
            1 => Record::Begin { txn },
            2 => Record::Commit { txn },
            3 => Record::Abort { txn },
            4 => Record::Update {
                txn,
                prev: lsn,
                table,
                page,
                slot,
                key,
                before: bytes(rng),
                after: bytes(rng),
            },
            5 => Record::Insert {
                txn,
                prev: lsn,
                table,
                page,
                slot,
                key,
                after: bytes(rng),
            },
            6 => Record::Delete {
                txn,
                prev: lsn,
                table,
                page,
                slot,
                key,
                before: bytes(rng),
            },
            7 => Record::Clr {
                txn,
                undo_next: lsn,
                page,
                slot,
                key,
                action: if rng.gen_range(0..2u8) == 0 {
                    ClrAction::Clear
                } else {
                    ClrAction::Restore(bytes(rng))
                },
            },
            8 => Record::Checkpoint {
                active: (0..rng.gen_range(0..8u64))
                    .map(|i| (TxnId(i), Lsn(rng.next_u64())))
                    .collect(),
                dirty: (0..rng.gen_range(0..8u64))
                    .map(|i| (PageId(i), Lsn(rng.next_u64())))
                    .collect(),
            },
            _ => Record::FullPage {
                page,
                image: bytes(rng),
            },
        }
    }

    /// An update's body with its delta's two lengths replaced by `prefix`
    /// and `suffix`: the middle the encoder wrote stays.
    fn forge_delta(rec: &Record, lsn: Lsn, prefix: u64, suffix: u64) -> Vec<u8> {
        let Record::Update { before, after, .. } = rec else {
            panic!("not an update: {rec:?}");
        };
        let mut delta = Vec::new();
        put_delta(&mut delta, before, after);
        let mut c = Cursor::new(&delta);
        let _: (u64, u64) = (c.var().expect("a prefix"), c.var().expect("a suffix"));
        let middle = &delta[delta.len() - c.remaining()..];
        let frame = rec.encode(lsn);
        let body = body(&frame);
        let mut forged = body[..body.len() - delta.len()].to_vec();
        put_var(&mut forged, prefix);
        put_var(&mut forged, suffix);
        forged.extend_from_slice(middle);
        forged
    }

    /// Bytes read back from a log device cannot panic the reader. Four
    /// thousand seeded inputs: random byte strings, random payloads behind
    /// a kind of any value, valid bodies of every kind cut short, and valid
    /// bodies with one bit of the kind or payload flipped. All but the raw
    /// strings are sealed with a length and CRC that match, so the payload
    /// parser itself sees the damage. `decode` answers `Some` or `None`.
    /// An update's delta lengths are forged too: the body decodes exactly
    /// when the shared prefix and suffix fit the before-image.
    #[test]
    fn decode_never_panics_on_damaged_frames() {
        let mut rng = SimRng::seed_from_u64(0xDEC0DE);
        let lsn = Lsn(4096);
        for case in 0..4_000u32 {
            let rec = random_record(&mut rng);
            let valid = rec.encode(lsn);
            assert_eq!(
                Record::decode(&valid, lsn),
                Some((rec.clone(), valid.len()))
            );
            if let Record::Update { before, .. } = &rec {
                let n = before.len() as u64;
                for _ in 0..8 {
                    let (prefix, suffix) = (rng.gen_range(0..=n + 2), rng.gen_range(0..=n + 2));
                    let forged = seal(lsn, &forge_delta(&rec, lsn, prefix, suffix));
                    let fits = prefix + suffix <= n;
                    assert_eq!(
                        Record::decode(&forged, lsn).is_some(),
                        fits,
                        "{prefix} {suffix}"
                    );
                }
                for (prefix, suffix) in [(u64::MAX, 0), (0, u64::MAX), (u64::MAX, u64::MAX)] {
                    let forged = seal(lsn, &forge_delta(&rec, lsn, prefix, suffix));
                    assert_eq!(Record::decode(&forged, lsn), None);
                }
            }
            let valid = body(&valid);
            let frame = match case % 4 {
                0 => (0..rng.gen_range(0..64usize))
                    .map(|_| rng.next_u64() as u8)
                    .collect(),
                1 => {
                    let mut b = vec![rng.gen_range(0..=10u8)];
                    b.extend((0..rng.gen_range(0..64usize)).map(|_| rng.next_u64() as u8));
                    seal(lsn, &b)
                }
                2 => seal(lsn, &valid[..rng.gen_range(1..=valid.len())]),
                _ => {
                    let mut b = valid.to_vec();
                    let bit = rng.gen_range(0..b.len() * 8);
                    b[bit / 8] ^= 1 << (bit % 8);
                    seal(lsn, &b)
                }
            };
            let _ = Record::decode(&frame, lsn);
        }
    }

    #[test]
    fn superblock_roundtrip_and_blank() {
        let sb = Superblock {
            checkpoint: Lsn(777),
            recovery_start: Lsn(555),
        };
        let bytes = sb.encode();
        assert_eq!(bytes.len(), SECTOR_SIZE);
        assert_eq!(Superblock::decode(&bytes), Some(sb));
        assert_eq!(Superblock::decode(&vec![0u8; SECTOR_SIZE]), None);
        for at in [5, 24, SECTOR_SIZE - 1] {
            let mut bad = sb.encode();
            bad[at] ^= 1;
            assert_eq!(Superblock::decode(&bad), None, "a flip at byte {at}");
        }
    }

    fn wal_on_instant_disk(sim: &mut Sim) -> (Wal, Disk) {
        let ctx = sim.ctx();
        let disk = Disk::new(&ctx, specs::instant(16 << 20));
        let wal = Wal::new(
            &ctx,
            Rc::new(disk.clone()),
            CommitPolicy::default(),
            Lsn::ZERO,
            Lsn::ZERO,
            DomainId::ROOT,
        )
        .unwrap();
        (wal, disk)
    }

    #[test]
    fn append_flush_readback() {
        let mut sim = Sim::new(1);
        let (wal, disk) = wal_on_instant_disk(&mut sim);
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        let w2 = wal.clone();
        sim.spawn(async move {
            let mut lsns = Vec::new();
            for i in 0..5u64 {
                let (lsn, end) = w2.append(&upd(i, i * 10)).unwrap();
                lsns.push((lsn, end));
            }
            let last_end = lsns.last().unwrap().1;
            w2.wait_durable(last_end).await.unwrap();
            assert!(w2.durable() >= last_end);
            // Read the stream back and decode every record.
            let region_sectors = disk.geometry().sectors - LOG_BASE_SECTOR;
            let bytes = read_stream(&disk, region_sectors, Lsn::ZERO, last_end.0 as usize)
                .await
                .unwrap();
            let mut at = Lsn::ZERO;
            let mut n = 0;
            while at < last_end {
                let (rec, len) = Record::decode(&bytes[at.0 as usize..], at).expect("valid record");
                assert_eq!(rec, upd(n, n * 10));
                at = at.advance(len as u64);
                n += 1;
            }
            assert_eq!(n, 5);
            d2.set(true);
        });
        sim.run();
        assert!(done.get());
        assert_eq!(wal.stats().records, 5);
        assert!(wal.stats().flushes >= 1);
    }

    #[test]
    fn natural_group_commit_batches_under_concurrency() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        // A real HDD: each flush costs about a rotation.
        let disk = Disk::new(&ctx, specs::hdd_7200(64 << 20));
        let wal = Wal::new(
            &ctx,
            Rc::new(disk),
            CommitPolicy::default(),
            Lsn::ZERO,
            Lsn::ZERO,
            DomainId::ROOT,
        )
        .unwrap();
        let committed = Rc::new(StdCell::new(0u32));
        for i in 0..32u64 {
            let wal = wal.clone();
            let committed = Rc::clone(&committed);
            sim.spawn(async move {
                let (_, end) = wal.append(&Record::Commit { txn: TxnId(i) }).unwrap();
                wal.wait_durable(end).await.unwrap();
                committed.set(committed.get() + 1);
            });
        }
        sim.run();
        assert_eq!(committed.get(), 32);
        let flushes = wal.stats().flushes;
        assert!(
            flushes <= 3,
            "32 concurrent commits should batch into a few flushes, got {flushes}"
        );
    }

    #[test]
    fn commits_serialised_by_rotation_without_concurrency() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let disk = Disk::new(&ctx, specs::hdd_7200(64 << 20));
        let wal = Wal::new(
            &ctx,
            Rc::new(disk),
            CommitPolicy::default(),
            Lsn::ZERO,
            Lsn::ZERO,
            DomainId::ROOT,
        )
        .unwrap();
        let w2 = wal.clone();
        sim.spawn({
            let ctx = ctx.clone();
            async move {
                for i in 0..10u64 {
                    let (_, end) = w2.append(&Record::Commit { txn: TxnId(i) }).unwrap();
                    w2.wait_durable(end).await.unwrap();
                    // Think time between commits, like a single client.
                    ctx.sleep(SimDuration::from_micros(200)).await;
                }
            }
        });
        let end = sim.run().now;
        // Ten sequential sync commits each pay ~a rotation (8.3 ms).
        assert!(end > SimTime::from_millis(40), "suspiciously fast: {end}");
    }

    #[test]
    fn group_delay_accumulates_one_flush() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let disk = Disk::new(&ctx, specs::instant(16 << 20));
        let wal = Wal::new(
            &ctx,
            Rc::new(disk),
            CommitPolicy {
                group_delay: SimDuration::from_millis(1),
                wait_for_durable: true,
            },
            Lsn::ZERO,
            Lsn::ZERO,
            DomainId::ROOT,
        )
        .unwrap();
        for i in 0..8u64 {
            let wal = wal.clone();
            let ctx = ctx.clone();
            sim.spawn(async move {
                // Stagger arrivals within the delay window.
                ctx.sleep(SimDuration::from_micros(i * 100)).await;
                let (_, end) = wal.append(&Record::Commit { txn: TxnId(i) }).unwrap();
                wal.wait_durable(end).await.unwrap();
            });
        }
        sim.run();
        assert_eq!(wal.stats().flushes, 1, "one delayed batch");
    }

    #[test]
    fn stopped_wal_fails_waiters() {
        let mut sim = Sim::new(1);
        let (wal, _disk) = wal_on_instant_disk(&mut sim);
        let observed = Rc::new(RefCell::new(None));
        let o2 = Rc::clone(&observed);
        let w2 = wal.clone();
        sim.spawn(async move {
            // Stop before anything is flushed.
            let (_, end) = w2.append(&Record::Commit { txn: TxnId(1) }).unwrap();
            w2.stop();
            assert_eq!(
                w2.append(&Record::Commit { txn: TxnId(2) }).err(),
                Some(DbError::Stopped)
            );
            *o2.borrow_mut() = Some(w2.wait_durable(end).await);
        });
        sim.run();
        assert_eq!(*observed.borrow(), Some(Err(DbError::Stopped)));
    }

    #[test]
    fn power_loss_on_log_device_stops_the_wal() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let disk = Disk::new(&ctx, specs::hdd_7200(64 << 20));
        let wal = Wal::new(
            &ctx,
            Rc::new(disk.clone()),
            CommitPolicy::default(),
            Lsn::ZERO,
            Lsn::ZERO,
            DomainId::ROOT,
        )
        .unwrap();
        let observed = Rc::new(RefCell::new(None));
        let o2 = Rc::clone(&observed);
        let w2 = wal.clone();
        sim.spawn(async move {
            let (_, end) = w2.append(&Record::Commit { txn: TxnId(1) }).unwrap();
            *o2.borrow_mut() = Some(w2.wait_durable(end).await);
        });
        sim.spawn({
            let ctx = ctx.clone();
            async move {
                // Cut power while the flush is still in flight (the
                // controller overhead alone is 60 µs).
                ctx.sleep(SimDuration::from_micros(30)).await;
                disk.power_cut();
            }
        });
        sim.run();
        assert_eq!(*observed.borrow(), Some(Err(DbError::Stopped)));
    }

    fn wal_on_hdd(sim: &mut Sim) -> (Wal, Disk) {
        let ctx = sim.ctx();
        // A rotating disk: a log write is in flight for milliseconds.
        let disk = Disk::new(&ctx, specs::hdd_7200(64 << 20));
        let wal = Wal::new(
            &ctx,
            Rc::new(disk.clone()),
            CommitPolicy::default(),
            Lsn::ZERO,
            Lsn::ZERO,
            DomainId::ROOT,
        )
        .unwrap();
        (wal, disk)
    }

    /// The flusher's rule: a device write happens because somebody asked
    /// for an LSN, never because bytes are staged.
    #[test]
    fn one_waiter_costs_one_write_however_much_others_staged_meanwhile() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let (wal, disk) = wal_on_hdd(&mut sim);
        // Nobody waits, nobody kicks: nothing is written.
        for i in 0..10 {
            wal.append(&upd(1, i)).unwrap();
        }
        sim.run();
        assert_eq!(disk.stats().writes, 0);
        assert_eq!(wal.durable(), Lsn::ZERO);

        // A commits; its write keeps the device busy.
        let commit_and_wait = |txn: u64, at: SimDuration| {
            let (wal, ctx) = (wal.clone(), ctx.clone());
            async move {
                ctx.sleep(at).await;
                let (_, end) = wal.append(&Record::Commit { txn: TxnId(txn) }).unwrap();
                wal.wait_durable(end).await.unwrap();
            }
        };
        sim.spawn(commit_and_wait(2, SimDuration::ZERO));
        // B commits while A's write is in flight.
        sim.spawn(commit_and_wait(3, SimDuration::from_micros(500)));
        // Others append an update every 200 us, through both writes and
        // past the second, and wait for nothing.
        let others = {
            let (wal, ctx, disk) = (wal.clone(), ctx.clone(), disk.clone());
            let in_flight = Rc::new(StdCell::new(0u32));
            let seen = Rc::clone(&in_flight);
            sim.spawn(async move {
                for i in 0..200 {
                    ctx.sleep(SimDuration::from_micros(200)).await;
                    wal.append(&upd(4, i)).unwrap();
                    if disk.stats().writes > wal.stats().flushes {
                        seen.set(seen.get() + 1);
                    }
                }
            });
            in_flight
        };
        sim.run();
        assert!(others.get() >= 20, "appended with the device busy");
        assert_eq!(wal.stats().flushes, 2, "A's write, then one for B");
        assert_eq!(disk.stats().writes, 2);
        assert!(wal.durable() < wal.end(), "the rest rides the next request");
    }

    #[test]
    fn kick_without_a_waiter_reaches_the_current_end() {
        let mut sim = Sim::new(1);
        let (wal, disk) = wal_on_hdd(&mut sim);
        for i in 0..3 {
            wal.append(&upd(1, i)).unwrap();
        }
        wal.kick();
        sim.run();
        assert_eq!(wal.durable(), wal.end());
        assert_eq!(disk.stats().writes, 1);
    }

    /// WAL-before-data with no commit in sight: a page carries the start
    /// LSN of the last record that changed it, and the write-back's
    /// `flush_to` must put that whole record on the device — also when
    /// everything before it already is, which is where an earlier write's
    /// snapshot ends whenever the record was appended just after it.
    #[test]
    fn a_write_back_forces_the_record_its_page_was_stamped_with() {
        let mut sim = Sim::new(1);
        let (wal, disk) = wal_on_hdd(&mut sim);
        let w2 = wal.clone();
        sim.spawn(async move {
            let (_, end) = w2.append(&Record::Commit { txn: TxnId(1) }).unwrap();
            w2.wait_durable(end).await.unwrap();
            let (page_lsn, record_end) = w2.append(&upd(2, 7)).unwrap();
            assert_eq!(w2.durable(), page_lsn, "all but the record is durable");
            w2.append(&upd(2, 8)).unwrap();
            w2.flush_to(page_lsn).await.unwrap();
            assert!(w2.durable() >= record_end, "{:?}", w2.durable());
            // A page whose record is on the device costs nothing.
            w2.flush_to(page_lsn).await.unwrap();
        });
        sim.run();
        assert_eq!(disk.stats().writes, 2);
    }

    #[test]
    fn stop_and_power_loss_wake_every_waiter_with_stopped() {
        for power_cut in [false, true] {
            let mut sim = Sim::new(1);
            let ctx = sim.ctx();
            let (wal, disk) = wal_on_hdd(&mut sim);
            let outcomes = Rc::new(RefCell::new(Vec::new()));
            for i in 0..4u64 {
                let (wal, ctx, outcomes) = (wal.clone(), ctx.clone(), Rc::clone(&outcomes));
                sim.spawn(async move {
                    // The first waiter's write is in flight when the
                    // others arrive, and when the end comes.
                    ctx.sleep(SimDuration::from_micros(i * 10)).await;
                    let (_, end) = wal.append(&Record::Commit { txn: TxnId(i) }).unwrap();
                    let outcome = wal.wait_durable(end).await;
                    outcomes.borrow_mut().push(outcome);
                });
            }
            let w2 = wal.clone();
            sim.spawn(async move {
                ctx.sleep(SimDuration::from_micros(50)).await;
                if power_cut {
                    disk.power_cut();
                } else {
                    w2.stop();
                }
            });
            sim.run();
            assert_eq!(*outcomes.borrow(), vec![Err(DbError::Stopped); 4]);
        }
    }

    #[test]
    fn a_waiter_an_in_flight_write_covers_issues_no_second_write() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let (wal, disk) = wal_on_hdd(&mut sim);
        let (_, end) = wal.append(&Record::Commit { txn: TxnId(1) }).unwrap();
        wal.kick();
        let (w2, d2) = (wal.clone(), disk.clone());
        sim.spawn(async move {
            ctx.sleep(SimDuration::from_micros(100)).await;
            assert_eq!((d2.stats().writes, w2.durable()), (1, Lsn::ZERO));
            w2.wait_durable(end).await.unwrap();
        });
        sim.run();
        assert_eq!(wal.durable(), end);
        assert_eq!(disk.stats().writes, 1);
    }

    /// The staging buffer's bound: what has been appended since the last
    /// request by anybody, so never more than the open transactions' own
    /// records. Alone, a client stages its transaction and nothing else;
    /// with neighbours, whoever commits first takes everybody's records
    /// along, and a record stays staged until the write carrying it is done.
    #[test]
    fn the_staging_buffer_holds_no_more_than_the_open_transactions() {
        for clients in [1u64, 4] {
            let mut sim = Sim::new(1);
            let ctx = sim.ctx();
            let (wal, _disk) = wal_on_hdd(&mut sim);
            let txn_bytes = Rc::new(StdCell::new(0u64));
            for c in 0..clients {
                let (wal, ctx, txn_bytes) = (wal.clone(), ctx.clone(), Rc::clone(&txn_bytes));
                sim.spawn(async move {
                    ctx.sleep(SimDuration::from_micros(c * 130)).await;
                    for t in 0..5 {
                        let mut own = 0;
                        for key in 0..20 {
                            ctx.sleep(SimDuration::from_micros(50)).await;
                            let (start, end) = wal.append(&upd(c * 10 + t, key)).unwrap();
                            own += end.0 - start.0;
                        }
                        let txn = TxnId(c * 10 + t);
                        let (start, end) = wal.append(&Record::Commit { txn }).unwrap();
                        txn_bytes.set(own + end.0 - start.0);
                        wal.wait_durable(end).await.unwrap();
                    }
                });
            }
            sim.run();
            // Plus the part-filled last sector of the durable log, which
            // stays staged because the next write rewrites it whole.
            let (peak, txn) = (wal.stats().peak_staged_bytes, txn_bytes.get());
            let sector = SECTOR_SIZE as u64;
            if clients == 1 {
                assert!((txn..txn + sector).contains(&peak), "{peak}");
            } else {
                assert!(peak >= 2 * txn, "neighbours' records ride along: {peak}");
                assert!(peak < clients * txn + sector, "{peak}");
            }
        }
    }

    #[test]
    fn wraparound_flush_and_readback() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        // Tiny log: sector 0, outside the region, + 8 log sectors.
        let disk = Disk::new(&ctx, specs::instant(9 * SECTOR_SIZE as u64));
        let wal = Wal::new(
            &ctx,
            Rc::new(disk.clone()),
            CommitPolicy::default(),
            Lsn::ZERO,
            Lsn::ZERO,
            DomainId::ROOT,
        )
        .unwrap();
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        let w2 = wal.clone();
        sim.spawn(async move {
            // Fill most of the region, advance the horizon, keep writing
            // so the stream wraps.
            let mut ends = Vec::new();
            for i in 0..600u64 {
                let (_, end) = w2.append(&Record::Begin { txn: TxnId(i) }).unwrap();
                ends.push(end);
                w2.wait_durable(end).await.unwrap();
                // Pretend a checkpoint retired everything already durable.
                w2.set_recovery_start(Lsn(end.0.saturating_sub(100)))
                    .await
                    .unwrap();
            }
            let last = *ends.last().unwrap();
            assert!(last.0 > 8 * SECTOR_SIZE as u64, "stream did wrap: {last:?}");
            // Read the tail back across the wrap and decode.
            let from = Lsn(last.0 - 100);
            let bytes = read_stream(&disk, 8, from, 100).await.unwrap();
            assert_eq!(bytes.len(), 100);
            d2.set(true);
        });
        sim.run();
        assert!(done.get());
    }
}
