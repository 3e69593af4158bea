//! ARIES-style crash recovery: pipelined scan, analysis, partitioned
//! redo, undo.
//!
//! [`Database::open`] brings a database back after any crash:
//!
//! 1. **Scan** the log from the superblock's checkpoint position, checking
//!    each frame's CRC at the LSN it should start at; the first invalid
//!    frame is the torn tail — the durable end of the log. The scan keeps
//!    `Geometry::queue_depth + 1` chunk reads submitted through the queued
//!    device API, overlapping CRC validation and frame decode with media
//!    latency and letting a rotating disk stream from one chunk into the
//!    next. The read-ahead past the torn tail is discarded, not waited
//!    for. The scan keeps the log bytes it read, never a decoded copy:
//!    the bytes are the record (and end in the WAL's partial tail sector).
//! 2. **Analysis** runs on each record as the scan decodes it, keeping
//!    `(LSN, page)` of a page-touching one; it classifies transactions
//!    into committed, aborted and *losers* (active at the crash), seeding
//!    the loser set from the checkpoint record's active-transaction table,
//!    and picks up the checkpoint's dirty-page table: records older than
//!    the checkpoint touching pages that were clean on media when it was
//!    taken (absent from the table, or below their recLSN) need no redo.
//! 3. **Redo** replays every surviving page-touching record whose LSN is
//!    newer than the page's LSN. Replay order only has to respect the
//!    per-page LSN order — the same dependency argument the drain uses
//!    for sector-overlap edges — so redo partitions the LSNs into per-page
//!    chains and replays the chains as concurrent tasks, overlapping their
//!    page reads across device channels; a chain decodes each record from
//!    the scanned bytes when it reaches it.
//! 4. **Undo** rolls every loser back through its `prev` chain (decoded
//!    from the scanned bytes, or read from the device below the scan
//!    start), writing compensation records, and closes it with an abort
//!    record.
//!
//! Any interleaving of the chains is a correct replay, so the oracle is
//! the committed state itself: `recovery_restores_the_committed_model`
//! crashes random workloads and checks every key against a model of what
//! was committed.
//!
//! Recovery ends with a checkpoint, and reports the work it did — the
//! recovery-time figures in EXPERIMENTS.md come straight from
//! [`RecoveryReport`], whose scan/redo/undo/finish split sums to the
//! duration exactly and is mirrored by four `Layer::Engine` trace spans
//! (`recover_scan`, `recover_redo`, `recover_undo`, `recover_finish`).

use std::collections::BTreeMap;
use std::rc::Rc;

use rapilog_simcore::hash::{FastMap, FastSet};
use rapilog_simcore::trace::{Layer, Payload};
use rapilog_simcore::{DomainId, SimCtx, SimDuration};
use rapilog_simdisk::{BlockDevice, SECTOR_SIZE};

use crate::buffer::{BufferPool, FrameRef};
use crate::engine::{Database, DbConfig, SlotAddr, TableMeta};
use crate::error::{DbError, DbResult};
use crate::page::PAGE_SIZE;
use crate::retry::os_block_layer;
use crate::types::{Lsn, PageId, TxnId};
use crate::wal::{frame_head, read_stream, ClrAction, Record, StreamReader, Wal, MAX_HEADER};

/// Bytes per scan read: the unit [`Database::open`] reads the log back in.
/// Large enough that a rotating disk spends its time transferring (2.2 ms
/// per chunk at 116 MB/s) rather than on per-request overhead, small
/// enough that the read-ahead discarded past the torn tail stays cheap.
pub const CHUNK: usize = 256 * 1024;

/// What recovery found and did.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Records scanned between the checkpoint and the torn tail.
    pub scanned_records: u64,
    /// Page-touching records actually applied during redo.
    pub redo_applied: u64,
    /// Page-touching records skipped without a page read because the
    /// checkpoint's dirty-page table proved their page already current on
    /// media.
    pub redo_skipped_clean: u64,
    /// Transactions rolled back (active at the crash).
    pub losers_undone: u64,
    /// Commit records seen in the scan range.
    pub committed_seen: u64,
    /// End of the durable log (new streams append here).
    pub log_end: Lsn,
    /// Virtual time the whole recovery took: exactly
    /// `scan_time + redo_time + undo_time + finish_time`.
    pub duration: SimDuration,
    /// Virtual time in the scan phase (the catalog page's read, superblock
    /// included, log read-back, CRC, decode, analysis, WAL manager rebuild).
    pub scan_time: SimDuration,
    /// Virtual time in the redo phase (page reads + replay).
    pub redo_time: SimDuration,
    /// Virtual time in the undo phase (loser rollback + CLR appends).
    pub undo_time: SimDuration,
    /// Virtual time closing recovery (index rebuild, final checkpoint and
    /// the re-trim around the recovered log).
    pub finish_time: SimDuration,
}

/// Size guess for a record fetched by LSN: undo chains hold row records of
/// a few hundred bytes, never page images, and eight extra sectors cost 35 µs
/// on the rotating disk, a second read 8.3 ms.
const RECORD_GUESS: usize = 4096;

fn meta_for_page(tables: &[TableMeta], page: PageId) -> DbResult<&TableMeta> {
    tables
        .iter()
        .find(|t| page.0 >= t.base_page && page.0 < t.base_page + t.n_pages)
        .ok_or_else(|| DbError::Corrupt(format!("page {page:?} belongs to no table")))
}

/// Fetches one record from below the scan start (undo of a loser whose
/// chain reaches under the checkpoint) from the log device: one read of the
/// longest header and [`RECORD_GUESS`] bytes, and a second only for a
/// longer frame.
async fn read_record_at(log: &dyn BlockDevice, lsn: Lsn) -> DbResult<Record> {
    let region = log.geometry().sectors - 1;
    let mut bytes = read_stream(log, region, lsn, MAX_HEADER + RECORD_GUESS).await?;
    if let Some((_, total)) = frame_head(&bytes).filter(|&(_, n)| n > bytes.len()) {
        bytes = read_stream(log, region, lsn, total).await?;
    }
    Record::decode(&bytes, lsn)
        .map(|(rec, _)| rec)
        .ok_or_else(|| DbError::Corrupt(format!("undecodable record at {lsn}")))
}

async fn apply_page_record(
    pool: &BufferPool,
    tables: &[TableMeta],
    lsn: Lsn,
    rec: &Record,
) -> DbResult<bool> {
    // Applied in place, borrowing images and row bytes straight from the
    // record: no per-record closure, no 8 KiB image clone.
    let Some(page) = rec.page() else {
        return Ok(false);
    };
    let meta = meta_for_page(tables, page)?;
    let frame = pool.fetch(page, meta.id, meta.slot_size, true).await?;
    if frame.borrow().page.lsn() >= lsn {
        return Ok(false);
    }
    apply_record(&frame, meta, lsn, rec)?;
    Ok(true)
}

/// Applies `rec`, logged at `lsn`, to its page in `frame`, a page of
/// `meta`'s region, and marks the page dirty: redo, and the live engine's
/// own changes.
pub(crate) fn apply_record(
    frame: &FrameRef,
    meta: &TableMeta,
    lsn: Lsn,
    rec: &Record,
) -> DbResult<()> {
    // A record that passed its CRC can still not fit the page (a slot past
    // the page's last, a row longer than the table's slot, an image that is
    // not a page): the log is corrupt, which is an error, not a panic.
    let (spp, slot_size) = (meta.spp, meta.slot_size as usize);
    let mut f = frame.borrow_mut();
    match rec {
        Record::FullPage { image, .. } if image.len() == PAGE_SIZE => f.page.restore_image(image),
        Record::Insert {
            slot, key, after, ..
        }
        | Record::Update {
            slot, key, after, ..
        }
        | Record::Clr {
            slot,
            key,
            action: ClrAction::Restore(after),
            ..
        } if *slot < spp && after.len() <= slot_size => f.page.write_slot(*slot, *key, after),
        Record::Delete { slot, .. }
        | Record::Clr {
            slot,
            action: ClrAction::Clear,
            ..
        } if *slot < spp => f.page.clear_slot(*slot),
        _ => return Err(DbError::Corrupt(format!("record at {lsn} does not fit"))),
    }
    f.page.set_lsn(lsn);
    drop(f);
    BufferPool::mark_dirty(frame);
    Ok(())
}

/// The log bytes the scan read back: every valid record, still encoded,
/// decoded again only when redo or undo needs it.
struct Scan {
    /// The stream from the first byte of the sector `from` sits in up to
    /// `log_end`.
    bytes: Vec<u8>,
    /// Where the scan started.
    from: Lsn,
    /// End of the durable log: the position of the first invalid frame.
    log_end: Lsn,
}

impl Scan {
    /// The record that starts at `lsn`, decoded from the retained bytes;
    /// `None` outside `[from, log_end)` or, if `verify`, where no record
    /// starts. Redo trusts the LSNs the scan handed it; undo follows `prev`
    /// pointers, which could point anywhere, so it verifies.
    fn record_at(&self, lsn: Lsn, verify: bool) -> Option<Record> {
        if lsn < self.from || lsn >= self.log_end {
            return None;
        }
        let at = (lsn.0 - self.from.0 + self.from.0 % SECTOR_SIZE as u64) as usize;
        Record::decode_as(&self.bytes[at..], lsn, verify, true).map(|(rec, _)| rec)
    }

    /// The bytes of the sector `log_end` sits in, from the sector's first
    /// byte up to `log_end` (empty when `log_end` is sector aligned): the
    /// partial tail sector future WAL flushes rewrite.
    fn tail(&self) -> &[u8] {
        let len = (self.log_end.0 % SECTOR_SIZE as u64) as usize;
        &self.bytes[self.bytes.len() - len..]
    }
}

/// Reads the log back from `from`, checking each frame's CRC at the LSN it
/// should start at, until the first invalid frame: one sequential sweep with
/// up to `window` chunk reads submitted. The bytes stay (no per-chunk
/// drain); `analyse` sees each record as the scan validates it, decoded with
/// its row images left out, and the record is dropped at once.
async fn scan_log(
    log_dev: &dyn BlockDevice,
    from: Lsn,
    window: usize,
    mut analyse: impl FnMut(Lsn, &Record),
) -> DbResult<Scan> {
    let region_sectors = log_dev.geometry().sectors - 1;
    let region_bytes = region_sectors * SECTOR_SIZE as u64;
    let mut reader = StreamReader::new(log_dev, region_sectors, from, CHUNK, window);
    // `buf[0]` sits on the sector boundary at or before `from` (the reader
    // yields whole sectors), so the sector the cursor is in is always
    // buffered from its first byte: when the scan stops, that is the WAL's
    // partial tail sector, with no need to read it again.
    let mut buf: Vec<u8> = Vec::new();
    let mut off = (from.0 % SECTOR_SIZE as u64) as usize;
    let mut pos = from;
    'scan: while pos.0 - from.0 < region_bytes {
        // (A sane log never fills the whole region.) Ensure the longest
        // frame header, then the whole frame, is buffered.
        while buf.len() < off + MAX_HEADER {
            if reader.fill(&mut buf).await? == 0 {
                break 'scan; // region exhausted mid-frame: torn tail
            }
        }
        let Some((_, total)) = frame_head(&buf[off..]) else {
            break; // torn tail / end of log
        };
        while buf.len() < off + total {
            if reader.fill(&mut buf).await? == 0 {
                break 'scan;
            }
        }
        let Some((rec, n)) = Record::decode_as(&buf[off..off + total], pos, true, false) else {
            break; // CRC failure at this LSN: torn tail
        };
        analyse(pos, &rec);
        off += n;
        pos = pos.advance(n as u64);
    }
    // The read-ahead past the torn tail is not waited for: dropping the
    // reader drops its tokens, so each read's payload is freed as it
    // finishes, and the bytes of it already read go.
    drop(reader);
    buf.truncate(off);
    Ok(Scan {
        bytes: buf,
        from,
        log_end: pos,
    })
}

impl Database {
    /// Opens an existing database, running full crash recovery.
    pub async fn open(
        ctx: &SimCtx,
        cfg: DbConfig,
        data_dev: Rc<dyn BlockDevice>,
        log_dev: Rc<dyn BlockDevice>,
        domain: DomainId,
    ) -> DbResult<(Database, RecoveryReport)> {
        // The four phases are consecutive `Layer::Engine` spans whose
        // boundaries are the very instants the report's per-phase times are
        // cut at, so trace and report cannot disagree.
        let tracer = ctx.tracer();
        let t0 = ctx.now();
        tracer.begin(t0, Layer::Engine, "recover_scan", Payload::None);
        let phase = |ended: &'static str, began: &'static str| {
            let now = ctx.now();
            tracer.end(now, Layer::Engine, ended, Payload::None);
            tracer.begin(now, Layer::Engine, began, Payload::None);
            now
        };
        // Behind the OS block layer, media errors are not retryable and
        // surface as typed [`DbError::Io`] from whichever phase hit them.
        let (data_dev, log_dev) = (os_block_layer(ctx, data_dev), os_block_layer(ctx, log_dev));
        // The catalog page holds the superblock: the log serves the scan alone.
        let (tables, sb) = Self::read_catalog(&*data_dev).await?;

        // --- 1. Scan and 2. Analysis, as the scan validates each record -----
        let mut committed_seen = 0u64;
        let mut ended: FastSet<TxnId> = FastSet::default();
        let mut last_lsn: BTreeMap<TxnId, Lsn> = BTreeMap::new();
        // The newest checkpoint's position and dirty-page table (page →
        // recLSN). Records older than the checkpoint touching pages that were
        // clean on media when it was taken need no redo.
        let mut ckpt: Option<(Lsn, FastMap<PageId, Lsn>)> = None;
        // Of a page-touching record analysis keeps its LSN and page only.
        let (mut pages, mut scanned) = (Vec::new(), 0u64);
        let analyse = |lsn: Lsn, rec: &Record| {
            scanned += 1;
            if let Some(page) = rec.page() {
                pages.push((lsn, page));
            }
            match rec {
                Record::Checkpoint { active, dirty } => {
                    for (txn, l) in active {
                        if !ended.contains(txn) {
                            let e = last_lsn.entry(*txn).or_insert(*l);
                            *e = (*e).max(*l);
                        }
                    }
                    ckpt = Some((lsn, dirty.iter().copied().collect()));
                }
                Record::Commit { txn } | Record::Abort { txn } => {
                    if let Record::Commit { .. } = rec {
                        committed_seen += 1;
                    }
                    ended.insert(*txn);
                    last_lsn.remove(txn);
                }
                other => {
                    if let Some(txn) = other.txn().filter(|txn| !ended.contains(txn)) {
                        let e = last_lsn.entry(txn).or_insert(lsn);
                        *e = (*e).max(lsn);
                    }
                }
            }
        };
        // One chunk read per device channel in flight plus one more already
        // waiting at the device, so validation overlaps media latency and a
        // rotating disk streams from one chunk into the next. The torn-tail
        // decision depends only on the bytes, never on the window.
        let window = log_dev.geometry().queue_depth as usize + 1;
        let scan = scan_log(&*log_dev, sb.checkpoint, window, analyse).await?;
        let log_end = scan.log_end;

        // --- Reconstruct the WAL manager at the durable end ---------------
        let wal = Wal::new(
            ctx,
            Rc::clone(&log_dev),
            cfg.profile.commit_policy,
            log_end,
            sb.recovery_start,
            domain,
        )?;
        // Future flushes rewrite the partial tail sector, so the WAL must
        // hold the bytes already in it — straight from the scan buffer.
        wal.preload_tail(scan.tail());
        let pool = BufferPool::new(Rc::clone(&data_dev), wal.clone(), cfg.pool_pages);
        let scan_done = phase("recover_scan", "recover_redo");

        // --- 3. Redo -------------------------------------------------------
        // Partition the page-touching records into per-page chains of LSNs
        // (scan order within a chain, so per-page LSN order is preserved —
        // the only ordering redo actually needs). The dirty-page-table
        // filter runs here: a record older than the newest checkpoint whose
        // page is absent from the table (or below its recLSN) describes a
        // change that was already on stable media when the checkpoint's
        // cache barrier completed.
        let mut chains: Vec<Vec<Lsn>> = Vec::new();
        let mut chain_of: FastMap<PageId, usize> = FastMap::default();
        let mut redo_skipped_clean = 0u64;
        for (lsn, page) in pages {
            if let Some((ckpt_lsn, dpt)) = &ckpt {
                if lsn < *ckpt_lsn && dpt.get(&page).is_none_or(|rec_lsn| lsn < *rec_lsn) {
                    redo_skipped_clean += 1;
                    continue;
                }
            }
            let slot = *chain_of.entry(page).or_insert_with(|| {
                chains.push(Vec::new());
                chains.len() - 1
            });
            chains[slot].push(lsn);
        }
        // One task per page chain: chains touch disjoint pages, so they
        // replay concurrently, and their page reads overlap across the
        // device's channels. Every chain is joined before undo begins, the
        // failed ones included.
        let scan = Rc::new(scan);
        let tables_rc = Rc::new(tables.clone());
        let chains: Vec<_> = chains
            .into_iter()
            .map(|chain| {
                let scan = Rc::clone(&scan);
                let tables = Rc::clone(&tables_rc);
                let pool = pool.clone();
                ctx.spawn_in(domain, async move {
                    let mut applied = 0u64;
                    for lsn in chain {
                        let rec = scan
                            .record_at(lsn, false)
                            .expect("a scanned record decodes");
                        applied += u64::from(apply_page_record(&pool, &tables, lsn, &rec).await?);
                    }
                    DbResult::Ok(applied)
                })
            })
            .collect();
        let mut applied = Vec::with_capacity(chains.len());
        for chain in chains {
            applied.push(chain.await.unwrap_or(Err(DbError::Stopped)));
        }
        let redo_applied = applied.into_iter().sum::<DbResult<u64>>()?;
        let redo_done = phase("recover_redo", "recover_undo");

        // --- 4. Undo -------------------------------------------------------
        let losers: Vec<(TxnId, Lsn)> = last_lsn.into_iter().collect();
        for &(txn, mut at) in &losers {
            while at != Lsn::ZERO {
                let rec = match scan.record_at(at, true) {
                    Some(rec) => rec,
                    None => read_record_at(&*log_dev, at).await?,
                };
                let clr = match rec {
                    // A CLR from a partially-completed rollback: skip to
                    // whatever it says is next; never undo an undo.
                    Record::Clr { undo_next, .. } => {
                        at = undo_next;
                        continue;
                    }
                    Record::Begin { .. } => break,
                    rec => rec.compensation().map_err(|other| {
                        DbError::Corrupt(format!(
                            "unexpected record in undo chain of {txn:?}: {other:?}"
                        ))
                    })?,
                };
                let (clr_lsn, _) = wal.append(&clr)?;
                apply_page_record(&pool, &tables, clr_lsn, &clr).await?;
                let Record::Clr { undo_next, .. } = clr else {
                    unreachable!("a compensation is a CLR")
                };
                at = undo_next;
            }
            wal.append(&Record::Abort { txn })?;
        }
        drop(scan);
        wal.kick();
        let undo_done = phase("recover_undo", "recover_finish");

        // --- Rebuild the derived state (index, free lists) ----------------
        let db = Database::assemble(ctx, cfg, tables, wal, pool);
        db.rebuild_index().await?;
        // Close recovery with a checkpoint: pages flushed, superblock moved.
        db.checkpoint().await?;
        // The instance under the log device may be one rebuilt after a power
        // cut, which has never heard what lies outside the recovered log.
        db.inner.wal.trim_unused().await?;
        db.start_checkpointer(domain);
        let finished = ctx.now();
        tracer.end(finished, Layer::Engine, "recover_finish", Payload::None);

        let report = RecoveryReport {
            scanned_records: scanned,
            redo_applied,
            redo_skipped_clean,
            losers_undone: losers.len() as u64,
            committed_seen,
            log_end,
            duration: finished - t0,
            scan_time: scan_done - t0,
            redo_time: redo_done - scan_done,
            undo_time: undo_done - redo_done,
            finish_time: finished - undo_done,
        };
        Ok((db, report))
    }

    /// Scans every table page, rebuilding the key index and free lists.
    pub(crate) async fn rebuild_index(&self) -> DbResult<()> {
        let tables = self.inner.tables.clone();
        for (t, meta) in tables.iter().enumerate() {
            // Pages and their slots come in ascending order, so every slot
            // between two rows is free.
            let mut high_water = 0;
            for p in 0..meta.n_pages {
                let pid = PageId(meta.base_page + p);
                let frame = self
                    .inner
                    .pool
                    .fetch(pid, meta.id, meta.slot_size, false)
                    .await?;
                let rows = frame.borrow().page.occupied();
                let mut st = self.inner.st.borrow_mut();
                let ts = &mut st.tables[t];
                for (slot, key) in rows {
                    let flat = meta.flat(SlotAddr { page: pid, slot });
                    ts.freed.extend(high_water..flat);
                    high_water = flat + 1;
                    ts.index.insert(key, flat);
                }
            }
            self.inner.st.borrow_mut().tables[t].high_water = high_water;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::TableDef;
    use crate::page::PAGE_SECTORS;
    use crate::types::{Key, TableId};
    use rapilog_simcore::{Sim, SimRng};
    use rapilog_simdisk::{specs, Disk};
    use std::cell::Cell as StdCell;

    fn defs() -> Vec<TableDef> {
        vec![TableDef {
            name: "t".to_string(),
            slot_size: 64,
            max_rows: 1_000,
        }]
    }

    /// Runs `f` against a fresh db, then "crashes" (stop + drop), reopens,
    /// and hands the recovered db plus report to `check`.
    fn crash_and_recover<F, Fut, G, Gut>(f: F, check: G)
    where
        F: FnOnce(Database) -> Fut + 'static,
        Fut: std::future::Future<Output = ()> + 'static,
        G: FnOnce(Database, RecoveryReport) -> Gut + 'static,
        Gut: std::future::Future<Output = ()> + 'static,
    {
        let mut sim = Sim::new(9);
        let ctx = sim.ctx();
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        let c2 = ctx.clone();
        sim.spawn(async move {
            let data = Rc::new(Disk::new(&c2, specs::instant(64 << 20)));
            let log = Rc::new(Disk::new(&c2, specs::instant(64 << 20)));
            let db = Database::create(
                &c2,
                DbConfig::default(),
                &defs(),
                Rc::clone(&data) as Rc<dyn BlockDevice>,
                Rc::clone(&log) as Rc<dyn BlockDevice>,
                DomainId::ROOT,
            )
            .await
            .unwrap();
            f(db.clone()).await;
            // Crash: the engine stops abruptly; dirty pages and the staged
            // WAL tail are simply gone with the process.
            db.stop();
            let (db2, report) = Database::open(
                &c2,
                DbConfig::default(),
                data as Rc<dyn BlockDevice>,
                log as Rc<dyn BlockDevice>,
                DomainId::ROOT,
            )
            .await
            .expect("recovery");
            check(db2.clone(), report).await;
            db2.stop();
            d2.set(true);
        });
        sim.run();
        assert!(done.get(), "scenario completed");
    }

    /// Seeded inserts, updates, deletes and aborts over three tables that
    /// share key values, against one model map per table: after every
    /// commit each table's full scan and row count read as its model, and
    /// again after a crash and `open`, whose `rebuild_index` must rebuild
    /// the index the live engine kept, free slots included (the reopened
    /// engine runs more rounds on them).
    #[test]
    fn index_matches_a_per_table_model() {
        type Model = Vec<BTreeMap<Key, Vec<u8>>>;
        async fn check(db: &Database, model: &Model) {
            for (t, rows) in model.iter().enumerate() {
                let t = TableId(t as u16);
                let want: Vec<(Key, Vec<u8>)> = rows.iter().map(|(k, v)| (*k, v.clone())).collect();
                assert_eq!(
                    db.scan_range(t, 0, u64::MAX, usize::MAX).await.unwrap(),
                    want
                );
                assert_eq!(db.row_count(t), want.len() as u64);
            }
        }
        async fn rounds(db: &Database, rng: &mut SimRng, model: &mut Model, n: u32) {
            for _ in 0..n {
                let txn = db.begin().await.unwrap();
                let mut staged = model.clone();
                for _ in 0..rng.gen_range(1..8u32) {
                    let t = rng.gen_range(0..3usize);
                    let (table, key) = (TableId(t as u16), rng.gen_range(0..24u64));
                    let row = rng.next_u64().to_le_bytes();
                    let op = rng.gen_range(0..3u32);
                    let done = match op {
                        0 => db.insert(txn, table, key, &row).await,
                        1 => db.update(txn, table, key, &row).await,
                        _ => db.delete(txn, table, key).await,
                    };
                    match done {
                        Ok(()) if op == 2 => {
                            staged[t].remove(&key);
                        }
                        Ok(()) => {
                            staged[t].insert(key, row.to_vec());
                        }
                        Err(DbError::Duplicate(..) | DbError::NotFound(..)) => {}
                        Err(e) => panic!("unexpected engine error: {e}"),
                    }
                }
                if rng.gen_range(0..4u32) == 0 {
                    db.abort(txn).await.unwrap();
                } else {
                    db.commit(txn).await.unwrap();
                    *model = staged;
                }
                check(db, model).await;
            }
        }
        let mut sim = Sim::new(13);
        let c2 = sim.ctx();
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        sim.spawn(async move {
            let data: Rc<dyn BlockDevice> = Rc::new(Disk::new(&c2, specs::instant(64 << 20)));
            let log: Rc<dyn BlockDevice> = Rc::new(Disk::new(&c2, specs::instant(64 << 20)));
            let defs: Vec<TableDef> = ["a", "b", "c"]
                .iter()
                .map(|name| TableDef {
                    name: name.to_string(),
                    slot_size: 16,
                    max_rows: 32,
                })
                .collect();
            let cfg = DbConfig::default;
            let db = Database::create(
                &c2,
                cfg(),
                &defs,
                Rc::clone(&data),
                Rc::clone(&log),
                DomainId::ROOT,
            )
            .await
            .unwrap();
            let mut rng = SimRng::seed_from_u64(0x1DE5);
            let mut model: Model = vec![BTreeMap::new(); 3];
            rounds(&db, &mut rng, &mut model, 150).await;
            assert!(model.iter().all(|rows| !rows.is_empty()));
            db.stop();
            let (db2, _) = Database::open(&c2, cfg(), data, log, DomainId::ROOT)
                .await
                .expect("recovery");
            check(&db2, &model).await;
            rounds(&db2, &mut rng, &mut model, 50).await;
            db2.stop();
            d2.set(true);
        });
        sim.run();
        assert!(done.get(), "scenario completed");
    }

    /// A record can pass its CRC and still not fit the page it names: a
    /// slot past the page's last, a row longer than the table's slot, a
    /// full-page image that is not a page. Redo of each makes `open` fail
    /// with `DbError::Corrupt`, where `Page` itself would panic.
    #[test]
    fn a_record_that_does_not_fit_its_page_is_corrupt_not_a_panic() {
        for case in 0..3 {
            let mut sim = Sim::new(9);
            let c2 = sim.ctx();
            let done = Rc::new(StdCell::new(false));
            let d2 = Rc::clone(&done);
            sim.spawn(async move {
                let data: Rc<dyn BlockDevice> = Rc::new(Disk::new(&c2, specs::instant(64 << 20)));
                let log: Rc<dyn BlockDevice> = Rc::new(Disk::new(&c2, specs::instant(64 << 20)));
                let (data2, log2) = (Rc::clone(&data), Rc::clone(&log));
                let db =
                    Database::create(&c2, DbConfig::default(), &defs(), data, log, DomainId::ROOT)
                        .await
                        .unwrap();
                let meta = db.table_meta(db.table("t").unwrap()).unwrap().clone();
                let page = PageId(meta.base_page);
                let insert = |slot: u16, len: usize| Record::Insert {
                    txn: TxnId(1 << 40),
                    prev: Lsn::ZERO,
                    table: meta.id,
                    page,
                    slot,
                    key: 7,
                    after: vec![1; len],
                };
                let rec = match case {
                    0 => insert(meta.spp, 1),
                    1 => insert(0, meta.slot_size as usize + 1),
                    _ => Record::FullPage {
                        page,
                        image: vec![0; PAGE_SIZE / 2],
                    },
                };
                db.wal().append(&rec).unwrap();
                db.wal().kick();
                db.wal().wait_durable(db.wal().end()).await.unwrap();
                db.stop();
                match Database::open(&c2, DbConfig::default(), data2, log2, DomainId::ROOT).await {
                    Err(DbError::Corrupt(_)) => {}
                    Err(e) => panic!("case {case}: {e}"),
                    Ok(_) => panic!("case {case}: {rec:?} was replayed"),
                }
                d2.set(true);
            });
            sim.run();
            assert!(done.get(), "case {case} completed");
        }
    }

    #[test]
    fn media_error_during_recovery_surfaces_typed() {
        // A grown defect under the catalog sector must fail `open` with a
        // typed `DbError::Io(MediaError)` — never a panic, and never a
        // silent success. (Transient errors, by contrast, are retried by
        // the engine's OS-block-layer wrapper and recovery proceeds.)
        let mut sim = Sim::new(11);
        let ctx = sim.ctx();
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        let c2 = ctx.clone();
        sim.spawn(async move {
            let data = Rc::new(Disk::new(&c2, specs::instant(64 << 20)));
            let log = Rc::new(Disk::new(&c2, specs::instant(64 << 20)));
            let db = Database::create(
                &c2,
                DbConfig::default(),
                &defs(),
                Rc::clone(&data) as Rc<dyn BlockDevice>,
                Rc::clone(&log) as Rc<dyn BlockDevice>,
                DomainId::ROOT,
            )
            .await
            .unwrap();
            let t = db.table("t").unwrap();
            let txn = db.begin().await.unwrap();
            db.insert(txn, t, 1, b"row").await.unwrap();
            db.commit(txn).await.unwrap();
            db.stop();
            // The catalog sector develops an unreadable defect. (Snapshot
            // its bytes first: the remap below loses the sector contents,
            // like a real spare-sector remap does.)
            let mut catalog_sector = vec![0u8; SECTOR_SIZE];
            data.peek_media(0, &mut catalog_sector);
            data.mark_bad(0);
            let err = match Database::open(
                &c2,
                DbConfig::default(),
                Rc::clone(&data) as Rc<dyn BlockDevice>,
                Rc::clone(&log) as Rc<dyn BlockDevice>,
                DomainId::ROOT,
            )
            .await
            {
                Ok(_) => panic!("an unreadable catalog cannot recover"),
                Err(e) => e,
            };
            assert_eq!(
                err,
                DbError::Io(rapilog_simdisk::IoError::MediaError { sector: 0 })
            );
            // Firmware remaps the sector (contents lost; restoring them
            // from the snapshot models re-writing from a backup): recovery
            // works again.
            assert!(data.remap(0));
            data.poke_media(0, &catalog_sector);
            let (db2, _) = Database::open(
                &c2,
                DbConfig::default(),
                data as Rc<dyn BlockDevice>,
                log as Rc<dyn BlockDevice>,
                DomainId::ROOT,
            )
            .await
            .expect("recovery after remap");
            let t = db2.table("t").unwrap();
            assert_eq!(db2.get(t, 1).await.unwrap(), Some(b"row".to_vec()));
            db2.stop();
            d2.set(true);
        });
        sim.run();
        assert!(done.get());
    }

    #[test]
    fn committed_transactions_survive() {
        crash_and_recover(
            |db| async move {
                let t = db.table("t").unwrap();
                for k in 0..20u64 {
                    let txn = db.begin().await.unwrap();
                    db.insert(txn, t, k, format!("val{k}").as_bytes())
                        .await
                        .unwrap();
                    db.commit(txn).await.unwrap();
                }
            },
            |db, report| async move {
                let t = db.table("t").unwrap();
                for k in 0..20u64 {
                    assert_eq!(
                        db.get(t, k).await.unwrap(),
                        Some(format!("val{k}").into_bytes()),
                        "row {k} lost"
                    );
                }
                assert_eq!(report.committed_seen, 20);
                assert_eq!(report.losers_undone, 0);
            },
        );
    }

    #[test]
    fn active_transaction_is_rolled_back() {
        crash_and_recover(
            |db| async move {
                let t = db.table("t").unwrap();
                let txn = db.begin().await.unwrap();
                db.insert(txn, t, 1, b"committed").await.unwrap();
                db.commit(txn).await.unwrap();
                // A loser: updates row 1, inserts row 2, never commits.
                let loser = db.begin().await.unwrap();
                db.update(loser, t, 1, b"dirty").await.unwrap();
                db.insert(loser, t, 2, b"ghost").await.unwrap();
                // Make sure the loser's records are durable so undo has
                // something real to chew on.
                db.wal().kick();
                db.wal().wait_durable(db.wal().end()).await.unwrap();
            },
            |db, report| async move {
                let t = db.table("t").unwrap();
                assert_eq!(db.get(t, 1).await.unwrap(), Some(b"committed".to_vec()));
                assert_eq!(db.get(t, 2).await.unwrap(), None, "ghost insert undone");
                assert_eq!(report.losers_undone, 1);
            },
        );
    }

    #[test]
    fn aborted_transaction_stays_aborted() {
        crash_and_recover(
            |db| async move {
                let t = db.table("t").unwrap();
                let txn = db.begin().await.unwrap();
                db.insert(txn, t, 5, b"base").await.unwrap();
                db.commit(txn).await.unwrap();
                let txn = db.begin().await.unwrap();
                db.update(txn, t, 5, b"oops").await.unwrap();
                db.abort(txn).await.unwrap();
                db.wal().kick();
                db.wal().wait_durable(db.wal().end()).await.unwrap();
            },
            |db, report| async move {
                let t = db.table("t").unwrap();
                assert_eq!(db.get(t, 5).await.unwrap(), Some(b"base".to_vec()));
                assert_eq!(report.losers_undone, 0, "abort already completed");
            },
        );
    }

    #[test]
    fn recovery_after_checkpoint_and_more_work() {
        crash_and_recover(
            |db| async move {
                let t = db.table("t").unwrap();
                for k in 0..10u64 {
                    let txn = db.begin().await.unwrap();
                    db.insert(txn, t, k, b"pre-ckpt").await.unwrap();
                    db.commit(txn).await.unwrap();
                }
                db.checkpoint().await.unwrap();
                for k in 10..20u64 {
                    let txn = db.begin().await.unwrap();
                    db.insert(txn, t, k, b"post-ckpt").await.unwrap();
                    db.commit(txn).await.unwrap();
                }
                let txn = db.begin().await.unwrap();
                db.delete(txn, t, 0).await.unwrap();
                db.commit(txn).await.unwrap();
            },
            |db, _report| async move {
                let t = db.table("t").unwrap();
                assert_eq!(db.get(t, 0).await.unwrap(), None);
                for k in 1..20u64 {
                    assert!(db.get(t, k).await.unwrap().is_some(), "row {k} lost");
                }
                assert_eq!(db.row_count(t), 19);
            },
        );
    }

    #[test]
    fn torn_data_page_rebuilt_from_full_page_image() {
        let mut sim = Sim::new(9);
        let ctx = sim.ctx();
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        let c2 = ctx.clone();
        sim.spawn(async move {
            let data = Disk::new(&c2, specs::instant(64 << 20));
            let log = Rc::new(Disk::new(&c2, specs::instant(64 << 20)));
            let db = Database::create(
                &c2,
                DbConfig::default(),
                &defs(),
                Rc::new(data.clone()) as Rc<dyn BlockDevice>,
                Rc::clone(&log) as Rc<dyn BlockDevice>,
                DomainId::ROOT,
            )
            .await
            .unwrap();
            let t = db.table("t").unwrap();
            let txn = db.begin().await.unwrap();
            db.insert(txn, t, 1, b"precious").await.unwrap();
            db.commit(txn).await.unwrap();
            // Force the page out so media holds a valid copy, then plant a
            // torn write over it.
            db.checkpoint().await.unwrap();
            // More committed work on the same page after the checkpoint
            // (guarantees a fresh FPW in the redo range).
            let txn = db.begin().await.unwrap();
            db.update(txn, t, 1, b"updated").await.unwrap();
            db.commit(txn).await.unwrap();
            db.stop();
            // Tear the page on media: garbage in its middle sector.
            let meta = db.table_meta(t).unwrap();
            let first_page_sector = meta.base_page * PAGE_SECTORS;
            data.poke_media(first_page_sector + 3, &vec![0xEE; 512]);
            let (db2, report) = Database::open(
                &c2,
                DbConfig::default(),
                Rc::new(data.clone()) as Rc<dyn BlockDevice>,
                log as Rc<dyn BlockDevice>,
                DomainId::ROOT,
            )
            .await
            .expect("recovery survives the torn page");
            assert_eq!(db2.get(t, 1).await.unwrap(), Some(b"updated".to_vec()));
            assert!(report.redo_applied >= 1);
            db2.stop();
            d2.set(true);
        });
        sim.run();
        assert!(done.get());
    }

    #[test]
    fn double_recovery_is_idempotent() {
        let mut sim = Sim::new(9);
        let ctx = sim.ctx();
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        let c2 = ctx.clone();
        sim.spawn(async move {
            let data: Rc<dyn BlockDevice> = Rc::new(Disk::new(&c2, specs::instant(64 << 20)));
            let log: Rc<dyn BlockDevice> = Rc::new(Disk::new(&c2, specs::instant(64 << 20)));
            let db = Database::create(
                &c2,
                DbConfig::default(),
                &defs(),
                Rc::clone(&data),
                Rc::clone(&log),
                DomainId::ROOT,
            )
            .await
            .unwrap();
            let t = db.table("t").unwrap();
            let txn = db.begin().await.unwrap();
            db.insert(txn, t, 77, b"x").await.unwrap();
            db.commit(txn).await.unwrap();
            let loser = db.begin().await.unwrap();
            db.update(loser, t, 77, b"y").await.unwrap();
            db.wal().kick();
            db.wal().wait_durable(db.wal().end()).await.unwrap();
            db.stop();
            let (db2, _) = Database::open(
                &c2,
                DbConfig::default(),
                Rc::clone(&data),
                Rc::clone(&log),
                DomainId::ROOT,
            )
            .await
            .unwrap();
            db2.stop();
            let (db3, report) = Database::open(
                &c2,
                DbConfig::default(),
                Rc::clone(&data),
                Rc::clone(&log),
                DomainId::ROOT,
            )
            .await
            .unwrap();
            assert_eq!(db3.get(t, 77).await.unwrap(), Some(b"x".to_vec()));
            assert_eq!(report.losers_undone, 0, "first recovery finished the job");
            db3.stop();
            d2.set(true);
        });
        sim.run();
        assert!(done.get());
    }
}

#[cfg(test)]
mod checkpoint_spanning_tests {
    use super::*;
    use crate::engine::TableDef;
    use rapilog_simcore::Sim;
    use rapilog_simdisk::{specs, Disk};
    use std::cell::Cell as StdCell;
    use std::rc::Rc;

    /// A transaction that began *before* a checkpoint and wrote nothing
    /// after it is invisible to the redo scan — only the checkpoint
    /// record's active-transaction list knows it must be rolled back.
    #[test]
    fn loser_spanning_a_checkpoint_is_rolled_back_via_the_active_list() {
        let mut sim = Sim::new(9);
        let ctx = sim.ctx();
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        let c2 = ctx.clone();
        sim.spawn(async move {
            let data: Rc<dyn BlockDevice> = Rc::new(Disk::new(&c2, specs::instant(64 << 20)));
            let log_disk = Disk::new(&c2, specs::instant(64 << 20));
            let log: Rc<dyn BlockDevice> = Rc::new(log_disk.clone());
            let defs = [TableDef {
                name: "t".to_string(),
                slot_size: 64,
                max_rows: 100,
            }];
            let db = Database::create(
                &c2,
                DbConfig::default(),
                &defs,
                Rc::clone(&data),
                Rc::clone(&log),
                DomainId::ROOT,
            )
            .await
            .unwrap();
            let t = db.table("t").unwrap();
            let setup = db.begin().await.unwrap();
            db.insert(setup, t, 1, b"base").await.unwrap();
            db.commit(setup).await.unwrap();
            // The long transaction: writes before the checkpoint, then
            // stays silent.
            let long = db.begin().await.unwrap();
            db.update(long, t, 1, b"dirty-from-long-txn").await.unwrap();
            db.wal().kick();
            db.wal().wait_durable(db.wal().end()).await.unwrap();
            // Checkpoint while `long` is active: its last LSN enters the
            // checkpoint record; the redo scan starts after its records.
            db.checkpoint().await.unwrap();
            // Unrelated committed work after the checkpoint.
            let other = db.begin().await.unwrap();
            db.insert(other, t, 2, b"after-ckpt").await.unwrap();
            db.commit(other).await.unwrap();
            // Crash with `long` still open.
            db.stop();
            let reads_before = log_disk.stats().reads;
            let (db2, report) = Database::open(&c2, DbConfig::default(), data, log, DomainId::ROOT)
                .await
                .expect("recovery");
            // The scan's chunk reads (the log is far shorter than a chunk,
            // so just the read-ahead window) and exactly one read per record
            // the undo chain fetched from below the scan start: `long`'s
            // update and its begin record. The superblock comes with the
            // catalog page, from the data device.
            let window = log_disk.geometry().queue_depth as u64 + 1;
            assert_eq!(
                log_disk.stats().reads - reads_before,
                window + 2,
                "each below-horizon undo record costs one device read, not two"
            );
            assert_eq!(
                report.losers_undone, 1,
                "the spanning transaction was identified from the checkpoint's active list"
            );
            assert_eq!(
                db2.get(t, 1).await.unwrap(),
                Some(b"base".to_vec()),
                "the pre-checkpoint dirty write was undone via the chain below the redo horizon"
            );
            assert_eq!(db2.get(t, 2).await.unwrap(), Some(b"after-ckpt".to_vec()));
            db2.stop();
            d2.set(true);
        });
        sim.run_until(rapilog_simcore::SimTime::from_secs(30));
        assert!(done.get());
    }

    /// A commit record is in the log from the step that appends it, before
    /// the device has it. A checkpoint taken while the commit still waits
    /// writes its record *behind* the commit record, and with a clean pool
    /// the redo scan starts at the checkpoint record: had it listed the
    /// transaction as active, recovery would find no commit record for it
    /// and undo an acknowledged commit (it did, until PR 21).
    #[test]
    fn a_commit_waiting_for_the_log_is_not_active_to_a_checkpoint() {
        let mut sim = Sim::new(9);
        let ctx = sim.ctx();
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        let c2 = ctx.clone();
        sim.spawn(async move {
            let data: Rc<dyn BlockDevice> = Rc::new(Disk::new(&c2, specs::instant(64 << 20)));
            // A log force takes milliseconds here.
            let log: Rc<dyn BlockDevice> = Rc::new(Disk::new(&c2, specs::hdd_7200(64 << 20)));
            let defs = [TableDef {
                name: "t".to_string(),
                slot_size: 64,
                max_rows: 100,
            }];
            let (data2, log2) = (Rc::clone(&data), Rc::clone(&log));
            let db = Database::create(&c2, DbConfig::default(), &defs, data, log, DomainId::ROOT)
                .await
                .unwrap();
            let t = db.table("t").unwrap();
            let setup = db.begin().await.unwrap();
            db.insert(setup, t, 1, b"base").await.unwrap();
            db.commit(setup).await.unwrap();
            let txn = db.begin().await.unwrap();
            db.update(txn, t, 1, b"acknowledged").await.unwrap();
            // A first checkpoint leaves the pool clean, so the second one
            // below gets to its record without waiting for the log.
            db.checkpoint().await.unwrap();
            let staged = db.wal().end();
            let committing = c2.spawn({
                let db = db.clone();
                async move { db.commit(txn).await }
            });
            while db.wal().end() == staged {
                c2.sleep(SimDuration::from_micros(1)).await;
            }
            assert!(db.wal().durable() < db.wal().end(), "the commit waits");
            db.checkpoint().await.unwrap();
            committing.await.unwrap().expect("the commit succeeds");
            db.stop();
            let (db2, report) =
                Database::open(&c2, DbConfig::default(), data2, log2, DomainId::ROOT)
                    .await
                    .expect("recovery");
            assert_eq!(report.losers_undone, 0);
            assert_eq!(db2.get(t, 1).await.unwrap(), Some(b"acknowledged".to_vec()));
            db2.stop();
            d2.set(true);
        });
        sim.run_until(rapilog_simcore::SimTime::from_secs(30));
        assert!(done.get());
    }

    /// An abort is a loser until its `Abort` record is in the log. It waits
    /// for a page between two compensation records; a checkpoint taken in
    /// that wait, with the pool clean behind it, starts the redo scan at its
    /// own record, and a crash before the next CLR is durable leaves the
    /// checkpoint's active list as the only trace of the transaction. Had
    /// the abort left the table on entry (it did, until PR 23), nobody
    /// would undo the update it had not yet compensated — already on the
    /// data disk, stolen by an eviction.
    #[test]
    fn an_abort_between_two_clrs_is_still_active_to_a_checkpoint() {
        let mut sim = Sim::new(9);
        let ctx = sim.ctx();
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        let c2 = ctx.clone();
        sim.spawn(async move {
            // A data disk that takes 10 ms to read a page and no time to
            // write one, on separate channels: the abort's page fetch is
            // long, the checkpoint inside it instantaneous.
            let mut spec = specs::instant(64 << 20);
            spec.timing = rapilog_simdisk::TimingSpec::Ssd {
                read_latency: SimDuration::from_millis(10),
                write_latency: SimDuration::ZERO,
                flush_latency: SimDuration::ZERO,
                bus_bytes_per_sec: u64::MAX,
                channels: 4,
            };
            let data: Rc<dyn BlockDevice> = Rc::new(Disk::new(&c2, spec));
            let log: Rc<dyn BlockDevice> = Rc::new(Disk::new(&c2, specs::instant(64 << 20)));
            // One page per table, a pool that holds two of the three.
            let defs = ["a", "b", "c"].map(|name| TableDef {
                name: name.to_string(),
                slot_size: 64,
                max_rows: 100,
            });
            let cfg = DbConfig {
                pool_pages: 2,
                ..DbConfig::default()
            };
            let (data2, log2) = (Rc::clone(&data), Rc::clone(&log));
            let db = Database::create(&c2, cfg.clone(), &defs, data, log, DomainId::ROOT)
                .await
                .unwrap();
            let [a, b, c] = ["a", "b", "c"].map(|name| db.table(name).unwrap());
            let setup = db.begin().await.unwrap();
            for t in [a, b, c] {
                db.insert(setup, t, 1, b"base").await.unwrap();
            }
            db.commit(setup).await.unwrap();
            let txn = db.begin().await.unwrap();
            db.update(txn, a, 1, b"never committed").await.unwrap();
            db.update(txn, b, 1, b"never committed").await.unwrap();
            // Reading `c` evicts `a`'s page: the update reaches the data
            // disk (its log record first).
            assert_eq!(db.get(c, 1).await.unwrap(), Some(b"base".to_vec()));
            let misses = db.pool().stats().misses;
            let records = db.wal().stats().records;
            c2.spawn({
                let db = db.clone();
                async move { db.abort(txn).await }
            });
            // `b` is compensated in memory; `a`'s page is on its way back.
            while db.wal().stats().records == records {
                c2.sleep(SimDuration::from_micros(1)).await;
            }
            db.checkpoint().await.unwrap();
            assert_eq!(db.pool().stats().misses, misses + 1, "the abort waits");
            assert_eq!(
                db.wal().stats().records,
                records + 2,
                "one CLR and the checkpoint"
            );
            db.stop();
            let (db2, report) = Database::open(&c2, cfg, data2, log2, DomainId::ROOT)
                .await
                .expect("recovery");
            for t in [a, b] {
                assert_eq!(db2.get(t, 1).await.unwrap(), Some(b"base".to_vec()));
            }
            assert_eq!(report.losers_undone, 1);
            db2.stop();
            d2.set(true);
        });
        sim.run_until(rapilog_simcore::SimTime::from_secs(30));
        assert!(done.get());
    }

    /// Media corruption in the middle of the durable log truncates
    /// recovery at the last valid prefix instead of crashing it.
    #[test]
    fn mid_log_corruption_truncates_the_scan_cleanly() {
        let mut sim = Sim::new(9);
        let ctx = sim.ctx();
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        let c2 = ctx.clone();
        sim.spawn(async move {
            let data: Rc<dyn BlockDevice> = Rc::new(Disk::new(&c2, specs::instant(64 << 20)));
            let log_disk = Disk::new(&c2, specs::instant(64 << 20));
            let log: Rc<dyn BlockDevice> = Rc::new(log_disk.clone());
            let defs = [TableDef {
                name: "t".to_string(),
                slot_size: 64,
                max_rows: 100,
            }];
            let db = Database::create(
                &c2,
                DbConfig::default(),
                &defs,
                Rc::clone(&data),
                Rc::clone(&log),
                DomainId::ROOT,
            )
            .await
            .unwrap();
            let t = db.table("t").unwrap();
            // Enough commits that the sector smashed below lies past the
            // first one and the full-page image before it.
            for k in 0..40u64 {
                let txn = db.begin().await.unwrap();
                db.insert(txn, t, k, b"v").await.unwrap();
                db.commit(txn).await.unwrap();
            }
            let end = db.wal().end();
            db.stop();
            // Smash the tail of the durable log (the stream lives from
            // sector 1; corrupt the last written sector).
            let last_sector = 1 + (end.0 / 512).saturating_sub(1);
            log_disk.poke_media(last_sector, &vec![0xBD; 512]);
            let (db2, report) = Database::open(&c2, DbConfig::default(), data, log, DomainId::ROOT)
                .await
                .expect("recovery survives mid-log corruption");
            assert!(report.log_end < end, "scan truncated at the damage");
            // Early committed keys (whose records precede the damage) are
            // intact.
            assert_eq!(db2.get(t, 0).await.unwrap(), Some(b"v".to_vec()));
            db2.stop();
            d2.set(true);
        });
        sim.run_until(rapilog_simcore::SimTime::from_secs(30));
        assert!(done.get());
    }
}

#[cfg(test)]
mod model_tests {
    use super::*;
    use crate::engine::TableDef;
    use crate::types::TableId;
    use crate::wal::{Superblock, SUPERBLOCK_SECTOR};
    use rapilog_simcore::sync::Event;
    use rapilog_simcore::Sim;
    use rapilog_simdisk::{specs, Disk, DiskSpec};
    use std::cell::Cell as StdCell;

    /// Deterministic multiplier-increment generator so every trial replays
    /// bit-identically from its seed.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 11
        }
    }

    fn nvme(bytes: u64) -> DiskSpec {
        specs::ssd_nvme(bytes).with_channels(4)
    }

    /// The durable media contents, cache excluded — exactly what a crash
    /// leaves behind.
    fn media_image(d: &Disk) -> Vec<u8> {
        let mut buf = vec![0u8; (d.spec().sectors * SECTOR_SIZE as u64) as usize];
        d.peek_media(0, &mut buf);
        buf
    }

    /// Log-disk size of the wrap trials: a 128 KiB circular region, which
    /// the checkpointed workload laps within a few dozen transactions.
    const WRAP_LOG_BYTES: u64 = 257 * SECTOR_SIZE as u64;

    /// Every key ever inserted reads back as the model says: its last
    /// committed row, or nothing once a committed delete removed it.
    async fn assert_model(
        db: &Database,
        t: TableId,
        committed: &BTreeMap<u64, Vec<u8>>,
        keys: u64,
        what: &str,
    ) {
        for k in 0..keys {
            assert_eq!(
                db.get(t, k).await.unwrap().as_ref(),
                committed.get(&k),
                "{what}: key {k} is not its last committed row"
            );
        }
    }

    /// One random workload → crash → recover, checked against a model of
    /// the committed state kept beside the workload, then recover the
    /// recovered image once more: nothing left to redo or undo, and the
    /// data image unchanged. With `wrap`, the log region is tiny and the
    /// workload checkpoints every few transactions until the
    /// un-checkpointed log straddles the end of the circular region.
    fn model_trial(seed: u64, wrap: bool) {
        let mut sim = Sim::new(seed);
        let ctx = sim.ctx();
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        let c2 = ctx.clone();
        sim.spawn(async move {
            let mut rng = Rng(seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1));
            let cfg = DbConfig::default();
            let log_bytes = if wrap { WRAP_LOG_BYTES } else { 4 << 20 };
            let region_bytes = log_bytes - SECTOR_SIZE as u64;
            let data = Disk::new(&c2, nvme(4 << 20));
            let log = Disk::new(&c2, nvme(log_bytes));
            let defs = vec![TableDef {
                name: "t".to_string(),
                slot_size: 64,
                max_rows: 2_000,
            }];
            let db = Database::create(
                &c2,
                cfg.clone(),
                &defs,
                Rc::new(data.clone()) as Rc<dyn BlockDevice>,
                Rc::new(log.clone()) as Rc<dyn BlockDevice>,
                DomainId::ROOT,
            )
            .await
            .unwrap();
            let t = db.table("t").unwrap();
            // The model: every key's last committed row; a committed delete
            // removes the key. Keys are never reused, so every key below
            // `next_key` missing from the model must read as absent.
            let mut committed: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
            let mut next_key = 0u64;
            let txn = db.begin().await.unwrap();
            for _ in 0..30 {
                let row = format!("base{next_key}").into_bytes();
                db.insert(txn, t, next_key, &row).await.unwrap();
                committed.insert(next_key, row);
                next_key += 1;
            }
            db.commit(txn).await.unwrap();
            let ops = 40 + rng.next() % 60;
            // Half the trials crash without any mid-run checkpoint.
            let ckpt_at = rng.next() % (ops * 2);
            // Wrap trials checkpoint every few transactions instead (the
            // region holds only a handful of full-page images) and run
            // until the log past the last checkpoint crosses the region end.
            let ckpt_every = 4 + rng.next() % 5;
            let mut last_ckpt = db.wal().end();
            for i in 0.. {
                if wrap {
                    let end = db.wal().end();
                    if end.0 / region_bytes > last_ckpt.0 / region_bytes && i % ckpt_every != 0 {
                        break;
                    }
                    assert!(i < 5_000, "seed {seed}: the log never lapped its region");
                } else if i == ops {
                    break;
                }
                if wrap && i % ckpt_every == 0 || !wrap && i == ckpt_at {
                    last_ckpt = db.wal().end();
                    db.checkpoint().await.unwrap();
                }
                let txn = db.begin().await.unwrap();
                let pick = |rng: &mut Rng| {
                    let nth = rng.next() as usize % committed.len();
                    *committed.keys().nth(nth).unwrap()
                };
                let (k, row) = match rng.next() % 3 {
                    0 => {
                        let (k, row) = (next_key, format!("i{seed}-{i}").into_bytes());
                        next_key += 1;
                        db.insert(txn, t, k, &row).await.unwrap();
                        (k, Some(row))
                    }
                    1 => {
                        let (k, row) = (pick(&mut rng), format!("u{seed}-{i}").into_bytes());
                        db.update(txn, t, k, &row).await.unwrap();
                        (k, Some(row))
                    }
                    _ => {
                        let k = pick(&mut rng);
                        db.delete(txn, t, k).await.unwrap();
                        (k, None)
                    }
                };
                db.commit(txn).await.unwrap();
                match row {
                    Some(row) => committed.insert(k, row),
                    None => committed.remove(&k),
                };
            }
            // Leave a few losers open at the crash (distinct keys, so they
            // never deadlock each other).
            let losers: Vec<u64> = committed
                .keys()
                .copied()
                .take((rng.next() % 3) as usize)
                .collect();
            for &k in &losers {
                let loser = db.begin().await.unwrap();
                db.update(loser, t, k, b"loser-dirt").await.unwrap();
            }
            db.wal().kick();
            let losers_durable = rng.next().is_multiple_of(2);
            if losers_durable {
                db.wal().wait_durable(db.wal().end()).await.unwrap();
            }
            db.stop();
            // Crash: the buffer pool and staged WAL tail die with the
            // process; only the durable media survives.
            let data_img = media_image(&data);
            let log_img = media_image(&log);
            // The tail the scan hands to `preload_tail` comes out of its
            // own buffer; it must be byte-for-byte what a fresh device read
            // of that sector returns, at every read-ahead depth. So must
            // every record redo and undo decode from the scanned bytes.
            let at = SUPERBLOCK_SECTOR as usize * SECTOR_SIZE;
            let sb = Superblock::decode(&data_img[at..at + SECTOR_SIZE]).expect("superblock");
            let log = Disk::new(&c2, nvme(log_bytes));
            log.poke_media(0, &log_img);
            let region_sectors = region_bytes / SECTOR_SIZE as u64;
            let mut ends = Vec::new();
            for window in [1, 2, 5] {
                let what = format!("seed {seed} window {window}");
                let mut analysed = Vec::new();
                let scan = scan_log(&log, sb.checkpoint, window, |lsn, _| analysed.push(lsn))
                    .await
                    .unwrap();
                ends.push(scan.log_end);
                let tail = scan.tail();
                let tail_start = scan.log_end.0 - tail.len() as u64;
                assert_eq!(tail_start % SECTOR_SIZE as u64, 0);
                assert!(tail.len() < SECTOR_SIZE);
                let reread =
                    crate::wal::read_stream(&log, region_sectors, Lsn(tail_start), tail.len())
                        .await
                        .unwrap();
                assert!(
                    tail == reread,
                    "{what}: scanned tail differs from a device re-read"
                );
                // The scanned range re-read from the device and decoded
                // frame by frame: the records in scan order, each of which
                // the scan must decode at its LSN, trusted or verified.
                let range = (scan.log_end.0 - sb.checkpoint.0) as usize;
                let stream = crate::wal::read_stream(&log, region_sectors, sb.checkpoint, range)
                    .await
                    .unwrap();
                let (mut at, mut lsns) = (0, Vec::new());
                while at < range {
                    let lsn = sb.checkpoint.advance(at as u64);
                    let (rec, n) = Record::decode(&stream[at..], lsn).expect("scanned frame");
                    for verify in [false, true] {
                        let got = scan.record_at(lsn, verify);
                        assert!(got.as_ref() == Some(&rec), "{what}: the record at {lsn}");
                    }
                    lsns.push(lsn);
                    at += n;
                }
                assert!(!lsns.is_empty(), "{what}: nothing scanned");
                assert_eq!(analysed, lsns, "{what}: analysis saw other records");
                // Outside: the kept bytes of the sector the scan started
                // in that lie before its start (the record before the
                // checkpoint often begins there), the end and beyond.
                let floor = sb.checkpoint.0 / SECTOR_SIZE as u64 * SECTOR_SIZE as u64;
                let past = [scan.log_end.0, scan.log_end.0 + 1, u64::MAX];
                for outside in (floor..sb.checkpoint.0).chain(past).map(Lsn) {
                    for verify in [false, true] {
                        let got = scan.record_at(outside, verify);
                        assert!(got.is_none(), "{what}: a record at {outside}");
                    }
                }
                if wrap {
                    assert!(
                        scan.log_end.0 / region_bytes > sb.checkpoint.0 / region_bytes,
                        "seed {seed}: the scanned range was meant to straddle the region end \
                         ({:?}..{:?} in a {region_bytes}-byte region)",
                        sb.checkpoint,
                        scan.log_end
                    );
                }
            }
            assert!(
                ends.iter().all(|end| *end == ends[0]),
                "seed {seed}: the torn tail moved with the window: {ends:?}"
            );
            let rdata = Disk::new(&c2, nvme(4 << 20));
            let rlog = Disk::new(&c2, nvme(log_bytes));
            rdata.poke_media(0, &data_img);
            rlog.poke_media(0, &log_img);
            let open = || {
                Database::open(
                    &c2,
                    cfg.clone(),
                    Rc::new(rdata.clone()) as Rc<dyn BlockDevice>,
                    Rc::new(rlog.clone()) as Rc<dyn BlockDevice>,
                    DomainId::ROOT,
                )
            };
            let (rdb, report) = open().await.expect("recovery");
            assert_eq!(
                report.scan_time + report.redo_time + report.undo_time + report.finish_time,
                report.duration,
                "seed {seed}: the four phases tile the recovery exactly"
            );
            assert!(!report.scan_time.is_zero() && !report.finish_time.is_zero());
            assert_model(&rdb, t, &committed, next_key, &format!("seed {seed}")).await;
            // Every open loser is rolled back: its update is gone (the model
            // check above), and it was undone if its record was durable.
            assert!(report.losers_undone <= losers.len() as u64);
            if losers_durable {
                assert_eq!(report.losers_undone, losers.len() as u64, "seed {seed}");
            }
            rdb.stop();
            // The recovered image is a clean one: recovering it again finds
            // nothing to redo or undo and writes no data page; its closing
            // checkpoint moves the superblock (in the catalog page) forward.
            let sb_at = at..at + SECTOR_SIZE;
            let superblock = |img: &[u8]| Superblock::decode(&img[sb_at.clone()]).unwrap();
            let mut recovered = media_image(&rdata);
            let first = superblock(&recovered);
            let (rdb, again) = open().await.expect("second recovery");
            assert_eq!(
                (again.redo_applied, again.losers_undone),
                (0, 0),
                "seed {seed}: the second recovery had work left: {again:?}"
            );
            assert_model(&rdb, t, &committed, next_key, &format!("seed {seed} again")).await;
            rdb.stop();
            let mut again_img = media_image(&rdata);
            assert!(
                superblock(&again_img).checkpoint > first.checkpoint,
                "seed {seed}: the second recovery's checkpoint did not reach the superblock"
            );
            recovered[sb_at.clone()].fill(0);
            again_img[sb_at].fill(0);
            assert!(
                again_img == recovered,
                "seed {seed}: recovering the recovered image changed a data page"
            );
            d2.set(true);
        });
        sim.run_until(rapilog_simcore::SimTime::from_secs(120));
        assert!(done.get(), "seed {seed}: trial completed");
    }

    /// Recovery restores exactly the committed state — every key's last
    /// committed row, no deleted key, no loser's update — across random
    /// crash points (random op mixes, checkpoint positions, open losers,
    /// torn vs durable log tails, and logs that straddle the end of the
    /// circular region); recovering the result again is a no-op; and in
    /// every one of them the tail sector the scan keeps equals a device
    /// re-read.
    #[test]
    fn recovery_restores_the_committed_model() {
        for seed in [2, 3, 17, 42, 71, 104] {
            model_trial(seed, false);
        }
        for seed in [5, 8, 23, 60] {
            model_trial(seed, true);
        }
    }

    /// A dirty-page-table entry goes stale when its page reaches media
    /// *after* the checkpoint record was written. Redo must rescan that
    /// page's records (they survive the DPT filter) but apply none of them
    /// — and records under clean pages in the same scan window are skipped
    /// without even a page read.
    #[test]
    fn stale_dirty_page_table_entry_is_skipped_by_redo() {
        let mut sim = Sim::new(5);
        let ctx = sim.ctx();
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        let c2 = ctx.clone();
        sim.spawn(async move {
            let cfg = DbConfig::default();
            let data = Disk::new(&c2, nvme(8 << 20));
            let log = Disk::new(&c2, nvme(8 << 20));
            let defs = vec![TableDef {
                name: "t".to_string(),
                slot_size: 64,
                max_rows: 2_000,
            }];
            let db = Database::create(
                &c2,
                cfg.clone(),
                &defs,
                Rc::new(data.clone()) as Rc<dyn BlockDevice>,
                Rc::new(log.clone()) as Rc<dyn BlockDevice>,
                DomainId::ROOT,
            )
            .await
            .unwrap();
            let t = db.table("t").unwrap();
            let meta = db.table_meta(t).unwrap();
            let spp = meta.spp as u64;
            // Slots are allocated sequentially, so key k lands on page
            // k / spp. Populate pages 0..=7; key B sits alone on page 7.
            let b_key = 7 * spp;
            let txn = db.begin().await.unwrap();
            for k in 0..=b_key {
                db.insert(txn, t, k, format!("init{k}").as_bytes())
                    .await
                    .unwrap();
            }
            db.commit(txn).await.unwrap();
            // First checkpoint: everything clean on media.
            db.checkpoint().await.unwrap();
            // Dirty pages 0..=5 (the checkpoint below must have real work,
            // so a concurrent update can land inside its flush window).
            let c_key = 6 * spp - 1; // last slot of page 5: flushed last
            let txn = db.begin().await.unwrap();
            for k in 0..=c_key {
                db.update(txn, t, k, format!("v1-{k}").as_bytes())
                    .await
                    .unwrap();
            }
            db.commit(txn).await.unwrap();
            // While the fuzzy checkpoint flushes its snapshot, a client
            // dirties page 7 (key B: clean → dirty, enters the DPT) and
            // re-dirties page 5 (key C: flushed later in the same pass, so
            // it is clean again when the DPT is captured).
            let window_done = Event::new();
            let dbw = db.clone();
            let wd = window_done.clone();
            let cw = c2.clone();
            c2.spawn_in(DomainId::ROOT, async move {
                cw.sleep(SimDuration::from_micros(5)).await;
                let txn = dbw.begin().await.unwrap();
                dbw.update(txn, t, b_key, b"b1").await.unwrap();
                dbw.update(txn, t, c_key, b"c1").await.unwrap();
                dbw.commit(txn).await.unwrap();
                wd.set();
            });
            db.checkpoint().await.unwrap();
            window_done.wait().await;
            // The checkpoint record's DPT must have caught page 7 dirty —
            // otherwise this test exercises nothing.
            let dirty = db.inner.pool.dirty_page_table();
            assert_eq!(
                dirty.len(),
                1,
                "exactly page 7 (key B) stayed dirty through the fuzzy checkpoint: {dirty:?}"
            );
            assert_eq!(dirty[0].0, PageId(meta.base_page + 7));
            // Now make that DPT entry stale: flush page 7 to durable media
            // *after* the checkpoint record was written.
            db.inner.pool.flush_pages(&dirty).await.unwrap();
            db.inner.pool.barrier().await.unwrap();
            db.wal().kick();
            db.wal().wait_durable(db.wal().end()).await.unwrap();
            db.stop();
            // Crash and recover from the durable image alone.
            let data_img = media_image(&data);
            let log_img = media_image(&log);
            let rdata = Disk::new(&c2, nvme(8 << 20));
            let rlog = Disk::new(&c2, nvme(8 << 20));
            rdata.poke_media(0, &data_img);
            rlog.poke_media(0, &log_img);
            let (rdb, report) = Database::open(
                &c2,
                cfg,
                Rc::new(rdata.clone()) as Rc<dyn BlockDevice>,
                Rc::new(rlog.clone()) as Rc<dyn BlockDevice>,
                DomainId::ROOT,
            )
            .await
            .expect("recovery");
            // Page B's records survive the DPT filter (its entry says
            // dirty), but the page's on-media LSN is already current, so
            // redo applies nothing.
            assert_eq!(
                report.redo_applied, 0,
                "the stale entry's page was flushed after the checkpoint — nothing to replay"
            );
            // Page C's pre-checkpoint update was proven clean by the DPT
            // and skipped without a page read.
            assert!(
                report.redo_skipped_clean >= 1,
                "the clean page's scanned records were skipped: {report:?}"
            );
            assert_eq!(rdb.get(t, b_key).await.unwrap(), Some(b"b1".to_vec()));
            assert_eq!(rdb.get(t, c_key).await.unwrap(), Some(b"c1".to_vec()));
            assert_eq!(rdb.get(t, 0).await.unwrap(), Some(b"v1-0".to_vec()));
            rdb.stop();
            d2.set(true);
        });
        sim.run_until(rapilog_simcore::SimTime::from_secs(60));
        assert!(done.get());
    }
}
