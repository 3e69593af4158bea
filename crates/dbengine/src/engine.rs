//! The database façade: catalog, transactions, row operations, checkpoints.
//!
//! See the [crate docs](crate) for the architecture. The engine is driven
//! entirely by its callers' tasks (the simulated clients) plus two
//! background tasks — the WAL flusher and the checkpointer — all spawned in
//! the **database's own cancellation domain**: when the guest OS crashes,
//! the whole engine vanishes mid-flight, like a real kernel panic.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeSet, HashMap};
use std::rc::Rc;

use rapilog_simcore::bytes::SectorBuf;
use rapilog_simcore::hash::FastMap;
use rapilog_simcore::sync::Event;
use rapilog_simcore::{DomainId, SimCtx, SimDuration};
use rapilog_simdisk::{BlockDevice, IoReq, SECTOR_SIZE};

use crate::buffer::{BufferPool, FrameRef};
use crate::error::{DbError, DbResult};
use crate::index::KeyIndex;
use crate::page::{slots_per_page, PAGE_SECTORS};
use crate::profile::EngineProfile;
use crate::recovery::apply_record;
use crate::retry::os_block_layer;
use crate::txn::LockTable;
use crate::types::{Key, Lsn, PageId, TableId, TxnId};
use crate::util::{crc32, put_bytes, put_u32, put_var, Cursor};
use crate::wal::{Record, Superblock, Wal, SUPERBLOCK_SECTOR};

/// Table declaration at `create` time.
#[derive(Debug, Clone)]
pub struct TableDef {
    /// Table name.
    pub name: String,
    /// Fixed row capacity in bytes.
    pub slot_size: u16,
    /// Maximum number of rows; determines the page region size.
    pub max_rows: u64,
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct DbConfig {
    /// Commit policy and CPU cost personality.
    pub profile: EngineProfile,
    /// Buffer pool capacity in pages.
    pub pool_pages: usize,
    /// CPU multiplier (1.0 native; >1.0 models the hypervisor CPU tax).
    pub cpu_factor: f64,
    /// Automatic checkpoint period (the checkpointer task).
    pub checkpoint_interval: SimDuration,
}

/// Lock wait budget before a transaction is told to abort: a deadlock costs
/// half a second, far more than a TPC-C transaction waits for a row lock.
pub(crate) const LOCK_TIMEOUT: SimDuration = SimDuration::from_millis(500);

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            profile: EngineProfile::pg_like(),
            pool_pages: 2048,
            cpu_factor: 1.0,
            checkpoint_interval: SimDuration::from_secs(5),
        }
    }
}

/// Catalog entry with the assigned page region.
#[derive(Debug, Clone)]
pub struct TableMeta {
    /// Table id (position in the catalog).
    pub id: TableId,
    /// Name.
    pub name: String,
    /// Slot size in bytes.
    pub slot_size: u16,
    /// First page of the region.
    pub base_page: u64,
    /// Pages in the region.
    pub n_pages: u64,
    /// Slots per page.
    pub spp: u16,
}

impl TableMeta {
    /// Slots in the region, if it has any (a slot number is divided by
    /// `spp`) and a `u32` can number them all.
    fn capacity(&self) -> DbResult<u32> {
        let slots = self.n_pages.checked_mul(self.spp as u64).filter(|&n| n > 0);
        let bad = || DbError::Corrupt(format!("table {}: bad slot count", self.name));
        slots.and_then(|n| u32::try_from(n).ok()).ok_or_else(bad)
    }

    /// The address of flat slot `flat` of the region.
    pub(crate) fn slot_addr(&self, flat: u32) -> SlotAddr {
        SlotAddr {
            page: PageId(self.base_page + flat as u64 / self.spp as u64),
            slot: (flat % self.spp as u32) as u16,
        }
    }

    /// The flat slot of `addr`, an address in the region: below its capacity.
    pub(crate) fn flat(&self, addr: SlotAddr) -> u32 {
        ((addr.page.0 - self.base_page) * self.spp as u64 + addr.slot as u64) as u32
    }
}

/// Physical address of a row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SlotAddr {
    /// The page.
    pub page: PageId,
    /// Slot index within the page.
    pub slot: u16,
}

#[derive(Default)]
struct TxnState {
    last_lsn: Lsn,
    begin_lsn: Lsn,
    locks: Vec<(TableId, Key)>,
    /// The row changes not yet rolled back, newest last.
    undo: Vec<Record>,
    /// Slots its deletes emptied, and slots it took and gave back: free to
    /// this transaction alone until it ends (a delete's until it commits),
    /// since its rollback may restore a row into one.
    freed: Vec<(TableId, u32)>,
}

/// One table's derived state: its key index and its region's free slots,
/// both over flat slot numbers ([`TableMeta::flat`]).
#[derive(Default)]
pub(crate) struct TableState {
    /// Key → flat slot of its row.
    pub(crate) index: KeyIndex,
    /// Next slot never yet allocated.
    pub(crate) high_water: u32,
    /// Slots below `high_water` that hold no row and that no open
    /// transaction may restore one into.
    pub(crate) freed: BTreeSet<u32>,
}

pub(crate) struct DbSt {
    next_txn: u64,
    active: FastMap<TxnId, TxnState>,
    /// Indexed by `TableId`.
    pub(crate) tables: Vec<TableState>,
}

impl DbSt {
    /// Frees `flat` to `txn` while it is open, else to its table.
    fn release(&mut self, txn: TxnId, table: TableId, flat: u32) {
        match self.active.get_mut(&txn) {
            Some(t) => t.freed.push((table, flat)),
            None => self.release_all([(table, flat)]),
        }
    }

    /// Frees `slots` to their tables.
    fn release_all(&mut self, slots: impl IntoIterator<Item = (TableId, u32)>) {
        for (table, flat) in slots {
            self.tables[table.0 as usize].freed.insert(flat);
        }
    }
}

/// A running database instance. Clone freely; clones share the instance.
#[derive(Clone)]
pub struct Database {
    pub(crate) inner: Rc<DbInner>,
}

pub(crate) struct DbInner {
    ctx: SimCtx,
    cfg: DbConfig,
    pub(crate) tables: Vec<TableMeta>,
    names: HashMap<String, TableId>,
    pub(crate) wal: Wal,
    pub(crate) pool: BufferPool,
    locks: LockTable,
    pub(crate) st: RefCell<DbSt>,
    stopped: Cell<bool>,
    shutdown: Event,
}

const CATALOG_MAGIC: u32 = 0x4341_544C; // "CATL"
/// The catalog's share of page 0: the sectors before the superblock's.
const CATALOG_BYTES: usize = SUPERBLOCK_SECTOR as usize * SECTOR_SIZE;

/// The catalog page: the catalog, then `sb` in the last sector, each with a CRC.
fn encode_catalog(tables: &[TableMeta], sb: &Superblock) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u32(&mut buf, CATALOG_MAGIC);
    put_var(&mut buf, tables.len() as u64);
    for t in tables {
        put_var(&mut buf, t.id.0.into());
        put_var(&mut buf, t.slot_size.into());
        put_var(&mut buf, t.base_page);
        put_var(&mut buf, t.n_pages);
        put_var(&mut buf, t.spp.into());
        put_bytes(&mut buf, t.name.as_bytes());
    }
    buf.extend_from_slice(&crc32(&buf).to_le_bytes());
    assert!(buf.len() <= CATALOG_BYTES, "catalog exceeds its page");
    buf.resize(CATALOG_BYTES, 0);
    buf.extend_from_slice(&sb.encode());
    buf
}

fn decode_catalog(bytes: &[u8]) -> DbResult<Vec<TableMeta>> {
    let mut c = Cursor::new(bytes);
    if c.u32() != Some(CATALOG_MAGIC) {
        return Err(DbError::Corrupt("catalog magic mismatch".to_string()));
    }
    let bad = || DbError::Corrupt("catalog truncated".to_string());
    let n: u16 = c.var().ok_or_else(bad)?;
    let mut tables = Vec::with_capacity(n.into());
    for _ in 0..n {
        let meta = TableMeta {
            id: TableId(c.var().ok_or_else(bad)?),
            slot_size: c.var().ok_or_else(bad)?,
            base_page: c.var().ok_or_else(bad)?,
            n_pages: c.var().ok_or_else(bad)?,
            spp: c.var().ok_or_else(bad)?,
            name: String::from_utf8(c.bytes(true).ok_or_else(bad)?)
                .map_err(|_| DbError::Corrupt("catalog name not utf8".to_string()))?,
        };
        meta.capacity()?;
        tables.push(meta);
    }
    // The CRC covers everything up to the cursor position; zeros pad the rest.
    let used = bytes.len() - c.remaining();
    let stored = c.u32().ok_or_else(bad)?;
    if crc32(&bytes[..used]) != stored || bytes[used + 4..].iter().any(|&b| b != 0) {
        return Err(DbError::Corrupt("catalog crc or padding".to_string()));
    }
    Ok(tables)
}

fn layout_tables(defs: &[TableDef]) -> DbResult<Vec<TableMeta>> {
    let mut tables = Vec::with_capacity(defs.len());
    let mut next_page = 1u64; // page 0 is the catalog
    for (i, d) in defs.iter().enumerate() {
        assert!(d.slot_size > 0, "zero slot size for table {}", d.name);
        let spp = slots_per_page(d.slot_size as usize) as u16;
        assert!(spp > 0, "slot size {} too large for a page", d.slot_size);
        let n_pages = d.max_rows.div_ceil(spp as u64).max(1);
        let meta = TableMeta {
            id: TableId(i as u16),
            name: d.name.clone(),
            slot_size: d.slot_size,
            base_page: next_page,
            n_pages,
            spp,
        };
        meta.capacity()?;
        tables.push(meta);
        next_page += n_pages;
    }
    Ok(tables)
}

impl Database {
    /// Creates a fresh database on blank devices: writes the catalog page,
    /// superblock included, and the initial checkpoint, then opens for
    /// business. Background tasks (WAL flusher, checkpointer) go to `domain`.
    pub async fn create(
        ctx: &SimCtx,
        cfg: DbConfig,
        defs: &[TableDef],
        data_dev: Rc<dyn BlockDevice>,
        log_dev: Rc<dyn BlockDevice>,
        domain: DomainId,
    ) -> DbResult<Database> {
        let tables = layout_tables(defs)?;
        let (data_dev, log_dev) = (os_block_layer(ctx, data_dev), os_block_layer(ctx, log_dev));
        // Capacity check against the data device.
        let last = tables.last().map(|t| t.base_page + t.n_pages).unwrap_or(1);
        if last * PAGE_SECTORS > data_dev.geometry().sectors {
            return Err(DbError::Corrupt(format!(
                "data device too small: need {last} pages"
            )));
        }
        let page = encode_catalog(&tables, &Superblock::default());
        let token = data_dev.submit(IoReq::Write {
            sector: 0,
            segments: vec![SectorBuf::from_vec(page)],
            fua: true,
        });
        data_dev.wait(token).await?;
        let wal = Wal::new(
            ctx,
            log_dev,
            cfg.profile.commit_policy,
            Lsn::ZERO,
            Lsn::ZERO,
            domain,
        )?;
        // Nothing in the region is log yet, whatever the media holds.
        wal.trim_unused().await?;
        let (_, end) = wal.append(&Record::Checkpoint {
            active: Vec::new(),
            dirty: Vec::new(),
        })?;
        wal.wait_durable(end).await?;
        let pool = BufferPool::new(data_dev, wal.clone(), cfg.pool_pages);
        let db = Self::assemble(ctx, cfg, tables, wal, pool);
        db.start_checkpointer(domain);
        Ok(db)
    }

    pub(crate) fn assemble(
        ctx: &SimCtx,
        cfg: DbConfig,
        tables: Vec<TableMeta>,
        wal: Wal,
        pool: BufferPool,
    ) -> Database {
        let names = tables
            .iter()
            .map(|t| (t.name.clone(), t.id))
            .collect::<HashMap<_, _>>();
        let states = tables.iter().map(|_| TableState::default()).collect();
        Database {
            inner: Rc::new(DbInner {
                ctx: ctx.clone(),
                cfg,
                tables,
                names,
                wal,
                pool,
                locks: LockTable::new(LOCK_TIMEOUT),
                st: RefCell::new(DbSt {
                    next_txn: 1,
                    active: FastMap::default(),
                    tables: states,
                }),
                stopped: Cell::new(false),
                shutdown: Event::new(),
            }),
        }
    }

    /// Reads the catalog page: the catalog, and the superblock in its last sector.
    pub(crate) async fn read_catalog(
        dev: &dyn BlockDevice,
    ) -> DbResult<(Vec<TableMeta>, Superblock)> {
        let token = dev.submit(IoReq::Read {
            sector: 0,
            sectors: PAGE_SECTORS,
        });
        let page = dev.wait(token).await?;
        let page = page.expect("read completion must carry data");
        let (catalog, sb) = page.as_slice().split_at(CATALOG_BYTES);
        let sb = Superblock::decode(sb).ok_or_else(|| DbError::Corrupt("no superblock".into()));
        Ok((decode_catalog(catalog)?, sb?))
    }

    /// Starts the periodic checkpointer in `domain`. It exits promptly on
    /// [`Database::stop`] so simulations can run to idle.
    pub fn start_checkpointer(&self, domain: DomainId) {
        let db = self.clone();
        let interval = self.inner.cfg.checkpoint_interval;
        self.inner.ctx.spawn_in(domain, async move {
            loop {
                let shutdown = db.inner.shutdown.clone();
                let stopped = db
                    .inner
                    .ctx
                    .timeout(interval, shutdown.wait())
                    .await
                    .is_some();
                if stopped || db.inner.stopped.get() {
                    break;
                }
                // A checkpoint failure (power loss) just stops the engine.
                if db.checkpoint().await.is_err() {
                    break;
                }
            }
        });
    }

    fn charge(&self, d: SimDuration) -> rapilog_simcore::exec::Sleep {
        self.inner.ctx.sleep(d.mul_f64(self.inner.cfg.cpu_factor))
    }

    fn check_live(&self) -> DbResult<()> {
        if self.inner.stopped.get() {
            Err(DbError::Stopped)
        } else {
            Ok(())
        }
    }

    /// Looks up a table id by name.
    pub fn table(&self, name: &str) -> Option<TableId> {
        self.inner.names.get(name).copied()
    }

    /// Table metadata by id.
    pub(crate) fn table_meta(&self, id: TableId) -> DbResult<&TableMeta> {
        self.inner
            .tables
            .get(id.0 as usize)
            .ok_or(DbError::NoSuchTable(id))
    }

    /// The WAL handle (benchmarks read its statistics).
    pub fn wal(&self) -> &Wal {
        &self.inner.wal
    }

    /// The buffer pool handle (benchmarks read its statistics).
    pub fn pool(&self) -> &BufferPool {
        &self.inner.pool
    }

    /// Rows currently indexed in `table` (for audits).
    pub fn row_count(&self, table: TableId) -> u64 {
        let st = self.inner.st.borrow();
        st.tables
            .get(table.0 as usize)
            .map_or(0, |t| t.index.len() as u64)
    }

    /// Marks the engine stopped; in-flight operations fail with
    /// [`DbError::Stopped`].
    pub fn stop(&self) {
        self.inner.stopped.set(true);
        self.inner.shutdown.set();
        self.inner.wal.stop();
    }

    /// Begins a transaction.
    pub async fn begin(&self) -> DbResult<TxnId> {
        self.check_live()?;
        self.charge(self.inner.cfg.profile.cpu_begin).await;
        let txn = {
            let mut st = self.inner.st.borrow_mut();
            let txn = TxnId(st.next_txn);
            st.next_txn += 1;
            txn
        };
        let (lsn, _) = self.inner.wal.append(&Record::Begin { txn })?;
        let state = TxnState {
            last_lsn: lsn,
            begin_lsn: lsn,
            ..TxnState::default()
        };
        self.inner.st.borrow_mut().active.insert(txn, state);
        Ok(txn)
    }

    /// Reads a row (no locks: read-committed-style slot read).
    pub async fn get(&self, table: TableId, key: Key) -> DbResult<Option<Vec<u8>>> {
        self.check_live()?;
        self.charge(self.inner.cfg.profile.cpu_read).await;
        let meta = self.table_meta(table)?;
        let Some(addr) = self.slot_of(table, key) else {
            return Ok(None);
        };
        self.read_row(meta, addr, key).await
    }

    /// Reads a row under the transaction's exclusive lock (SELECT ... FOR
    /// UPDATE). Required for read-modify-write sequences: a plain
    /// [`get`](Self::get) is lock-free, so two concurrent transactions
    /// would both read the same base value and one update would be lost.
    pub async fn get_for_update(
        &self,
        txn: TxnId,
        table: TableId,
        key: Key,
    ) -> DbResult<Option<Vec<u8>>> {
        self.check_live()?;
        self.charge(self.inner.cfg.profile.cpu_read).await;
        let meta = self.table_meta(table)?;
        self.lock_row(txn, table, key).await?;
        let Some(addr) = self.slot_of(table, key) else {
            return Ok(None);
        };
        self.read_row(meta, addr, key).await
    }

    /// Returns up to `limit` rows with keys in `[lo, hi]`, in ascending key
    /// order (a read-committed index range scan; rows are fetched without
    /// locks, like [`get`](Self::get)).
    pub async fn scan_range(
        &self,
        table: TableId,
        lo: Key,
        hi: Key,
        limit: usize,
    ) -> DbResult<Vec<(Key, Vec<u8>)>> {
        self.check_live()?;
        self.charge(self.inner.cfg.profile.cpu_read).await;
        let meta = self.table_meta(table)?;
        if lo > hi || limit == 0 {
            return Ok(Vec::new());
        }
        // Snapshot the matching index entries, then fetch pages without
        // holding the state borrow.
        let addrs: Vec<(Key, SlotAddr)> = self.inner.st.borrow().tables[table.0 as usize]
            .index
            .range(lo, hi)
            .take(limit)
            .map(|(k, flat)| (k, meta.slot_addr(flat)))
            .collect();
        let mut out = Vec::with_capacity(addrs.len());
        for (key, addr) in addrs {
            // Amortised per-row read cost.
            self.charge(self.inner.cfg.profile.cpu_read / 4).await;
            if let Some(bytes) = self.read_row(meta, addr, key).await? {
                out.push((key, bytes));
            }
        }
        Ok(out)
    }

    /// Where `key`'s row lives in `table` (a table `table_meta` accepted).
    fn slot_of(&self, table: TableId, key: Key) -> Option<SlotAddr> {
        let i = table.0 as usize;
        let flat = self.inner.st.borrow().tables[i].index.get(key)?;
        Some(self.inner.tables[i].slot_addr(flat))
    }

    /// `key`'s row at `addr`, read without a lock: `None` if the slot was
    /// reused under us (a concurrent delete and insert), which this weak
    /// read isolation reads as not found.
    async fn read_row(
        &self,
        meta: &TableMeta,
        addr: SlotAddr,
        key: Key,
    ) -> DbResult<Option<Vec<u8>>> {
        let frame = self
            .inner
            .pool
            .fetch(addr.page, meta.id, meta.slot_size, false)
            .await?;
        Ok(Self::row_at(&frame, addr, meta.id, key).ok())
    }

    /// The bytes of `key`'s row, which `addr` must hold.
    fn row_at(frame: &FrameRef, addr: SlotAddr, table: TableId, key: Key) -> DbResult<Vec<u8>> {
        match frame.borrow().page.read_slot(addr.slot) {
            Some((k, bytes)) if k == key => Ok(bytes),
            _ => Err(DbError::NotFound(table, key)),
        }
    }

    /// Fetches and prepares a page for modification: logs a full-page
    /// image on the clean→dirty transition. The image precedes the
    /// upcoming delta in the log and becomes the frame's recLSN, so a redo
    /// scan starting at `min(recLSN)` over the dirty-page table always
    /// covers the image a torn-page repair needs.
    async fn fetch_for_write(&self, meta: &TableMeta, pid: PageId) -> DbResult<FrameRef> {
        let frame = self
            .inner
            .pool
            .fetch(pid, meta.id, meta.slot_size, false)
            .await?;
        let need_fpw = !frame.borrow().dirty;
        if need_fpw {
            let (lsn, _) = self.inner.wal.append(&Record::FullPage {
                page: pid,
                image: frame.borrow().page.image().to_vec(),
            })?;
            BufferPool::note_rec_lsn(&frame, lsn);
        }
        Ok(frame)
    }

    /// Takes `txn`'s exclusive lock on `key`, held until the transaction
    /// ends (strict 2PL), once `txn` is known to be active.
    async fn lock_row(&self, txn: TxnId, table: TableId, key: Key) -> DbResult<()> {
        self.txn_chain(txn)?;
        self.inner
            .locks
            .acquire(&self.inner.ctx, txn, table, key)
            .await?;
        self.with_txn(txn, |t| t.locks.push((table, key)))
    }

    /// `f` of `txn`'s state, once `txn` is known to be active.
    fn with_txn<R>(&self, txn: TxnId, f: impl FnOnce(&mut TxnState) -> R) -> DbResult<R> {
        let mut st = self.inner.st.borrow_mut();
        st.active
            .get_mut(&txn)
            .map(f)
            .ok_or(DbError::NoSuchTxn(txn))
    }

    fn txn_chain(&self, txn: TxnId) -> DbResult<Lsn> {
        self.with_txn(txn, |t| t.last_lsn)
    }

    /// What every row change does first: charge its CPU, check that `row`
    /// fits the table's slots, and take `txn`'s lock on `key`.
    async fn write_access(
        &self,
        txn: TxnId,
        table: TableId,
        key: Key,
        row: &[u8],
    ) -> DbResult<&TableMeta> {
        self.check_live()?;
        self.charge(self.inner.cfg.profile.cpu_write).await;
        let meta = self.table_meta(table)?;
        if row.len() > meta.slot_size as usize {
            return Err(DbError::RowTooLarge {
                table,
                len: row.len(),
                cap: meta.slot_size as usize,
            });
        }
        self.lock_row(txn, table, key).await?;
        Ok(meta)
    }

    /// `key`'s row for a change by `txn`: its address, its page fetched
    /// for writing, its bytes, and `txn`'s last record.
    async fn row_for_write(
        &self,
        txn: TxnId,
        meta: &TableMeta,
        key: Key,
    ) -> DbResult<(SlotAddr, FrameRef, Vec<u8>, Lsn)> {
        let addr = self
            .slot_of(meta.id, key)
            .ok_or(DbError::NotFound(meta.id, key))?;
        let frame = self.fetch_for_write(meta, addr.page).await?;
        let before = Self::row_at(&frame, addr, meta.id, key)?;
        Ok((addr, frame, before, self.txn_chain(txn)?))
    }

    /// Logs `change`, a row change in `frame`, applies it to the page and
    /// puts it on its transaction's undo list.
    fn log_change(&self, meta: &TableMeta, frame: &FrameRef, change: Record) -> DbResult<()> {
        let txn = change.txn().expect("a row change has a transaction");
        let (lsn, _) = self.inner.wal.append(&change)?;
        apply_record(frame, meta, lsn, &change)?;
        self.with_txn(txn, |t| {
            t.last_lsn = lsn;
            t.undo.push(change);
        })
    }

    /// Inserts a row.
    pub async fn insert(&self, txn: TxnId, table: TableId, key: Key, row: &[u8]) -> DbResult<()> {
        let meta = self.write_access(txn, table, key, row).await?;
        // Allocate a slot: one this transaction freed, else the table's.
        let flat = {
            let mut st = self.inner.st.borrow_mut();
            let DbSt { active, tables, .. } = &mut *st;
            let ts = &mut tables[table.0 as usize];
            if ts.index.get(key).is_some() {
                return Err(DbError::Duplicate(table, key));
            }
            let own = active.get_mut(&txn).and_then(|t| {
                let i = t.freed.iter().rposition(|s| s.0 == table)?;
                Some(t.freed.remove(i).1)
            });
            if let Some(f) = own.or_else(|| ts.freed.pop_first()) {
                f
            } else if ts.high_water < meta.capacity()? {
                let f = ts.high_water;
                ts.high_water += 1;
                f
            } else {
                return Err(DbError::TableFull(table));
            }
        };
        // A step that fails before the row is indexed gives the slot back.
        let give_back = |_: &DbError| self.inner.st.borrow_mut().release(txn, table, flat);
        let addr = meta.slot_addr(flat);
        let frame = self
            .fetch_for_write(meta, addr.page)
            .await
            .inspect_err(give_back)?;
        let prev = self.txn_chain(txn).inspect_err(give_back)?;
        let change = Record::Insert {
            txn,
            prev,
            table,
            page: addr.page,
            slot: addr.slot,
            key,
            after: row.to_vec(),
        };
        self.log_change(meta, &frame, change)
            .inspect_err(give_back)?;
        self.inner.st.borrow_mut().tables[table.0 as usize]
            .index
            .insert(key, flat);
        Ok(())
    }

    /// Updates a row in place.
    pub async fn update(&self, txn: TxnId, table: TableId, key: Key, row: &[u8]) -> DbResult<()> {
        let meta = self.write_access(txn, table, key, row).await?;
        let (addr, frame, before, prev) = self.row_for_write(txn, meta, key).await?;
        let change = Record::Update {
            txn,
            prev,
            table,
            page: addr.page,
            slot: addr.slot,
            key,
            before,
            after: row.to_vec(),
        };
        self.log_change(meta, &frame, change)
    }

    /// Deletes a row. Its slot is free once the delete commits: until then
    /// a rollback may restore the row into it.
    pub async fn delete(&self, txn: TxnId, table: TableId, key: Key) -> DbResult<()> {
        let meta = self.write_access(txn, table, key, &[]).await?;
        let (addr, frame, before, prev) = self.row_for_write(txn, meta, key).await?;
        let change = Record::Delete {
            txn,
            prev,
            table,
            page: addr.page,
            slot: addr.slot,
            key,
            before,
        };
        self.log_change(meta, &frame, change)?;
        let mut st = self.inner.st.borrow_mut();
        st.tables[table.0 as usize].index.remove(key);
        st.release(txn, table, meta.flat(addr));
        Ok(())
    }

    /// Commits: appends the commit record and — under a durable policy —
    /// waits for it to reach stable storage before acknowledging. Locks
    /// are held until then (strict 2PL).
    pub async fn commit(&self, txn: TxnId) -> DbResult<()> {
        self.check_live()?;
        self.charge(self.inner.cfg.profile.cpu_commit).await;
        self.txn_chain(txn)?;
        let appended = self.inner.wal.append(&Record::Commit { txn });
        // Win or lose, the transaction is finished as far as the log goes,
        // and no longer active from this step on: a checkpoint record
        // appended while the commit waits for the device follows the commit
        // record, and recovery, which may start its scan between the two,
        // would undo a transaction the checkpoint listed.
        let state = self.inner.st.borrow_mut().active.remove(&txn);
        let result = match appended {
            Ok((_, end)) => {
                if self.inner.wal.policy().wait_for_durable {
                    self.inner.wal.wait_durable(end).await
                } else {
                    self.inner.wal.kick();
                    Ok(())
                }
            }
            // The engine died under us.
            Err(e) => Err(e),
        };
        // The locks go once the outcome is known, and the slots its deletes
        // emptied once it has committed: a row put in one now is logged
        // after the commit record.
        if let Some(state) = state {
            self.inner.locks.release_all(txn, state.locks.iter());
            if result.is_ok() {
                self.inner.st.borrow_mut().release_all(state.freed);
            }
        }
        result
    }

    /// Rolls back: restores before-images (writing CLRs), appends the
    /// abort record, releases locks. Rollback does not wait for
    /// durability — aborts are not acknowledged promises. The transaction
    /// stays active until its abort record is appended: a checkpoint taken
    /// while the rollback waits for a page must list it, or a crash before
    /// the next CLR is durable leaves nobody to finish the undo.
    pub async fn abort(&self, txn: TxnId) -> DbResult<()> {
        self.check_live()?;
        // A copy: the change leaves the list in the step that appends its
        // CLR, so a rollback that fails on the way there (a dead device
        // under the page fetch or the log) loses no undo work.
        while let Some(change) = self.with_txn(txn, |t| t.undo.last().cloned())? {
            let (_, _, table, page, slot, key) = change.row_head().expect("a row change");
            let restores = !matches!(change, Record::Insert { .. });
            let meta = self.table_meta(table)?;
            let frame = self.fetch_for_write(meta, page).await?;
            let clr = change.compensation().expect("a row change");
            let (lsn, _) = self.inner.wal.append(&clr)?;
            apply_record(&frame, meta, lsn, &clr)?;
            // Fix the derived state; recovery's undo resumes at this CLR.
            let flat = (table, meta.flat(SlotAddr { page, slot }));
            let mut st = self.inner.st.borrow_mut();
            let DbSt { active, tables, .. } = &mut *st;
            let index = &mut tables[table.0 as usize].index;
            if let Some(state) = active.get_mut(&txn) {
                if restores {
                    index.insert(key, flat.1);
                    state.freed.retain(|&f| f != flat);
                } else {
                    index.remove(key);
                    state.freed.push(flat);
                }
                state.undo.pop();
                state.last_lsn = lsn;
            }
        }
        self.inner.wal.append(&Record::Abort { txn })?;
        let state = self.inner.st.borrow_mut().active.remove(&txn);
        self.inner.wal.kick();
        if let Some(state) = state {
            self.inner.locks.release_all(txn, state.locks.iter());
            self.inner.st.borrow_mut().release_all(state.freed);
        }
        Ok(())
    }

    /// Takes a checkpoint and persists the superblock, bounding both
    /// recovery time and the log region in use.
    ///
    /// The checkpoint is fuzzy: one writeback pass over a snapshot of the
    /// dirty-page table — pages dirtied during the pass ride the next
    /// checkpoint — then the remaining table goes into the checkpoint
    /// record and redo starts at `min(recLSN)` over it. Under write-heavy
    /// load that stays close to the log tail, and the checkpoint always
    /// completes: a flush that chased the pool until it was clean would
    /// never finish while writers keep re-dirtying it.
    pub async fn checkpoint(&self) -> DbResult<()> {
        self.check_live()?;
        let snapshot = self.inner.pool.dirty_page_table();
        self.inner.pool.flush_pages(&snapshot).await?;
        // Cache barrier: every earlier cached write — this pass and any
        // prior evictions — is on stable media after this, so a page absent
        // from the table recorded below is current on media.
        self.inner.pool.barrier().await?;
        // Capture the record contents and append in one synchronous step,
        // so no modification sneaks between capture and append.
        let (end, active_min, redo) = {
            let st = self.inner.st.borrow();
            let active: Vec<(TxnId, Lsn)> =
                st.active.iter().map(|(t, s)| (*t, s.last_lsn)).collect();
            let active_min = st.active.values().map(|s| s.begin_lsn).min();
            let dirty = self.inner.pool.dirty_page_table();
            // Redo starts at the oldest recLSN still dirty, or at this
            // record when the table is empty.
            let ckpt_lsn = self.inner.wal.end();
            let redo = dirty.iter().map(|&(_, l)| l).fold(ckpt_lsn, Lsn::min);
            let (_, end) = self
                .inner
                .wal
                .append(&Record::Checkpoint { active, dirty })?;
            (end, active_min, redo)
        };
        // A superblock names a durable record only: recovery starts there.
        self.inner.wal.wait_durable(end).await?;
        let undo_horizon = active_min.unwrap_or(redo).min(redo);
        let sb = Superblock {
            checkpoint: redo,
            recovery_start: undo_horizon,
        };
        self.inner.pool.write_superblock(&sb).await?;
        self.inner.wal.set_recovery_start(undo_horizon).await?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PAGE_SIZE;
    use rapilog_simcore::Sim;
    use rapilog_simdisk::{specs, Disk, Geometry, IoResult, LocalBoxFuture, ReqToken};
    use std::cell::Cell as StdCell;

    fn small_tables() -> Vec<TableDef> {
        vec![
            TableDef {
                name: "acct".to_string(),
                slot_size: 64,
                max_rows: 10_000,
            },
            TableDef {
                name: "hist".to_string(),
                slot_size: 128,
                max_rows: 50_000,
            },
        ]
    }

    fn with_db<F, Fut>(f: F) -> Sim
    where
        F: FnOnce(SimCtx, Database) -> Fut + 'static,
        Fut: std::future::Future<Output = ()> + 'static,
    {
        let mut sim = Sim::new(5);
        let ctx = sim.ctx();
        let c2 = ctx.clone();
        sim.spawn(async move {
            let data = Rc::new(Disk::new(&c2, specs::instant(256 << 20)));
            let log = Rc::new(Disk::new(&c2, specs::instant(64 << 20)));
            let db = Database::create(
                &c2,
                DbConfig::default(),
                &small_tables(),
                data,
                log,
                DomainId::ROOT,
            )
            .await
            .expect("create");
            f(c2.clone(), db.clone()).await;
            db.stop();
        });
        sim.run();
        sim
    }

    /// A register transaction, the durability trials' unit (begin, two
    /// 8-byte row updates, commit), logs 76 bytes when each row changes
    /// whole: four 6-byte frame headers, payloads whose every integer fits
    /// one varint byte, and each after-image as a delta that shares nothing
    /// with its before-image (two zero lengths and all 8 bytes). A counter
    /// going from n to n + 1, as the trials' registers do, changes one
    /// little-endian byte and logs 62.
    #[test]
    fn a_register_commit_logs_at_most_80_bytes() {
        let logged = Rc::new(RefCell::new(Vec::new()));
        let l2 = Rc::clone(&logged);
        with_db(move |_ctx, db| async move {
            let t = db.table("acct").unwrap();
            let txn = db.begin().await.unwrap();
            for key in [0, 1] {
                db.insert(txn, t, key, &[0; 8]).await.unwrap();
            }
            db.commit(txn).await.unwrap();
            for row in [[1; 8], 2u64.to_le_bytes(), 3u64.to_le_bytes()] {
                let start = db.wal().end();
                let txn = db.begin().await.unwrap();
                for key in [0, 1] {
                    db.update(txn, t, key, &row).await.unwrap();
                }
                db.commit(txn).await.unwrap();
                l2.borrow_mut().push(db.wal().end().0 - start.0);
            }
        });
        assert_eq!(*logged.borrow(), [76, 76, 62]);
        assert!(logged.borrow().iter().all(|&n| n <= 80));
    }

    #[test]
    fn catalog_roundtrip() {
        let tables = layout_tables(&small_tables()).unwrap();
        let page = encode_catalog(&tables, &Superblock::default());
        let bytes = &page[..CATALOG_BYTES];
        let back = decode_catalog(bytes).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].name, "acct");
        assert_eq!(back[0].base_page, 1);
        assert!(back[1].base_page > back[0].base_page);
        assert_eq!(back[1].slot_size, 128);
        // Corruption detected.
        let mut bad = bytes.to_vec();
        bad[6] ^= 1;
        assert!(decode_catalog(&bad).is_err());
    }

    /// A table over `u32::MAX` slots is refused where it enters, at
    /// `create`; one of exactly `u32::MAX` slots is not.
    #[test]
    fn layout_refuses_a_table_over_u32_max_slots() {
        // 21-byte slots: 255 per page, which divides u32::MAX.
        let table = |max_rows| TableDef {
            name: "huge".to_string(),
            slot_size: 21,
            max_rows,
        };
        let tables = layout_tables(&[table(u32::MAX as u64)]).unwrap();
        assert_eq!(tables[0].n_pages * tables[0].spp as u64, u32::MAX as u64);
        for max_rows in [u32::MAX as u64 + 1, u64::MAX] {
            assert!(matches!(
                layout_tables(&[table(max_rows)]),
                Err(DbError::Corrupt(_))
            ));
        }
    }

    /// A catalog whose CRC holds but whose table is over `u32::MAX` slots
    /// (or whose slot count overflows, or is zero) is corrupt on open.
    #[test]
    fn a_catalog_table_over_u32_max_slots_is_corrupt() {
        let good = layout_tables(&small_tables()).unwrap();
        for (n_pages, spp) in [(u32::MAX as u64, 8), (u64::MAX, 8), (4, 0)] {
            let mut tables = good.clone();
            (tables[1].n_pages, tables[1].spp) = (n_pages, spp);
            assert!(matches!(
                decode_catalog(&encode_catalog(&tables, &Superblock::default())[..CATALOG_BYTES]),
                Err(DbError::Corrupt(_))
            ));
        }
    }

    /// Two transactions update two rows in opposite orders, the second a
    /// millisecond behind: the first is told to abort `LOCK_TIMEOUT` into
    /// its wait, and the second then gets its lock and commits.
    #[test]
    fn a_deadlock_is_broken_by_the_lock_timeout() {
        let outcome = Rc::new(RefCell::new(Vec::new()));
        let o2 = Rc::clone(&outcome);
        with_db(move |ctx, db| async move {
            let acct = db.table("acct").unwrap();
            let txn = db.begin().await.unwrap();
            db.insert(txn, acct, 1, b"a").await.unwrap();
            db.insert(txn, acct, 2, b"b").await.unwrap();
            db.commit(txn).await.unwrap();
            let t0 = ctx.now();
            let mut sides = Vec::new();
            for (first, second, lag) in [(1, 2, 1), (2, 1, 2)] {
                let (db, ctx, out) = (db.clone(), ctx.clone(), Rc::clone(&o2));
                sides.push(ctx.clone().spawn(async move {
                    let txn = db.begin().await.unwrap();
                    db.update(txn, acct, first, b"x").await.unwrap();
                    ctx.sleep(SimDuration::from_millis(lag)).await;
                    let r = db.update(txn, acct, second, b"y").await;
                    if r.is_ok() {
                        db.commit(txn).await.unwrap();
                    } else {
                        db.abort(txn).await.unwrap();
                    }
                    out.borrow_mut().push((first, r.is_ok(), ctx.now() - t0));
                }));
            }
            for side in sides {
                side.await;
            }
        });
        let outcome = outcome.borrow();
        let [(1, false, broken), (2, true, committed)] = outcome[..] else {
            panic!("the first side must time out, the second commit: {outcome:?}");
        };
        let waited = broken - SimDuration::from_millis(1);
        assert!(waited >= LOCK_TIMEOUT, "{outcome:?}");
        assert!(
            waited < LOCK_TIMEOUT + SimDuration::from_millis(1),
            "{outcome:?}"
        );
        assert!(committed >= broken, "{outcome:?}");
    }

    #[test]
    fn insert_get_update_delete_roundtrip() {
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        with_db(move |_ctx, db| async move {
            let acct = db.table("acct").unwrap();
            let txn = db.begin().await.unwrap();
            db.insert(txn, acct, 1, b"alice:100").await.unwrap();
            db.insert(txn, acct, 2, b"bob:50").await.unwrap();
            db.commit(txn).await.unwrap();

            assert_eq!(db.get(acct, 1).await.unwrap(), Some(b"alice:100".to_vec()));
            assert_eq!(db.get(acct, 3).await.unwrap(), None);

            let txn = db.begin().await.unwrap();
            db.update(txn, acct, 1, b"alice:90").await.unwrap();
            db.delete(txn, acct, 2).await.unwrap();
            db.commit(txn).await.unwrap();

            assert_eq!(db.get(acct, 1).await.unwrap(), Some(b"alice:90".to_vec()));
            assert_eq!(db.get(acct, 2).await.unwrap(), None);
            assert_eq!(db.row_count(acct), 1);
            d2.set(true);
        });
        assert!(done.get());
    }

    #[test]
    fn abort_restores_everything() {
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        with_db(move |_ctx, db| async move {
            let acct = db.table("acct").unwrap();
            let setup = db.begin().await.unwrap();
            db.insert(setup, acct, 1, b"v1").await.unwrap();
            db.commit(setup).await.unwrap();

            let txn = db.begin().await.unwrap();
            db.update(txn, acct, 1, b"v2").await.unwrap();
            db.insert(txn, acct, 2, b"new").await.unwrap();
            db.delete(txn, acct, 1).await.unwrap();
            db.abort(txn).await.unwrap();

            assert_eq!(db.get(acct, 1).await.unwrap(), Some(b"v1".to_vec()));
            assert_eq!(db.get(acct, 2).await.unwrap(), None);
            d2.set(true);
        });
        assert!(done.get());
    }

    #[test]
    fn a_failed_abort_keeps_the_undo_it_did_not_log() {
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        with_db(move |_ctx, db| async move {
            let acct = db.table("acct").unwrap();
            let txn = db.begin().await.unwrap();
            db.insert(txn, acct, 1, b"a").await.unwrap();
            db.insert(txn, acct, 2, b"b").await.unwrap();
            // The log dies under the rollback: no CLR can be appended.
            db.inner.wal.stop();
            assert!(matches!(db.abort(txn).await, Err(DbError::Stopped)));
            // Still active, locks held, and every step it could not log is
            // still on its undo list for whoever finishes the job.
            let st = db.inner.st.borrow();
            assert_eq!(st.active[&txn].undo.len(), 2);
            d2.set(true);
        });
        assert!(done.get());
    }

    #[test]
    fn duplicate_and_missing_keys_error() {
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        with_db(move |_ctx, db| async move {
            let acct = db.table("acct").unwrap();
            let txn = db.begin().await.unwrap();
            db.insert(txn, acct, 1, b"x").await.unwrap();
            assert_eq!(
                db.insert(txn, acct, 1, b"y").await,
                Err(DbError::Duplicate(acct, 1))
            );
            assert_eq!(
                db.update(txn, acct, 99, b"y").await,
                Err(DbError::NotFound(acct, 99))
            );
            assert_eq!(
                db.delete(txn, acct, 99).await,
                Err(DbError::NotFound(acct, 99))
            );
            db.commit(txn).await.unwrap();
            d2.set(true);
        });
        assert!(done.get());
    }

    #[test]
    fn row_too_large_rejected() {
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        with_db(move |_ctx, db| async move {
            let acct = db.table("acct").unwrap();
            let txn = db.begin().await.unwrap();
            let big = vec![0u8; 65];
            assert!(matches!(
                db.insert(txn, acct, 1, &big).await,
                Err(DbError::RowTooLarge { .. })
            ));
            db.commit(txn).await.unwrap();
            d2.set(true);
        });
        assert!(done.get());
    }

    #[test]
    fn write_write_conflict_blocks_until_commit() {
        let mut sim = Sim::new(5);
        let ctx = sim.ctx();
        let db_slot: Rc<RefCell<Option<Database>>> = Rc::new(RefCell::new(None));
        let ds = Rc::clone(&db_slot);
        let c2 = ctx.clone();
        sim.spawn(async move {
            let data = Rc::new(Disk::new(&c2, specs::instant(256 << 20)));
            let log = Rc::new(Disk::new(&c2, specs::instant(64 << 20)));
            let db = Database::create(
                &c2,
                DbConfig::default(),
                &small_tables(),
                data,
                log,
                DomainId::ROOT,
            )
            .await
            .unwrap();
            let acct = db.table("acct").unwrap();
            let t = db.begin().await.unwrap();
            db.insert(t, acct, 7, b"base").await.unwrap();
            db.commit(t).await.unwrap();
            *ds.borrow_mut() = Some(db);
        });
        sim.run_until(rapilog_simcore::SimTime::from_millis(100));
        let db = db_slot.borrow().clone().unwrap();
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..2u32 {
            let db = db.clone();
            let ctx = ctx.clone();
            let order = Rc::clone(&order);
            sim.spawn(async move {
                let acct = db.table("acct").unwrap();
                let t = db.begin().await.unwrap();
                db.update(t, acct, 7, format!("w{i}").as_bytes())
                    .await
                    .unwrap();
                order.borrow_mut().push((i, "locked"));
                ctx.sleep(SimDuration::from_millis(2)).await;
                db.commit(t).await.unwrap();
                order.borrow_mut().push((i, "done"));
            });
        }
        sim.run_until(rapilog_simcore::SimTime::from_secs(2));
        let o = order.borrow();
        assert_eq!(o.len(), 4);
        assert_eq!(o[0].1, "locked");
        assert_eq!(
            o[1],
            (o[0].0, "done"),
            "second writer waited for the first to finish: {o:?}"
        );
    }

    #[test]
    fn scan_range_returns_ordered_window() {
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        with_db(move |_ctx, db| async move {
            let acct = db.table("acct").unwrap();
            let hist = db.table("hist").unwrap();
            let txn = db.begin().await.unwrap();
            for k in [5u64, 1, 9, 3, 7] {
                db.insert(txn, acct, k, &k.to_le_bytes()).await.unwrap();
            }
            // Rows in another table must not leak into the scan.
            db.insert(txn, hist, 4, b"other").await.unwrap();
            db.commit(txn).await.unwrap();

            let rows = db.scan_range(acct, 2, 8, 100).await.unwrap();
            let keys: Vec<u64> = rows.iter().map(|(k, _)| *k).collect();
            assert_eq!(keys, vec![3, 5, 7], "ordered, bounded, table-scoped");
            assert_eq!(rows[0].1, 3u64.to_le_bytes().to_vec());

            // Limit applies.
            let rows = db.scan_range(acct, 0, 100, 2).await.unwrap();
            assert_eq!(rows.len(), 2);
            assert_eq!(rows[0].0, 1);

            // Empty and inverted ranges.
            assert!(db.scan_range(acct, 20, 30, 10).await.unwrap().is_empty());
            assert!(db.scan_range(acct, 8, 2, 10).await.unwrap().is_empty());
            d2.set(true);
        });
        assert!(done.get());
    }

    #[test]
    fn get_for_update_prevents_lost_updates() {
        let mut sim = Sim::new(5);
        let ctx = sim.ctx();
        let db_slot: Rc<RefCell<Option<Database>>> = Rc::new(RefCell::new(None));
        let ds = Rc::clone(&db_slot);
        let c2 = ctx.clone();
        sim.spawn(async move {
            let data = Rc::new(Disk::new(&c2, specs::instant(256 << 20)));
            let log = Rc::new(Disk::new(&c2, specs::hdd_7200(64 << 20)));
            let db = Database::create(
                &c2,
                DbConfig::default(),
                &small_tables(),
                data,
                log,
                DomainId::ROOT,
            )
            .await
            .unwrap();
            let acct = db.table("acct").unwrap();
            let t = db.begin().await.unwrap();
            db.insert(t, acct, 7, &0u64.to_le_bytes()).await.unwrap();
            db.commit(t).await.unwrap();
            *ds.borrow_mut() = Some(db);
        });
        sim.run_until(rapilog_simcore::SimTime::from_millis(200));
        let db = db_slot.borrow().clone().unwrap();
        // Sixteen concurrent incrementers; the slow HDD log maximises the
        // read-update window where a lock-free read would lose updates.
        for _ in 0..16u32 {
            let db = db.clone();
            sim.spawn(async move {
                let acct = db.table("acct").unwrap();
                for _ in 0..4 {
                    let txn = db.begin().await.unwrap();
                    let cur = db
                        .get_for_update(txn, acct, 7)
                        .await
                        .unwrap()
                        .expect("row exists");
                    let v = u64::from_le_bytes(cur[..8].try_into().unwrap());
                    db.update(txn, acct, 7, &(v + 1).to_le_bytes())
                        .await
                        .unwrap();
                    db.commit(txn).await.unwrap();
                }
            });
        }
        sim.run_until(rapilog_simcore::SimTime::from_secs(30));
        let final_val = Rc::new(StdCell::new(0u64));
        let fv = Rc::clone(&final_val);
        let db2 = db.clone();
        sim.spawn(async move {
            let acct = db2.table("acct").unwrap();
            let cur = db2.get(acct, 7).await.unwrap().unwrap();
            fv.set(u64::from_le_bytes(cur[..8].try_into().unwrap()));
            db2.stop();
        });
        sim.run_until(rapilog_simcore::SimTime::from_secs(31));
        assert_eq!(final_val.get(), 64, "no increment was lost");
    }

    #[test]
    fn table_full_reports_and_free_slots_recycle() {
        let mut sim = Sim::new(5);
        let ctx = sim.ctx();
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        let c2 = ctx.clone();
        sim.spawn(async move {
            let data = Rc::new(Disk::new(&c2, specs::instant(64 << 20)));
            let log = Rc::new(Disk::new(&c2, specs::instant(16 << 20)));
            let defs = vec![TableDef {
                name: "tiny".to_string(),
                slot_size: 32,
                max_rows: 4,
            }];
            let db = Database::create(&c2, DbConfig::default(), &defs, data, log, DomainId::ROOT)
                .await
                .unwrap();
            let t = db.table("tiny").unwrap();
            let txn = db.begin().await.unwrap();
            for k in 0..4u64 {
                db.insert(txn, t, k, b"r").await.unwrap();
            }
            // Region is ceil(4 / spp) pages => capacity may exceed 4; fill
            // the rest to hit the wall.
            let meta = db.table_meta(t).unwrap();
            let cap = meta.n_pages * meta.spp as u64;
            for k in 4..cap {
                db.insert(txn, t, k, b"r").await.unwrap();
            }
            assert_eq!(
                db.insert(txn, t, 10_000, b"r").await,
                Err(DbError::TableFull(t))
            );
            // Deleting frees a slot which gets reused.
            db.delete(txn, t, 0).await.unwrap();
            db.insert(txn, t, 10_000, b"r").await.unwrap();
            db.commit(txn).await.unwrap();
            db.stop();
            d2.set(true);
        });
        sim.run();
        assert!(done.get());
    }

    /// An insert that fails after taking its slot (the page read hits a
    /// media error) gives the slot back: once the sector is remapped, the
    /// table still holds exactly its capacity.
    #[test]
    fn a_failed_insert_gives_its_slot_back() {
        let mut sim = Sim::new(5);
        let c2 = sim.ctx();
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        sim.spawn(async move {
            let data = Rc::new(Disk::new(&c2, specs::instant(64 << 20)));
            let log = Rc::new(Disk::new(&c2, specs::instant(16 << 20)));
            let defs = vec![TableDef {
                name: "one".to_string(),
                slot_size: 32,
                max_rows: 1,
            }];
            let data_dev = Rc::clone(&data) as Rc<dyn BlockDevice>;
            let db = Database::create(
                &c2,
                DbConfig::default(),
                &defs,
                data_dev,
                log,
                DomainId::ROOT,
            )
            .await
            .unwrap();
            let t = db.table("one").unwrap();
            let meta = db.table_meta(t).unwrap();
            assert_eq!(meta.n_pages, 1);
            let cap = meta.spp as u64;
            let sector = meta.base_page * PAGE_SECTORS;
            data.mark_bad(sector);
            let txn = db.begin().await.unwrap();
            assert_eq!(
                db.insert(txn, t, 0, b"r").await,
                Err(DbError::Io(rapilog_simdisk::IoError::MediaError { sector }))
            );
            db.abort(txn).await.unwrap();
            assert!(data.remap(sector));
            let txn = db.begin().await.unwrap();
            for k in 0..cap {
                db.insert(txn, t, k, b"r").await.unwrap();
            }
            assert_eq!(
                db.insert(txn, t, cap, b"r").await,
                Err(DbError::TableFull(t))
            );
            db.commit(txn).await.unwrap();
            db.stop();
            d2.set(true);
        });
        sim.run();
        assert!(done.get());
    }

    #[test]
    fn stopped_database_rejects_operations() {
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        with_db(move |_ctx, db| async move {
            let acct = db.table("acct").unwrap();
            db.stop();
            assert_eq!(db.begin().await.err(), Some(DbError::Stopped));
            assert_eq!(db.get(acct, 1).await.err(), Some(DbError::Stopped));
            d2.set(true);
        });
        assert!(done.get());
    }

    #[test]
    fn checkpoint_flushes_and_is_repeatable() {
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        with_db(move |_ctx, db| async move {
            let acct = db.table("acct").unwrap();
            for round in 0..3u64 {
                let txn = db.begin().await.unwrap();
                for k in 0..50 {
                    let key = round * 100 + k;
                    db.insert(txn, acct, key, b"data").await.unwrap();
                }
                db.commit(txn).await.unwrap();
                db.checkpoint().await.unwrap();
            }
            assert_eq!(db.row_count(acct), 150);
            d2.set(true);
        });
        assert!(done.get());
    }

    #[test]
    fn commit_on_hdd_costs_a_rotation_but_batches_across_clients() {
        let mut sim = Sim::new(5);
        let ctx = sim.ctx();
        let db_slot: Rc<RefCell<Option<Database>>> = Rc::new(RefCell::new(None));
        let ds = Rc::clone(&db_slot);
        let c2 = ctx.clone();
        sim.spawn(async move {
            let data = Rc::new(Disk::new(&c2, specs::instant(256 << 20)));
            let log = Rc::new(Disk::new(&c2, specs::hdd_7200(64 << 20)));
            let db = Database::create(
                &c2,
                DbConfig::default(),
                &small_tables(),
                data,
                log,
                DomainId::ROOT,
            )
            .await
            .unwrap();
            *ds.borrow_mut() = Some(db);
        });
        sim.run_until(rapilog_simcore::SimTime::from_millis(100));
        let db = db_slot.borrow().clone().unwrap();
        let t0 = sim.now();
        let committed = Rc::new(StdCell::new(0u32));
        let last_done = Rc::new(StdCell::new(0u64));
        for i in 0..16u64 {
            let db = db.clone();
            let committed = Rc::clone(&committed);
            let last_done = Rc::clone(&last_done);
            let ctx = ctx.clone();
            sim.spawn(async move {
                // Stagger arrivals so commits span several flushes.
                ctx.sleep(SimDuration::from_micros(i * 400)).await;
                let acct = db.table("acct").unwrap();
                let txn = db.begin().await.unwrap();
                db.insert(txn, acct, 1000 + i, b"row").await.unwrap();
                db.commit(txn).await.unwrap();
                committed.set(committed.get() + 1);
                last_done.set(last_done.get().max(ctx.now().as_nanos()));
            });
        }
        sim.run_until(rapilog_simcore::SimTime::from_secs(2));
        assert_eq!(committed.get(), 16);
        let elapsed =
            SimDuration::from_nanos(last_done.get()) - SimDuration::from_nanos(t0.as_nanos());
        // All 16 commits should ride a handful of rotations (group commit),
        // far less than 16 full rotations.
        assert!(
            elapsed < SimDuration::from_millis(60),
            "took {elapsed}, group commit broken?"
        );
        assert!(
            elapsed > SimDuration::from_millis(4),
            "took {elapsed}, rotation not charged?"
        );
    }

    /// Two writers re-dirty a 40-page working set in bursts of 50 updates,
    /// faster than any flush can clean it, and the checkpointer (25 ms
    /// interval) still moves the superblock's redo start forward interval
    /// after interval. A checkpoint that chased the pool until it was clean
    /// would never return under this load.
    #[test]
    fn checkpoints_complete_under_write_pressure() {
        use rapilog_simcore::rng::SimRng;
        const ROWS: u64 = 2_000;
        const INTERVAL: SimDuration = SimDuration::from_millis(25);
        let mut sim = Sim::new(23);
        let ctx = sim.ctx();
        let data = Disk::new(&ctx, specs::ssd_sata(64 << 20));
        let redo_starts: Rc<RefCell<Vec<Lsn>>> = Rc::default();
        let (c2, d2, rs) = (ctx.clone(), data.clone(), Rc::clone(&redo_starts));
        sim.spawn(async move {
            let cfg = DbConfig {
                checkpoint_interval: INTERVAL,
                ..DbConfig::default()
            };
            let defs = [TableDef {
                name: "t".to_string(),
                slot_size: 64,
                max_rows: ROWS,
            }];
            let log = Rc::new(Disk::new(&c2, specs::ssd_sata(64 << 20)));
            let db = Database::create(&c2, cfg, &defs, Rc::new(d2.clone()), log, DomainId::ROOT)
                .await
                .unwrap();
            let t = db.table("t").unwrap();
            let txn = db.begin().await.unwrap();
            for k in 0..ROWS {
                db.insert(txn, t, k, b"initial-row-image-000")
                    .await
                    .unwrap();
            }
            db.commit(txn).await.unwrap();
            // Disjoint key ranges: the writers never wait for each other.
            for c in 0..2u64 {
                let db = db.clone();
                let mut rng = SimRng::seed_from_u64(100 + c);
                c2.spawn(async move {
                    loop {
                        let burst = async {
                            let txn = db.begin().await?;
                            for _ in 0..50 {
                                let k = c * (ROWS / 2) + rng.gen_range(0..ROWS / 2);
                                db.update(txn, t, k, b"sustained-write-pressure-row")
                                    .await?;
                            }
                            db.commit(txn).await
                        };
                        if burst.await.is_err() {
                            break; // stopped
                        }
                    }
                });
            }
            // The superblock is written with FUA: the data device's media
            // has it.
            let mut sector = [0u8; SECTOR_SIZE];
            for _ in 0..=8 {
                d2.peek_media(SUPERBLOCK_SECTOR, &mut sector);
                rs.borrow_mut()
                    .push(Superblock::decode(&sector).unwrap().checkpoint);
                c2.sleep(INTERVAL).await;
            }
            db.stop();
        });
        sim.run_until(rapilog_simcore::SimTime::from_secs(60));
        let redo_starts = redo_starts.borrow();
        assert_eq!(redo_starts.len(), 9, "the load ran its eight intervals");
        let advanced: Vec<bool> = redo_starts.windows(2).map(|w| w[1] > w[0]).collect();
        let longest_run = advanced
            .split(|&a| !a)
            .map(<[bool]>::len)
            .max()
            .unwrap_or(0);
        assert!(
            longest_run >= 4,
            "the superblock must advance in >= 4 consecutive {INTERVAL} intervals: {redo_starts:?}"
        );
    }

    /// A log device whose writes wait at a gate while `parked` is set, and
    /// pass once `released` is.
    #[derive(Clone)]
    struct ParkedLog {
        ctx: SimCtx,
        inner: Rc<dyn BlockDevice>,
        parked: Rc<StdCell<bool>>,
        released: Event,
    }

    impl BlockDevice for ParkedLog {
        fn geometry(&self) -> Geometry {
            self.inner.geometry()
        }

        fn exec(&self, req: IoReq) -> LocalBoxFuture<'_, IoResult<Option<SectorBuf>>> {
            let park = self.parked.get() && matches!(req, IoReq::Write { .. });
            Box::pin(async move {
                if park {
                    self.released.wait().await;
                }
                self.inner.exec(req).await
            })
        }

        fn submit(&self, req: IoReq) -> ReqToken {
            ReqToken::spawn(&self.ctx, self.clone(), req)
        }
    }

    /// The checkpoint crosses devices: its record goes to the log, the
    /// superblock naming it to the data device. While the log's writes are
    /// parked the record cannot become durable, and the superblock sector
    /// must not change; once they pass, it names the new checkpoint.
    #[test]
    fn the_superblock_waits_for_its_checkpoint_record() {
        let mut sim = Sim::new(3);
        let ctx = sim.ctx();
        let data = Disk::new(&ctx, specs::instant(64 << 20));
        let (c2, d2) = (ctx.clone(), data.clone());
        let done = Rc::new(StdCell::new(false));
        let done2 = Rc::clone(&done);
        sim.spawn(async move {
            let log = ParkedLog {
                ctx: c2.clone(),
                inner: Rc::new(Disk::new(&c2, specs::instant(64 << 20))),
                parked: Rc::default(),
                released: Event::new(),
            };
            let cfg = DbConfig {
                checkpoint_interval: SimDuration::from_secs(3600),
                ..DbConfig::default()
            };
            let db = Database::create(
                &c2,
                cfg,
                &small_tables(),
                Rc::new(d2.clone()),
                Rc::new(log.clone()),
                DomainId::ROOT,
            )
            .await
            .unwrap();
            let t = db.table("acct").unwrap();
            let txn = db.begin().await.unwrap();
            db.insert(txn, t, 1, b"row").await.unwrap();
            db.commit(txn).await.unwrap();
            // A clean pool: the next checkpoint writes no page, so the
            // first thing it waits for is its own record.
            db.checkpoint().await.unwrap();
            let superblock = || {
                let mut sector = vec![0u8; SECTOR_SIZE];
                d2.peek_media(SUPERBLOCK_SECTOR, &mut sector);
                sector
            };
            let before = superblock();
            let record = db.wal().end();
            assert!(Superblock::decode(&before).unwrap().checkpoint < record);
            log.parked.set(true);
            let (db2, finished) = (db.clone(), Rc::new(StdCell::new(false)));
            let f2 = Rc::clone(&finished);
            c2.spawn(async move {
                db2.checkpoint().await.unwrap();
                f2.set(true);
            });
            c2.sleep(SimDuration::from_millis(50)).await;
            assert!(
                !finished.get(),
                "a checkpoint finished with its record parked"
            );
            assert!(
                superblock() == before,
                "the superblock moved before its record was durable"
            );
            log.released.set();
            c2.sleep(SimDuration::from_millis(50)).await;
            assert!(finished.get());
            let after = Superblock::decode(&superblock()).unwrap();
            assert_eq!(
                after.checkpoint, record,
                "the superblock names the new checkpoint"
            );
            db.stop();
            done2.set(true);
        });
        sim.run_until(rapilog_simcore::SimTime::from_secs(60));
        assert!(done.get());
    }

    /// Damage to either half of the catalog page fails `open` with
    /// [`DbError::Corrupt`], never a panic, and leaves the other half
    /// valid: each byte of the page flipped (the catalog's zero padding
    /// included), and the superblock sector zeroed.
    #[test]
    fn a_damaged_catalog_page_is_corrupt_not_a_panic() {
        let mut sim = Sim::new(11);
        let ctx = sim.ctx();
        let done = Rc::new(StdCell::new(0usize));
        let (c2, done2) = (ctx.clone(), Rc::clone(&done));
        sim.spawn(async move {
            let defs = [TableDef {
                name: "t".to_string(),
                slot_size: 64,
                max_rows: 100,
            }];
            let blank = || Disk::new(&c2, specs::instant(1 << 20));
            let (data, log) = (blank(), blank());
            let db = Database::create(
                &c2,
                DbConfig::default(),
                &defs,
                Rc::new(data.clone()),
                Rc::new(log.clone()),
                DomainId::ROOT,
            )
            .await
            .unwrap();
            db.stop();
            let mut page = vec![0u8; PAGE_SIZE];
            data.peek_media(0, &mut page);
            let sb_at = SUPERBLOCK_SECTOR as usize * SECTOR_SIZE;
            let mut damaged: Vec<(String, Vec<u8>)> = Vec::new();
            for at in 0..PAGE_SIZE {
                let mut bad = page.clone();
                bad[at] ^= 0xFF;
                damaged.push((format!("byte {at} flipped"), bad));
            }
            let mut zeroed = page.clone();
            zeroed[sb_at..].fill(0);
            damaged.push(("the superblock sector zeroed".to_string(), zeroed));
            for (what, bad) in damaged {
                let (catalog, sb) = bad.split_at(CATALOG_BYTES);
                assert!(
                    decode_catalog(catalog).is_ok() != Superblock::decode(sb).is_some(),
                    "{what}: exactly one half of the page is damaged"
                );
                let data = blank();
                data.poke_media(0, &bad);
                let opened = Database::open(
                    &c2,
                    DbConfig::default(),
                    Rc::new(data),
                    Rc::new(log.clone()),
                    DomainId::ROOT,
                )
                .await;
                match opened {
                    Err(DbError::Corrupt(_)) => done2.set(done2.get() + 1),
                    Err(e) => panic!("{what}: {e:?}, not Corrupt"),
                    Ok(_) => panic!("{what}: a damaged catalog page opened"),
                }
            }
        });
        sim.run_until(rapilog_simcore::SimTime::from_secs(60));
        assert_eq!(done.get(), PAGE_SIZE + 1, "damaged pages refused");
    }
}
