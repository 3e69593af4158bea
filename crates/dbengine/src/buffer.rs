//! Buffer pool with the WAL-before-data rule.
//!
//! Pages live in frames; a frame is pinned while any caller holds its
//! `Rc`. Eviction is exact LRU over unpinned frames: a fetch stamps its page
//! with a counter (O(1) on a hit), and a miss, which pays a device read
//! anyway, looks for the oldest stamp. Before a dirty page goes to
//! the device — on eviction or checkpoint — the WAL is forced up to the
//! page's LSN. That single rule is what makes the log the authority for
//! recovery.

use std::cell::RefCell;
use std::rc::Rc;

use rapilog_simcore::bytes::SectorBuf;
use rapilog_simcore::hash::FastMap;
use rapilog_simcore::sync::Event;
use rapilog_simdisk::{BlockDevice, IoReq};

use crate::error::{DbError, DbResult};
use crate::page::{Page, PageLoad, PAGE_SECTORS};
use crate::types::{Lsn, PageId, TableId};
use crate::wal::{Record, Superblock, Wal, SUPERBLOCK_SECTOR};

/// A resident page plus its dirty flag.
pub struct Frame {
    /// The page contents.
    pub page: Page,
    /// True if the in-memory page is newer than the device copy.
    pub dirty: bool,
    /// recLSN: the LSN of the first log record covering this page since it
    /// was last clean on media. `None` once the page is written back. Fuzzy
    /// checkpoints snapshot these into the dirty-page table; recovery's
    /// redo scan must start no later than `min(recLSN)`.
    pub rec_lsn: Option<Lsn>,
}

/// Shared handle to a resident frame; holding it pins the page.
pub type FrameRef = Rc<RefCell<Frame>>;

/// Cumulative pool statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolStats {
    /// Fetches served from memory.
    pub hits: u64,
    /// Fetches that read the device.
    pub misses: u64,
    /// Dirty pages written back (evictions + checkpoints).
    pub writebacks: u64,
}

/// A resident page: its frame and when it was last fetched.
struct Resident {
    frame: FrameRef,
    /// `PoolSt::clock` at the last fetch; the recency order is this, ascending.
    used: u64,
}

struct PoolSt {
    frames: FastMap<PageId, Resident>,
    /// Fetches so far (hits and completed loads).
    clock: u64,
    loading: FastMap<PageId, Event>,
    stats: PoolStats,
}

impl PoolSt {
    /// The eviction victim: the least recently used page nobody holds
    /// (pinned frames — extra `Rc` holders — are skipped).
    fn oldest_unpinned(&self) -> Option<(PageId, FrameRef)> {
        self.frames
            .iter()
            .filter(|(_, r)| Rc::strong_count(&r.frame) == 1)
            .min_by_key(|(_, r)| r.used)
            .map(|(pid, r)| (*pid, Rc::clone(&r.frame)))
    }
}

/// The buffer pool.
#[derive(Clone)]
pub struct BufferPool {
    inner: Rc<PoolInner>,
}

struct PoolInner {
    dev: Rc<dyn BlockDevice>,
    wal: Wal,
    capacity: usize,
    st: RefCell<PoolSt>,
}

impl BufferPool {
    /// Creates a pool of `capacity` pages over `dev`, forcing `wal` before
    /// data writes.
    pub fn new(dev: Rc<dyn BlockDevice>, wal: Wal, capacity: usize) -> BufferPool {
        assert!(capacity >= 2, "buffer pool too small");
        BufferPool {
            inner: Rc::new(PoolInner {
                dev,
                wal,
                capacity,
                st: RefCell::new(PoolSt {
                    frames: FastMap::default(),
                    clock: 0,
                    loading: FastMap::default(),
                    stats: PoolStats::default(),
                }),
            }),
        }
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> PoolStats {
        self.inner.st.borrow().stats
    }

    /// Fetches a page, reading it from the device on a miss. A blank
    /// (never-written) page comes back as a fresh page initialised for
    /// `table`/`slot_size`. A corrupt page is an error unless
    /// `tolerate_corrupt` (recovery sets it: the page will be rebuilt from
    /// a full-page image), in which case a fresh page is returned.
    pub async fn fetch(
        &self,
        pid: PageId,
        table: TableId,
        slot_size: u16,
        tolerate_corrupt: bool,
    ) -> DbResult<FrameRef> {
        loop {
            let wait_for: Option<Event> = {
                let mut st = self.inner.st.borrow_mut();
                let st = &mut *st;
                if let Some(r) = st.frames.get_mut(&pid) {
                    st.clock += 1;
                    r.used = st.clock;
                    st.stats.hits += 1;
                    return Ok(Rc::clone(&r.frame));
                }
                if let Some(ev) = st.loading.get(&pid) {
                    Some(ev.clone())
                } else {
                    st.loading.insert(pid, Event::new());
                    st.stats.misses += 1;
                    None
                }
            };
            if let Some(ev) = wait_for {
                ev.wait().await;
                continue;
            }
            // We own the load. Make room first, then read.
            let result = self
                .load_page(pid, table, slot_size, tolerate_corrupt)
                .await;
            let ev = {
                let mut st = self.inner.st.borrow_mut();
                let ev = st.loading.remove(&pid).expect("loading marker vanished");
                if let Ok(frame) = &result {
                    st.clock += 1;
                    let (frame, used) = (Rc::clone(frame), st.clock);
                    st.frames.insert(pid, Resident { frame, used });
                }
                ev
            };
            ev.set();
            return result;
        }
    }

    async fn load_page(
        &self,
        pid: PageId,
        table: TableId,
        slot_size: u16,
        tolerate_corrupt: bool,
    ) -> DbResult<FrameRef> {
        self.make_room().await?;
        let token = self.inner.dev.submit(IoReq::Read {
            sector: pid.0 * PAGE_SECTORS,
            sectors: PAGE_SECTORS,
        });
        let data = self.inner.dev.wait(token).await?;
        let data = data.expect("read completion must carry data");
        let page = match Page::load(data.as_slice()) {
            PageLoad::Valid(p) => p,
            PageLoad::Fresh => Page::new(table, slot_size),
            PageLoad::Corrupt if tolerate_corrupt => Page::new(table, slot_size),
            PageLoad::Corrupt => {
                return Err(DbError::Corrupt(format!("page {pid:?} failed its CRC")))
            }
        };
        Ok(Rc::new(RefCell::new(Frame {
            page,
            dirty: false,
            rec_lsn: None,
        })))
    }

    async fn make_room(&self) -> DbResult<()> {
        loop {
            let victim = {
                let st = self.inner.st.borrow();
                if st.frames.len() < self.inner.capacity {
                    return Ok(());
                }
                st.oldest_unpinned()
            };
            let Some((pid, frame)) = victim else {
                // Everything is pinned: allow temporary overcommit rather
                // than deadlocking; the pool shrinks on later fetches.
                return Ok(());
            };
            self.write_frame(pid, &frame).await?;
            drop(frame); // release our own pin before re-checking
            let mut st = self.inner.st.borrow_mut();
            // The frame may have been re-pinned while we wrote; only drop
            // it if it is still unpinned (the write was still useful).
            let unpinned = st
                .frames
                .get(&pid)
                .is_some_and(|r| Rc::strong_count(&r.frame) == 1);
            if unpinned {
                st.frames.remove(&pid);
                return Ok(());
            }
        }
    }

    async fn write_frame(&self, pid: PageId, frame: &FrameRef) -> DbResult<()> {
        let (dirty, lsn, bytes) = {
            let f = frame.borrow();
            (f.dirty, f.page.lsn(), f.page.to_disk_bytes())
        };
        if !dirty {
            return Ok(());
        }
        // WAL-before-data: the log must cover the page's changes first.
        self.inner.wal.flush_to(lsn).await?;
        let token = self.inner.dev.submit(IoReq::Write {
            sector: pid.0 * PAGE_SECTORS,
            segments: vec![SectorBuf::from_vec(bytes)],
            fua: false,
        });
        self.inner.dev.wait(token).await?;
        let restamped_image = {
            let mut f = frame.borrow_mut();
            if f.page.lsn() == lsn {
                f.dirty = false;
                f.rec_lsn = None;
                None
            } else {
                // The page was re-stamped while the write was in flight —
                // the media image only covers `lsn`, so the frame must stay
                // dirty. Its old recLSN is still correct but would pin the
                // redo horizon forever on a page that never comes clean
                // under sustained writes. Log a fresh full-page image below
                // and advance recLSN to it: the image carries every delta
                // the old recLSN protected, and a redo scan starting at the
                // new recLSN replays the image first, so torn-page repair
                // still holds.
                Some(f.page.image().to_vec())
            }
        };
        if let Some(image) = restamped_image {
            let (fpw, _) = self
                .inner
                .wal
                .append(&Record::FullPage { page: pid, image })?;
            frame.borrow_mut().rec_lsn = Some(fpw);
        }
        self.inner.st.borrow_mut().stats.writebacks += 1;
        Ok(())
    }

    /// Writes back the listed pages if still resident and dirty — one pass,
    /// no chasing. Fuzzy checkpoints call this on a snapshot of the
    /// dirty-page table; pages dirtied during the pass ride the next one.
    pub async fn flush_pages(&self, pages: &[(PageId, Lsn)]) -> DbResult<()> {
        for &(pid, _) in pages {
            let frame = {
                let st = self.inner.st.borrow();
                st.frames.get(&pid).map(|r| Rc::clone(&r.frame))
            };
            if let Some(frame) = frame {
                self.write_frame(pid, &frame).await?;
            }
        }
        Ok(())
    }

    /// Device cache barrier: every previously acknowledged cached write is
    /// on stable media once this returns.
    pub async fn barrier(&self) -> DbResult<()> {
        let token = self.inner.dev.submit(IoReq::Flush);
        self.inner.dev.wait(token).await?;
        Ok(())
    }

    /// Writes `sb` durably (FUA) to its sector of the data device.
    pub(crate) async fn write_superblock(&self, sb: &Superblock) -> DbResult<()> {
        let token = self.inner.dev.submit(IoReq::Write {
            sector: SUPERBLOCK_SECTOR,
            segments: vec![SectorBuf::from_vec(sb.encode())],
            fua: true,
        });
        self.inner.dev.wait(token).await?;
        Ok(())
    }

    /// Snapshot of the dirty-page table: every resident page that may be
    /// newer in memory than on media, with its recLSN. Sorted by page id so
    /// checkpoint records are deterministic regardless of map order.
    pub fn dirty_page_table(&self) -> Vec<(PageId, Lsn)> {
        let st = self.inner.st.borrow();
        let mut dpt: Vec<(PageId, Lsn)> = st
            .frames
            .iter()
            .filter_map(|(pid, r)| r.frame.borrow().rec_lsn.map(|l| (*pid, l)))
            .collect();
        dpt.sort_unstable_by_key(|&(pid, _)| pid.0);
        dpt
    }

    /// Marks a frame dirty (callers mutate the page through the frame).
    /// Captures the page's freshly stamped LSN as recLSN on the clean→dirty
    /// transition, unless [`note_rec_lsn`](Self::note_rec_lsn) already
    /// pinned an earlier one (the full-page-write case).
    pub fn mark_dirty(frame: &FrameRef) {
        let mut f = frame.borrow_mut();
        f.dirty = true;
        if f.rec_lsn.is_none() {
            f.rec_lsn = Some(f.page.lsn());
        }
    }

    /// Pins `lsn` as the frame's recLSN if it does not have one. The engine
    /// calls this when it appends a full-page image for the frame: the FPW
    /// record precedes the delta in the log, so redo starting at
    /// `min(recLSN)` must not skip past it — torn-page repair depends on
    /// replaying the image.
    pub fn note_rec_lsn(frame: &FrameRef, lsn: Lsn) {
        let mut f = frame.borrow_mut();
        if f.rec_lsn.is_none() {
            f.rec_lsn = Some(lsn);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PAGE_SIZE;
    use crate::wal::CommitPolicy;
    use rapilog_simcore::{DomainId, Sim};
    use rapilog_simdisk::{specs, Disk};
    use std::cell::Cell as StdCell;

    fn pool_fixture(sim: &mut Sim, capacity: usize) -> (BufferPool, Disk, Wal) {
        let ctx = sim.ctx();
        let data = Disk::new(&ctx, specs::instant(64 << 20));
        let logd = Disk::new(&ctx, specs::instant(16 << 20));
        let wal = Wal::new(
            &ctx,
            Rc::new(logd),
            CommitPolicy::default(),
            Lsn::ZERO,
            Lsn::ZERO,
            DomainId::ROOT,
        )
        .unwrap();
        let pool = BufferPool::new(Rc::new(data.clone()), wal.clone(), capacity);
        (pool, data, wal)
    }

    #[test]
    fn fetch_fresh_page_and_cache_hit() {
        let mut sim = Sim::new(2);
        let (pool, ..) = pool_fixture(&mut sim, 8);
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        sim.spawn(async move {
            let f1 = pool.fetch(PageId(5), TableId(1), 64, false).await.unwrap();
            f1.borrow_mut().page.write_slot(0, 7, b"x");
            BufferPool::mark_dirty(&f1);
            drop(f1);
            let f2 = pool.fetch(PageId(5), TableId(1), 64, false).await.unwrap();
            assert_eq!(f2.borrow().page.read_slot(0), Some((7, b"x".to_vec())));
            let s = pool.stats();
            assert_eq!(s.misses, 1);
            assert_eq!(s.hits, 1);
            d2.set(true);
        });
        sim.run();
        assert!(done.get());
    }

    #[test]
    fn eviction_respects_capacity_and_persists_dirty_pages() {
        let mut sim = Sim::new(2);
        let (pool, data, _wal) = pool_fixture(&mut sim, 4);
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        let p2 = pool.clone();
        sim.spawn(async move {
            // Dirty ten distinct pages through a 4-page pool.
            for i in 0..10u64 {
                let f = p2.fetch(PageId(i), TableId(1), 64, false).await.unwrap();
                {
                    let mut fr = f.borrow_mut();
                    fr.page.write_slot(0, i, &i.to_le_bytes());
                    fr.page.set_lsn(Lsn(1)); // pretend it was logged
                }
                BufferPool::mark_dirty(&f);
            }
            let resident = p2.inner.st.borrow().frames.len();
            assert!(resident <= 4, "resident {resident} > capacity");
            // Re-read an evicted page: contents came back from the device.
            let f = p2.fetch(PageId(0), TableId(1), 64, false).await.unwrap();
            assert_eq!(
                f.borrow().page.read_slot(0),
                Some((0, 0u64.to_le_bytes().to_vec()))
            );
            d2.set(true);
        });
        sim.run();
        assert!(done.get());
        assert!(pool.stats().writebacks >= 6, "evictions wrote back");
        // And the bytes really are on the media.
        let mut buf = vec![0u8; PAGE_SIZE];
        data.peek_media(0, &mut buf[..512]);
        assert!(buf[..512].iter().any(|&b| b != 0), "page 0 reached media");
    }

    /// The stamps against what they replaced: a `VecDeque` a hit
    /// searched, removed from and pushed onto the back of; the victim is its
    /// first page nobody else holds; a pool with nothing to evict
    /// overcommits and sheds one page per later load. Same hits, same
    /// misses, same order after every fetch.
    #[test]
    fn eviction_order_is_the_searched_deques() {
        use rapilog_simcore::rng::SimRng;
        use std::collections::VecDeque;
        const CAPACITY: usize = 6;
        let mut sim = Sim::new(2);
        let (pool, ..) = pool_fixture(&mut sim, CAPACITY);
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        sim.spawn(async move {
            let mut rng = SimRng::seed_from_u64(9);
            let mut model: VecDeque<PageId> = VecDeque::new();
            let mut pins: Vec<(PageId, FrameRef)> = Vec::new();
            let (mut evictions, mut overcommitted) = (0, 0);
            for _ in 0..20_000 {
                if !pins.is_empty() && rng.gen_range(0..3u32) == 0 {
                    pins.swap_remove(rng.gen_range(0..pins.len()));
                }
                let pid = PageId(rng.gen_range(0..16u64));
                let hit = match model.iter().position(|&p| p == pid) {
                    Some(pos) => model.remove(pos).is_some(),
                    None => {
                        if model.len() >= CAPACITY {
                            overcommitted += (model.len() > CAPACITY) as u32;
                            let pinned = |p: &PageId| pins.iter().any(|(q, _)| q == p);
                            if let Some(pos) = model.iter().position(|p| !pinned(p)) {
                                model.remove(pos);
                                evictions += 1;
                            }
                        }
                        false
                    }
                };
                model.push_back(pid);
                let before = pool.stats();
                let frame = pool.fetch(pid, TableId(1), 64, false).await.unwrap();
                let after = pool.stats();
                assert_eq!((after.hits - before.hits, after.misses - before.misses), {
                    (hit as u64, !hit as u64)
                });
                let mut order: Vec<(u64, PageId)> = {
                    let st = pool.inner.st.borrow();
                    st.frames.iter().map(|(p, r)| (r.used, *p)).collect()
                };
                order.sort_unstable();
                let order: Vec<PageId> = order.into_iter().map(|(_, p)| p).collect();
                assert_eq!(order, Vec::from(model.clone()));
                if rng.gen_range(0..3u32) > 0 && pins.len() < CAPACITY + 2 {
                    pins.push((pid, frame));
                }
            }
            assert!(evictions > 1_000 && overcommitted > 100);
            d2.set(true);
        });
        sim.run();
        assert!(done.get());
    }

    #[test]
    fn flush_pages_writes_each_listed_dirty_page_once() {
        let mut sim = Sim::new(2);
        let (pool, _data, _wal) = pool_fixture(&mut sim, 8);
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        sim.spawn(async move {
            for i in 0..5u64 {
                let f = pool.fetch(PageId(i), TableId(1), 64, false).await.unwrap();
                f.borrow_mut().page.write_slot(0, i, b"d");
                BufferPool::mark_dirty(&f);
            }
            let snapshot = pool.dirty_page_table();
            assert_eq!(snapshot.len(), 5);
            pool.flush_pages(&snapshot).await.unwrap();
            assert_eq!(pool.stats().writebacks, 5);
            assert!(pool.dirty_page_table().is_empty());
            // Everything clean now: the same list again writes nothing.
            pool.flush_pages(&snapshot).await.unwrap();
            assert_eq!(pool.stats().writebacks, 5);
            d2.set(true);
        });
        sim.run();
        assert!(done.get());
    }

    #[test]
    fn corrupt_page_is_error_unless_tolerated() {
        let mut sim = Sim::new(2);
        let ctx = sim.ctx();
        let data = Disk::new(&ctx, specs::instant(64 << 20));
        let logd = Disk::new(&ctx, specs::instant(16 << 20));
        let wal = Wal::new(
            &ctx,
            Rc::new(logd),
            CommitPolicy::default(),
            Lsn::ZERO,
            Lsn::ZERO,
            DomainId::ROOT,
        )
        .unwrap();
        let pool = BufferPool::new(Rc::new(data.clone()), wal, 8);
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        sim.spawn(async move {
            // Write garbage that is non-blank but not a valid page.
            let garbage = vec![0xA5u8; PAGE_SIZE];
            data.write(3 * PAGE_SECTORS, &garbage, true).await.unwrap();
            let err = pool.fetch(PageId(3), TableId(1), 64, false).await.err();
            assert!(matches!(err, Some(DbError::Corrupt(_))), "got {err:?}");
            // Recovery mode: a fresh page replaces the wreck.
            let f = pool.fetch(PageId(3), TableId(1), 64, true).await.unwrap();
            assert_eq!(f.borrow().page.lsn(), Lsn::ZERO);
            d2.set(true);
        });
        sim.run();
        assert!(done.get());
    }

    #[test]
    fn concurrent_fetchers_share_one_load() {
        let mut sim = Sim::new(2);
        let ctx = sim.ctx();
        // HDD so the load takes real time and the second fetch overlaps.
        let data = Disk::new(&ctx, specs::hdd_7200(64 << 20));
        let logd = Disk::new(&ctx, specs::instant(16 << 20));
        let wal = Wal::new(
            &ctx,
            Rc::new(logd),
            CommitPolicy::default(),
            Lsn::ZERO,
            Lsn::ZERO,
            DomainId::ROOT,
        )
        .unwrap();
        let pool = BufferPool::new(Rc::new(data), wal, 8);
        let hits = Rc::new(StdCell::new(0u32));
        for _ in 0..4 {
            let pool = pool.clone();
            let hits = Rc::clone(&hits);
            sim.spawn(async move {
                let _f = pool.fetch(PageId(9), TableId(1), 64, false).await.unwrap();
                hits.set(hits.get() + 1);
            });
        }
        sim.run();
        assert_eq!(hits.get(), 4);
        assert_eq!(pool.stats().misses, 1, "only one device read");
    }
}
