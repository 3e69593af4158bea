//! The dependable buffer: bounded, ordered, admission-controlled.
//!
//! Writes enter as *extents* (a sector run plus bytes) and leave strictly
//! in arrival order when the drain commits them to media. A sector-ordered
//! map of runs ([`Run`]) provides read-your-writes for data that is
//! acknowledged but not yet on disk — the guest re-reading its log tail
//! after a reboot sees exactly what it was promised. A run that has landed
//! stays in the map as a range without its bytes, for as long as the buffer
//! has idle room for it: the media holds exactly what that landing wrote,
//! so the caller answers a read of it from there at the buffer's cost, and
//! the same guest reads its log back without waiting on the disk.
//!
//! Admission control is the paper's safety argument in code: with a power
//! supply, a write is admitted only while the emergency drain of everything
//! the instance then holds — its bytes at sequential bandwidth plus one
//! positioning per dirty region — fits the supply's residual window
//! ([`budget::drainable_bytes`]), whichever shard it is for; the capacity is
//! a memory cap. When there is no room, writers wait — that is the graceful
//! degradation to synchronous-disk speed (I5).
//!
//! # Zero-copy data path
//!
//! Extent bytes are [`SectorBuf`]s: admission takes an O(1) view of the
//! caller's buffer, the run map holds one run per admission — a *view into
//! the same allocation* (not a copy), cut down to what no newer admission
//! has rewritten — and the drain removes extents from the queue by move
//! ([`pop_batch`](DependableBuffer::pop_batch)) while a small
//! `(seq, sector, len)` ledger keeps occupancy accounting and
//! read-your-writes intact until [`complete_run`](DependableBuffer::complete_run).

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;

use rapilog_simcore::bytes::SectorBuf;
use rapilog_simcore::sync::Notify;
use rapilog_simcore::SimCtx;
use rapilog_simdisk::{DiskSpec, SECTOR_SIZE};
use rapilog_simpower::{budget, SupplySpec};

/// One accepted write.
#[derive(Debug, Clone)]
pub struct Extent {
    /// Arrival order; drains strictly ascending.
    pub seq: u64,
    /// First sector of the run.
    pub sector: u64,
    /// Admission timestamp in sim-nanoseconds (0 when the buffer has no
    /// clock attached, e.g. unit tests) — lets the drain's ledger measure
    /// admission-to-durable commit latency per extent.
    pub admit_ns: u64,
    /// The bytes (a positive multiple of the sector size), shared with the
    /// admission-time writer and the read-your-writes overlay.
    pub data: SectorBuf,
}

/// Cumulative buffer statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct BufferStats {
    /// Writes accepted.
    pub accepted_writes: u64,
    /// Bytes accepted.
    pub accepted_bytes: u64,
    /// Bytes committed to media.
    pub drained_bytes: u64,
    /// Highest occupancy ever observed.
    pub peak_occupancy: u64,
    /// Times a writer had to wait for space (backpressure engaged).
    pub backpressure_events: u64,
    /// Landed bytes the buffer answers reads for right now (never counted
    /// as occupancy).
    pub kept_bytes: u64,
    /// Bytes guest reads took from the buffer, dirty or kept.
    pub read_memory_bytes: u64,
    /// Bytes the backing disk served to guest reads.
    pub read_disk_bytes: u64,
}

/// Sectors `[first, end)` (`first` is the key) the buffer answers reads
/// for: the newest acked bytes on their way to the media (dirty), or what a
/// landing put there (kept).
struct Run {
    end: u64,
    /// Dirty: the extent whose bytes these are. Kept: the landing that kept
    /// it, numbered from the buffer's first (a run later landings grew
    /// keeps its own), so the lowest is the oldest.
    seq: u64,
    kept: bool,
    /// The bytes, viewing exactly these sectors of the extent's allocation:
    /// always while dirty; once kept only if the disk may have corrupted a
    /// sector of the landing, so that a read still returns what was acked.
    data: Option<SectorBuf>,
}

impl Run {
    /// Cuts this run, which starts at `at`, at `from`: it keeps what lies
    /// before and returns the rest, bytes as O(1) views.
    fn split_off(&mut self, at: u64, from: u64) -> Run {
        let off = (from - at) as usize * SECTOR_SIZE;
        let data = self.data.as_mut().map(|d| {
            let rest = d.slice(off..d.len());
            *d = d.slice(0..off);
            rest
        });
        Run {
            end: std::mem::replace(&mut self.end, from),
            data,
            ..*self
        }
    }
}

/// Accounting stub for an extent the drain has taken by move but not yet
/// committed. Keeps `wait_completed`, occupancy and the release of its dirty
/// runs working without holding a second copy of the bytes.
struct InflightExtent {
    seq: u64,
    sector: u64,
    len: u64,
}

/// The supply whose window an instance's emergency drain must fit, and the
/// disk it drains to.
pub(crate) type Rule = (SupplySpec, DiskSpec);

/// What `rule`'s window drains from `regions` dirty regions, in bytes: the
/// disk's sequential bandwidth and positioning cost into the one rule.
pub(crate) fn drainable((supply, disk): &Rule, regions: u64) -> u64 {
    let (bandwidth, positioning) = (disk.sequential_bandwidth(), disk.positioning_bound());
    budget::drainable_bytes(supply, bandwidth, positioning, regions)
}

/// What the shards of one instance share: the drain's wake-up (`avail`),
/// the writers' (`space`, so a release on any shard wakes a writer the rule
/// held back on another), one frozen flag, and the bytes and dirty regions
/// they hold between them, all of which the one emergency drain must land.
#[derive(Default)]
pub(crate) struct Ledger {
    pub(crate) avail: Notify,
    pub(crate) space: Notify,
    pub(crate) frozen: Cell<bool>,
    pub(crate) bytes: Cell<u64>,
    pub(crate) regions: Cell<u64>,
    /// Admissions keep to it, with a supply.
    pub(crate) rule: Option<Rule>,
}

struct BufSt {
    queue: VecDeque<Extent>,
    /// Extents popped by the drain, oldest first, awaiting completion.
    inflight: VecDeque<InflightExtent>,
    /// Stamps `Extent::admit_ns`; attached by the builder.
    clock: Option<SimCtx>,
    occupancy: u64,
    capacity: u64,
    next_seq: u64,
    /// Disjoint runs: one per admission less what newer ones took from it,
    /// dirty until its extent lands and kept from then on as room allows.
    /// A sector is dirty or kept, never both.
    runs: BTreeMap<u64, Run>,
    /// The kept runs as `(landing, first sector)`, the eviction order: one
    /// entry per kept run, gone when the run goes, however it goes.
    kept: BTreeSet<(u64, u64)>,
    /// Sectors in kept runs, in bytes: at most `capacity - occupancy`.
    kept_bytes: u64,
    /// Landings so far; numbers the next one.
    landings: u64,
    /// The instance's ledger, whose dirty regions — maximal stretches of
    /// contiguous dirty runs, one positioning each for the emergency drain —
    /// this shard's carves and landings move.
    ledger: Rc<Ledger>,
    /// Cleared by [`DependableBuffer::keep_nothing`].
    keeps: bool,
    /// What the guest has said it no longer needs and has not rewritten
    /// since ([`DependableBuffer::trim`]): ascending, disjoint, non-adjacent
    /// `[first, end)` sector ranges. A sector in one that no run holds
    /// reads as zeros. Volatile, like the kept runs: a rebuilt instance
    /// starts with none and reads the media.
    trims: Vec<(u64, u64)>,
    stats: BufferStats,
}

impl BufSt {
    /// Sequence number of the oldest extent not yet completed, if any.
    /// Both deques stay sorted by seq (pops are prefix-ordered and
    /// completion removes without reordering), and every inflight seq
    /// precedes every queued seq, so the front of `inflight` (else
    /// `queue`) is the oldest.
    fn oldest_pending_seq(&self) -> Option<u64> {
        self.inflight
            .front()
            .map(|r| r.seq)
            .or_else(|| self.queue.front().map(|e| e.seq))
    }

    /// Releases one committed extent: occupancy, drained accounting, and
    /// the dirty runs this extent still owns (what no newer write to the
    /// same sectors took). The media now holds those bytes — exactly, if
    /// `exact` — so they stay readable as kept runs of `landing`, as far as
    /// idle room allows.
    fn release(&mut self, seq: u64, sector: u64, len: u64, landing: u64, exact: bool) {
        self.occupancy -= len;
        self.ledger.bytes.set(self.ledger.bytes.get() - len);
        self.stats.drained_bytes += len;
        let end = sector + len / SECTOR_SIZE as u64;
        // The extent's runs lie among its own sectors, between the runs of
        // newer writes that carved them.
        let mut at = sector;
        while at < end {
            let Some((&first, run)) = self.runs.range(at..end).next() else {
                break;
            };
            at = run.end;
            if run.kept || run.seq != seq {
                continue;
            }
            let run = self.runs.remove(&first).expect("found above");
            // Its region shrinks, goes, or splits around it.
            let mut near = self.runs.range(..=run.end).rev().peekable();
            let right = near.next_if(|(&at, _)| at == run.end);
            let right = right.is_some_and(|(_, r)| !r.kept);
            let left = near.next().is_some_and(|(_, r)| r.end == first && !r.kept);
            let regions = self.ledger.regions.get() + u64::from(left) + u64::from(right);
            self.ledger.regions.set(regions - 1);
            if self.keeps {
                self.keep(first, run.end, landing, run.data.filter(|_| !exact));
            }
        }
        self.evict_to(self.capacity - self.occupancy);
    }

    /// Dirty regions a dirty run over `[first, end)` would join: those with
    /// a sector in it or right beside it, found among the runs it overlaps
    /// and its two neighbours, walked down from the right one.
    fn joins(&self, first: u64, end: u64) -> u64 {
        let (mut n, mut next) = (0, None);
        let touches = |(_, r): &(&u64, &Run)| r.end >= first;
        for (&at, run) in self.runs.range(..=end).rev().take_while(touches) {
            if !run.kept {
                n += u64::from(next != Some(run.end));
                next = Some(at);
            }
        }
        n
    }

    /// Keeps landed sectors `[first, end)` as runs of `landing`, less the
    /// trimmed ones, which nobody reads. A run right behind a kept one
    /// grows it instead: a log lands in ascending sectors, so the grown
    /// run's front is still its oldest part, and evicting fronts first still
    /// evicts the oldest landing first.
    fn keep(&mut self, first: u64, end: u64, landing: u64, data: Option<SectorBuf>) {
        let mut i = self.trims.partition_point(|r| r.1 <= first);
        let mut at = first;
        while at < end {
            let (cut, resume) = match self.trims.get(i) {
                Some(&(t0, t1)) if t0 < end => (t0.max(at), t1),
                _ => (end, end),
            };
            i += 1;
            if at < cut {
                let bytes = |s: u64| (s - first) as usize * SECTOR_SIZE;
                let data = data.as_ref().map(|d| d.slice(bytes(at)..bytes(cut)));
                self.kept_bytes += (cut - at) * SECTOR_SIZE as u64;
                match self.runs.range_mut(..at).next_back() {
                    Some((_, run))
                        if run.end == at && run.kept && run.data.is_none() && data.is_none() =>
                    {
                        run.end = cut
                    }
                    _ => {
                        self.kept.insert((landing, at));
                        let run = Run {
                            end: cut,
                            seq: landing,
                            kept: true,
                            data,
                        };
                        self.runs.insert(at, run);
                    }
                }
            }
            at = resume;
        }
    }

    /// Takes `[first, end)` out of the runs it overlaps: out of every run
    /// if `put` is a new run for it, which then takes the range's place —
    /// in place of a run that started at `first` — else out of the kept
    /// ones only. A run reaching across either bound keeps the part
    /// outside. The runs are disjoint: walking back from the last one
    /// starting before `end` meets all it touches, until one ends by
    /// `first`.
    fn carve(&mut self, first: u64, end: u64, mut put: Option<Run>) {
        let mut before = end;
        while let Some((&at, run)) = self.runs.range_mut(..before).next_back() {
            if run.end <= first {
                break;
            }
            before = at;
            if run.kept || put.is_some() {
                let (kept, landing) = (run.kept, run.seq);
                let mut cut = if at < first {
                    run.split_off(at, first)
                } else {
                    if kept {
                        self.kept.remove(&(landing, at));
                    }
                    match put.take_if(|_| at == first) {
                        Some(new) => std::mem::replace(run, new),
                        None => self.runs.remove(&at).expect("found above"),
                    }
                };
                let from = at.max(first);
                if cut.end > end {
                    if kept {
                        self.kept.insert((landing, end));
                    }
                    self.runs.insert(end, cut.split_off(from, end));
                }
                if kept {
                    self.kept_bytes -= (cut.end - from) * SECTOR_SIZE as u64;
                }
            }
            if at <= first {
                break;
            }
        }
        if let Some(run) = put {
            self.runs.insert(first, run);
        }
    }

    /// Evicts kept sectors, oldest landing first and a run's front before
    /// its back, until at most `room` bytes of them remain.
    fn evict_to(&mut self, room: u64) {
        while self.kept_bytes > room {
            let &(_, first) = self.kept.first().expect("kept bytes are indexed");
            let over = (self.kept_bytes - room).div_ceil(SECTOR_SIZE as u64);
            let end = self.runs[&first].end.min(first + over);
            self.carve(first, end, None);
        }
    }

    /// True if `sector` lies in a trimmed range.
    fn trimmed(&self, sector: u64) -> bool {
        let i = self.trims.partition_point(|r| r.1 <= sector);
        self.trims.get(i).is_some_and(|r| r.0 <= sector)
    }

    /// Takes `[first, end)` out of the trimmed ranges: the guest has
    /// rewritten it. In place — a writer appending into trimmed space moves
    /// one range's front — except that a write into the middle of a range
    /// splits it.
    fn punch(&mut self, first: u64, end: u64) {
        let mut i = self.trims.partition_point(|r| r.1 <= first);
        while let Some(r) = self.trims.get_mut(i).filter(|r| r.0 < end) {
            match (r.0 < first, end < r.1) {
                (false, true) => r.0 = end,
                (true, false) => r.1 = first,
                (false, false) => {
                    self.trims.remove(i);
                    continue;
                }
                (true, true) => {
                    let rest = (end, std::mem::replace(&mut r.1, first));
                    self.trims.insert(i + 1, rest);
                }
            }
            i += 1;
        }
    }
}

/// Handle to the buffer; clones share state.
#[derive(Clone)]
pub struct DependableBuffer {
    st: Rc<RefCell<BufSt>>,
    ledger: Rc<Ledger>,
    empty: Notify,
}

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The buffer is frozen (power failing): no new admissions.
    Frozen,
}

impl DependableBuffer {
    /// Creates a buffer with the given byte capacity and no supply.
    pub fn new(capacity: u64) -> DependableBuffer {
        DependableBuffer::sharing(capacity, &Rc::default())
    }

    /// Creates a buffer that shares `ledger` with the other shards of its
    /// instance — how the tenant shards of a [`ShardedBuffer`]
    /// (crate::shard::ShardedBuffer) all wake the one fair-share drain and
    /// admit by one rule.
    pub(crate) fn sharing(capacity: u64, ledger: &Rc<Ledger>) -> DependableBuffer {
        DependableBuffer {
            st: Rc::new(RefCell::new(BufSt {
                queue: VecDeque::new(),
                inflight: VecDeque::new(),
                clock: None,
                occupancy: 0,
                capacity,
                next_seq: 0,
                runs: BTreeMap::new(),
                kept: BTreeSet::new(),
                kept_bytes: 0,
                landings: 0,
                ledger: Rc::clone(ledger),
                keeps: true,
                trims: Vec::new(),
                stats: BufferStats::default(),
            })),
            ledger: Rc::clone(ledger),
            empty: Notify::new(),
        }
    }

    /// True if at least one extent is queued (not counting in-flight ones).
    pub(crate) fn has_queued(&self) -> bool {
        !self.st.borrow().queue.is_empty()
    }

    /// Attaches the sim clock, so admissions are stamped with `admit_ns`.
    /// Without it (unit tests building the buffer directly) extents carry
    /// `admit_ns == 0` and commit latency simply isn't measured.
    pub(crate) fn attach(&self, ctx: &SimCtx) {
        self.st.borrow_mut().clock = Some(ctx.clone());
    }

    /// For the buffer of an instance whose disk does not rotate. What
    /// keeping landed sectors spares a guest is a rotating disk's
    /// positioning, 4–8 ms a request, and that is where it was measured; on
    /// flash it would spare 50 µs reads no workload there issues, and
    /// keeping costs the simulator host time at every landing.
    pub(crate) fn keep_nothing(&self) {
        self.st.borrow_mut().keeps = false;
    }

    /// The admission cap.
    pub fn capacity(&self) -> u64 {
        self.st.borrow().capacity
    }

    /// The longest extent [`push`](Self::push) takes: the capacity, or what
    /// the supply's window drains in one region if that is less.
    pub(crate) fn largest_extent(&self) -> u64 {
        let window = self.ledger.rule.as_ref().map(|rule| drainable(rule, 1));
        window.map_or(self.capacity(), |w| w.min(self.capacity()))
    }

    /// Bytes currently buffered (queued plus drained-but-uncommitted).
    pub fn occupancy(&self) -> u64 {
        self.st.borrow().occupancy
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> BufferStats {
        let st = self.st.borrow();
        BufferStats {
            kept_bytes: st.kept_bytes,
            ..st.stats
        }
    }

    /// True once [`freeze`](Self::freeze) was called, on any shard of the
    /// instance.
    pub fn is_frozen(&self) -> bool {
        self.ledger.frozen.get()
    }

    /// Stops admitting writes (power-fail warning), on every shard of the
    /// instance: they share one flag. The drain keeps going.
    pub fn freeze(&self) {
        self.ledger.frozen.set(true);
        // Release writers stuck waiting for space so they see the freeze.
        self.ledger.space.notify_all();
    }

    /// Accepts a write, waiting for space under backpressure: until it fits
    /// the capacity, and with a supply until the instance's emergency drain
    /// with it still fits the window. Returns the extent's sequence number.
    /// The bytes are *viewed*, not copied: the queue and the read-your-writes
    /// run share `data`'s allocation.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty, not sector aligned, or alone larger than
    /// the whole capacity or what the window drains in one region (a
    /// configuration error: the caller must split).
    pub async fn push(&self, sector: u64, data: SectorBuf) -> Result<u64, PushError> {
        assert!(
            !data.is_empty() && data.len().is_multiple_of(SECTOR_SIZE),
            "extent must be a positive multiple of the sector size"
        );
        let len = data.len() as u64;
        assert!(
            len <= self.largest_extent(),
            "single extent of {len} bytes exceeds buffer capacity or the supply's window"
        );
        let end = sector + len / SECTOR_SIZE as u64;
        let mut waited = false;
        loop {
            {
                let mut st = self.st.borrow_mut();
                if self.ledger.frozen.get() {
                    return Err(PushError::Frozen);
                }
                // What the instance would hold: always fits without a supply.
                let bytes = self.ledger.bytes.get() + len;
                let regions = self.ledger.regions.get() + 1 - st.joins(sector, end);
                let rule = self.ledger.rule.as_ref();
                if st.occupancy + len <= st.capacity
                    && rule.is_none_or(|rule| bytes <= drainable(rule, regions))
                {
                    let seq = st.next_seq;
                    st.next_seq += 1;
                    st.occupancy += len;
                    self.ledger.bytes.set(bytes);
                    st.stats.accepted_writes += 1;
                    st.stats.accepted_bytes += len;
                    st.stats.peak_occupancy = st.stats.peak_occupancy.max(st.occupancy);
                    if waited {
                        st.stats.backpressure_events += 1;
                    }
                    // Over the runs it supersedes, dirty or kept: the media
                    // will be stale.
                    let run = Run {
                        end,
                        seq,
                        kept: false,
                        data: Some(data.clone()),
                    };
                    st.carve(sector, end, Some(run));
                    self.ledger.regions.set(regions);
                    st.punch(sector, end);
                    // Kept bytes never cost an admission its room.
                    let idle = st.capacity - st.occupancy;
                    st.evict_to(idle);
                    let admit_ns = st
                        .clock
                        .as_ref()
                        .map(|c| c.now().as_nanos())
                        .unwrap_or_default();
                    st.queue.push_back(Extent {
                        seq,
                        sector,
                        admit_ns,
                        data,
                    });
                    drop(st);
                    self.ledger.avail.notify_one();
                    return Ok(seq);
                }
            }
            waited = true;
            self.ledger.space.notified().await;
        }
    }

    /// Removes and returns the head extents totalling at most `max_bytes`
    /// (always at least one if non-empty). The extents are transferred *by
    /// move* — no clone — while a `(seq, sector, len)` ledger entry per
    /// extent keeps occupancy charged and names the dirty runs, views of
    /// the same bytes, to release: the data stays readable and the
    /// emergency-drain budget stays honest until
    /// [`complete_run`](Self::complete_run).
    pub fn pop_batch(&self, max_bytes: usize) -> Vec<Extent> {
        let mut st = self.st.borrow_mut();
        let mut out = Vec::new();
        let mut total = 0usize;
        while let Some(head) = st.queue.front() {
            if !out.is_empty() && total + head.data.len() > max_bytes {
                break;
            }
            let e = st.queue.pop_front().expect("peeked head vanished");
            total += e.data.len();
            st.inflight.push_back(InflightExtent {
                seq: e.seq,
                sector: e.sector,
                len: e.data.len() as u64,
            });
            out.push(e);
        }
        out
    }

    /// Out-of-order completion: marks every extent with `lo <= seq <= hi`
    /// as committed, regardless of whether older extents are still pending.
    /// Its space and dirty runs are released immediately (the bytes
    /// *are* on media, so they no longer weigh on the residual-energy
    /// budget), while [`wait_completed`](Self::wait_completed) keeps its
    /// strict oldest-pending semantics for degraded-mode acknowledgement.
    pub fn complete_seqs(&self, lo: u64, hi: u64) {
        self.complete_run(&[(lo, hi)]);
    }

    /// Completion of one landed run: `seqs` are the extents the run
    /// carried, as ascending, disjoint, inclusive `(lo, hi)` ranges — a run
    /// gathers one stream's extents out of an interleaved batch, so they
    /// need not be contiguous. Same release and same oldest-pending
    /// semantics as [`complete_seqs`](Self::complete_seqs), which is the
    /// one-range case; this is what lets the drain hand space back a run at
    /// a time. The media now holds exactly the run's bytes.
    pub fn complete_run(&self, seqs: &[(u64, u64)]) {
        self.land(seqs, true);
    }

    /// [`complete_run`](Self::complete_run) of a run the media holds
    /// exactly if `exact`; else the disk may have corrupted a sector of it
    /// (its `corrupt_sectors` count moved meanwhile), and the kept runs
    /// keep the acked bytes.
    pub(crate) fn land(&self, seqs: &[(u64, u64)], exact: bool) {
        let Some(&(_, hi)) = seqs.last() else {
            return;
        };
        // Pending seqs are visited ascending, so one cursor over the
        // ranges is the membership test.
        let mut next = 0;
        let mut hit = |seq: u64| {
            while seqs.get(next).is_some_and(|r| r.1 < seq) {
                next += 1;
            }
            seqs.get(next).is_some_and(|r| r.0 <= seq)
        };
        let became_empty = {
            let mut st = self.st.borrow_mut();
            let landing = st.landings;
            st.landings += 1;
            let mut i = 0;
            while i < st.inflight.len() {
                let seq = st.inflight[i].seq;
                if seq > hi {
                    break; // sorted: nothing further matches
                }
                if hit(seq) {
                    let r = st.inflight.remove(i).expect("indexed entry vanished");
                    st.release(r.seq, r.sector, r.len, landing, exact);
                } else {
                    i += 1;
                }
            }
            let mut i = 0;
            while i < st.queue.len() {
                let seq = st.queue[i].seq;
                if seq > hi {
                    break;
                }
                if hit(seq) {
                    let e = st.queue.remove(i).expect("indexed entry vanished");
                    st.release(e.seq, e.sector, e.data.len() as u64, landing, exact);
                } else {
                    i += 1;
                }
            }
            st.queue.is_empty() && st.inflight.is_empty()
        };
        self.ledger.space.notify_all();
        if became_empty {
            self.empty.notify_all();
        }
    }

    /// Waits until every extent with sequence `<= seq` has been committed
    /// to media (degraded-mode synchronous acknowledgement). Returns false
    /// if the buffer froze with the extent still pending — the drain died
    /// and the commit will never happen on this instance.
    pub async fn wait_completed(&self, seq: u64) -> bool {
        loop {
            {
                let st = self.st.borrow();
                let pending = st.oldest_pending_seq().is_some_and(|h| h <= seq);
                if !pending {
                    return true;
                }
                if self.ledger.frozen.get() {
                    return false;
                }
            }
            // complete_run() and freeze() both notify `space`.
            self.ledger.space.notified().await;
        }
    }

    /// Waits until the buffer is fully drained (nothing queued and nothing
    /// popped-but-uncommitted).
    pub async fn drained(&self) {
        loop {
            {
                let st = self.st.borrow();
                if st.queue.is_empty() && st.inflight.is_empty() {
                    return;
                }
            }
            self.empty.notified().await;
        }
    }

    /// The guest no longer needs `sectors` sectors from `sector` on: until
    /// it rewrites them they read as zeros, without the disk. Advisory and
    /// nothing else — no bytes, no occupancy, nothing for the drain, no
    /// waiter woken. Acked bytes on their way to the media stay readable
    /// until they land and are not kept then; kept ones go now.
    pub fn trim(&self, sector: u64, sectors: u64) {
        if sectors == 0 {
            return;
        }
        let st = &mut *self.st.borrow_mut();
        let end = sector + sectors;
        st.carve(sector, end, None);
        // One range in place of every one this reaches or touches.
        let i = st.trims.partition_point(|r| r.1 < sector);
        let j = st.trims.partition_point(|r| r.0 <= end);
        let merged = st.trims[i..j]
            .iter()
            .fold((sector, end), |m, r| (m.0.min(r.0), m.1.max(r.1)));
        st.trims.splice(i..j, [merged]);
    }

    /// Answers a read of the sectors from `sector` on in `buf`, as far as
    /// the buffer can: the bytes it holds are copied in, trimmed sectors it
    /// does not hold are zeroed, and kept sectors are left as the caller
    /// filled them from the media, which holds what their landing wrote.
    /// Returns the first and last sector it cannot answer for: the span a
    /// read still has to fetch from the disk.
    pub fn read_held(&self, sector: u64, buf: &mut [u8]) -> Option<(u64, u64)> {
        let st = self.st.borrow();
        let from = match st.runs.range(..=sector).next_back() {
            Some((&at, run)) if run.end > sector => at,
            _ => sector,
        };
        let mut runs = st.runs.range(from..).peekable();
        let mut missing = None;
        for (s, out) in (sector..).zip(buf.chunks_exact_mut(SECTOR_SIZE)) {
            while runs.next_if(|(_, run)| run.end <= s).is_some() {}
            match runs.peek() {
                Some((&at, run)) if at <= s => {
                    if let Some(data) = &run.data {
                        let off = (s - at) as usize * SECTOR_SIZE;
                        out.copy_from_slice(&data[off..off + SECTOR_SIZE]);
                    }
                }
                _ if st.trimmed(s) => out.fill(0),
                _ => missing = Some((missing.map_or(s, |(first, _)| first), s)),
            }
        }
        missing
    }

    /// Counts one guest read: bytes served from here and from the disk.
    pub(crate) fn note_read(&self, memory: u64, disk: u64) {
        let stats = &mut self.st.borrow_mut().stats;
        stats.read_memory_bytes += memory;
        stats.read_disk_bytes += disk;
    }

    /// Extents currently accounted for (queued plus in flight with the
    /// drain) — tests/audits.
    pub fn queued(&self) -> usize {
        let st = self.st.borrow();
        st.queue.len() + st.inflight.len()
    }

    /// Dirty runs held — tests/audits. An admission adds one and splits at
    /// most one, so under the drain's overlap order ≤ 2 × [`queued`](Self::queued).
    pub fn dirty_runs(&self) -> usize {
        self.st.borrow().runs.values().filter(|r| !r.kept).count()
    }

    /// The bytes and dirty regions the instance's ledger holds over all
    /// its shards — tests/audits.
    pub fn regions(&self) -> (u64, u64) {
        (self.ledger.bytes.get(), self.ledger.regions.get())
    }

    /// Kept runs, and the entries of the index that evicts them —
    /// tests/audits: one each, or the index leaks.
    pub fn kept_runs(&self) -> (usize, usize) {
        let st = self.st.borrow();
        (st.runs.values().filter(|r| r.kept).count(), st.kept.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapilog_simcore::{Sim, SimDuration};
    use std::cell::Cell as StdCell;

    fn sector_data(tag: u8, sectors: usize) -> SectorBuf {
        SectorBuf::from_vec(vec![tag; sectors * SECTOR_SIZE])
    }

    /// The bytes the buffer holds for `sector`: a view of the extent's
    /// allocation while they are dirty. A kept sector has none, unless its
    /// landing may have been corrupted.
    fn overlay(b: &DependableBuffer, sector: u64) -> Option<SectorBuf> {
        let st = b.st.borrow();
        let (&at, run) = st.runs.range(..=sector).next_back()?;
        let off = (sector - at) as usize * SECTOR_SIZE;
        let data = run.data.as_ref().filter(|_| run.end > sector)?;
        Some(data.slice(off..off + SECTOR_SIZE))
    }

    /// What the media holds under every sector these tests read: a read
    /// fills its buffer with it first, as the device does from the disk,
    /// and a kept sector reads as this.
    const MEDIA: u8 = 0xEE;

    #[test]
    fn a_push_is_one_run_and_a_rewrite_inside_it_leaves_two_views() {
        let mut sim = Sim::new(0);
        let buf = DependableBuffer::new(1 << 20);
        let b2 = buf.clone();
        sim.spawn(async move {
            let runs = |b: &DependableBuffer| -> Vec<(u64, u64, u64)> {
                let st = b.st.borrow();
                st.runs.iter().map(|(&at, r)| (at, r.end, r.seq)).collect()
            };
            let old = sector_data(1, 128);
            b2.push(100, old.clone()).await.unwrap();
            assert_eq!(runs(&b2), [(100, 228, 0)]);
            b2.push(150, sector_data(2, 8)).await.unwrap();
            assert_eq!(runs(&b2), [(100, 150, 0), (150, 158, 1), (158, 228, 0)]);
            // Both remnants are views of the first push's bytes.
            for sector in [149, 158] {
                let view = overlay(&b2, sector).unwrap();
                assert!(view.same_allocation(&old));
                assert_eq!(
                    view.as_ptr(),
                    old[(sector - 100) as usize * SECTOR_SIZE..].as_ptr()
                );
            }
            // Over a run's front and another's back; then over all of them.
            b2.push(140, sector_data(3, 20)).await.unwrap();
            assert_eq!(
                runs(&b2),
                [(100, 140, 0), (140, 160, 2), (160, 228, 0)],
                "the second push has no run left"
            );
            b2.push(90, sector_data(4, 200)).await.unwrap();
            assert_eq!(runs(&b2), [(90, 290, 3)]);
            // From the same first sector: replaced in place, tail kept.
            b2.push(90, sector_data(5, 10)).await.unwrap();
            assert_eq!(runs(&b2), [(90, 100, 4), (100, 290, 3)]);
            // The first extent lands: it owns nothing any more.
            b2.complete_seqs(0, 0);
            assert_eq!((runs(&b2).len(), b2.stats().kept_bytes), (2, 0));
        });
        sim.run();
    }

    #[test]
    fn push_pop_complete_in_order() {
        let mut sim = Sim::new(0);
        let buf = DependableBuffer::new(1 << 20);
        let b2 = buf.clone();
        sim.spawn(async move {
            let s0 = b2.push(0, sector_data(1, 2)).await.unwrap();
            let s1 = b2.push(2, sector_data(2, 1)).await.unwrap();
            assert!(s1 > s0);
            assert_eq!(b2.occupancy(), 3 * SECTOR_SIZE as u64);
            let batch = b2.pop_batch(usize::MAX);
            assert_eq!(batch.len(), 2);
            assert_eq!(batch[0].sector, 0);
            // Popped but uncommitted: still charged and still accounted.
            assert_eq!(b2.occupancy(), 3 * SECTOR_SIZE as u64);
            assert_eq!(b2.queued(), 2);
            b2.complete_seqs(0, s1);
            assert_eq!(b2.occupancy(), 0);
            assert_eq!(b2.queued(), 0);
        });
        sim.run();
        let s = buf.stats();
        assert_eq!(s.accepted_writes, 2);
        assert_eq!(s.drained_bytes, 3 * SECTOR_SIZE as u64);
        assert_eq!(s.peak_occupancy, 3 * SECTOR_SIZE as u64);
    }

    #[test]
    fn pop_batch_respects_limit_but_returns_at_least_one() {
        let mut sim = Sim::new(0);
        let buf = DependableBuffer::new(1 << 20);
        let b2 = buf.clone();
        sim.spawn(async move {
            b2.push(0, sector_data(1, 4)).await.unwrap();
            b2.push(4, sector_data(2, 4)).await.unwrap();
            b2.push(8, sector_data(3, 4)).await.unwrap();
            // Limit below one extent: still returns the head.
            let batch = b2.pop_batch(SECTOR_SIZE);
            assert_eq!(batch.len(), 1);
            // Limit covering one and a half extents: returns one.
            let batch = b2.pop_batch(6 * SECTOR_SIZE);
            assert_eq!(batch.len(), 1);
            let batch = b2.pop_batch(8 * SECTOR_SIZE);
            assert_eq!(batch.len(), 1, "only one extent left");
        });
        sim.run();
    }

    #[test]
    fn pop_batch_transfers_extents_by_move_without_copying() {
        let mut sim = Sim::new(0);
        let buf = DependableBuffer::new(1 << 20);
        let b2 = buf.clone();
        sim.spawn(async move {
            let data = sector_data(7, 2);
            let admitted_ptr = data.as_ptr();
            b2.push(0, data).await.unwrap();
            let batch = b2.pop_batch(usize::MAX);
            assert_eq!(
                batch[0].data.as_ptr(),
                admitted_ptr,
                "drain sees the admitted bytes, not a copy"
            );
            // The overlay view shares the same allocation too.
            let overlay = overlay(&b2, 1).unwrap();
            assert!(overlay.same_allocation(&batch[0].data));
            assert_eq!(overlay.as_ptr(), unsafe { admitted_ptr.add(SECTOR_SIZE) });
        });
        sim.run();
    }

    #[test]
    fn read_held_fills_what_is_buffered_and_names_the_span_that_is_not() {
        let mut sim = Sim::new(0);
        let buf = DependableBuffer::new(1 << 20);
        let b2 = buf.clone();
        sim.spawn(async move {
            let s0 = b2.push(10, sector_data(1, 2)).await.unwrap();
            b2.push(13, sector_data(2, 1)).await.unwrap();
            let mut out = vec![MEDIA; 6 * SECTOR_SIZE];
            // Sectors 9..15: 10, 11 and 13 are held; 9 and 14 bound the rest.
            assert_eq!(b2.read_held(9, &mut out), Some((9, 14)));
            assert_eq!(out[SECTOR_SIZE..3 * SECTOR_SIZE], *sector_data(1, 2));
            assert_eq!(out[3 * SECTOR_SIZE..4 * SECTOR_SIZE], [MEDIA; SECTOR_SIZE]);
            assert_eq!(out[4 * SECTOR_SIZE..5 * SECTOR_SIZE], *sector_data(2, 1));
            assert_eq!(b2.read_held(10, &mut out[..2 * SECTOR_SIZE]), None);
            assert_eq!(
                b2.read_held(10, &mut out[..4 * SECTOR_SIZE]),
                Some((12, 12)),
                "sector 12 was never written"
            );
            // Landed sectors are answered all the same, as the media has
            // them: the buffer kept their range, not their bytes.
            b2.pop_batch(usize::MAX);
            b2.complete_seqs(0, s0);
            out.fill(MEDIA);
            assert_eq!(b2.read_held(10, &mut out[..2 * SECTOR_SIZE]), None);
            assert_eq!(out[..2 * SECTOR_SIZE], [MEDIA; 2 * SECTOR_SIZE]);
            assert_eq!(b2.stats().kept_bytes, 2 * SECTOR_SIZE as u64);
            assert_eq!(b2.kept_runs(), (1, 1));
        });
        sim.run();
    }

    #[test]
    fn kept_sectors_give_way_to_admissions_oldest_landing_first() {
        let mut sim = Sim::new(0);
        let buf = DependableBuffer::new(4 * SECTOR_SIZE as u64);
        let b2 = buf.clone();
        sim.spawn(async move {
            let kept = |b: &DependableBuffer| -> Vec<u64> {
                let answered = answers(b, 0..8);
                (0..8).filter(|&s| answered[s as usize].is_some()).collect()
            };
            // Three sectors land one by one, sector 2 first.
            for sector in [2, 0, 1] {
                let seq = b2.push(sector, sector_data(sector as u8, 1)).await.unwrap();
                b2.complete_seqs(seq, seq);
            }
            assert_eq!((b2.occupancy(), kept(&b2)), (0, vec![0, 1, 2]));
            // Two sectors of acked bytes need room 3 kept + 2 do not have:
            // the oldest landing goes, and the push did not wait for it.
            let s3 = b2.push(4, sector_data(4, 2)).await.unwrap();
            assert_eq!(kept(&b2), vec![0, 1, 4, 5]);
            assert_eq!(b2.stats().kept_bytes, 2 * SECTOR_SIZE as u64);
            assert_eq!(b2.stats().backpressure_events, 0);
            // A rewrite replaces the kept range in the same step, and its
            // entry leaves the eviction index with it.
            let s4 = b2.push(0, sector_data(9, 1)).await.unwrap();
            assert_eq!(overlay(&b2, 0), Some(sector_data(9, 1)));
            assert_eq!(b2.stats().kept_bytes, SECTOR_SIZE as u64, "sector 1");
            assert_eq!(b2.kept_runs(), (1, 1));
            // Each landing is kept as far as the room it leaves idle goes:
            // s3's two sectors beside sector 1 and s4's dirty one, then,
            // the buffer empty, all four, read as the media has them.
            b2.complete_seqs(s3, s3);
            assert_eq!(
                (b2.stats().kept_bytes, kept(&b2)),
                (3 * 512, vec![0, 1, 4, 5])
            );
            b2.complete_seqs(s4, s4);
            assert_eq!(b2.stats().kept_bytes, 4 * SECTOR_SIZE as u64);
            assert_eq!(answers(&b2, 0..2), [Some(MEDIA); 2]);
            assert_eq!(b2.kept_runs(), (3, 3), "three landings");
            let st = b2.st.borrow();
            assert!(st.occupancy + st.kept_bytes <= st.capacity);
        });
        sim.run();
    }

    /// What `read_held` answers for each of `sectors` over [`MEDIA`]:
    /// `Some(first byte)` from the buffer (0 for a trimmed sector, `MEDIA`
    /// for a kept one), `None` for the disk's.
    fn answers(b: &DependableBuffer, sectors: std::ops::Range<u64>) -> Vec<Option<u8>> {
        sectors
            .map(|s| {
                let mut out = [MEDIA; SECTOR_SIZE];
                b.read_held(s, &mut out).is_none().then_some(out[0])
            })
            .collect()
    }

    #[test]
    fn a_trim_is_advice_and_moves_nothing_else() {
        let mut sim = Sim::new(0);
        let buf = DependableBuffer::new(2 * SECTOR_SIZE as u64);
        let b2 = buf.clone();
        let blocked = sim.spawn(async move {
            b2.push(0, sector_data(1, 2)).await.unwrap();
            b2.push(2, sector_data(2, 1)).await.unwrap();
        });
        sim.run();
        assert!(!blocked.is_finished(), "the second push waits for space");
        let before = buf.stats();
        buf.trim(0, 100);
        sim.run();
        assert!(!blocked.is_finished(), "a trim releases no space");
        let after = buf.stats();
        assert_eq!(buf.occupancy(), 2 * SECTOR_SIZE as u64);
        assert_eq!(after.peak_occupancy, before.peak_occupancy);
        assert_eq!(after.backpressure_events, before.backpressure_events);
        assert_eq!(
            (after.accepted_bytes, after.drained_bytes, after.kept_bytes),
            (1024, 0, 0)
        );
        // Trimmed reads as zeros, except what is acked and on its way.
        assert_eq!(answers(&buf, 0..4), [Some(1), Some(1), Some(0), Some(0)]);
        assert_eq!(answers(&buf, 99..101), [Some(0), None]);
    }

    #[test]
    fn a_push_punches_its_sectors_out_of_the_trimmed_ranges_in_place() {
        let mut sim = Sim::new(0);
        let buf = DependableBuffer::new(1 << 20);
        let b2 = buf.clone();
        sim.spawn(async move {
            let trims = |b: &DependableBuffer| b.st.borrow().trims.clone();
            b2.trim(10, 20);
            b2.trim(40, 10);
            assert_eq!(trims(&b2), [(10, 30), (40, 50)]);
            // Touching or overlapping ranges become one.
            b2.trim(30, 5);
            b2.trim(33, 7);
            assert_eq!(trims(&b2), [(10, 50)]);
            let room = b2.st.borrow().trims.capacity();
            // At a range's front, the way a log grows into free space: the
            // front moves.
            b2.push(10, sector_data(1, 2)).await.unwrap();
            assert_eq!(trims(&b2), [(12, 50)]);
            // Across the front and across the back.
            b2.push(11, sector_data(2, 3)).await.unwrap();
            b2.push(48, sector_data(3, 4)).await.unwrap();
            assert_eq!(trims(&b2), [(14, 48)]);
            assert_eq!(b2.st.borrow().trims.capacity(), room, "in place");
            // In the middle: two ranges.
            b2.push(20, sector_data(4, 1)).await.unwrap();
            assert_eq!(trims(&b2), [(14, 20), (21, 48)]);
            // Over whole ranges: gone, with the part of a neighbour it took.
            b2.trim(60, 2);
            b2.push(19, sector_data(5, 43)).await.unwrap();
            assert_eq!(trims(&b2), [(14, 19)]);
            b2.push(14, sector_data(6, 5)).await.unwrap();
            assert_eq!(trims(&b2), []);
            assert_eq!(answers(&b2, 8..10), [None, None]);
        });
        sim.run();
    }

    #[test]
    fn a_trim_forgets_kept_sectors_and_lets_dirty_ones_land_unkept() {
        let mut sim = Sim::new(0);
        let buf = DependableBuffer::new(1 << 20);
        let b2 = buf.clone();
        sim.spawn(async move {
            let landed = b2.push(0, sector_data(1, 2)).await.unwrap();
            b2.complete_seqs(0, landed);
            let dirty = b2.push(2, sector_data(2, 2)).await.unwrap();
            assert_eq!(b2.stats().kept_bytes, 2 * SECTOR_SIZE as u64);
            b2.trim(1, 2);
            // The kept sector goes at once; the acked one stays readable
            // while it is on its way, and holds its place in the occupancy.
            const M: Option<u8> = Some(MEDIA);
            assert_eq!(b2.stats().kept_bytes, SECTOR_SIZE as u64);
            assert_eq!(b2.occupancy(), 2 * SECTOR_SIZE as u64);
            assert_eq!(answers(&b2, 0..4), [M, Some(0), Some(2), Some(2)]);
            b2.pop_batch(usize::MAX);
            b2.complete_seqs(0, dirty);
            // Landed: the trimmed sector is not kept, its neighbour is.
            assert_eq!(b2.stats().kept_bytes, 2 * SECTOR_SIZE as u64);
            assert_eq!(answers(&b2, 0..4), [M, Some(0), Some(0), M]);
            assert_eq!(overlay(&b2, 2), None);
            assert_eq!(b2.kept_runs(), (2, 2));
            // A rewrite ends the trim for its sectors only.
            b2.push(1, sector_data(3, 1)).await.unwrap();
            assert_eq!(answers(&b2, 0..4), [M, Some(3), Some(0), M]);
        });
        sim.run();
    }

    #[test]
    fn backpressure_blocks_until_space() {
        let mut sim = Sim::new(0);
        let ctx = sim.ctx();
        let buf = DependableBuffer::new(2 * SECTOR_SIZE as u64);
        let pushed_at = Rc::new(StdCell::new(0u64));
        let b2 = buf.clone();
        let p2 = Rc::clone(&pushed_at);
        sim.spawn({
            let ctx = ctx.clone();
            async move {
                b2.push(0, sector_data(1, 2)).await.unwrap();
                // Full: this waits until the drain completes something.
                b2.push(2, sector_data(2, 1)).await.unwrap();
                p2.set(ctx.now().as_millis());
            }
        });
        let b3 = buf.clone();
        sim.spawn({
            let ctx = ctx.clone();
            async move {
                ctx.sleep(SimDuration::from_millis(7)).await;
                b3.pop_batch(usize::MAX);
                b3.complete_seqs(0, 0);
            }
        });
        sim.run();
        assert_eq!(pushed_at.get(), 7, "writer waited for the drain");
        assert_eq!(buf.stats().backpressure_events, 1);
    }

    #[test]
    fn occupancy_held_until_complete_not_pop() {
        let mut sim = Sim::new(0);
        let ctx = sim.ctx();
        let buf = DependableBuffer::new(2 * SECTOR_SIZE as u64);
        let pushed_at = Rc::new(StdCell::new(0u64));
        let b2 = buf.clone();
        let p2 = Rc::clone(&pushed_at);
        sim.spawn({
            let ctx = ctx.clone();
            async move {
                b2.push(0, sector_data(1, 2)).await.unwrap();
                b2.push(2, sector_data(2, 1)).await.unwrap();
                p2.set(ctx.now().as_millis());
            }
        });
        let b3 = buf.clone();
        sim.spawn({
            let ctx = ctx.clone();
            async move {
                // Popping alone must NOT release space: the bytes are still
                // in flight and still budgeted against residual energy.
                ctx.sleep(SimDuration::from_millis(3)).await;
                b3.pop_batch(usize::MAX);
                ctx.sleep(SimDuration::from_millis(4)).await;
                b3.complete_seqs(0, 0);
            }
        });
        sim.run();
        assert_eq!(pushed_at.get(), 7, "space appeared only at complete()");
    }

    #[test]
    fn out_of_order_completion_releases_space_but_not_the_prefix_wait() {
        let mut sim = Sim::new(0);
        let buf = DependableBuffer::new(1 << 20);
        let b2 = buf.clone();
        sim.spawn(async move {
            let s0 = b2.push(0, sector_data(1, 1)).await.unwrap();
            let s1 = b2.push(1, sector_data(2, 1)).await.unwrap();
            let s2 = b2.push(2, sector_data(3, 1)).await.unwrap();
            b2.pop_batch(usize::MAX);
            // The later batch retires first.
            b2.complete_seqs(s1, s2);
            assert_eq!(b2.occupancy(), SECTOR_SIZE as u64, "s1/s2 released");
            assert_eq!(b2.queued(), 1);
            assert_eq!(b2.stats().kept_bytes, 2 * SECTOR_SIZE as u64);
            assert_eq!(
                overlay(&b2, 0),
                Some(sector_data(1, 1)),
                "pending extent still readable"
            );
            // Now the straggler retires; everything drains.
            b2.complete_seqs(s0, s0);
            assert_eq!(b2.occupancy(), 0);
            assert_eq!(b2.queued(), 0);
            b2.drained().await;
        });
        sim.run();
    }

    #[test]
    fn wait_completed_keeps_oldest_pending_semantics_under_ooo() {
        let mut sim = Sim::new(0);
        let ctx = sim.ctx();
        let buf = DependableBuffer::new(1 << 20);
        let b2 = buf.clone();
        let done_at = Rc::new(StdCell::new(0u64));
        let d2 = Rc::clone(&done_at);
        sim.spawn({
            let ctx = ctx.clone();
            async move {
                b2.push(0, sector_data(1, 1)).await.unwrap();
                let s1 = b2.push(1, sector_data(2, 1)).await.unwrap();
                b2.pop_batch(usize::MAX);
                let b3 = b2.clone();
                let ctx2 = ctx.clone();
                ctx.spawn(async move {
                    // s1 retires out of order immediately; s0 only later.
                    b3.complete_seqs(1, 1);
                    ctx2.sleep(SimDuration::from_millis(5)).await;
                    b3.complete_seqs(0, 0);
                });
                // Waiting on s1 must wait for the full prefix (s0 too).
                assert!(b2.wait_completed(s1).await);
                d2.set(ctx.now().as_millis());
            }
        });
        sim.run();
        assert_eq!(done_at.get(), 5, "prefix wait held until s0 retired");
    }

    #[test]
    fn a_landed_run_releases_its_own_non_contiguous_extents() {
        // Two interleaved streams popped as one batch: the run carrying
        // seqs {0, 2, 4} lands first. Exactly those are released; the other
        // stream's extents stay charged and readable, and the prefix wait
        // on seq 2 still waits for seq 1.
        let mut sim = Sim::new(0);
        let buf = DependableBuffer::new(1 << 20);
        let b2 = buf.clone();
        sim.spawn(async move {
            for i in 0..5u64 {
                let sector = (i % 2) * 100 + i / 2;
                assert_eq!(b2.push(sector, sector_data(i as u8, 1)).await, Ok(i));
            }
            b2.pop_batch(usize::MAX);
            b2.complete_run(&[(0, 0), (2, 2), (4, 4)]);
            assert_eq!(b2.occupancy(), 2 * SECTOR_SIZE as u64);
            assert_eq!(b2.queued(), 2);
            assert_eq!(b2.stats().kept_bytes, 3 * SECTOR_SIZE as u64);
            assert_eq!(answers(&b2, 1..2), [Some(MEDIA)], "kept");
            assert_eq!(overlay(&b2, 100), Some(sector_data(1, 1)));
            assert_eq!(b2.st.borrow().oldest_pending_seq(), Some(1));
            // Landing it again releases nothing twice; an empty run nothing.
            b2.complete_run(&[(0, 0), (2, 2), (4, 4)]);
            b2.complete_run(&[]);
            assert_eq!(b2.stats().drained_bytes, 3 * SECTOR_SIZE as u64);
            b2.complete_run(&[(1, 1), (3, 3)]);
            assert_eq!(b2.occupancy(), 0);
            b2.drained().await;
        });
        sim.run();
    }

    #[test]
    fn a_newer_extent_lands_before_the_older_one_it_split() {
        // Out of the drain's overlap order: `b` inside `a` lands first. The
        // reads stay right throughout, but `a`'s remnants can then be split
        // again by a newer push that lands too, leaving more runs than twice
        // the extents accounted for: that bound needs the overlap order.
        let mut sim = Sim::new(0);
        let buf = DependableBuffer::new(1 << 20);
        let b2 = buf.clone();
        sim.spawn(async move {
            let a = b2.push(0, sector_data(1, 8)).await.unwrap();
            let b = b2.push(2, sector_data(2, 2)).await.unwrap();
            b2.pop_batch(usize::MAX);
            assert_eq!(b2.dirty_runs(), 3);
            b2.complete_seqs(b, b);
            assert_eq!((b2.dirty_runs(), b2.queued()), (2, 1), "a's remnants");
            assert_eq!(b2.stats().kept_bytes, 2 * SECTOR_SIZE as u64);
            const M: u8 = MEDIA;
            let reads = [1, 1, M, M, 1, 1, 1, 1].map(Some);
            assert_eq!(answers(&b2, 0..8), reads);
            let c = b2.push(5, sector_data(3, 1)).await.unwrap();
            assert_eq!(b2.dirty_runs(), 4);
            b2.complete_seqs(c, c);
            assert_eq!((b2.dirty_runs(), b2.queued()), (3, 1));
            let reads = [1, 1, M, M, 1, M, 1, 1].map(Some);
            assert_eq!(answers(&b2, 0..8), reads);
            // The oldest lands last, around what newer writes put there.
            b2.complete_seqs(a, a);
            assert_eq!((b2.dirty_runs(), b2.occupancy()), (0, 0));
            assert_eq!(b2.stats().kept_bytes, 8 * SECTOR_SIZE as u64);
            assert_eq!(answers(&b2, 0..8), [Some(M); 8]);
            assert_eq!(b2.kept_runs(), (3, 3), "a's runs grew b's and c's");
        });
        sim.run();
    }

    #[test]
    fn a_landed_stretch_of_log_is_one_kept_run_and_the_index_follows_every_cut() {
        let mut sim = Sim::new(0);
        let buf = DependableBuffer::new(1 << 20);
        let b2 = buf.clone();
        sim.spawn(async move {
            // A log's appends, each rewriting the sector the last one ended
            // in, landed in two runs.
            for i in 0..4u64 {
                b2.push(i * 3, sector_data(i as u8 + 1, 4)).await.unwrap();
            }
            b2.pop_batch(usize::MAX);
            b2.complete_seqs(0, 1);
            b2.complete_seqs(2, 3);
            assert_eq!(b2.kept_runs(), (1, 1), "sectors 0..13, one run");
            assert_eq!(b2.stats().kept_bytes, 13 * SECTOR_SIZE as u64);
            // A rewrite inside it leaves two; trims take a front, then a
            // whole run; the room evicts the oldest landing's front.
            b2.push(5, sector_data(9, 1)).await.unwrap();
            assert_eq!((b2.kept_runs(), b2.dirty_runs()), ((2, 2), 1));
            b2.trim(0, 2);
            assert_eq!(b2.kept_runs(), (2, 2), "2..5 and 6..13");
            b2.trim(2, 3);
            assert_eq!(b2.kept_runs(), (1, 1));
            let st = &mut *b2.st.borrow_mut();
            st.evict_to(3 * SECTOR_SIZE as u64);
            let kept: Vec<(u64, u64)> = st.runs.iter().map(|(&at, r)| (at, r.end)).collect();
            assert_eq!(kept, [(5, 6), (10, 13)], "the dirty sector and the back");
            assert_eq!(st.kept.iter().collect::<Vec<_>>(), [&(0, 10)]);
        });
        sim.run();
    }

    #[test]
    fn a_landing_the_disk_may_have_corrupted_keeps_its_acked_bytes() {
        let mut sim = Sim::new(0);
        let buf = DependableBuffer::new(1 << 20);
        let b2 = buf.clone();
        sim.spawn(async move {
            let s0 = b2.push(0, sector_data(1, 2)).await.unwrap();
            let s1 = b2.push(2, sector_data(2, 1)).await.unwrap();
            b2.pop_batch(usize::MAX);
            b2.land(&[(s0, s0)], false);
            b2.complete_seqs(s1, s1);
            // What was acked, whatever the media says; the exact landing
            // reads as the media.
            assert_eq!(answers(&b2, 0..3), [Some(1), Some(1), Some(MEDIA)]);
            assert_eq!(b2.kept_runs(), (2, 2));
            assert_eq!(b2.stats().kept_bytes, 3 * SECTOR_SIZE as u64);
            // Carved like any kept run.
            b2.trim(1, 1);
            assert_eq!(answers(&b2, 0..2), [Some(1), Some(0)]);
            assert_eq!(b2.stats().kept_bytes, 2 * SECTOR_SIZE as u64);
        });
        sim.run();
    }

    #[test]
    fn overlay_read_your_writes_and_supersede() {
        let mut sim = Sim::new(0);
        let buf = DependableBuffer::new(1 << 20);
        let b2 = buf.clone();
        sim.spawn(async move {
            let s0 = b2.push(5, sector_data(0xAA, 1)).await.unwrap();
            assert_eq!(overlay(&b2, 5), Some(sector_data(0xAA, 1)));
            // Newer write to the same sector supersedes.
            let _s1 = b2.push(5, sector_data(0xBB, 1)).await.unwrap();
            assert_eq!(overlay(&b2, 5), Some(sector_data(0xBB, 1)));
            // Completing the OLD extent must not evict the newer overlay.
            b2.pop_batch(SECTOR_SIZE);
            b2.complete_seqs(0, s0);
            assert_eq!(overlay(&b2, 5), Some(sector_data(0xBB, 1)));
        });
        sim.run();
    }

    #[test]
    fn overlay_survives_pop_and_stays_readable_once_landed() {
        let mut sim = Sim::new(0);
        let buf = DependableBuffer::new(1 << 20);
        let b2 = buf.clone();
        sim.spawn(async move {
            let s0 = b2.push(9, sector_data(0xCC, 1)).await.unwrap();
            let batch = b2.pop_batch(usize::MAX);
            // Between pop and complete the guest can still read its tail.
            assert_eq!(overlay(&b2, 9), Some(sector_data(0xCC, 1)));
            assert!(overlay(&b2, 9).unwrap().same_allocation(&batch[0].data));
            b2.complete_seqs(0, s0);
            // Landed: no longer occupancy, still answered — as the media
            // has it — and the buffer holds none of its bytes: the extent's
            // allocation is free to go.
            assert_eq!((b2.occupancy(), b2.queued()), (0, 0));
            assert_eq!(answers(&b2, 9..10), [Some(MEDIA)]);
            assert_eq!(overlay(&b2, 9), None);
            assert_eq!(b2.stats().kept_bytes, SECTOR_SIZE as u64);
            let landed = batch.into_iter().next().unwrap().data;
            let pool = rapilog_simcore::SectorPool::new();
            pool.recycle(landed);
            assert_eq!(pool.idle(), 1, "nobody else holds it");
            // Not so the buffer of an instance whose disk does not rotate.
            b2.keep_nothing();
            let s1 = b2.push(9, sector_data(0xDD, 1)).await.unwrap();
            assert_eq!(overlay(&b2, 9), Some(sector_data(0xDD, 1)));
            b2.complete_seqs(0, s1);
            assert_eq!(
                (answers(&b2, 9..10), b2.stats().kept_bytes),
                (vec![None], 0)
            );
            assert_eq!(b2.kept_runs(), (0, 0));
        });
        sim.run();
    }

    #[test]
    fn freeze_rejects_new_pushes_and_unblocks_waiters() {
        let mut sim = Sim::new(0);
        let ctx = sim.ctx();
        let buf = DependableBuffer::new(SECTOR_SIZE as u64);
        let outcome = Rc::new(StdCell::new(None));
        let b2 = buf.clone();
        let o2 = Rc::clone(&outcome);
        sim.spawn(async move {
            b2.push(0, sector_data(1, 1)).await.unwrap();
            // Blocks on space; the freeze must wake it with an error.
            o2.set(Some(b2.push(1, sector_data(2, 1)).await));
        });
        let b3 = buf.clone();
        sim.spawn({
            let ctx = ctx.clone();
            async move {
                ctx.sleep(SimDuration::from_millis(1)).await;
                b3.freeze();
            }
        });
        sim.run();
        assert_eq!(outcome.get(), Some(Err(PushError::Frozen)));
        assert!(buf.is_frozen());
    }

    #[test]
    fn drained_wakes_when_empty() {
        let mut sim = Sim::new(0);
        let ctx = sim.ctx();
        let buf = DependableBuffer::new(1 << 20);
        let drained_at = Rc::new(StdCell::new(0u64));
        let b2 = buf.clone();
        let d2 = Rc::clone(&drained_at);
        sim.spawn({
            let ctx = ctx.clone();
            async move {
                b2.push(0, sector_data(1, 1)).await.unwrap();
                let b3 = b2.clone();
                let ctx2 = ctx.clone();
                ctx.spawn(async move {
                    ctx2.sleep(SimDuration::from_millis(4)).await;
                    b3.pop_batch(usize::MAX);
                    b3.complete_seqs(0, 0);
                });
                b2.drained().await;
                d2.set(ctx.now().as_millis());
            }
        });
        sim.run();
        assert_eq!(drained_at.get(), 4);
    }

    #[test]
    #[should_panic(expected = "exceeds buffer capacity")]
    fn oversized_extent_panics() {
        let mut sim = Sim::new(0);
        let buf = DependableBuffer::new(SECTOR_SIZE as u64);
        sim.spawn(async move {
            let _ = buf.push(0, sector_data(1, 2)).await;
        });
        sim.run();
    }

    #[test]
    fn duplicate_completion_is_idempotent() {
        let mut sim = Sim::new(0);
        let buf = DependableBuffer::new(1 << 20);
        let b2 = buf.clone();
        sim.spawn(async move {
            let s0 = b2.push(0, sector_data(1, 2)).await.unwrap();
            let s1 = b2.push(2, sector_data(2, 1)).await.unwrap();
            b2.pop_batch(usize::MAX);
            b2.complete_seqs(s0, s0);
            assert_eq!(b2.occupancy(), SECTOR_SIZE as u64);
            // Completing the same range again must not double-release space
            // or double-count drained bytes.
            b2.complete_seqs(s0, s0);
            assert_eq!(b2.occupancy(), SECTOR_SIZE as u64);
            assert_eq!(b2.stats().drained_bytes, 2 * SECTOR_SIZE as u64);
            b2.complete_seqs(s1, s1);
            b2.complete_seqs(s1, s1);
            assert_eq!(b2.occupancy(), 0);
            assert_eq!(b2.stats().drained_bytes, 3 * SECTOR_SIZE as u64);
            b2.drained().await;
        });
        sim.run();
    }

    #[test]
    fn completion_past_high_water_seq_is_a_bounded_no_op() {
        let mut sim = Sim::new(0);
        let buf = DependableBuffer::new(1 << 20);
        let b2 = buf.clone();
        sim.spawn(async move {
            let s0 = b2.push(0, sector_data(1, 1)).await.unwrap();
            b2.pop_batch(usize::MAX);
            // A range entirely above the high-water seq touches nothing.
            b2.complete_seqs(s0 + 10, s0 + 20);
            assert_eq!(b2.occupancy(), SECTOR_SIZE as u64);
            assert_eq!(b2.queued(), 1);
            // A range reaching past the high-water seq releases only what
            // exists — u64::MAX as `hi` must not overflow or over-release.
            b2.complete_seqs(0, u64::MAX);
            assert_eq!(b2.occupancy(), 0);
            assert_eq!(b2.queued(), 0);
            assert_eq!(b2.stats().drained_bytes, SECTOR_SIZE as u64);
            b2.drained().await;
        });
        sim.run();
    }

    #[test]
    fn interleaved_release_under_partially_constrained_ordering() {
        // The windowed drain's pattern: two batches in flight, the later one
        // retires first (releasing space to a blocked writer), then the
        // earlier one; meanwhile new pushes interleave with the releases.
        let mut sim = Sim::new(0);
        let buf = DependableBuffer::new(4 * SECTOR_SIZE as u64);
        let b2 = buf.clone();
        sim.spawn(async move {
            let s0 = b2.push(0, sector_data(1, 2)).await.unwrap();
            let s1 = b2.push(2, sector_data(2, 2)).await.unwrap();
            let batch_a = b2.pop_batch(2 * SECTOR_SIZE);
            let batch_b = b2.pop_batch(2 * SECTOR_SIZE);
            assert_eq!((batch_a.len(), batch_b.len()), (1, 1));
            // Later batch retires first: space frees out of order.
            b2.complete_seqs(s1, s1);
            assert_eq!(b2.occupancy(), 2 * SECTOR_SIZE as u64);
            // A new push lands in the freed space while s0 is in flight.
            let s2 = b2.push(4, sector_data(3, 2)).await.unwrap();
            assert!(s2 > s1);
            assert_eq!(b2.occupancy(), 4 * SECTOR_SIZE as u64);
            // Straggler retires; only the newest extent remains charged.
            b2.complete_seqs(s0, s0);
            assert_eq!(b2.occupancy(), 2 * SECTOR_SIZE as u64);
            assert_eq!(answers(&b2, 0..1), [Some(MEDIA)], "s0 kept");
            assert_eq!(answers(&b2, 2..3), [None], "s1 gave its room to s2");
            assert_eq!(
                overlay(&b2, 4),
                Some(sector_data(3, 1)),
                "interleaved push still readable"
            );
            b2.pop_batch(usize::MAX);
            b2.complete_seqs(s2, s2);
            b2.drained().await;
        });
        sim.run();
    }
}
