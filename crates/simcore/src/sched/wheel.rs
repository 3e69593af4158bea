//! The production scheduling core: slab task arena, single-threaded ready
//! ring and a binary-heap timer queue. It keeps the name of the timer wheel
//! it replaced, as [`SchedulerKind::TimerWheel`](super::SchedulerKind) does.
//!
//! # Task arena
//!
//! Tasks live in a `Vec` of slots addressed by `(index, generation)` keys
//! packed into a `u64`. Spawn pops the free list (or grows the vector),
//! poll indexes directly, despawn bumps the generation and pushes the index
//! back — all O(1) with no hashing. A stale wake (the task completed and
//! the slot was reused) fails the generation check and is skipped, exactly
//! as the reference core skips wakes for task ids no longer in its map.
//!
//! # Ready ring
//!
//! A simulation runs on the one thread that created it (`Sim` is neither
//! `Send` nor `Sync`), so the ring is a plain `RefCell<Vec<u64>>` and each
//! task's wake cell an `Rc` holding its packed key and a `Cell<bool>`
//! enqueued flag: no `Arc`, lock or atomic on a wake. `wake()` sets the
//! flag and, on the false→true edge, pushes the key; duplicate wakes are
//! free. A `Waker` must be `Send`, so a clone of one can reach another
//! thread; the waker is therefore built by hand on a `RawWakerVTable` whose
//! every entry point first checks that it runs on the cell's creating
//! thread and panics if not, before it touches the reference count or the
//! flag. Every non-atomic update thus happens on one thread, which is what
//! makes the non-atomic count sound; this module holds the crate's only
//! non-test `unsafe`.
//!
//! The executor drains by *swapping* the ring with an empty scratch batch
//! and clears each task's flag immediately before returning it, which is
//! exactly the reference core's clear-on-pop, so a task that wakes itself
//! mid-poll re-enqueues just as it would there. Wakes that arrive while a
//! batch drains land in the ring and are observed after the current batch
//! — the order a one-at-a-time pop would produce, since the drained batch
//! was enqueued strictly earlier.
//!
//! # Timers
//!
//! One `BinaryHeap` of `(deadline, registration seq, cell)`, which pops in
//! `(deadline, seq)` order: the reference core's order. A cell holds the
//! waker and a generation, so a re-polled `Sleep` refreshes its waker in
//! place and a key that outlived its firing is ignored. Cells and the heap
//! reuse their capacity, so steady-state timer traffic does not allocate.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::task::{RawWaker, RawWakerVTable, Waker};

use super::{LocalFuture, TaskBody, TaskKey, TimerKey};
use crate::cancel::DomainId;

#[inline]
fn pack(idx: u32, gen: u32) -> u64 {
    ((gen as u64) << 32) | idx as u64
}

#[inline]
fn unpack(key: u64) -> (u32, u32) {
    (key as u32, (key >> 32) as u32)
}

/// A number that names the calling thread for the life of the process:
/// drawn once per thread, never reused.
fn thread_token() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local!(static TOKEN: u64 = NEXT.fetch_add(1, Ordering::Relaxed));
    TOKEN.with(|t| *t)
}

/// One task's wake state, shared by every clone of its waker.
struct WakeCell {
    key: u64,
    enqueued: Cell<bool>,
    ring: Rc<RefCell<Vec<u64>>>,
    /// [`thread_token`] of the creating thread, the only one whose wakers
    /// may touch this cell. Written once, before any waker exists.
    thread: u64,
}

impl WakeCell {
    #[inline]
    fn enqueue(&self) {
        if !self.enqueued.replace(true) {
            self.ring.borrow_mut().push(self.key);
        }
    }
}

static VTABLE: RawWakerVTable =
    RawWakerVTable::new(clone_waker, wake_waker, wake_by_ref_waker, drop_waker);

/// A waker that owns one strong count of `cell`.
fn waker_for(cell: &Rc<WakeCell>) -> Waker {
    let ptr = Rc::into_raw(Rc::clone(cell)).cast::<()>();
    // SAFETY: `ptr` comes from `Rc::into_raw` and carries the count just
    // taken, which the waker releases in `wake_waker` or `drop_waker`; each
    // VTABLE entry runs only on the cell's thread (`own_cell`), so the
    // `Rc`'s non-atomic count and the cell's `Cell`s are never shared
    // across threads.
    unsafe { Waker::from_raw(RawWaker::new(ptr, &VTABLE)) }
}

/// Returns the cell behind a waker's data pointer, panicking if the
/// calling thread did not create it.
///
/// # Safety
///
/// `ptr` must be the data pointer of a live waker built by [`waker_for`].
#[inline]
unsafe fn own_cell(ptr: *const ()) -> *const WakeCell {
    let cell = ptr.cast::<WakeCell>();
    // SAFETY: the caller's waker owns a strong count, so the cell is alive
    // whatever its own thread does with the other counts. This reads the
    // `thread` field alone, which is never written after the cell was
    // shared, so the read races with nothing.
    let owner = unsafe { (*cell).thread };
    assert!(
        owner == thread_token(),
        "a simulation's waker was used on a thread other than the simulation's"
    );
    cell
}

unsafe fn clone_waker(ptr: *const ()) -> RawWaker {
    // SAFETY: VTABLE entries receive the data pointer of a live waker.
    let cell = unsafe { own_cell(ptr) };
    // SAFETY: `cell` came from `Rc::into_raw` and is alive (`own_cell`),
    // and this is the only thread that touches its count. The new count is
    // owned by the returned waker.
    unsafe { Rc::increment_strong_count(cell) };
    RawWaker::new(ptr, &VTABLE)
}

unsafe fn wake_waker(ptr: *const ()) {
    // SAFETY: VTABLE entries receive the data pointer of a live waker.
    let cell = unsafe { own_cell(ptr) };
    // SAFETY: a consuming wake releases the count this waker owns, on the
    // cell's own thread.
    let cell = unsafe { Rc::from_raw(cell) };
    cell.enqueue();
}

unsafe fn wake_by_ref_waker(ptr: *const ()) {
    // SAFETY: VTABLE entries receive the data pointer of a live waker.
    let cell = unsafe { own_cell(ptr) };
    // SAFETY: the cell is alive and this is its own thread, the only one
    // that touches its `Cell`s and the ring.
    unsafe { (*cell).enqueue() };
}

unsafe fn drop_waker(ptr: *const ()) {
    // SAFETY: VTABLE entries receive the data pointer of a live waker.
    let cell = unsafe { own_cell(ptr) };
    // SAFETY: dropping the waker releases the count it owns, on the cell's
    // own thread.
    drop(unsafe { Rc::from_raw(cell) });
}

struct TaskSlot {
    gen: u32,
    /// Monotonic spawn order, used to drop a killed domain's tasks
    /// deterministically.
    spawn_seq: u64,
    cell: Option<Rc<WakeCell>>,
    body: Option<TaskBody>,
}

struct TimerCell {
    gen: u32,
    waker: Option<Waker>,
}

/// See the module docs for the design.
pub(crate) struct WheelSched {
    // Task arena.
    slots: Vec<TaskSlot>,
    free: Vec<u32>,
    live: usize,
    spawn_seq: u64,
    // Ready ring.
    ring: Rc<RefCell<Vec<u64>>>,
    batch: Vec<u64>,
    batch_pos: usize,
    // Timers: a min-heap of `(deadline, registration seq, cell index)`.
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
    cells: Vec<TimerCell>,
    cell_free: Vec<u32>,
    timer_seq: u64,
}

impl WheelSched {
    pub(crate) fn new() -> WheelSched {
        WheelSched {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            spawn_seq: 0,
            ring: Rc::new(RefCell::new(Vec::new())),
            batch: Vec::new(),
            batch_pos: 0,
            heap: BinaryHeap::new(),
            cells: Vec::new(),
            cell_free: Vec::new(),
            timer_seq: 0,
        }
    }

    // ---- task arena -----------------------------------------------------

    pub(crate) fn spawn(&mut self, domain: DomainId, future: LocalFuture) -> TaskKey {
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                self.slots.push(TaskSlot {
                    gen: 0,
                    spawn_seq: 0,
                    cell: None,
                    body: None,
                });
                (self.slots.len() - 1) as u32
            }
        };
        let slot = &mut self.slots[idx as usize];
        let key = pack(idx, slot.gen);
        let cell = Rc::new(WakeCell {
            key,
            enqueued: Cell::new(false),
            ring: Rc::clone(&self.ring),
            thread: thread_token(),
        });
        slot.spawn_seq = self.spawn_seq;
        self.spawn_seq += 1;
        slot.body = Some(TaskBody {
            future,
            domain,
            waker: waker_for(&cell),
        });
        cell.enqueue();
        slot.cell = Some(cell);
        self.live += 1;
        TaskKey(key)
    }

    pub(crate) fn pop_ready(&mut self) -> Option<TaskKey> {
        loop {
            if self.batch_pos >= self.batch.len() {
                self.batch.clear();
                self.batch_pos = 0;
                // Swap, don't drain: the whole pending batch moves over and
                // the ring inherits our scratch capacity.
                std::mem::swap(&mut *self.ring.borrow_mut(), &mut self.batch);
                if self.batch.is_empty() {
                    return None;
                }
            }
            let key = self.batch[self.batch_pos];
            self.batch_pos += 1;
            let (idx, gen) = unpack(key);
            let slot = &self.slots[idx as usize];
            if slot.gen != gen || slot.body.is_none() {
                // Stale wake of a completed/killed task.
                continue;
            }
            // Clear-before-poll: a self-wake during the poll must re-enqueue.
            slot.cell
                .as_ref()
                .expect("live slot has a wake cell")
                .enqueued
                .set(false);
            return Some(TaskKey(key));
        }
    }

    pub(crate) fn take_body(&mut self, key: TaskKey) -> Option<TaskBody> {
        let (idx, gen) = unpack(key.0);
        let slot = self.slots.get_mut(idx as usize)?;
        if slot.gen != gen {
            return None;
        }
        slot.body.take()
    }

    pub(crate) fn reinsert(&mut self, key: TaskKey, body: TaskBody) {
        let (idx, gen) = unpack(key.0);
        let slot = &mut self.slots[idx as usize];
        debug_assert_eq!(slot.gen, gen, "reinsert into a reused slot");
        debug_assert!(slot.body.is_none(), "reinsert over a live body");
        slot.body = Some(body);
    }

    pub(crate) fn finish(&mut self, key: TaskKey) {
        let (idx, gen) = unpack(key.0);
        let slot = &mut self.slots[idx as usize];
        if slot.gen != gen {
            return;
        }
        debug_assert!(slot.body.is_none(), "finish with the body still stored");
        slot.gen = slot.gen.wrapping_add(1);
        slot.cell = None;
        self.free.push(idx);
        self.live -= 1;
    }

    pub(crate) fn live_tasks(&self) -> usize {
        self.live
    }

    pub(crate) fn drain_domain(&mut self, domain: DomainId) -> Vec<TaskBody> {
        let mut doomed: Vec<(u64, u32)> = Vec::new();
        for (idx, slot) in self.slots.iter().enumerate() {
            if let Some(body) = &slot.body {
                if body.domain == domain {
                    doomed.push((slot.spawn_seq, idx as u32));
                }
            }
        }
        doomed.sort_unstable();
        doomed
            .into_iter()
            .map(|(_, idx)| {
                let slot = &mut self.slots[idx as usize];
                let body = slot.body.take().expect("doomed task has a body");
                slot.gen = slot.gen.wrapping_add(1);
                slot.cell = None;
                self.free.push(idx);
                self.live -= 1;
                body
            })
            .collect()
    }

    // ---- timers ---------------------------------------------------------

    pub(crate) fn register_timer(&mut self, deadline: u64, waker: Waker) -> TimerKey {
        let idx = match self.cell_free.pop() {
            Some(idx) => idx,
            None => {
                self.cells.push(TimerCell {
                    gen: 0,
                    waker: None,
                });
                (self.cells.len() - 1) as u32
            }
        };
        let cell = &mut self.cells[idx as usize];
        cell.waker = Some(waker);
        let key = TimerKey(pack(idx, cell.gen));
        self.heap.push(Reverse((deadline, self.timer_seq, idx)));
        self.timer_seq += 1;
        key
    }

    pub(crate) fn update_timer_waker(&mut self, key: TimerKey, waker: &Waker) {
        let (idx, gen) = unpack(key.0);
        let Some(cell) = self.cells.get_mut(idx as usize) else {
            return;
        };
        if cell.gen != gen {
            return; // already fired; the cell may even be reused
        }
        if let Some(current) = &mut cell.waker {
            if !current.will_wake(waker) {
                *current = waker.clone();
            }
        }
    }

    #[cfg(test)]
    pub(crate) fn timer_count(&self) -> usize {
        self.heap.len()
    }

    pub(crate) fn advance_timers(&mut self, limit: u64, fired: &mut Vec<Waker>) -> Option<u64> {
        let &Reverse((deadline, _, _)) = self.heap.peek()?;
        if deadline > limit {
            return None;
        }
        // Every entry at exactly this instant, in registration order.
        while let Some(&Reverse((d, _, idx))) = self.heap.peek() {
            if d != deadline {
                break;
            }
            self.heap.pop();
            let cell = &mut self.cells[idx as usize];
            fired.push(cell.waker.take().expect("pending timer cell has a waker"));
            cell.gen = cell.gen.wrapping_add(1);
            self.cell_free.push(idx);
        }
        Some(deadline)
    }
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicUsize;
    use std::sync::{Arc, Mutex};
    use std::task::Wake;

    use super::*;

    fn counting_waker(count: Arc<AtomicUsize>) -> Waker {
        struct Count(Arc<AtomicUsize>);
        impl Wake for Count {
            fn wake(self: Arc<Self>) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        Waker::from(Arc::new(Count(count)))
    }

    fn noop_waker() -> Waker {
        counting_waker(Arc::new(AtomicUsize::new(0)))
    }

    /// A waker that logs `tag` when woken.
    fn tag_waker(tag: u64, log: &Arc<Mutex<Vec<u64>>>) -> Waker {
        struct Tag(u64, Arc<Mutex<Vec<u64>>>);
        impl Wake for Tag {
            fn wake(self: Arc<Self>) {
                self.1.lock().unwrap().push(self.0);
            }
        }
        Waker::from(Arc::new(Tag(tag, Arc::clone(log))))
    }

    /// Drives the bare core: fire everything up to `limit`, returning the
    /// fired instants in order.
    fn drain(core: &mut WheelSched, limit: u64) -> Vec<u64> {
        let mut instants = Vec::new();
        let mut fired = Vec::new();
        while let Some(t) = core.advance_timers(limit, &mut fired) {
            assert!(!fired.is_empty(), "Some(t) implies wakers fired");
            instants.push(t);
            fired.clear();
        }
        instants
    }

    #[test]
    fn fires_in_deadline_order_across_magnitudes() {
        let mut core = WheelSched::new();
        // Deadlines from 1 ns to minutes, registered in reverse.
        let deadlines = [
            1u64,
            63,
            64,
            100,
            4096,
            262143,
            262144,
            60_000_000_000,
            3_000_000_000_000,
        ];
        for &d in deadlines.iter().rev() {
            core.register_timer(d, noop_waker());
        }
        assert_eq!(drain(&mut core, u64::MAX - 1), deadlines.to_vec());
        assert_eq!(core.timer_count(), 0);
    }

    #[test]
    fn far_and_never_deadlines_fire_in_order() {
        let mut core = WheelSched::new();
        let far = 1u64 << 50;
        let never = u64::MAX;
        core.register_timer(far, noop_waker());
        core.register_timer(far + 5, noop_waker());
        core.register_timer(never, noop_waker());
        core.register_timer(7, noop_waker());
        assert_eq!(drain(&mut core, far + 5), vec![7, far, far + 5]);
        // The "never" timer still fires under an unbounded drain, exactly
        // like the reference heap.
        assert_eq!(drain(&mut core, u64::MAX), vec![never]);
    }

    #[test]
    fn ties_fire_in_registration_order() {
        let mut core = WheelSched::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        // Same deadline, interleaved with a different one.
        for (tag, deadline) in [(0, 500), (1, 200), (2, 500), (3, 500)] {
            core.register_timer(deadline, tag_waker(tag, &order));
        }
        let mut fired = Vec::new();
        assert_eq!(core.advance_timers(u64::MAX - 1, &mut fired), Some(200));
        assert_eq!(core.advance_timers(u64::MAX - 1, &mut fired), Some(500));
        for w in fired.drain(..) {
            w.wake();
        }
        assert_eq!(*order.lock().unwrap(), vec![1, 0, 2, 3]);
    }

    #[test]
    fn respects_limit_and_resumes() {
        let mut core = WheelSched::new();
        core.register_timer(1_000, noop_waker());
        core.register_timer(2_000_000, noop_waker());
        assert_eq!(drain(&mut core, 1_500), vec![1_000]);
        assert_eq!(core.timer_count(), 1);
        // New registrations while parked between fires still order correctly.
        core.register_timer(1_800, noop_waker());
        assert_eq!(drain(&mut core, 3_000_000), vec![1_800, 2_000_000]);
    }

    #[test]
    fn update_timer_waker_replaces_in_place() {
        let mut core = WheelSched::new();
        let first = Arc::new(AtomicUsize::new(0));
        let second = Arc::new(AtomicUsize::new(0));
        let key = core.register_timer(42, counting_waker(Arc::clone(&first)));
        assert_eq!(core.timer_count(), 1);
        core.update_timer_waker(key, &counting_waker(Arc::clone(&second)));
        // Still one timer: the update did not register a fresh entry.
        assert_eq!(core.timer_count(), 1);
        let mut fired = Vec::new();
        assert_eq!(core.advance_timers(u64::MAX - 1, &mut fired), Some(42));
        for w in fired.drain(..) {
            w.wake();
        }
        assert_eq!(
            first.load(Ordering::SeqCst),
            0,
            "replaced waker must not fire"
        );
        assert_eq!(second.load(Ordering::SeqCst), 1);
        // A stale key after firing is ignored, not misdirected.
        core.update_timer_waker(key, &noop_waker());
        assert_eq!(core.timer_count(), 0);
    }

    #[test]
    fn dense_and_sparse_storm_matches_a_sorted_model() {
        // 4000 pseudo-random deadlines over a wide dynamic range, fired
        // against a sorted-model oracle.
        let mut core = WheelSched::new();
        let mut model: Vec<u64> = Vec::new();
        let mut x = 0x9E3779B97F4A7C15u64;
        for _ in 0..4000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Mix dense low deadlines with sparse huge ones.
            let d = 1 + if x.is_multiple_of(5) {
                x % (1 << 50)
            } else {
                x % 100_000
            };
            model.push(d);
            core.register_timer(d, noop_waker());
        }
        model.sort_unstable();
        model.dedup();
        assert_eq!(drain(&mut core, u64::MAX - 1), model);
    }

    /// Timers registered *between* advances — at the instant just fired + 1,
    /// on a pending deadline (a tie with older entries), far out, and while
    /// parked at a `run_until`-style limit — fire as a sorted
    /// `(deadline, seq)` model says, one instant per advance.
    #[test]
    fn registrations_between_advances_match_a_sorted_model() {
        struct Model {
            core: WheelSched,
            pending: Vec<(u64, u64)>,
            seq: u64,
            log: Arc<Mutex<Vec<u64>>>,
        }
        impl Model {
            fn register(&mut self, deadline: u64) {
                let waker = tag_waker(self.seq, &self.log);
                self.core.register_timer(deadline, waker);
                self.pending.push((deadline, self.seq));
                self.seq += 1;
            }
        }
        let mut m = Model {
            core: WheelSched::new(),
            pending: Vec::new(),
            seq: 0,
            log: Arc::new(Mutex::new(Vec::new())),
        };
        let mut x = 0x2545F4914F6CDD1Du64;
        let mut rand = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        for _ in 0..64 {
            m.register(1 + rand(10_000));
        }
        let (mut now, mut fires, mut parks) = (0u64, 0, 0);
        let mut fired = Vec::new();
        while !m.pending.is_empty() {
            let growing = m.seq < 3_000;
            let next = m.pending.iter().map(|&(d, _)| d).min().expect("non-empty");
            // Mostly unbounded; a quarter of the time short of `next`.
            let limit = if rand(4) == 0 {
                now + rand(next - now)
            } else {
                u64::MAX - 1
            };
            let got = m.core.advance_timers(limit, &mut fired);
            if next > limit {
                assert_eq!(got, None, "nothing is due by {limit}");
                parks += 1;
                // Parked: the clock reads `limit`, so new deadlines follow it.
                now = limit;
                if growing {
                    m.register(limit + 1);
                    m.register(limit + 1 + rand(500));
                }
                continue;
            }
            assert_eq!(got, Some(next));
            let mut due: Vec<u64> = m
                .pending
                .iter()
                .filter(|&&(d, _)| d == next)
                .map(|&(_, s)| s)
                .collect();
            due.sort_unstable();
            m.pending.retain(|&(d, _)| d != next);
            for w in fired.drain(..) {
                w.wake();
            }
            let woke = std::mem::take(&mut *m.log.lock().unwrap());
            assert_eq!(woke, due, "instant {next}");
            now = next;
            fires += 1;
            if growing {
                m.register(now + 1);
                m.register(now + 1 + rand(5_000));
                // A tie with an older pending entry.
                let (d, _) = m.pending[rand(m.pending.len() as u64) as usize];
                m.register(d);
                if rand(16) == 0 {
                    m.register(now + (1 << 40));
                }
            }
        }
        assert!(fires > 1_000 && parks > 100, "{fires} fires, {parks} parks");
        assert_eq!(m.core.timer_count(), 0);
    }

    #[test]
    fn a_waker_used_off_its_thread_panics_before_it_touches_its_count() {
        let mut core = WheelSched::new();
        let key = core.spawn(DomainId::ROOT, Box::pin(async {}));
        assert_eq!(core.pop_ready(), Some(key));
        let body = core.take_body(key).expect("spawned task has a body");
        let (waker, local) = (body.waker.clone(), body.waker.clone());
        core.reinsert(key, body);
        let cell = Rc::clone(core.slots[0].cell.as_ref().expect("live task"));
        let count = Rc::strong_count(&cell);
        let panicked = std::thread::spawn(move || {
            let woke = catch_unwind(AssertUnwindSafe(|| waker.wake_by_ref()));
            // Dropping it here would panic again, in `drop_waker`.
            std::mem::forget(waker);
            woke.is_err()
        })
        .join()
        .expect("the thread catches the panic");
        assert!(panicked, "a foreign-thread wake must panic");
        assert_eq!(Rc::strong_count(&cell), count, "the count moved");
        assert!(!cell.enqueued.get(), "the flag moved");
        assert_eq!(core.pop_ready(), None, "the ring moved");
        // On its own thread a clone of the same waker works.
        local.wake_by_ref();
        assert_eq!(core.pop_ready(), Some(key));
    }
}
