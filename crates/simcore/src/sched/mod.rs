//! Pluggable scheduling cores for the executor.
//!
//! The executor in [`exec`](crate::exec) owns *policy* (when to poll, when
//! to advance the clock); this module owns the *mechanism*: task storage,
//! the ready queue and the timer queue. Two interchangeable cores implement
//! that mechanism:
//!
//! * [`wheel`] — the production core: a slab task arena (generational
//!   indices, O(1) spawn/poll/despawn, no hashing), a single-threaded ready
//!   ring (a `RefCell<Vec<u64>>` fed by `Rc` wake cells; every waker entry
//!   point panics off the simulation's thread, which makes the non-atomic
//!   count sound) and one binary heap of timers, which pops in
//!   `(deadline, seq)` order, the reference core's order;
//! * [`sched_ref`] — the reference core: the original, obviously-correct
//!   design (hash-map task table, mutexed FIFO + hash-set dedup, binary-heap
//!   timers), retained for differential testing.
//!
//! Both cores implement the same observable contract — FIFO ready order,
//! timers fired in (deadline, registration) order, domain kills in spawn
//! order — so a simulation must produce a bit-identical event stream on
//! either. `exec`'s `both_cores_agree_on_a_mixed_workload` and
//! `crates/faultsim/tests/sched_differential.rs` enforce exactly that.

pub(crate) mod sched_ref;
pub(crate) mod wheel;

use std::future::Future;
use std::pin::Pin;
use std::task::Waker;

use crate::cancel::DomainId;

pub(crate) type LocalFuture = Pin<Box<dyn Future<Output = ()>>>;

/// Which scheduling core a [`Sim`](crate::Sim) runs on.
///
/// The observable behaviour (event order, trace streams, reports) is
/// identical for both; only the data structures — and therefore the
/// wall-clock speed — differ. Production code uses the default
/// [`TimerWheel`](SchedulerKind::TimerWheel); the
/// [`Reference`](SchedulerKind::Reference) core exists so differential
/// tests can prove the fast core faithful.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// The production core: slab task arena, single-threaded ready ring,
    /// binary-heap timers. It keeps the name of the timer wheel it
    /// replaced.
    #[default]
    TimerWheel,
    /// Binary-heap timers, hash-map task table, mutexed FIFO ready queue.
    Reference,
}

impl SchedulerKind {
    /// Short label for reports and test output.
    pub fn label(&self) -> &'static str {
        match self {
            SchedulerKind::TimerWheel => "timer-wheel",
            SchedulerKind::Reference => "reference",
        }
    }
}

/// Opaque handle to a task slot inside a scheduling core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TaskKey(pub(crate) u64);

/// Opaque handle to a registered timer; lets a `Sleep` future update its
/// waker in place across re-polls instead of registering fresh entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TimerKey(pub(crate) u64);

/// The owned state of one task while it is *not* being polled. Taken out of
/// the core for the duration of a poll so the poll can re-borrow the
/// executor (to spawn, register timers, ...).
pub(crate) struct TaskBody {
    pub(crate) future: LocalFuture,
    pub(crate) domain: DomainId,
    /// Created once at spawn and reused for every poll; polling a task must
    /// not allocate.
    pub(crate) waker: Waker,
}

/// Enum-dispatched scheduling core. Always the same variant for the life of
/// a `Sim`, so the branch predictor makes dispatch free.
pub(crate) enum SchedCore {
    Wheel(wheel::WheelSched),
    Reference(sched_ref::RefSched),
}

impl SchedCore {
    pub(crate) fn new(kind: SchedulerKind) -> SchedCore {
        match kind {
            SchedulerKind::TimerWheel => SchedCore::Wheel(wheel::WheelSched::new()),
            SchedulerKind::Reference => SchedCore::Reference(sched_ref::RefSched::new()),
        }
    }

    /// Stores a new task and enqueues it ready.
    #[inline]
    pub(crate) fn spawn(&mut self, domain: DomainId, future: LocalFuture) -> TaskKey {
        match self {
            SchedCore::Wheel(s) => s.spawn(domain, future),
            SchedCore::Reference(s) => s.spawn(domain, future),
        }
    }

    /// Next runnable task in FIFO wake order; `None` when the queue is idle.
    #[inline]
    pub(crate) fn pop_ready(&mut self) -> Option<TaskKey> {
        match self {
            SchedCore::Wheel(s) => s.pop_ready(),
            SchedCore::Reference(s) => s.pop_ready(),
        }
    }

    /// Takes the task body out for polling; `None` for stale keys (task
    /// completed or killed since the wake was queued).
    #[inline]
    pub(crate) fn take_body(&mut self, key: TaskKey) -> Option<TaskBody> {
        match self {
            SchedCore::Wheel(s) => s.take_body(key),
            SchedCore::Reference(s) => s.take_body(key),
        }
    }

    /// Puts a still-pending task body back after a poll.
    #[inline]
    pub(crate) fn reinsert(&mut self, key: TaskKey, body: TaskBody) {
        match self {
            SchedCore::Wheel(s) => s.reinsert(key, body),
            SchedCore::Reference(s) => s.reinsert(key, body),
        }
    }

    /// Retires a task whose body has been dropped (completed or killed).
    #[inline]
    pub(crate) fn finish(&mut self, key: TaskKey) {
        match self {
            SchedCore::Wheel(s) => s.finish(key),
            SchedCore::Reference(s) => s.finish(key),
        }
    }

    /// Tasks currently alive (including one mid-poll).
    #[inline]
    pub(crate) fn live_tasks(&self) -> usize {
        match self {
            SchedCore::Wheel(s) => s.live_tasks(),
            SchedCore::Reference(s) => s.live_tasks(),
        }
    }

    /// Removes every task of `domain` and returns the bodies in spawn
    /// order, so crash-injection drop order is deterministic.
    pub(crate) fn drain_domain(&mut self, domain: DomainId) -> Vec<TaskBody> {
        match self {
            SchedCore::Wheel(s) => s.drain_domain(domain),
            SchedCore::Reference(s) => s.drain_domain(domain),
        }
    }

    /// Registers `waker` to fire at `deadline` (absolute nanoseconds,
    /// strictly in the future). Ties fire in registration order.
    #[inline]
    pub(crate) fn register_timer(&mut self, deadline: u64, waker: Waker) -> TimerKey {
        match self {
            SchedCore::Wheel(s) => s.register_timer(deadline, waker),
            SchedCore::Reference(s) => s.register_timer(deadline, waker),
        }
    }

    /// Replaces the waker of a pending timer in place (no new entry). Stale
    /// keys (already fired) are ignored.
    #[inline]
    pub(crate) fn update_timer_waker(&mut self, key: TimerKey, waker: &Waker) {
        match self {
            SchedCore::Wheel(s) => s.update_timer_waker(key, waker),
            SchedCore::Reference(s) => s.update_timer_waker(key, waker),
        }
    }

    /// Advances to the next timer instant `<= limit`, pushing every waker
    /// registered for exactly that instant into `fired` (registration
    /// order). Returns the instant, or `None` if no timer is due by
    /// `limit`. `Some` implies at least one waker was pushed.
    #[inline]
    pub(crate) fn advance_timers(&mut self, limit: u64, fired: &mut Vec<Waker>) -> Option<u64> {
        match self {
            SchedCore::Wheel(s) => s.advance_timers(limit, fired),
            SchedCore::Reference(s) => s.advance_timers(limit, fired),
        }
    }

    /// Timers currently registered (diagnostics / tests).
    #[cfg(test)]
    pub(crate) fn timer_count(&self) -> usize {
        match self {
            SchedCore::Wheel(s) => s.timer_count(),
            SchedCore::Reference(s) => s.timer_count(),
        }
    }
}

/// Appends `waker` to a waiter list unless an equivalent waker (same task)
/// is already queued, per [`Waker::will_wake`].
///
/// Combinators (`select!`-style races, [`timeout`](crate::SimCtx::timeout))
/// re-poll pending futures without an intervening wake; a naive
/// `push(waker.clone())` then grows the waiter list by one duplicate per
/// re-poll. Deduplicating here keeps waiter lists bounded by the number of
/// distinct waiting tasks and spares the clone on the re-poll path.
#[inline]
pub(crate) fn push_waker_deduped(list: &mut Vec<Waker>, waker: &Waker) {
    if list.iter().any(|w| w.will_wake(waker)) {
        return;
    }
    list.push(waker.clone());
}
