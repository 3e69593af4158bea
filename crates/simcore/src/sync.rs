//! Synchronisation primitives for simulation tasks.
//!
//! * [`Semaphore`] — counted permits with RAII release; used to model
//!   request-queue depth limits and to serialise access to a disk head.
//! * [`Notify`] — edge-triggered wakeup with a single stored permit,
//!   mirroring `tokio::sync::Notify`.
//! * [`Event`] — a one-shot latch: once [`Event::set`] fires, every past and
//!   future [`Event::wait`] completes immediately (used for "power failed"
//!   and "shutdown" signals).
//!
//! All wakeups are "wake all then re-contend", so a waiter destroyed by
//! crash injection can never strand a permit.

use std::cell::RefCell;
use std::future::poll_fn;
use std::rc::Rc;
use std::task::{Poll, Waker};

use crate::sched::push_waker_deduped;

struct SemState {
    permits: usize,
    waiters: Vec<Waker>,
}

/// An asynchronous counting semaphore.
///
/// # Examples
///
/// ```
/// use rapilog_simcore::{Sim, sync::Semaphore};
///
/// let mut sim = Sim::new(0);
/// let sem = Semaphore::new(1);
/// let s2 = sem.clone();
/// sim.spawn(async move {
///     let _permit = s2.acquire(1).await;
///     // critical section
/// });
/// sim.run();
/// ```
#[derive(Clone)]
pub struct Semaphore {
    state: Rc<RefCell<SemState>>,
}

/// RAII permit returned by [`Semaphore::acquire`]; releases on drop.
pub struct SemPermit {
    state: Rc<RefCell<SemState>>,
    count: usize,
}

impl Semaphore {
    /// Creates a semaphore holding `permits` initial permits.
    pub fn new(permits: usize) -> Self {
        Semaphore {
            state: Rc::new(RefCell::new(SemState {
                permits,
                waiters: Vec::new(),
            })),
        }
    }

    /// Waits until `count` permits are available and takes them.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub async fn acquire(&self, count: usize) -> SemPermit {
        assert!(count > 0, "acquire of zero permits");
        poll_fn(|cx| {
            let mut s = self.state.borrow_mut();
            if s.permits >= count {
                s.permits -= count;
                Poll::Ready(())
            } else {
                push_waker_deduped(&mut s.waiters, cx.waker());
                Poll::Pending
            }
        })
        .await;
        SemPermit {
            state: Rc::clone(&self.state),
            count,
        }
    }
}

impl Drop for SemPermit {
    fn drop(&mut self) {
        let mut s = self.state.borrow_mut();
        s.permits += self.count;
        for w in s.waiters.drain(..) {
            w.wake();
        }
    }
}

struct NotifyState {
    permit: bool,
    waiters: Vec<Waker>,
}

/// Edge-triggered notification with a single stored permit.
///
/// A call to [`Notify::notify_one`] wakes one pending waiter, or stores a
/// permit that the next [`Notify::notified`] consumes immediately — so a
/// notification can never be lost to a race between notify and wait.
#[derive(Clone)]
pub struct Notify {
    state: Rc<RefCell<NotifyState>>,
}

impl Notify {
    /// Creates a notifier with no stored permit.
    pub fn new() -> Self {
        Notify {
            state: Rc::new(RefCell::new(NotifyState {
                permit: false,
                waiters: Vec::new(),
            })),
        }
    }

    /// Wakes one waiter, or stores a permit if none is waiting.
    pub fn notify_one(&self) {
        let mut s = self.state.borrow_mut();
        if let Some(w) = s.waiters.pop() {
            drop(s);
            w.wake();
        } else {
            s.permit = true;
        }
    }

    /// Wakes every current waiter (stores a permit if none).
    pub fn notify_all(&self) {
        let mut s = self.state.borrow_mut();
        if s.waiters.is_empty() {
            s.permit = true;
            return;
        }
        let waiters = std::mem::take(&mut s.waiters);
        drop(s);
        for w in waiters {
            w.wake();
        }
    }

    /// Waits for a notification (or consumes a stored permit).
    pub async fn notified(&self) {
        let mut armed = false;
        poll_fn(|cx| {
            let mut s = self.state.borrow_mut();
            if s.permit {
                s.permit = false;
                return Poll::Ready(());
            }
            if armed {
                // We were woken by notify_one/notify_all directly.
                return Poll::Ready(());
            }
            armed = true;
            push_waker_deduped(&mut s.waiters, cx.waker());
            Poll::Pending
        })
        .await
    }
}

impl Default for Notify {
    fn default() -> Self {
        Notify::new()
    }
}

struct EventState {
    set: bool,
    waiters: Vec<Waker>,
}

/// A one-shot latch: once set, it stays set.
#[derive(Clone)]
pub struct Event {
    state: Rc<RefCell<EventState>>,
}

impl Event {
    /// Creates an unset event.
    pub fn new() -> Self {
        Event {
            state: Rc::new(RefCell::new(EventState {
                set: false,
                waiters: Vec::new(),
            })),
        }
    }

    /// Sets the event, releasing every past and future waiter.
    pub fn set(&self) {
        let waiters = {
            let mut s = self.state.borrow_mut();
            s.set = true;
            std::mem::take(&mut s.waiters)
        };
        for w in waiters {
            w.wake();
        }
    }

    /// Waits until the event is set (returns immediately if it already is).
    pub async fn wait(&self) {
        poll_fn(|cx| {
            let mut s = self.state.borrow_mut();
            if s.set {
                Poll::Ready(())
            } else {
                push_waker_deduped(&mut s.waiters, cx.waker());
                Poll::Pending
            }
        })
        .await
    }
}

impl Default for Event {
    fn default() -> Self {
        Event::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sim, SimDuration};
    use std::cell::Cell;

    #[test]
    fn semaphore_serialises_critical_sections() {
        let mut sim = Sim::new(0);
        let ctx = sim.ctx();
        let sem = Semaphore::new(1);
        let active = Rc::new(Cell::new(0u32));
        let max_active = Rc::new(Cell::new(0u32));
        for _ in 0..5 {
            let ctx = ctx.clone();
            let sem = sem.clone();
            let active = Rc::clone(&active);
            let max_active = Rc::clone(&max_active);
            sim.spawn(async move {
                let _p = sem.acquire(1).await;
                active.set(active.get() + 1);
                max_active.set(max_active.get().max(active.get()));
                ctx.sleep(SimDuration::from_millis(1)).await;
                active.set(active.get() - 1);
            });
        }
        sim.run();
        assert_eq!(max_active.get(), 1, "mutual exclusion held");
    }

    #[test]
    fn semaphore_counts_permits() {
        let mut sim = Sim::new(0);
        let ctx = sim.ctx();
        let sem = Semaphore::new(3);
        let peak = Rc::new(Cell::new(0usize));
        let p2 = Rc::clone(&peak);
        let s2 = sem.clone();
        sim.spawn(async move {
            let _a = s2.acquire(2).await;
            p2.set(s2.state.borrow().permits);
            let _b = s2.acquire(1).await;
            assert_eq!(s2.state.borrow().permits, 0);
        });
        sim.run_until(crate::SimTime::from_millis(1));
        assert_eq!(peak.get(), 1);
        // All guards dropped with the task: permits restored.
        let _ = ctx;
        assert_eq!(sem.state.borrow().permits, 3);
    }

    #[test]
    fn permit_released_when_holder_crashes() {
        let mut sim = Sim::new(0);
        let ctx = sim.ctx();
        let d = ctx.create_domain();
        let sem = Semaphore::new(1);
        let acquired_after_crash = Rc::new(Cell::new(false));
        ctx.spawn_in(d, {
            let sem = sem.clone();
            let ctx = ctx.clone();
            async move {
                let _p = sem.acquire(1).await;
                ctx.sleep(SimDuration::from_secs(3600)).await;
            }
        });
        sim.spawn({
            let sem = sem.clone();
            let ctx = ctx.clone();
            let flag = Rc::clone(&acquired_after_crash);
            async move {
                ctx.sleep(SimDuration::from_millis(1)).await;
                ctx.kill_domain(d);
                let _p = sem.acquire(1).await;
                flag.set(true);
            }
        });
        sim.run();
        assert!(
            acquired_after_crash.get(),
            "crashing the holder released its permit via RAII"
        );
    }

    /// A contended semaphore re-polled by a racing combinator must keep one
    /// waiter entry per waiting task, not one per poll.
    #[test]
    fn repolled_acquire_does_not_grow_the_waiter_list() {
        let mut sim = Sim::new(0);
        let ctx = sim.ctx();
        let sem = Semaphore::new(0);
        let state = Rc::clone(&sem.state);
        for _ in 0..3 {
            let sem = sem.clone();
            let ctx = ctx.clone();
            sim.spawn(async move {
                // Each expired timeout drops the acquire future and re-polls
                // a fresh one from the same task.
                for _ in 0..8 {
                    let got = ctx
                        .timeout(SimDuration::from_millis(1), sem.acquire(1))
                        .await;
                    assert!(got.is_none(), "no permits exist yet");
                }
            });
        }
        sim.run_until(crate::SimTime::from_millis(4));
        assert_eq!(
            state.borrow().waiters.len(),
            3,
            "three waiting tasks, three wakers, regardless of re-polls"
        );
        sim.run();
    }

    #[test]
    fn notify_stores_a_permit() {
        let mut sim = Sim::new(0);
        let n = Notify::new();
        let done = Rc::new(Cell::new(false));
        n.notify_one();
        let d2 = Rc::clone(&done);
        let n2 = n.clone();
        sim.spawn(async move {
            n2.notified().await; // consumes the stored permit instantly
            d2.set(true);
        });
        sim.run();
        assert!(done.get());
    }

    #[test]
    fn notify_all_wakes_everyone() {
        let mut sim = Sim::new(0);
        let ctx = sim.ctx();
        let n = Notify::new();
        let count = Rc::new(Cell::new(0u32));
        for _ in 0..3 {
            let n = n.clone();
            let c = Rc::clone(&count);
            sim.spawn(async move {
                n.notified().await;
                c.set(c.get() + 1);
            });
        }
        sim.spawn({
            let ctx = ctx.clone();
            let n = n.clone();
            async move {
                ctx.sleep(SimDuration::from_millis(1)).await;
                n.notify_all();
            }
        });
        sim.run();
        assert_eq!(count.get(), 3);
    }

    #[test]
    fn event_latches() {
        let mut sim = Sim::new(0);
        let ctx = sim.ctx();
        let e = Event::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        // An early waiter and a late waiter both complete.
        sim.spawn({
            let e = e.clone();
            let log = Rc::clone(&log);
            async move {
                e.wait().await;
                log.borrow_mut().push("early");
            }
        });
        sim.spawn({
            let e = e.clone();
            let ctx = ctx.clone();
            async move {
                ctx.sleep(SimDuration::from_millis(1)).await;
                e.set();
            }
        });
        sim.spawn({
            let e = e.clone();
            let ctx = ctx.clone();
            let log = Rc::clone(&log);
            async move {
                ctx.sleep(SimDuration::from_millis(5)).await;
                e.wait().await;
                log.borrow_mut().push("late");
            }
        });
        sim.run();
        assert_eq!(*log.borrow(), vec!["early", "late"]);
    }
}
