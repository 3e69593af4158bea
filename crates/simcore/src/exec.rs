//! The deterministic virtual-time executor.
//!
//! [`Sim`] owns the task arena, the timer queue and the virtual clock.
//! [`SimCtx`] is the cloneable handle that running tasks use to spawn, sleep,
//! read the clock and draw random numbers.
//!
//! # Scheduling model
//!
//! The executor is strictly single-threaded. It repeatedly drains a FIFO
//! ready queue, polling each runnable task to completion or `Pending`; when
//! the queue is empty it advances the clock to the earliest pending timer and
//! fires every timer registered for that instant (in registration order).
//! This makes runs bit-for-bit reproducible for a given seed and spawn order.
//!
//! The data structures behind that contract live in [`crate::sched`]: the
//! default [`SchedulerKind::TimerWheel`] core (slab task arena,
//! single-threaded ready ring, binary-heap timers) and the
//! [`SchedulerKind::Reference`] core kept for differential testing. Pick one
//! with [`Sim::new_with_scheduler`]; both produce bit-identical simulations.
//!
//! # Panics
//!
//! A panic inside a task propagates out of [`Sim::run`]: simulations are
//! expected to fail loudly rather than limp on with corrupted state.

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::{Rc, Weak};
use std::task::{Context, Poll, Waker};

use crate::cancel::DomainId;
use crate::hash::FastSet;
use crate::rng::SimRng;
use crate::sched::{SchedCore, TaskBody, TaskKey, TimerKey};
use crate::time::{SimDuration, SimTime};
use crate::trace::Tracer;

pub use crate::sched::SchedulerKind;

struct Inner {
    now: SimTime,
    sched: SchedCore,
    next_domain_id: u64,
    dead_domains: FastSet<DomainId>,
    rng: SimRng,
    tracer: Rc<Tracer>,
}

/// Outcome of a [`Sim::run`] / [`Sim::run_until`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunReport {
    /// Virtual time when the run stopped.
    pub now: SimTime,
    /// Tasks still alive (blocked on events that will never fire, or — after
    /// `run_until` — on timers beyond the limit). Daemon-style server tasks
    /// normally show up here; it is not an error.
    pub pending_tasks: usize,
    /// Total number of task polls performed during this call.
    pub polls: u64,
}

/// The simulation executor. See the [module docs](self) for the model.
///
/// # Examples
///
/// ```
/// use rapilog_simcore::{Sim, SimDuration};
///
/// let mut sim = Sim::new(7);
/// let ctx = sim.ctx();
/// let handle = sim.spawn(async move {
///     ctx.sleep(SimDuration::from_micros(3)).await;
///     ctx.now().as_micros()
/// });
/// sim.run();
/// assert_eq!(handle.try_take(), Some(3));
/// ```
pub struct Sim {
    inner: Rc<RefCell<Inner>>,
    polls: u64,
}

impl Sim {
    /// Creates a simulation whose randomness derives from `seed`, on the
    /// default (production) scheduling core.
    pub fn new(seed: u64) -> Self {
        Self::new_with_scheduler(seed, SchedulerKind::TimerWheel)
    }

    /// Creates a simulation on an explicit scheduling core. Both cores are
    /// observably identical (see [`crate::sched`]); the non-default
    /// [`SchedulerKind::Reference`] core exists for differential tests.
    pub fn new_with_scheduler(seed: u64, kind: SchedulerKind) -> Self {
        let inner = Inner {
            now: SimTime::ZERO,
            sched: SchedCore::new(kind),
            next_domain_id: 1,
            dead_domains: FastSet::default(),
            rng: SimRng::seed_from_u64(seed),
            tracer: Rc::new(Tracer::new()),
        };
        Sim {
            inner: Rc::new(RefCell::new(inner)),
            polls: 0,
        }
    }

    /// Returns a context handle usable from inside (and outside) tasks.
    pub fn ctx(&self) -> SimCtx {
        SimCtx {
            inner: Rc::downgrade(&self.inner),
        }
    }

    /// Spawns a task in the root domain; see [`SimCtx::spawn`].
    pub fn spawn<F>(&mut self, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        self.ctx().spawn(fut)
    }

    /// Runs until no task is runnable and no timer is pending.
    pub fn run(&mut self) -> RunReport {
        self.run_until(SimTime::MAX)
    }

    /// Runs until idle or until the clock would pass `limit`, whichever is
    /// first. On return the clock reads `min(limit, idle time)`; timers past
    /// `limit` stay registered so the run can be resumed.
    pub fn run_until(&mut self, limit: SimTime) -> RunReport {
        let start_polls = self.polls;
        // Scratch for the wakers fired at each instant, reused across the
        // whole run so advancing the clock does not allocate.
        let mut fired: Vec<Waker> = Vec::new();
        loop {
            // Drain every runnable task at the current instant.
            loop {
                let key = self.inner.borrow_mut().sched.pop_ready();
                match key {
                    Some(key) => self.poll_task(key),
                    None => break,
                }
            }
            // Advance to the next timer instant, if any and within the
            // limit; the whole due slot fires in one batch.
            let advanced = {
                let mut inner = self.inner.borrow_mut();
                let advanced = inner.sched.advance_timers(limit.as_nanos(), &mut fired);
                if let Some(t) = advanced {
                    inner.now = SimTime::from_nanos(t);
                }
                advanced
            };
            if advanced.is_none() {
                debug_assert!(fired.is_empty());
                break;
            }
            // Wake outside the borrow: wakers only touch the shared ready
            // ring, but user-visible wake side effects must not observe a
            // held executor borrow.
            for w in fired.drain(..) {
                w.wake();
            }
        }
        let mut inner = self.inner.borrow_mut();
        if limit != SimTime::MAX && inner.now < limit {
            inner.now = limit;
        }
        RunReport {
            now: inner.now,
            pending_tasks: inner.sched.live_tasks(),
            polls: self.polls - start_polls,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.inner.borrow().now
    }

    /// The structured tracer for this simulation (disabled by default).
    pub fn tracer(&self) -> Rc<Tracer> {
        Rc::clone(&self.inner.borrow().tracer)
    }

    fn poll_task(&mut self, key: TaskKey) {
        // Take the body out of the arena so the poll can re-borrow `inner`
        // (to spawn, register timers, ...).
        let body = self.inner.borrow_mut().sched.take_body(key);
        let Some(mut body) = body else {
            // Stale wake for a completed or killed task.
            return;
        };
        let mut cx = Context::from_waker(&body.waker);
        self.polls += 1;
        if body.future.as_mut().poll(&mut cx).is_pending() {
            // A task may have killed its own domain while running; in that
            // case it must not be resurrected.
            let doomed = self.inner.borrow().dead_domains.contains(&body.domain);
            if doomed {
                // Drop the future outside the borrow: destructors may wake
                // other tasks or touch channels.
                drop(body);
                self.inner.borrow_mut().sched.finish(key);
            } else {
                self.inner.borrow_mut().sched.reinsert(key, body);
            }
        } else {
            drop(body);
            self.inner.borrow_mut().sched.finish(key);
        }
    }
}

/// Cloneable handle to a running [`Sim`], used inside tasks.
///
/// All methods panic if the owning `Sim` has been dropped; tasks cannot
/// outlive their executor, so in practice this only triggers on misuse of a
/// handle stored outside the simulation.
#[derive(Clone)]
pub struct SimCtx {
    inner: Weak<RefCell<Inner>>,
}

impl SimCtx {
    fn upgrade(&self) -> Rc<RefCell<Inner>> {
        self.inner.upgrade().expect("Sim has been dropped")
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.upgrade().borrow().now
    }

    /// Spawns a task in the root (unkillable) domain.
    pub fn spawn<F>(&self, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        self.spawn_in(DomainId::ROOT, fut)
    }

    /// Spawns a task in `domain`.
    ///
    /// If the domain is already dead the task is dropped immediately and the
    /// returned handle resolves to `None`.
    pub fn spawn_in<F>(&self, domain: DomainId, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        let state = Rc::new(RefCell::new(JoinState {
            value: None,
            finished: false,
            waker: None,
        }));
        let handle = JoinHandle {
            state: Rc::clone(&state),
        };
        let guard = CompletionGuard { state };
        let rc = self.upgrade();
        // Dropped unpolled if the domain is dead: the guard marks the state
        // finished either way, and wakes any joiner.
        if rc.borrow().dead_domains.contains(&domain) {
            return handle;
        }
        rc.borrow_mut().sched.spawn(
            domain,
            Box::pin(async move {
                let _guard = guard;
                let v = fut.await;
                _guard.state.borrow_mut().value = Some(v);
            }),
        );
        handle
    }

    /// Creates a fresh cancellation domain.
    pub fn create_domain(&self) -> DomainId {
        let rc = self.upgrade();
        let mut inner = rc.borrow_mut();
        let id = DomainId(inner.next_domain_id);
        inner.next_domain_id += 1;
        id
    }

    /// Kills `domain`: every task spawned in it is dropped at the current
    /// instant (in spawn order), and future spawns into it are ignored.
    /// Returns the number of tasks destroyed.
    ///
    /// # Panics
    ///
    /// Panics if asked to kill [`DomainId::ROOT`].
    pub fn kill_domain(&self, domain: DomainId) -> usize {
        assert!(domain != DomainId::ROOT, "cannot kill the root domain");
        let rc = self.upgrade();
        let doomed: Vec<TaskBody> = {
            let mut inner = rc.borrow_mut();
            inner.dead_domains.insert(domain);
            inner.sched.drain_domain(domain)
        };
        // Drop the futures outside the borrow: destructors may wake other
        // tasks or touch channels, which re-borrows `inner`.
        let n = doomed.len();
        drop(doomed);
        n
    }

    /// Sleeps for `dur` of virtual time.
    pub fn sleep(&self, dur: SimDuration) -> Sleep {
        let now = self.now();
        self.sleep_until(now.saturating_add(dur))
    }

    /// Sleeps until the virtual instant `deadline`.
    pub fn sleep_until(&self, deadline: SimTime) -> Sleep {
        Sleep {
            ctx: self.clone(),
            deadline,
            timer: None,
        }
    }

    /// Runs `fut` with a virtual-time deadline. Returns `None` on timeout,
    /// in which case `fut` is dropped.
    pub async fn timeout<F: Future>(&self, dur: SimDuration, fut: F) -> Option<F::Output> {
        let mut fut = std::pin::pin!(fut);
        let mut sleep = self.sleep(dur);
        std::future::poll_fn(move |cx| {
            if let Poll::Ready(v) = fut.as_mut().poll(cx) {
                return Poll::Ready(Some(v));
            }
            match Pin::new(&mut sleep).poll(cx) {
                Poll::Ready(()) => Poll::Ready(None),
                Poll::Pending => Poll::Pending,
            }
        })
        .await
    }

    /// Forks an independent RNG seeded from the master stream. Giving each
    /// simulated client its own forked RNG keeps per-client randomness stable
    /// under scheduling changes.
    pub fn fork_rng(&self) -> SimRng {
        SimRng::seed_from_u64(self.upgrade().borrow_mut().rng.next_u64())
    }

    /// The structured tracer. Cheap to clone; hot-path consumers should
    /// capture the `Rc` once at construction rather than calling this per
    /// event.
    pub fn tracer(&self) -> Rc<Tracer> {
        Rc::clone(&self.upgrade().borrow().tracer)
    }

    /// One-borrow fast path for `Sleep::poll`: checks the clock and either
    /// registers a new timer or refreshes the existing slot's waker in
    /// place, so re-polls never clone a waker or grow the timer queue.
    fn poll_sleep(
        &self,
        deadline: SimTime,
        timer: &mut Option<TimerKey>,
        cx: &mut Context<'_>,
    ) -> Poll<()> {
        let rc = self.upgrade();
        let mut inner = rc.borrow_mut();
        if inner.now >= deadline {
            return Poll::Ready(());
        }
        match timer {
            None => {
                *timer = Some(
                    inner
                        .sched
                        .register_timer(deadline.as_nanos(), cx.waker().clone()),
                );
            }
            Some(key) => inner.sched.update_timer_waker(*key, cx.waker()),
        }
        Poll::Pending
    }
}

/// Future returned by [`SimCtx::sleep`] and [`SimCtx::sleep_until`].
pub struct Sleep {
    ctx: SimCtx,
    deadline: SimTime,
    /// The registered timer slot, reused across re-polls.
    timer: Option<TimerKey>,
}

impl Future for Sleep {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        this.ctx.poll_sleep(this.deadline, &mut this.timer, cx)
    }
}

struct JoinState<T> {
    value: Option<T>,
    finished: bool,
    waker: Option<Waker>,
}

struct CompletionGuard<T> {
    state: Rc<RefCell<JoinState<T>>>,
}

impl<T> Drop for CompletionGuard<T> {
    fn drop(&mut self) {
        let mut s = self.state.borrow_mut();
        s.finished = true;
        if let Some(w) = s.waker.take() {
            drop(s);
            w.wake();
        }
    }
}

/// Handle to a spawned task.
///
/// Awaiting it yields `Some(output)` on normal completion or `None` if the
/// task was destroyed by [`SimCtx::kill_domain`] before finishing. It can
/// also be inspected non-blockingly with [`JoinHandle::try_take`] after
/// [`Sim::run`] returns.
pub struct JoinHandle<T> {
    state: Rc<RefCell<JoinState<T>>>,
}

impl<T> JoinHandle<T> {
    /// Returns the task's output if it has completed, consuming the value.
    pub fn try_take(&self) -> Option<T> {
        self.state.borrow_mut().value.take()
    }

    /// True if the task has finished (normally or by cancellation).
    pub fn is_finished(&self) -> bool {
        self.state.borrow().finished
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = Option<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut s = self.state.borrow_mut();
        if s.finished {
            Poll::Ready(s.value.take())
        } else {
            s.waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// Pending once, waking itself during that poll: the one way a task
    /// re-queues itself without a timer.
    struct YieldNow(bool);

    impl Future for YieldNow {
        type Output = ();

        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            if std::mem::replace(&mut self.0, true) {
                return Poll::Ready(());
            }
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }

    #[test]
    fn clock_starts_at_zero_and_advances_only_on_timers() {
        let mut sim = Sim::new(0);
        let ctx = sim.ctx();
        let c2 = ctx.clone();
        sim.spawn(async move {
            assert_eq!(c2.now(), SimTime::ZERO);
            c2.sleep(SimDuration::from_millis(10)).await;
            assert_eq!(c2.now().as_millis(), 10);
            c2.sleep(SimDuration::from_micros(500)).await;
            assert_eq!(c2.now().as_micros(), 10_500);
        });
        let report = sim.run();
        assert_eq!(report.now.as_micros(), 10_500);
        assert_eq!(report.pending_tasks, 0);
    }

    #[test]
    fn join_handle_returns_value() {
        let mut sim = Sim::new(0);
        let h = sim.spawn(async { 41 + 1 });
        sim.run();
        assert!(h.is_finished());
        assert_eq!(h.try_take(), Some(42));
        assert_eq!(h.try_take(), None, "value is consumed once");
    }

    #[test]
    fn join_handle_awaitable_from_other_task() {
        let mut sim = Sim::new(0);
        let ctx = sim.ctx();
        let got = Rc::new(Cell::new(0u64));
        let got2 = Rc::clone(&got);
        sim.spawn(async move {
            let inner = ctx.spawn({
                let ctx = ctx.clone();
                async move {
                    ctx.sleep(SimDuration::from_millis(3)).await;
                    7u64
                }
            });
            let v = inner.await.expect("inner task completed");
            got2.set(v + ctx.now().as_millis());
        });
        sim.run();
        assert_eq!(got.get(), 10);
    }

    #[test]
    fn timers_fire_in_deadline_then_registration_order() {
        let mut sim = Sim::new(0);
        let ctx = sim.ctx();
        let order = Rc::new(RefCell::new(Vec::new()));
        for (i, ms) in [(0u32, 5u64), (1, 3), (2, 5), (3, 1)] {
            let ctx = ctx.clone();
            let order = Rc::clone(&order);
            sim.spawn(async move {
                ctx.sleep(SimDuration::from_millis(ms)).await;
                order.borrow_mut().push(i);
            });
        }
        sim.run();
        // Deadlines 1,3,5,5; the two 5 ms sleepers fire in spawn order.
        assert_eq!(*order.borrow(), vec![3, 1, 0, 2]);
    }

    #[test]
    fn run_until_stops_at_limit_and_resumes() {
        let mut sim = Sim::new(0);
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            ctx.sleep(SimDuration::from_millis(10)).await;
            "done"
        });
        let r = sim.run_until(SimTime::from_millis(4));
        assert_eq!(r.now.as_millis(), 4);
        assert_eq!(r.pending_tasks, 1);
        assert!(!h.is_finished());
        let r = sim.run_until(SimTime::from_millis(20));
        assert_eq!(r.pending_tasks, 0);
        assert_eq!(h.try_take(), Some("done"));
        // Clock parked at the limit even though the last event was at 10 ms.
        assert_eq!(r.now.as_millis(), 20);
    }

    #[test]
    fn kill_domain_drops_tasks_and_reports_count() {
        let mut sim = Sim::new(0);
        let ctx = sim.ctx();
        let d = ctx.create_domain();
        let h1 = ctx.spawn_in(d, {
            let ctx = ctx.clone();
            async move {
                ctx.sleep(SimDuration::from_secs(100)).await;
            }
        });
        let h2 = ctx.spawn_in(d, {
            let ctx = ctx.clone();
            async move {
                ctx.sleep(SimDuration::from_secs(100)).await;
            }
        });
        let killer = ctx.clone();
        sim.spawn(async move {
            killer.sleep(SimDuration::from_millis(1)).await;
            assert_eq!(killer.kill_domain(d), 2);
        });
        let r = sim.run();
        assert_eq!(r.pending_tasks, 0);
        assert!(h1.is_finished() && h2.is_finished());
        assert_eq!(h1.try_take(), None);
        assert_eq!(h2.try_take(), None);
    }

    #[test]
    fn spawn_into_dead_domain_is_ignored() {
        let mut sim = Sim::new(0);
        let ctx = sim.ctx();
        let d = ctx.create_domain();
        sim.spawn({
            let ctx = ctx.clone();
            async move {
                ctx.kill_domain(d);
                let h = ctx.spawn_in(d, async { 5 });
                assert!(h.is_finished());
                assert_eq!(h.await, None);
            }
        });
        let r = sim.run();
        assert_eq!(r.pending_tasks, 0);
    }

    #[test]
    fn killed_task_join_resolves_none() {
        let mut sim = Sim::new(0);
        let ctx = sim.ctx();
        let d = ctx.create_domain();
        let victim = ctx.spawn_in(d, {
            let ctx = ctx.clone();
            async move {
                ctx.sleep(SimDuration::from_secs(1)).await;
                1
            }
        });
        let got = Rc::new(Cell::new(false));
        let got2 = Rc::clone(&got);
        sim.spawn({
            let ctx = ctx.clone();
            async move {
                ctx.sleep(SimDuration::from_millis(1)).await;
                ctx.kill_domain(d);
                assert_eq!(victim.await, None);
                got2.set(true);
            }
        });
        sim.run();
        assert!(got.get(), "joiner observed the cancellation");
    }

    #[test]
    fn yield_now_interleaves_tasks() {
        let mut sim = Sim::new(0);
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..2u32 {
            let order = Rc::clone(&order);
            sim.spawn(async move {
                order.borrow_mut().push((i, 0));
                YieldNow(false).await;
                order.borrow_mut().push((i, 1));
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![(0, 0), (1, 0), (0, 1), (1, 1)]);
    }

    #[test]
    fn timeout_returns_none_on_expiry_and_some_on_completion() {
        let mut sim = Sim::new(0);
        let ctx = sim.ctx();
        let results = Rc::new(RefCell::new(Vec::new()));
        let r2 = Rc::clone(&results);
        sim.spawn({
            let ctx = ctx.clone();
            async move {
                let fast = ctx
                    .timeout(SimDuration::from_millis(10), {
                        let ctx = ctx.clone();
                        async move {
                            ctx.sleep(SimDuration::from_millis(1)).await;
                            "fast"
                        }
                    })
                    .await;
                let slow = ctx
                    .timeout(SimDuration::from_millis(10), {
                        let ctx = ctx.clone();
                        async move {
                            ctx.sleep(SimDuration::from_secs(1)).await;
                            "slow"
                        }
                    })
                    .await;
                r2.borrow_mut().push((fast, slow));
            }
        });
        sim.run();
        assert_eq!(*results.borrow(), vec![(Some("fast"), None)]);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        fn trace(seed: u64) -> Vec<u64> {
            let mut sim = Sim::new(seed);
            let ctx = sim.ctx();
            let out = Rc::new(RefCell::new(Vec::new()));
            for _ in 0..4 {
                let ctx = ctx.clone();
                let out = Rc::clone(&out);
                sim.spawn(async move {
                    let d = ctx.fork_rng().gen_range(1..=1000);
                    ctx.sleep(SimDuration::from_micros(d)).await;
                    out.borrow_mut().push(ctx.now().as_nanos());
                });
            }
            sim.run();
            let v = out.borrow().clone();
            v
        }
        assert_eq!(trace(99), trace(99));
        assert_ne!(trace(99), trace(100), "different seeds diverge");
    }

    #[test]
    fn forked_rngs_are_independent_and_deterministic() {
        let sim = Sim::new(5);
        let ctx = sim.ctx();
        let mut a = ctx.fork_rng();
        let mut b = ctx.fork_rng();
        let sim2 = Sim::new(5);
        let ctx2 = sim2.ctx();
        let mut a2 = ctx2.fork_rng();
        let mut b2 = ctx2.fork_rng();
        let (va, vb) = (a.next_u64(), b.next_u64());
        assert_ne!(va, vb, "sibling forks diverge");
        assert_eq!(va, a2.next_u64(), "same master seed, same first fork");
        assert_eq!(vb, b2.next_u64(), "same master seed, same second fork");
    }

    #[test]
    fn many_tasks_many_timers() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let total = Rc::new(Cell::new(0u64));
        for i in 0..1000u64 {
            let ctx = ctx.clone();
            let total = Rc::clone(&total);
            sim.spawn(async move {
                ctx.sleep(SimDuration::from_nanos(i * 17 % 5000)).await;
                ctx.sleep(SimDuration::from_nanos(i)).await;
                total.set(total.get() + 1);
            });
        }
        let r = sim.run();
        assert_eq!(total.get(), 1000);
        assert_eq!(r.pending_tasks, 0);
        assert!(r.polls >= 2000, "each task polled at least per sleep");
    }

    #[test]
    fn report_counts_pending_daemons() {
        let mut sim = Sim::new(0);
        let ctx = sim.ctx();
        sim.spawn(async move {
            // Waits forever: nothing ever wakes it.
            ctx.sleep_until(SimTime::MAX).await;
        });
        let r = sim.run_until(SimTime::from_secs(1));
        assert_eq!(r.pending_tasks, 1);
    }

    /// Polling a `Sleep` twice (as a `timeout`/select race does) must not
    /// register a second timer entry: the slot is updated in place.
    #[test]
    fn sleep_repoll_reuses_its_timer_slot() {
        let mut sim = Sim::new(0);
        let ctx = sim.ctx();
        sim.spawn({
            let ctx = ctx.clone();
            async move {
                let mut sleep = ctx.sleep(SimDuration::from_millis(2));
                // Poll the sleep directly several times within one task
                // poll; only the first may register a timer.
                std::future::poll_fn(move |cx| {
                    let mut registered = false;
                    loop {
                        match Pin::new(&mut sleep).poll(cx) {
                            Poll::Ready(()) => return Poll::Ready(()),
                            Poll::Pending if registered => return Poll::Pending,
                            Poll::Pending => registered = true,
                        }
                    }
                })
                .await;
            }
        });
        // After the first poll round the task is blocked on exactly one
        // timer despite the double poll.
        sim.run_until(SimTime::from_millis(1));
        assert_eq!(sim.inner.borrow().sched.timer_count(), 1);
        let r = sim.run();
        assert_eq!(r.pending_tasks, 0);
        assert_eq!(r.now.as_millis(), 2);
    }

    /// The same program must produce the same report and event order on
    /// both scheduling cores.
    #[test]
    fn both_cores_agree_on_a_mixed_workload() {
        fn run(kind: SchedulerKind) -> (RunReport, Vec<(u32, u64)>) {
            let mut sim = Sim::new_with_scheduler(0xD1FF, kind);
            let ctx = sim.ctx();
            let log = Rc::new(RefCell::new(Vec::new()));
            let d = ctx.create_domain();
            for i in 0..40u32 {
                let tctx = ctx.clone();
                let log = Rc::clone(&log);
                let task = async move {
                    let jitter = tctx.fork_rng().gen_range(1..=400);
                    tctx.sleep(SimDuration::from_micros(jitter)).await;
                    log.borrow_mut().push((i, tctx.now().as_nanos()));
                    YieldNow(false).await;
                    tctx.sleep(SimDuration::from_micros(u64::from(i) % 7 + 1))
                        .await;
                    log.borrow_mut().push((i + 1000, tctx.now().as_nanos()));
                };
                if i % 5 == 0 {
                    ctx.spawn_in(d, task);
                } else {
                    ctx.spawn(task);
                }
            }
            let killer = ctx.clone();
            sim.spawn(async move {
                killer.sleep(SimDuration::from_micros(180)).await;
                killer.kill_domain(d);
            });
            let report = sim.run();
            let events = log.borrow().clone();
            (report, events)
        }
        let wheel = run(SchedulerKind::TimerWheel);
        let reference = run(SchedulerKind::Reference);
        assert_eq!(wheel.0, reference.0, "RunReports diverge");
        assert_eq!(wheel.1, reference.1, "event streams diverge");
        assert!(!wheel.1.is_empty());
    }
}
