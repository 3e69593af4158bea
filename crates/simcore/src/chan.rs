//! Asynchronous channels for the simulation executor.
//!
//! Three flavours are provided:
//!
//! * [`unbounded`] — an infinite-capacity multi-producer channel;
//! * [`bounded`] — a finite-capacity channel whose [`Sender::send`] applies
//!   backpressure by waiting for space (this is how the RapiLog virtual disk
//!   models a full dependable buffer);
//! * [`oneshot`] — a single-value rendezvous used for request/response IPC.
//!
//! All channels are `!Send`: the executor is single-threaded, so state lives
//! in `Rc<RefCell<..>>`. Wakeups are "wake all then re-check", which makes
//! them robust against tasks being destroyed by crash injection while they
//! wait (a lost waiter can never strand a wakeup).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::future::poll_fn;
use std::rc::Rc;
use std::task::{Poll, Waker};

use crate::sched::push_waker_deduped;

struct ChanState<T> {
    queue: VecDeque<T>,
    capacity: Option<usize>,
    recv_wakers: Vec<Waker>,
    send_wakers: Vec<Waker>,
    senders: usize,
    receiver_alive: bool,
}

impl<T> ChanState<T> {
    fn wake_receivers(&mut self) {
        for w in self.recv_wakers.drain(..) {
            w.wake();
        }
    }

    fn wake_senders(&mut self) {
        for w in self.send_wakers.drain(..) {
            w.wake();
        }
    }

    fn has_space(&self) -> bool {
        match self.capacity {
            Some(c) => self.queue.len() < c,
            None => true,
        }
    }
}

/// Error returned by [`Sender::send`] when the receiver is gone.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "receiver dropped")
    }
}

/// Error returned by [`Sender::try_send`].
#[derive(Debug, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The channel is at capacity.
    Full(T),
    /// The receiver was dropped.
    Closed(T),
}

/// Sending half of a channel. Cloneable (multi-producer).
pub struct Sender<T> {
    state: Rc<RefCell<ChanState<T>>>,
}

/// Receiving half of a channel.
pub struct Receiver<T> {
    state: Rc<RefCell<ChanState<T>>>,
}

/// Creates an unbounded multi-producer channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    make_channel(None)
}

/// Creates a bounded channel with space for `capacity` queued values.
///
/// # Panics
///
/// Panics if `capacity` is zero (a rendezvous channel is not supported; use
/// [`oneshot`] for request/response patterns).
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    assert!(capacity > 0, "bounded channel capacity must be non-zero");
    make_channel(Some(capacity))
}

fn make_channel<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let state = Rc::new(RefCell::new(ChanState {
        queue: VecDeque::new(),
        capacity,
        recv_wakers: Vec::new(),
        send_wakers: Vec::new(),
        senders: 1,
        receiver_alive: true,
    }));
    (
        Sender {
            state: Rc::clone(&state),
        },
        Receiver { state },
    )
}

impl<T> Sender<T> {
    /// Enqueues `value` without waiting.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        let mut s = self.state.borrow_mut();
        if !s.receiver_alive {
            return Err(TrySendError::Closed(value));
        }
        if !s.has_space() {
            return Err(TrySendError::Full(value));
        }
        s.queue.push_back(value);
        s.wake_receivers();
        Ok(())
    }

    /// Enqueues `value`, waiting (in virtual time) for space if the channel
    /// is bounded and full.
    pub async fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut slot = Some(value);
        poll_fn(|cx| {
            let mut s = self.state.borrow_mut();
            if !s.receiver_alive {
                return Poll::Ready(Err(SendError(
                    slot.take().expect("send polled after completion"),
                )));
            }
            if s.has_space() {
                s.queue
                    .push_back(slot.take().expect("send polled after completion"));
                s.wake_receivers();
                return Poll::Ready(Ok(()));
            }
            push_waker_deduped(&mut s.send_wakers, cx.waker());
            Poll::Pending
        })
        .await
    }

    /// Number of values currently queued.
    pub fn len(&self) -> usize {
        self.state.borrow().queue.len()
    }

    /// True if no values are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.state.borrow_mut().senders += 1;
        Sender {
            state: Rc::clone(&self.state),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut s = self.state.borrow_mut();
        s.senders -= 1;
        if s.senders == 0 {
            s.wake_receivers();
        }
    }
}

impl<T> Receiver<T> {
    /// Dequeues a value without waiting. Returns `None` if the queue is
    /// empty (regardless of whether senders remain).
    pub fn try_recv(&self) -> Option<T> {
        let mut s = self.state.borrow_mut();
        let v = s.queue.pop_front();
        if v.is_some() {
            s.wake_senders();
        }
        v
    }

    /// Waits for the next value. Resolves to `None` once every sender has
    /// been dropped and the queue has drained.
    pub async fn recv(&self) -> Option<T> {
        poll_fn(|cx| {
            let mut s = self.state.borrow_mut();
            if let Some(v) = s.queue.pop_front() {
                s.wake_senders();
                return Poll::Ready(Some(v));
            }
            if s.senders == 0 {
                return Poll::Ready(None);
            }
            push_waker_deduped(&mut s.recv_wakers, cx.waker());
            Poll::Pending
        })
        .await
    }

    /// Number of values currently queued.
    pub fn len(&self) -> usize {
        self.state.borrow().queue.len()
    }

    /// True if no values are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut s = self.state.borrow_mut();
        s.receiver_alive = false;
        s.wake_senders();
    }
}

struct OnceState<T> {
    value: Option<T>,
    sender_alive: bool,
    waker: Option<Waker>,
}

/// Sending half of a [`oneshot`] channel.
pub struct OnceSender<T> {
    state: Rc<RefCell<OnceState<T>>>,
}

/// Receiving half of a [`oneshot`] channel.
pub struct OnceReceiver<T> {
    state: Rc<RefCell<OnceState<T>>>,
}

/// Creates a single-value rendezvous channel.
pub fn oneshot<T>() -> (OnceSender<T>, OnceReceiver<T>) {
    let state = Rc::new(RefCell::new(OnceState {
        value: None,
        sender_alive: true,
        waker: None,
    }));
    (
        OnceSender {
            state: Rc::clone(&state),
        },
        OnceReceiver { state },
    )
}

impl<T> OnceSender<T> {
    /// Delivers the value, consuming the sender.
    pub fn send(self, value: T) {
        let mut s = self.state.borrow_mut();
        s.value = Some(value);
        if let Some(w) = s.waker.take() {
            drop(s);
            w.wake();
        }
    }
}

impl<T> Drop for OnceSender<T> {
    fn drop(&mut self) {
        let mut s = self.state.borrow_mut();
        s.sender_alive = false;
        if let Some(w) = s.waker.take() {
            drop(s);
            w.wake();
        }
    }
}

impl<T> OnceReceiver<T> {
    /// Waits for the value; `None` if the sender was dropped without sending
    /// (e.g. destroyed by crash injection).
    pub async fn recv(self) -> Option<T> {
        poll_fn(|cx| {
            let mut s = self.state.borrow_mut();
            if let Some(v) = s.value.take() {
                return Poll::Ready(Some(v));
            }
            if !s.sender_alive {
                return Poll::Ready(None);
            }
            s.waker = Some(cx.waker().clone());
            Poll::Pending
        })
        .await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sim, SimDuration};
    use std::cell::Cell;

    #[test]
    fn unbounded_passes_values_in_order() {
        let mut sim = Sim::new(0);
        let (tx, rx) = unbounded();
        let out = Rc::new(RefCell::new(Vec::new()));
        let out2 = Rc::clone(&out);
        sim.spawn(async move {
            for i in 0..5 {
                tx.try_send(i).expect("receiver alive");
            }
        });
        sim.spawn(async move {
            while let Some(v) = rx.recv().await {
                out2.borrow_mut().push(v);
            }
        });
        sim.run();
        assert_eq!(*out.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn recv_returns_none_after_all_senders_drop() {
        let mut sim = Sim::new(0);
        let (tx, rx) = unbounded::<u32>();
        let tx2 = tx.clone();
        let done = Rc::new(Cell::new(false));
        let done2 = Rc::clone(&done);
        sim.spawn(async move {
            tx.try_send(1).unwrap();
            drop(tx);
            tx2.try_send(2).unwrap();
            drop(tx2);
        });
        sim.spawn(async move {
            assert_eq!(rx.recv().await, Some(1));
            assert_eq!(rx.recv().await, Some(2));
            assert_eq!(rx.recv().await, None);
            done2.set(true);
        });
        sim.run();
        assert!(done.get());
    }

    #[test]
    fn bounded_send_applies_backpressure() {
        let mut sim = Sim::new(0);
        let ctx = sim.ctx();
        let (tx, rx) = bounded::<u32>(2);
        let sent_at = Rc::new(RefCell::new(Vec::new()));
        let sa = Rc::clone(&sent_at);
        let c2 = ctx.clone();
        sim.spawn(async move {
            for i in 0..4 {
                tx.send(i).await.unwrap();
                sa.borrow_mut().push((i, c2.now().as_millis()));
            }
        });
        sim.spawn({
            let ctx = ctx.clone();
            async move {
                ctx.sleep(SimDuration::from_millis(10)).await;
                assert_eq!(rx.recv().await, Some(0));
                ctx.sleep(SimDuration::from_millis(10)).await;
                assert_eq!(rx.recv().await, Some(1));
                assert_eq!(rx.recv().await, Some(2));
                assert_eq!(rx.recv().await, Some(3));
            }
        });
        sim.run();
        let v = sent_at.borrow();
        assert_eq!(v[0], (0, 0));
        assert_eq!(v[1], (1, 0));
        assert_eq!(v[2], (2, 10), "third send waited for a slot");
        assert_eq!(v[3], (3, 20), "fourth send waited for a slot");
    }

    #[test]
    fn try_send_full_and_closed() {
        let mut sim = Sim::new(0);
        let (tx, rx) = bounded::<u32>(1);
        sim.spawn(async move {
            tx.try_send(1).unwrap();
            assert_eq!(tx.try_send(2), Err(TrySendError::Full(2)));
            assert_eq!(rx.try_recv(), Some(1));
            drop(rx);
            assert_eq!(tx.try_send(3), Err(TrySendError::Closed(3)));
        });
        sim.run();
    }

    #[test]
    fn send_fails_when_receiver_dropped_while_waiting() {
        let mut sim = Sim::new(0);
        let ctx = sim.ctx();
        let (tx, rx) = bounded::<u32>(1);
        let failed = Rc::new(Cell::new(false));
        let f2 = Rc::clone(&failed);
        sim.spawn(async move {
            tx.try_send(0).unwrap();
            // This send blocks (channel full) until the receiver dies.
            assert_eq!(tx.send(1).await, Err(SendError(1)));
            f2.set(true);
        });
        sim.spawn(async move {
            ctx.sleep(SimDuration::from_millis(1)).await;
            drop(rx);
        });
        sim.run();
        assert!(failed.get());
    }

    #[test]
    fn oneshot_roundtrip_and_drop() {
        let mut sim = Sim::new(0);
        let done = Rc::new(Cell::new(0));
        let (tx, rx) = oneshot::<&str>();
        let d = Rc::clone(&done);
        sim.spawn(async move {
            assert_eq!(rx.recv().await, Some("hello"));
            d.set(d.get() + 1);
        });
        sim.spawn(async move {
            tx.send("hello");
        });
        let (tx2, rx2) = oneshot::<&str>();
        let d = Rc::clone(&done);
        sim.spawn(async move {
            assert_eq!(rx2.recv().await, None);
            d.set(d.get() + 1);
        });
        sim.spawn(async move {
            drop(tx2);
        });
        sim.run();
        assert_eq!(done.get(), 2);
    }

    /// Re-polling a blocked `recv` (as `timeout`/select races do on every
    /// poll of the racing task) must not grow the waiter list: duplicates
    /// are rejected by `Waker::will_wake`.
    #[test]
    fn repolled_recv_does_not_grow_the_waiter_list() {
        let mut sim = Sim::new(0);
        let ctx = sim.ctx();
        let (tx, rx) = unbounded::<u32>();
        let state = Rc::clone(&rx.state);
        sim.spawn({
            let ctx = ctx.clone();
            async move {
                // Each loop iteration re-polls the pending recv once more.
                for _ in 0..16 {
                    let got = ctx.timeout(SimDuration::from_millis(1), rx.recv()).await;
                    assert_eq!(got, None, "nothing sent yet");
                }
                drop(tx);
                assert_eq!(rx.recv().await, None);
            }
        });
        // Let a few timeout rounds elapse, each of which re-polls recv.
        sim.run_until(crate::SimTime::from_millis(5));
        assert_eq!(
            state.borrow().recv_wakers.len(),
            1,
            "one waiting task, one waker, regardless of re-polls"
        );
        sim.run();
        assert!(state.borrow().recv_wakers.is_empty());
    }

    #[test]
    fn receiver_survives_sender_killed_by_domain() {
        let mut sim = Sim::new(0);
        let ctx = sim.ctx();
        let d = ctx.create_domain();
        let (tx, rx) = unbounded::<u32>();
        let got_none = Rc::new(Cell::new(false));
        let g2 = Rc::clone(&got_none);
        ctx.spawn_in(d, {
            let ctx = ctx.clone();
            async move {
                tx.try_send(9).unwrap();
                // Holds `tx` forever — until the domain is killed.
                ctx.sleep(SimDuration::from_secs(3600)).await;
                drop(tx);
            }
        });
        sim.spawn(async move {
            assert_eq!(rx.recv().await, Some(9));
            // After the crash, the sender is gone: recv ends cleanly.
            assert_eq!(rx.recv().await, None);
            g2.set(true);
        });
        sim.spawn({
            let ctx = ctx.clone();
            async move {
                ctx.sleep(SimDuration::from_millis(5)).await;
                ctx.kill_domain(d);
            }
        });
        sim.run();
        assert!(got_none.get(), "crash released the channel");
    }
}
