//! The simulation's one channel: an unbounded multi-producer queue, which
//! carries `simnet`'s link messages. A task's result comes back through its
//! [`JoinHandle`](crate::JoinHandle), not through a channel.
//!
//! The channel is `!Send`: the executor is single-threaded, so state lives
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
    recv_wakers: Vec<Waker>,
    senders: usize,
    receiver_alive: bool,
}

impl<T> ChanState<T> {
    fn wake_receivers(&mut self) {
        for w in self.recv_wakers.drain(..) {
            w.wake();
        }
    }
}

/// Error returned by [`Sender::try_send`] when the receiver is gone.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "receiver dropped")
    }
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
    let state = Rc::new(RefCell::new(ChanState {
        queue: VecDeque::new(),
        recv_wakers: Vec::new(),
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
    /// Enqueues `value`; fails only once the receiver is gone.
    pub fn try_send(&self, value: T) -> Result<(), SendError<T>> {
        let mut s = self.state.borrow_mut();
        if !s.receiver_alive {
            return Err(SendError(value));
        }
        s.queue.push_back(value);
        s.wake_receivers();
        Ok(())
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
        self.state.borrow_mut().queue.pop_front()
    }

    /// Waits for the next value. Resolves to `None` once every sender has
    /// been dropped and the queue has drained.
    pub async fn recv(&self) -> Option<T> {
        poll_fn(|cx| {
            let mut s = self.state.borrow_mut();
            if let Some(v) = s.queue.pop_front() {
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
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.state.borrow_mut().receiver_alive = false;
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
    fn try_send_fails_once_the_receiver_is_gone() {
        let (tx, rx) = unbounded::<u32>();
        tx.try_send(1).unwrap();
        assert_eq!(rx.try_recv(), Some(1));
        drop(rx);
        assert_eq!(tx.try_send(3), Err(SendError(3)));
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
