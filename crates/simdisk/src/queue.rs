//! The queued half of the [`BlockDevice`] interface, written once.
//!
//! A device implements a request in one place, [`BlockDevice::exec`], which
//! carries it to completion in the caller's task. The queued form is derived
//! from that here: [`IoQueue::submit`] hands out a token, runs `exec` in a
//! task of its own and files the result; the queue remembers finished
//! requests until the caller collects them and wakes whoever is waiting. It
//! is shared by the simulated [`Disk`](crate::Disk), the virtio transport,
//! the retrying wrapper and the RapiLog virtual device, and is deliberately
//! dumb — *when* a request finishes is entirely the device's business; the
//! queue only routes the result back to the submitter.
//!
//! [`BlockDevice`]: crate::BlockDevice
//! [`BlockDevice::exec`]: crate::BlockDevice::exec

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use rapilog_simcore::bytes::SectorBuf;
use rapilog_simcore::sync::Notify;
use rapilog_simcore::{DomainId, SimCtx};

use crate::{BlockDevice, IoReq, IoResult, ReqToken};

/// What the mailbox stores per finished request: what `exec` returned
/// (a completed read carries its payload).
type Finished = IoResult<Option<SectorBuf>>;

/// Token allocator plus completion mailbox for one device instance.
///
/// Single-threaded (sim tasks are cooperative), so plain `Cell`/`RefCell`
/// interior mutability is enough. A device's `submit` is
/// [`submit`](IoQueue::submit) on its queue; submitters call
/// [`wait`](IoQueue::wait) for their token's result. A submitter that no
/// longer wants a result calls [`forget`](IoQueue::forget) instead of
/// claiming it.
#[derive(Default)]
pub struct IoQueue {
    next_token: Cell<u64>,
    done: RefCell<HashMap<u64, Finished>>,
    /// Tokens forgotten while still in flight: their completions are
    /// dropped on arrival.
    forgotten: RefCell<HashSet<u64>>,
    outstanding: Cell<u32>,
    max_outstanding: Cell<u32>,
    notify: Notify,
}

impl IoQueue {
    /// Creates an empty queue.
    pub fn new() -> IoQueue {
        IoQueue::default()
    }

    /// The queued form of `dev.exec(req)`: issues the token, carries the
    /// request to completion in a task of its own and files the result
    /// under the token. `dev` is the device's own (cheap) clone of itself,
    /// which the task keeps alive.
    pub fn submit<D>(self: &Rc<IoQueue>, ctx: &SimCtx, dev: D, req: IoReq) -> ReqToken
    where
        D: BlockDevice + 'static,
    {
        let token = self.issue();
        let queue = Rc::clone(self);
        ctx.spawn_detached_in(DomainId::ROOT, async move {
            let outcome = dev.exec(req).await;
            queue.finish(token, outcome);
        });
        token
    }

    /// Allocates the token for a freshly submitted request and counts it
    /// as outstanding.
    pub fn issue(&self) -> ReqToken {
        let t = self.next_token.get();
        self.next_token.set(t + 1);
        let out = self.outstanding.get() + 1;
        self.outstanding.set(out);
        if out > self.max_outstanding.get() {
            self.max_outstanding.set(out);
        }
        ReqToken(t)
    }

    /// Records the outcome of a request — what its `exec` returned — and
    /// wakes every waiter.
    pub fn finish(&self, token: ReqToken, outcome: IoResult<Option<SectorBuf>>) {
        self.outstanding
            .set(self.outstanding.get().saturating_sub(1));
        if self.forgotten.borrow_mut().remove(&token.0) {
            return; // nobody will claim it: free the payload now
        }
        self.done.borrow_mut().insert(token.0, outcome);
        self.notify.notify_all();
    }

    /// Gives up the claim on `token` without waiting for it. A result that
    /// has already arrived is dropped now; one still in flight is dropped
    /// when the device [`finish`](IoQueue::finish)es it. The request itself
    /// still runs to completion on the device. Counts as the token's one
    /// claim.
    pub fn forget(&self, token: ReqToken) {
        if self.done.borrow_mut().remove(&token.0).is_none() {
            self.forgotten.borrow_mut().insert(token.0);
        }
    }

    /// Requests submitted but not yet finished.
    pub fn outstanding(&self) -> u32 {
        self.outstanding.get()
    }

    /// High-water mark of [`outstanding`](IoQueue::outstanding) over the
    /// queue's lifetime.
    pub fn max_outstanding(&self) -> u32 {
        self.max_outstanding.get()
    }

    /// Waits for the request identified by `token` and takes its result.
    /// Each token must be claimed exactly once, through either `wait` or
    /// [`forget`](IoQueue::forget).
    pub async fn wait(&self, token: ReqToken) -> IoResult<Option<SectorBuf>> {
        loop {
            if let Some(outcome) = self.done.borrow_mut().remove(&token.0) {
                return outcome;
            }
            self.notify.notified().await;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IoError;
    use rapilog_simcore::Sim;

    #[test]
    fn wait_returns_result_for_its_own_token() {
        let mut sim = Sim::new(7);
        let q = Rc::new(IoQueue::new());
        let a = q.issue();
        let b = q.issue();
        assert_ne!(a, b);
        assert_eq!(q.outstanding(), 2);
        let q2 = Rc::clone(&q);
        sim.spawn(async move {
            let got = q2.wait(b).await;
            assert_eq!(got, Err(IoError::Transient));
            let got = q2.wait(a).await;
            assert_eq!(got, Ok(None));
        });
        q.finish(b, Err(IoError::Transient));
        q.finish(a, Ok(None));
        sim.run();
        assert_eq!(q.outstanding(), 0);
        assert_eq!(q.max_outstanding(), 2);
    }

    #[test]
    fn forget_before_finish_drops_the_completion_on_arrival() {
        let q = IoQueue::new();
        let a = q.issue();
        q.forget(a);
        assert_eq!(q.outstanding(), 1, "the request itself still runs");
        q.finish(a, Ok(Some(SectorBuf::from_vec(vec![7u8; 512]))));
        assert_eq!(q.outstanding(), 0);
        assert!(q.done.borrow().is_empty(), "payload freed, not parked");
        assert!(q.forgotten.borrow().is_empty());
    }

    #[test]
    fn forget_after_finish_removes_the_completion() {
        let q = IoQueue::new();
        let a = q.issue();
        q.finish(a, Err(IoError::Transient));
        assert_eq!(q.done.borrow().len(), 1);
        q.forget(a);
        assert_eq!(q.outstanding(), 0);
        assert!(q.done.borrow().is_empty());
        assert!(q.forgotten.borrow().is_empty());
    }
}
