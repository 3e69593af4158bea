//! Row-level exclusive locks (strict two-phase locking).
//!
//! Writers take exclusive row locks that are held until the transaction's
//! commit record is **durable** (strict 2PL). This is deliberately the
//! textbook behaviour: it couples lock hold times to commit latency, which
//! is exactly the amplification RapiLog removes — on a synchronous HDD log
//! a hot row serialises at one rotation per transaction, while under
//! RapiLog the hold time collapses to the buffer-ack time.
//!
//! Reads in this engine do not take locks (read-committed-style reads of
//! slot images); write-write conflicts are what matter for the durability
//! and atomicity audits. Deadlocks are broken by a wait timeout, after
//! which the caller must abort and retry.

use std::cell::RefCell;
use std::future::poll_fn;
use std::rc::Rc;
use std::task::{Poll, Waker};

use rapilog_simcore::hash::FastMap;
use rapilog_simcore::{SimCtx, SimDuration};

use crate::error::{DbError, DbResult};
use crate::types::{Key, TableId, TxnId};

struct LockEntry {
    holder: TxnId,
    wakers: Vec<Waker>,
}

/// The lock table.
#[derive(Clone)]
pub struct LockTable {
    st: Rc<RefCell<FastMap<(TableId, Key), LockEntry>>>,
    timeout: SimDuration,
}

impl LockTable {
    /// Creates a lock table with the given deadlock-breaking wait timeout.
    pub fn new(timeout: SimDuration) -> LockTable {
        LockTable {
            st: Rc::new(RefCell::new(FastMap::default())),
            timeout,
        }
    }

    /// Acquires (or re-enters) the exclusive lock on `(table, key)` for
    /// `txn`. Returns [`DbError::LockTimeout`] if the wait exceeds the
    /// configured timeout — the caller must abort `txn`.
    pub async fn acquire(
        &self,
        ctx: &SimCtx,
        txn: TxnId,
        table: TableId,
        key: Key,
    ) -> DbResult<()> {
        let attempt = poll_fn(|cx| {
            let mut st = self.st.borrow_mut();
            let e = st.entry((table, key)).or_insert(LockEntry {
                holder: txn,
                wakers: Vec::new(),
            });
            if e.holder == txn {
                return Poll::Ready(());
            }
            e.wakers.push(cx.waker().clone());
            Poll::Pending
        });
        let acquired = ctx.timeout(self.timeout, attempt).await;
        acquired.ok_or(DbError::LockTimeout(txn))
    }

    /// Releases every lock held by `txn` over the listed keys (end of
    /// transaction). Keys the transaction does not hold are ignored —
    /// that happens when an acquire timed out after a retry already
    /// released.
    pub fn release_all<'a>(&self, txn: TxnId, keys: impl Iterator<Item = &'a (TableId, Key)>) {
        let mut woken = Vec::new();
        {
            let mut st = self.st.borrow_mut();
            for k in keys {
                if st.get(k).is_some_and(|e| e.holder == txn) {
                    woken.extend(st.remove(k).expect("entry vanished").wakers);
                }
            }
        }
        for w in woken {
            w.wake();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapilog_simcore::Sim;
    use std::cell::Cell as StdCell;

    const T: TableId = TableId(1);

    #[test]
    fn exclusive_lock_serialises_writers() {
        let mut sim = Sim::new(0);
        let ctx = sim.ctx();
        let lt = LockTable::new(SimDuration::from_secs(10));
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..3u64 {
            let lt = lt.clone();
            let ctx = ctx.clone();
            let order = Rc::clone(&order);
            sim.spawn(async move {
                let txn = TxnId(i);
                lt.acquire(&ctx, txn, T, 42).await.unwrap();
                order.borrow_mut().push((i, "in"));
                ctx.sleep(SimDuration::from_millis(1)).await;
                order.borrow_mut().push((i, "out"));
                lt.release_all(txn, [(T, 42)].iter());
            });
        }
        sim.run();
        let o = order.borrow();
        // Strict alternation: nobody enters before the previous leaves.
        for pair in o.chunks(2) {
            assert_eq!(pair[0].0, pair[1].0);
            assert_eq!(pair[0].1, "in");
            assert_eq!(pair[1].1, "out");
        }
        assert_eq!(lt.st.borrow().len(), 0);
    }

    #[test]
    fn reentrant_acquire_by_same_txn() {
        let mut sim = Sim::new(0);
        let ctx = sim.ctx();
        let lt = LockTable::new(SimDuration::from_secs(1));
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        let l2 = lt.clone();
        sim.spawn(async move {
            let txn = TxnId(9);
            l2.acquire(&ctx, txn, T, 1).await.unwrap();
            l2.acquire(&ctx, txn, T, 1).await.unwrap();
            l2.release_all(txn, [(T, 1)].iter());
            d2.set(true);
        });
        sim.run();
        assert!(done.get());
        assert_eq!(lt.st.borrow().len(), 0);
    }

    #[test]
    fn lock_timeout_breaks_deadlock() {
        let mut sim = Sim::new(0);
        let ctx = sim.ctx();
        let lt = LockTable::new(SimDuration::from_millis(50));
        let outcomes = Rc::new(RefCell::new(Vec::new()));
        // Classic AB-BA deadlock.
        for (i, (first, second)) in [(1u64, 2u64), (2, 1)].iter().enumerate() {
            let lt = lt.clone();
            let ctx = ctx.clone();
            let outcomes = Rc::clone(&outcomes);
            let (first, second) = (*first, *second);
            sim.spawn(async move {
                let txn = TxnId(i as u64);
                lt.acquire(&ctx, txn, T, first).await.unwrap();
                ctx.sleep(SimDuration::from_millis(1)).await;
                let r = lt.acquire(&ctx, txn, T, second).await;
                outcomes.borrow_mut().push(r.clone());
                // Abort path: release whatever we hold.
                lt.release_all(txn, [(T, first), (T, second)].iter());
            });
        }
        sim.run();
        let o = outcomes.borrow();
        assert_eq!(o.len(), 2);
        let timeouts = o.iter().filter(|r| r.is_err()).count();
        assert!(timeouts >= 1, "at least one side must time out: {o:?}");
        assert_eq!(
            lt.st.borrow().len(),
            0,
            "all locks released after the storm"
        );
    }

    #[test]
    fn release_wakes_waiter_promptly() {
        let mut sim = Sim::new(0);
        let ctx = sim.ctx();
        let lt = LockTable::new(SimDuration::from_secs(10));
        let acquired_at = Rc::new(StdCell::new(0u64));
        let l1 = lt.clone();
        sim.spawn({
            let ctx = ctx.clone();
            async move {
                l1.acquire(&ctx, TxnId(1), T, 5).await.unwrap();
                ctx.sleep(SimDuration::from_millis(3)).await;
                l1.release_all(TxnId(1), [(T, 5)].iter());
            }
        });
        let l2 = lt.clone();
        let a2 = Rc::clone(&acquired_at);
        sim.spawn({
            let ctx = ctx.clone();
            async move {
                ctx.sleep(SimDuration::from_millis(1)).await;
                l2.acquire(&ctx, TxnId(2), T, 5).await.unwrap();
                a2.set(ctx.now().as_millis());
                l2.release_all(TxnId(2), [(T, 5)].iter());
            }
        });
        sim.run();
        assert_eq!(acquired_at.get(), 3, "woken exactly at release");
    }
}
