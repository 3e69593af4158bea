//! The reference scheduling core: the executor's original data structures,
//! kept as the obviously-correct baseline for differential testing.
//!
//! Tasks live in a `HashMap` keyed by a monotonically increasing id; the
//! ready queue is a mutexed `VecDeque` with a `HashSet` dedup; timers sit
//! in a `BinaryHeap` ordered by `(deadline, registration seq)`. Every
//! operation is the straightforward textbook one — O(log n) timers,
//! hashing on every wake — which is exactly why it stays: a simulation run
//! on this core must be bit-identical to one on the production core, and any
//! divergence convicts the fast core, not the test.
//!
//! The one deliberate difference from the pre-wheel executor: a killed
//! domain's tasks drop in *spawn order* (sorted ids) rather than hash-map
//! iteration order, matching the wheel core so crash-injection drop order
//! is deterministic and differentially comparable.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
use std::sync::{Arc, Mutex};
use std::task::{Wake, Waker};

use super::{LocalFuture, TaskBody, TaskKey, TimerKey};
use crate::cancel::DomainId;

struct ReadyQueue {
    queue: VecDeque<u64>,
    enqueued: HashSet<u64>,
}

struct WakeHandle {
    tid: u64,
    ready: Arc<Mutex<ReadyQueue>>,
}

impl WakeHandle {
    fn enqueue(&self) {
        let mut ready = self.ready.lock().expect("ready queue poisoned");
        if ready.enqueued.insert(self.tid) {
            ready.queue.push_back(self.tid);
        }
    }
}

impl Wake for WakeHandle {
    fn wake(self: Arc<Self>) {
        self.enqueue();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.enqueue();
    }
}

struct RefTimerCell {
    gen: u32,
    waker: Option<Waker>,
}

/// See the module docs; the API mirrors [`WheelSched`](super::wheel::WheelSched).
pub(crate) struct RefSched {
    tasks: HashMap<u64, TaskBody>,
    next_task_id: u64,
    ready: Arc<Mutex<ReadyQueue>>,
    /// Min-heap of `(deadline, registration seq, cell index)`.
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
    cells: Vec<RefTimerCell>,
    cell_free: Vec<u32>,
    timer_seq: u64,
}

impl RefSched {
    pub(crate) fn new() -> RefSched {
        RefSched {
            tasks: HashMap::new(),
            next_task_id: 0,
            ready: Arc::new(Mutex::new(ReadyQueue {
                queue: VecDeque::new(),
                enqueued: HashSet::new(),
            })),
            heap: BinaryHeap::new(),
            cells: Vec::new(),
            cell_free: Vec::new(),
            timer_seq: 0,
        }
    }

    // ---- tasks ----------------------------------------------------------

    pub(crate) fn spawn(&mut self, domain: DomainId, future: LocalFuture) -> TaskKey {
        let tid = self.next_task_id;
        self.next_task_id += 1;
        let handle = Arc::new(WakeHandle {
            tid,
            ready: Arc::clone(&self.ready),
        });
        let waker = Waker::from(Arc::clone(&handle));
        self.tasks.insert(
            tid,
            TaskBody {
                future,
                domain,
                waker,
            },
        );
        handle.enqueue();
        TaskKey(tid)
    }

    pub(crate) fn pop_ready(&mut self) -> Option<TaskKey> {
        let mut ready = self.ready.lock().expect("ready queue poisoned");
        let tid = ready.queue.pop_front()?;
        ready.enqueued.remove(&tid);
        Some(TaskKey(tid))
    }

    pub(crate) fn take_body(&mut self, key: TaskKey) -> Option<TaskBody> {
        self.tasks.remove(&key.0)
    }

    pub(crate) fn reinsert(&mut self, key: TaskKey, body: TaskBody) {
        self.tasks.insert(key.0, body);
    }

    pub(crate) fn finish(&mut self, _key: TaskKey) {
        // take_body already removed the entry; ids are never reused.
    }

    pub(crate) fn live_tasks(&self) -> usize {
        self.tasks.len()
    }

    pub(crate) fn drain_domain(&mut self, domain: DomainId) -> Vec<TaskBody> {
        let mut doomed: Vec<u64> = self
            .tasks
            .iter()
            .filter(|(_, body)| body.domain == domain)
            .map(|(&tid, _)| tid)
            .collect();
        doomed.sort_unstable(); // spawn order: ids are monotonic
        doomed
            .into_iter()
            .map(|tid| self.tasks.remove(&tid).expect("doomed task present"))
            .collect()
    }

    // ---- timers ---------------------------------------------------------

    pub(crate) fn register_timer(&mut self, deadline: u64, waker: Waker) -> TimerKey {
        let idx = match self.cell_free.pop() {
            Some(idx) => idx,
            None => {
                self.cells.push(RefTimerCell {
                    gen: 0,
                    waker: None,
                });
                (self.cells.len() - 1) as u32
            }
        };
        let cell = &mut self.cells[idx as usize];
        cell.waker = Some(waker);
        let key = TimerKey(((cell.gen as u64) << 32) | idx as u64);
        self.heap.push(Reverse((deadline, self.timer_seq, idx)));
        self.timer_seq += 1;
        key
    }

    pub(crate) fn update_timer_waker(&mut self, key: TimerKey, waker: &Waker) {
        let idx = key.0 as u32;
        let gen = (key.0 >> 32) as u32;
        let Some(cell) = self.cells.get_mut(idx as usize) else {
            return;
        };
        if cell.gen != gen {
            return;
        }
        if let Some(current) = &mut cell.waker {
            if !current.will_wake(waker) {
                *current = waker.clone();
            }
        }
    }

    pub(crate) fn advance_timers(&mut self, limit: u64, fired: &mut Vec<Waker>) -> Option<u64> {
        let &Reverse((deadline, _, _)) = self.heap.peek()?;
        if deadline > limit {
            return None;
        }
        // Pop every entry at exactly this instant; the heap yields them in
        // registration order because seq breaks deadline ties.
        while let Some(&Reverse((d, _, _))) = self.heap.peek() {
            if d != deadline {
                break;
            }
            let Reverse((_, _, idx)) = self.heap.pop().expect("peeked entry pops");
            let cell = &mut self.cells[idx as usize];
            let waker = cell.waker.take().expect("pending timer cell has a waker");
            cell.gen = cell.gen.wrapping_add(1);
            self.cell_free.push(idx);
            fired.push(waker);
        }
        Some(deadline)
    }

    #[cfg(test)]
    pub(crate) fn timer_count(&self) -> usize {
        self.heap.len()
    }
}
