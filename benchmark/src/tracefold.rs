//! Drives the program's *own* tracer (`simcore::trace`) through its public
//! switch for a traced run and folds what it records into per-layer
//! simulated busy time. No instrumentation is added to any crate.
//!
//! A long run emits far more events than fit in memory, so the ring is
//! folded with `Tracer::latency_attribution` and cleared whenever it is
//! half full. A span open across a fold loses its begin and is not counted
//! (at most one per layer and fold; a fold covers ~0.5 M events).

use std::rc::Rc;

use rapilog_simcore::trace::{Layer, Tracer};
use rapilog_simcore::SimCtx;

/// Ring size in events; a fold happens at half of it, so one harness step
/// may emit up to `CAPACITY / 2` events before anything is dropped.
const CAPACITY: usize = 1 << 20;

pub struct TraceFold {
    tracer: Rc<Tracer>,
    busy_ns: [u64; Layer::ALL.len()],
    pub dropped: u64,
}

impl TraceFold {
    /// Switches the tracer on with an empty ring.
    pub fn start(ctx: &SimCtx) -> TraceFold {
        let tracer = ctx.tracer();
        tracer.set_capacity(CAPACITY);
        tracer.clear();
        tracer.set_enabled(true);
        TraceFold {
            tracer,
            busy_ns: [0; Layer::ALL.len()],
            dropped: 0,
        }
    }

    /// Call after every harness step; folds when the ring is half full.
    pub fn step(&mut self) {
        if self.tracer.len() >= CAPACITY / 2 {
            self.fold();
        }
    }

    fn fold(&mut self) {
        let len = self.tracer.len();
        if len == CAPACITY {
            // Only a full ring can have evicted; the count costs a copy.
            self.dropped += self.tracer.snapshot().dropped;
        }
        let folded = self.tracer.latency_attribution(1);
        for l in &folded.layers {
            self.busy_ns[l.layer as usize] += l.busy.as_nanos();
        }
        self.tracer.clear();
    }

    /// Folds the rest and switches the tracer off.
    pub fn finish(&mut self) {
        self.fold();
        self.tracer.set_enabled(false);
    }

    /// Simulated busy microseconds of `layer` per operation.
    pub fn us_per_op(&self, layer: Layer, ops: u64) -> f64 {
        self.busy_ns[layer as usize] as f64 / 1e3 / ops.max(1) as f64
    }
}
