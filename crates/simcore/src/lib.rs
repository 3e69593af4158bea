#![warn(missing_docs)]

//! Deterministic discrete-event simulation (DES) kernel for the RapiLog
//! reproduction suite.
//!
//! Every other crate in this workspace — the disk models, the power-supply
//! models, the microvisor, the database engine and the workload drivers —
//! runs on top of this kernel. It provides:
//!
//! * a **virtual clock** ([`SimTime`], [`SimDuration`]) with nanosecond
//!   resolution;
//! * a single-threaded **async executor** ([`Sim`]) that advances the clock
//!   only when no task is runnable, so simulated time is decoupled from wall
//!   time;
//! * **timers** (`sleep`, `sleep_until`, `timeout`);
//! * **channels** ([`chan`]) and **synchronisation primitives** ([`sync`])
//!   whose wakeups are ordered deterministically;
//! * **cancellation domains** ([`cancel`]) used for crash injection: killing
//!   a domain atomically drops every task spawned in it, which is how a
//!   guest-OS crash is modelled;
//! * a seeded, forkable **random number generator** ([`rng`]);
//! * log-bucketed latency **histograms** ([`stats`]); and
//! * **structured tracing** ([`trace`]): zero-cost-when-disabled spans and
//!   instants keyed to virtual time, exportable as JSON-lines or Chrome
//!   `trace_event` JSON for Perfetto.
//!
//! # Determinism
//!
//! The executor is single-threaded, its ready queue is FIFO, timer ties are
//! broken by registration order, and all randomness flows from one master
//! seed. Two runs with the same seed therefore produce bit-identical event
//! traces — the property the fault-injection experiments rely on to place
//! power cuts at exact instants.
//!
//! Two interchangeable scheduling cores ([`SchedulerKind`]) implement that
//! contract: the default production core (fast) and a retained
//! reference scheduler (obviously correct), selected per simulation with
//! [`Sim::new_with_scheduler`] and proven equivalent by differential tests.
//!
//! # Examples
//!
//! ```
//! use rapilog_simcore::{Sim, SimDuration};
//!
//! let mut sim = Sim::new(42);
//! let ctx = sim.ctx();
//! sim.spawn(async move {
//!     ctx.sleep(SimDuration::from_millis(5)).await;
//!     assert_eq!(ctx.now().as_millis(), 5);
//! });
//! sim.run();
//! ```

pub mod bytes;
pub mod cancel;
pub mod chan;
pub mod exec;
pub mod hash;
pub mod rng;
mod sched;
pub mod stats;
pub mod sync;
pub mod time;
pub mod trace;

pub use bytes::{SectorBuf, SectorPool};
pub use cancel::DomainId;
pub use exec::{JoinHandle, RunReport, SchedulerKind, Sim, SimCtx};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use trace::{LatencyAttribution, Layer, Payload, TraceSnapshot, Tracer};
