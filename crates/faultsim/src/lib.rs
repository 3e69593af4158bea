#![warn(missing_docs)]

//! Fault injection and durability auditing.
//!
//! This crate assembles whole machines — disks, power supply, hypervisor,
//! guest VM, database — in the paper's three configurations
//! ([`Setup::Native`], [`Setup::Virtualized`], [`Setup::RapiLog`]), injects
//! the paper's two failure classes (guest/OS crash and mains power cut) at
//! chosen instants, and audits the recovered database against the
//! client-side acknowledgement journal:
//!
//! * **I1 (durability)** — every acknowledged commit is present after
//!   recovery;
//! * **I2 (atomicity)** — no transaction is half-present;
//! * **no phantoms** — nothing newer than the last *attempted* write
//!   appears.
//!
//! Table 2 of the reproduction is a campaign of these trials; the
//! [`scenario`] module is its engine.
//!
//! The crash trial's co-tenants and the failover trials' clients are one
//! audited guest writer, with one [`WriterJournal`] each and one media
//! audit (acked ≤ media seq ≤ attempted, only its own bytes, byte-exact).
//!
//! The [`failover`] module extends the campaign across machines: a
//! replicated primary/standby pair over a faulty simulated network, with
//! crash-failover scenarios auditing the promoted standby against the
//! primary's acknowledgement journal (sync mode serves everything acked;
//! async mode reports an exact replication lag).
//!
//! Campaigns are swept by one explorer: [`explore`] runs any [`Trial`]'s
//! grid on any number of host threads and returns the same
//! [`Exploration`] at every thread count, each violation a
//! [`Counterexample`] that replays from its point. The crash-point grid
//! ([`ExplorerConfig`], in [`crash`]) and the failover grid
//! ([`FailoverExplorerConfig`]) are its two impls.

pub mod crash;
pub mod explorer;
pub mod failover;
mod guest;
pub mod machine;
pub mod scenario;

pub use crash::{CrashPoint, ExplorationReport, ExplorerConfig};
pub use explorer::{explore, run_parallel, Counterexample, Exploration, Trial};
pub use failover::{
    mode_label, run_failover_trial, run_standby_trial, FailoverConfig, FailoverExplorerConfig,
    FailoverKind, FailoverPoint, FailoverReport, FailoverResult, StandbyTrialConfig,
    StandbyTrialResult,
};
pub use guest::WriterJournal;
pub use machine::{Machine, MachineConfig, Setup};
pub use scenario::{
    run_trial, run_trial_traced, FaultKind, FaultStats, RecoverySweep, TrialConfig, TrialResult,
};
