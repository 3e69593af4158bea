#![warn(missing_docs)]

//! Benchmark workloads: TPC-C (subset), TPC-B/pgbench, and microbenchmarks.
//!
//! The paper evaluates RapiLog with OLTP workloads driven against several
//! database engines. This crate provides:
//!
//! * [`tpcc`] — a faithful subset of TPC-C: the full nine-table schema,
//!   NURand key selection, the five transaction types with the standard
//!   mix, and a scalable loader. Rows are real encoded structs; the
//!   transactions do real reads/updates/inserts through the engine API.
//! * [`tpcb`] — the pgbench default scenario (TPC-B-ish): accounts,
//!   tellers, branches, history.
//! * [`micro`] — a commit storm: minimal transactions that isolate the
//!   commit path, used for the latency-anatomy figure.
//! * [`session`] — the client/server boundary: clients submit whole
//!   transactions, each of which runs as a task *inside the database's
//!   cancellation domain*, so a guest crash kills transactions mid-flight
//!   exactly like a real kernel panic under a DBMS.
//! * [`client`] — the measurement driver: N clients, warmup, steady-state
//!   window, per-transaction latency histograms, tpmC.
//! * [`fleet`] — fleet-scale load: thousands of sessions zipf-split over
//!   many cells, one concurrent driver per cell, per-cell fairness stats.

pub mod client;
pub mod fleet;
pub mod micro;
pub mod session;
pub mod tpcb;
pub mod tpcc;

pub use client::{RunConfig, RunStats};
pub use fleet::{run_fleet, FleetConfig, FleetStats};
pub use session::{DbServer, JobOutcome};
