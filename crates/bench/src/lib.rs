#![warn(missing_docs)]

//! Benchmark harness for the paper's (reconstructed) tables and figures.
//!
//! The one binary, `figures` under `src/bin/`, regenerates every one of
//! them, the ablations and the fault gates (`figures <name>` one) and
//! prints the rows the reproduction records in EXPERIMENTS.md. This library
//! holds the shared machinery:
//!
//! * [`perf::run_perf`] — a complete performance run: assemble a machine in
//!   one of the three setups, install and load a workload, drive it with
//!   closed-loop clients, return the measured statistics;
//! * [`parallel`] — how many host threads a bench fans its trials out
//!   over; the fan-out itself (`faultsim::run_parallel`, and sweeps
//!   through `faultsim::explore`) merges results in job order, so N-thread
//!   runs are bit-identical to 1-thread runs;
//! * [`json`] — a tiny hand-rolled JSON emitter for the machine-readable
//!   `BENCH_*.json` artifacts;
//! * [`alloc`] — a counting global allocator for allocations-per-operation
//!   assertions in the microbenchmarks;
//! * [`table`] — plain-text table formatting for the harness output.
//!
//! Microbenchmarks for the hot paths (WAL encoding, histogram recording,
//! executor scheduling, trace recording) live under `benches/`.

pub mod alloc;
pub mod json;
pub mod parallel;
pub mod perf;
pub mod table;

pub use json::Json;
pub use parallel::thread_count;
pub use perf::{run_perf, PerfConfig, PerfOutcome, WorkloadSpec};
