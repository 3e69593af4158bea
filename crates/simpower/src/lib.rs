#![warn(missing_docs)]

//! Power-supply models and the residual-energy window.
//!
//! RapiLog's power-cut durability rests on a measured physical property: a
//! computer does not die the instant mains power is lost. The PSU's bulk
//! capacitors (its *hold-up* energy), or an external UPS, keep the machine
//! running for a bounded window, and motherboards raise a power-fail signal
//! early in that window. RapiLog sizes its dependable buffer so that the
//! emergency drain always finishes inside the window.
//!
//! This crate models that chain:
//!
//! * [`SupplySpec`] — stored residual energy, system draw during the
//!   emergency drain, and the latency of the power-fail warning;
//! * [`PowerSupply`] — the runtime object: [`PowerSupply::cut_mains`] starts
//!   the countdown, fires the warning [`Event`](rapilog_simcore::sync::Event)
//!   and, when the window expires, executes the registered death callbacks
//!   (which the fault harness wires to the disks' `power_cut` and to killing
//!   the machine's task domains);
//! * [`budget`] — the sizing rule in time, `bytes ÷ bandwidth +
//!   (regions + 1) × positioning ≤ usable window × (1 − margin)`, which
//!   the RapiLog core admits by and sizes its buffer from.
//!
//! # Examples
//!
//! ```
//! use rapilog_simcore::SimDuration;
//! use rapilog_simpower::{budget, supplies};
//!
//! let spec = supplies::atx_psu();
//! // A 7200 rpm disk drains ~109 MB/s and positions in at most 9 ms of
//! // seek plus an 8.3 ms rotation; how much may we buffer in one region,
//! // and in eight?
//! let seek = SimDuration::from_micros(17_333);
//! let one = budget::drainable_bytes(&spec, 108_780_000, seek, 1);
//! let eight = budget::drainable_bytes(&spec, 108_780_000, seek, 8);
//! assert!(one > eight && eight > 0);
//! ```

pub mod budget;
pub mod supply;

pub use supply::{supplies, PowerState, PowerSupply, SupplySpec};
