#![warn(missing_docs)]

//! A minimal seL4-style component system — the "dependable hypervisor"
//! substrate of the RapiLog reproduction.
//!
//! The original RapiLog runs on seL4, whose functional-correctness proof
//! guarantees that the hypervisor's trusted computing base cannot crash.
//! What that proof *buys the system design* is a fault-containment
//! assumption: guest failure (Linux panic, DBMS segfault) never corrupts or
//! stops the trusted components, while the trusted components themselves
//! never fail. This crate encodes exactly that assumption, mechanically:
//!
//! * Code runs inside [`Cell`]s, each with its own cancellation domain.
//!   [`Trust::Untrusted`] cells (the guest VM) can be crashed at any
//!   instant; crashing a [`Trust::Trusted`] cell is a **panic** — fault
//!   injection attempting it is a bug in the experiment, the same way
//!   injecting a fault into proven code would be outside seL4's threat
//!   model.
//! * Cells share nothing: all state is owned by tasks inside the cell
//!   (enforced by Rust ownership). Communication crosses cell boundaries
//!   only through the [`ring`]: a guest request runs as a task in the
//!   driver cell, and the guest awaits that task, so the death of the
//!   guest never touches the driver's side.
//! * Crossing the boundary costs time ([`VirtCosts`]): the trap, the
//!   hypervisor handling and the completion interrupt. This is the
//!   "virtualisation overhead" the paper's abstract refers to, and it is
//!   charged on every virtual-disk request.
//!
//! The crate also provides [`vmm::GuestVm`], the guest-lifecycle handle the
//! fault harness uses to crash and reboot the database VM.
//!
//! # Examples
//!
//! ```
//! use rapilog_simcore::Sim;
//! use rapilog_microvisor::{Hypervisor, Trust};
//!
//! let mut sim = Sim::new(3);
//! let ctx = sim.ctx();
//! let hv = Hypervisor::new(&ctx);
//! let cell = hv.create_cell("driver", Trust::Trusted);
//! cell.spawn(async move { /* trusted driver work */ });
//! sim.run();
//! ```

pub mod cell;
pub mod ring;
pub mod vmm;

pub use cell::{Cell, Hypervisor, Trust};
pub use ring::{VirtCosts, VirtioBlk, VirtioStats};
pub use vmm::GuestVm;
