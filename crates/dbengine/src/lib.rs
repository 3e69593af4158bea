#![warn(missing_docs)]

//! A write-ahead-logging storage engine with ARIES-style recovery.
//!
//! This crate is the database substrate of the RapiLog reproduction. The
//! paper evaluates RapiLog under several engines (PostgreSQL, MySQL, a
//! commercial system); what differs between those engines — for the purposes
//! of the logging study — is **how they force the log at commit**. This
//! crate therefore implements one honest engine and exposes the forcing
//! policies as pluggable [`profile::EngineProfile`]s:
//!
//! * `pg_like` — optional `commit_delay` group commit plus the natural
//!   batching that emerges when commits queue behind an in-progress flush;
//! * `innodb_like` — flush-at-commit with a short batching window;
//! * `simple_sync` — one synchronous log write per commit (Derby-style).
//!
//! The engine is *real*: bytes go through a [`BlockDevice`], pages carry
//! LSNs and checksums, the log has CRCs and a torn-tail rule, full-page
//! writes protect against torn data pages, and [`recovery`] replays
//! analysis/redo/undo after a crash. The durability experiments audit it
//! with genuine crash injection, not mocks.
//!
//! # Architecture
//!
//! ```text
//!   clients ──▶ Database (engine.rs)
//!                 │  2PL locks (txn.rs)
//!                 │  per table: leaf-packed key index (key → u32 slot in its region)
//!                 │  fixed-slot pages in a buffer pool (page.rs, buffer.rs)
//!                 │  WAL-before-data enforced on eviction
//!                 ▼
//!               Wal (wal.rs) ── group commit ──▶ log BlockDevice
//!               BufferPool ───────────────────▶ data BlockDevice
//! ```
//!
//! The key index is derived state, rebuilt from the pages at open: one
//! ordered index per table from key to the row's flat slot number in the
//! table's page region, packed into full sorted leaves, so a row costs
//! the index little more than a `u64` and a `u32`, and a range scan walks
//! only its own table.
//!
//! Point the log device at a raw [`Disk`](rapilog_simdisk::Disk) for the
//! baseline, or at a RapiLog virtual disk for the paper's system — the
//! engine does not know the difference, which is the point of the paper.
//!
//! [`BlockDevice`]: rapilog_simdisk::BlockDevice

pub mod buffer;
pub mod engine;
pub mod error;
mod index;
pub mod page;
pub mod profile;
pub mod recovery;
pub mod retry;
pub mod txn;
pub mod types;
pub mod util;
pub mod wal;

pub use engine::{Database, DbConfig, TableDef};
pub use error::DbError;
pub use profile::EngineProfile;
pub use recovery::RecoveryReport;
pub use types::{Key, Lsn, TableId, TxnId};
