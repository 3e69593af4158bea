#![warn(missing_docs)]

//! RapiLog: dependable asynchronous logging through verification.
//!
//! This crate is the paper's primary contribution. A database forces its
//! write-ahead log synchronously because it trusts nothing between itself
//! and the platter: the OS can crash, power can fail. RapiLog inserts a
//! layer it *can* trust — a buffer owned by a verified hypervisor component
//! — and turns every synchronous log write into:
//!
//! 1. copy into the **dependable buffer** (microseconds),
//! 2. acknowledge immediately,
//! 3. drain to the physical disk **asynchronously, in order**, in large
//!    batches that run at sequential media bandwidth.
//!
//! The acknowledgement is honest because the buffer survives everything the
//! database fears:
//!
//! * **Guest/OS crash** — the buffer lives in a trusted cell outside the
//!   guest; the drain continues unaffected ([`microvisor`] enforces the
//!   isolation).
//! * **Power cut** — the machine keeps running for the supply's residual
//!   window ([`rapilog_simpower`]); the buffer is **admission-controlled**
//!   so that what it holds, bytes and seeks, provably drains within that
//!   window ([`rapilog_simpower::budget`]), and the power-fail warning triggers an
//!   immediate emergency drain.
//! * **Overload** — if the log stream exceeds disk bandwidth the buffer
//!   fills and writers block: RapiLog degrades to exactly the synchronous
//!   path's throughput, never below it (invariant I5).
//!
//! The guest-facing [`RapiLogDevice`] implements
//! [`BlockDevice`](rapilog_simdisk::BlockDevice), so an unmodified engine
//! points its log partition at it and cannot tell the difference — except
//! that "sync" writes return in microseconds.
//!
//! # Examples
//!
//! ```
//! use rapilog::prelude::*;
//! use rapilog_simcore::Sim;
//! use rapilog_simdisk::{specs, BlockDevice, Disk};
//! use rapilog_microvisor::{Hypervisor, Trust};
//!
//! let mut sim = Sim::new(1);
//! let ctx = sim.ctx();
//! let hv = Hypervisor::new(&ctx);
//! let cell = hv.create_cell("rapilog", Trust::Trusted);
//! let disk = Disk::new(&ctx, specs::hdd_7200(1 << 30));
//! let rl = RapiLog::builder(&ctx).cell(&cell).disk(disk).build();
//! let dev = rl.device();
//! sim.spawn(async move {
//!     // A "synchronous" log write: acknowledged from the buffer.
//!     dev.write(0, &vec![7u8; 512], true).await.unwrap();
//! });
//! sim.run();
//! ```

pub mod audit;
pub mod buffer;
pub mod drain;
pub mod replicate;
pub mod shard;
pub mod vdisk;

pub use audit::{AuditReport, TenantAudit};
pub use buffer::{BufferStats, DependableBuffer};
pub use replicate::{
    ApplyStop, ReplicationMode, ReplicationReport, Replicator, ShipAck, ShipFrame, Standby,
    StandbyReport,
};
pub use shard::{ShardedBuffer, TenantId, TenantSpec};
pub use vdisk::RapiLogDevice;

/// One-stop imports for assembling and observing a RapiLog stack.
///
/// ```
/// use rapilog::prelude::*;
/// ```
pub mod prelude {
    pub use crate::audit::{AuditReport, TenantAudit};
    pub use crate::buffer::{BufferStats, DependableBuffer};
    pub use crate::replicate::{
        ApplyStop, ReplicationMode, ReplicationReport, Replicator, ShipAck, ShipFrame, Standby,
        StandbyReport,
    };
    pub use crate::shard::{ShardedBuffer, TenantId, TenantSpec};
    pub use crate::vdisk::RapiLogDevice;
    pub use crate::{
        AdaptiveBatchConfig, BatchPolicy, CapacitySpec, DrainConfig, DrainStats, OrderingMode,
        RapiLog, RapiLogBuilder, RapiLogConfig, RapiLogSnapshot, RetryPolicy, TenantSnapshot,
    };
}

use std::cell::Cell as StdCell;
use std::rc::Rc;

use rapilog_microvisor::cell::{Cell, Trust};
use rapilog_simcore::{SimCtx, SimDuration};
use rapilog_simdisk::Disk;
use rapilog_simpower::PowerSupply;

/// How the buffer capacity — a memory cap — is chosen. With a supply,
/// admission also keeps the emergency drain inside its window, whatever
/// the cap (`rapilog_simpower::budget`).
#[derive(Debug, Clone, Copy)]
pub enum CapacitySpec {
    /// Fixed size in bytes (ablation studies).
    Fixed(u64),
    /// What the power supply's residual window drains in one region at the
    /// physical disk's sequential bandwidth — the paper's sizing rule.
    FromSupply,
}

/// How the drain reacts to device faults.
///
/// Transient command failures are retried with capped exponential backoff:
/// 100 µs doubling to a 20 ms cap, plus up to 50 µs of jitter from the
/// drain's forked RNG. Media errors are remapped and rewritten. When one
/// run fails after 8 retries — about 25.5 ms of backoff — the instance
/// enters **degraded mode**: commits are no longer acknowledged early — the device
/// waits for the drain to put each write on media before returning — until
/// [`degraded_exit_successes`](Self::degraded_exit_successes) consecutive
/// media writes succeed again. The durability guarantee is preserved at the
/// cost of latency (invariant I5 in spirit: degrade, never lie). The drain
/// keeps retrying past the budget (dropping the batch would lose
/// acknowledged data); the budget only gates the mode.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Master switch. With retries disabled, the first device error kills
    /// the drain exactly as a power collapse would — used by the fault
    /// harness to prove the durability checker can fail.
    pub enabled: bool,
    /// Consecutive successful media writes required to leave degraded mode
    /// (hysteresis: one lucky write must not flap the mode).
    pub degraded_exit_successes: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            enabled: true,
            degraded_exit_successes: 4,
        }
    }
}

/// How strictly the drain orders media writes relative to the log's
/// sequence order. A parameter of the one drain engine — how many runs its
/// window holds in flight — not a choice between two.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OrderingMode {
    /// A window of one: one run on media at a time, in exact sequence
    /// order, the next batch decided when the previous write has landed —
    /// the paper's original serial drain. Also pins the batch size (see
    /// [`BatchPolicy::Adaptive`]).
    #[default]
    Strict,
    /// A window of [`DrainConfig::window_depth`] (of at least the device's
    /// queue depth under [`BatchPolicy::Adaptive`]): runs are issued out of
    /// order across the device's channels wherever their sector ranges are
    /// disjoint; overlapping rewrites still order. Durability is unchanged
    /// (the audit ledger only advances with the contiguous durable prefix)
    /// but disjoint runs overlap in flight, so SSD-class devices drain at
    /// channel-scaled bandwidth.
    PartiallyConstrained,
}

/// The marker [`BatchPolicy::Adaptive`] carries. The controller it selects
/// has fixed bounds (see DESIGN.md §15 for the control law): a 64 KiB
/// batch floor, a 2 ms latency budget per batch and a 100 µs longest hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdaptiveBatchConfig;

/// How the drain sizes its group-commit batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchPolicy {
    /// Every pop takes up to [`DrainConfig::max_batch`] bytes: the
    /// controller with its target pinned there and its window at
    /// [`DrainConfig::window_depth`]. It still measures (see [`DrainStats`]).
    #[default]
    Fixed,
    /// An EWMA controller tracks per-batch drain service time and achieved
    /// bandwidth from batch-retirement events and resizes the next pop to
    /// sit at the latency/bandwidth knee: growing while marginal bandwidth
    /// gain holds and the latency budget allows, decaying to its 64 KiB
    /// floor under light load. Under
    /// [`OrderingMode::PartiallyConstrained`] its window is the larger of
    /// [`DrainConfig::window_depth`] and the device's
    /// [`Geometry::queue_depth`](rapilog_simdisk::Geometry), from the first
    /// pop. [`OrderingMode::Strict`] pins the batch target to `max_batch` and
    /// the window to one whatever the policy: Strict + Adaptive is
    /// Strict + Fixed.
    Adaptive(AdaptiveBatchConfig),
}

/// Drain tuning: batching, fault handling and the in-flight window.
///
/// Built fluently and handed to
/// [`RapiLogBuilder::drain_config`]:
///
/// ```
/// use rapilog::{BatchPolicy, DrainConfig, OrderingMode};
/// let cfg = DrainConfig::new()
///     .max_batch(1 << 20)
///     .window_depth(8)
///     .ordering(OrderingMode::PartiallyConstrained)
///     .batch_policy(BatchPolicy::Adaptive(Default::default()));
/// assert_eq!(cfg.window_depth, 8);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct DrainConfig {
    /// Drain fault handling.
    pub retry: RetryPolicy,
    /// Largest single drain batch in bytes.
    pub max_batch: usize,
    /// Runs in flight at once under
    /// [`OrderingMode::PartiallyConstrained`] + [`BatchPolicy::Fixed`];
    /// [`BatchPolicy::Adaptive`] runs at least the device's queue depth, and
    /// [`OrderingMode::Strict`] is always depth 1.
    pub window_depth: usize,
    /// Media write ordering discipline.
    pub ordering: OrderingMode,
    /// Group-commit batch sizing policy.
    pub batch: BatchPolicy,
}

impl Default for DrainConfig {
    fn default() -> Self {
        DrainConfig {
            retry: RetryPolicy::default(),
            max_batch: 2 * 1024 * 1024,
            window_depth: 4,
            ordering: OrderingMode::Strict,
            batch: BatchPolicy::Fixed,
        }
    }
}

impl DrainConfig {
    /// Starts from the defaults (2 MiB batches, retries on, strict order).
    pub fn new() -> DrainConfig {
        DrainConfig::default()
    }

    /// Drain fault handling (default: [`RetryPolicy::default`]).
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Largest single drain batch in bytes (default: 2 MiB).
    pub fn max_batch(mut self, bytes: usize) -> Self {
        self.max_batch = bytes;
        self
    }

    /// Runs kept in flight under [`OrderingMode::PartiallyConstrained`]
    /// (default: 4; see the field for what Adaptive and Strict make of it).
    ///
    /// A depth of 0 is meaningless — the window could never dispatch — so
    /// the setter **silently clamps to 1** rather than erroring: the field
    /// stays plain-old-data and a clamped window is exactly the strict
    /// serial discipline, which is always safe. Pass the device's channel
    /// count (or more) to actually exploit a multi-queue disk.
    pub fn window_depth(mut self, depth: usize) -> Self {
        self.window_depth = depth.max(1);
        self
    }

    /// Media write ordering discipline (default: [`OrderingMode::Strict`]).
    pub fn ordering(mut self, mode: OrderingMode) -> Self {
        self.ordering = mode;
        self
    }

    /// Group-commit batch sizing policy (default: [`BatchPolicy::Fixed`]).
    pub fn batch_policy(mut self, policy: BatchPolicy) -> Self {
        self.batch = policy;
        self
    }
}

/// RapiLog configuration.
#[derive(Debug, Clone, Copy)]
pub struct RapiLogConfig {
    /// Buffer capacity policy.
    pub capacity: CapacitySpec,
    /// Fixed CPU cost of accepting one write into the buffer.
    pub ack_base: SimDuration,
    /// Additional copy cost per KiB accepted.
    pub ack_per_kib: SimDuration,
    /// Drain tuning (batching, retries, ordering window).
    pub drain: DrainConfig,
}

impl Default for RapiLogConfig {
    fn default() -> Self {
        RapiLogConfig {
            capacity: CapacitySpec::FromSupply,
            ack_base: SimDuration::from_micros(2),
            // ~4 GB/s single-copy bandwidth.
            ack_per_kib: SimDuration::from_nanos(250),
            drain: DrainConfig::default(),
        }
    }
}

/// The ack mode the drain and the guest-facing devices of one instance
/// share, true while degraded: the drain decides, the devices obey — while
/// degraded, writes are acknowledged only after the drain has committed
/// them to media.
pub(crate) type ModeState = StdCell<bool>;

/// A unified point-in-time view of one RapiLog instance, combining buffer
/// statistics, the invariant auditor's report and the device's mode.
///
/// Produced by [`RapiLog::snapshot`]; this is the one stats surface callers
/// should consume instead of stitching together `stats()`, `occupancy()`,
/// `capacity()` and `audit_report()` by hand.
#[derive(Debug, Clone)]
pub struct RapiLogSnapshot {
    /// Buffer counters (accepted/drained bytes, peak occupancy, …).
    pub buffer: BufferStats,
    /// The invariant auditor's report.
    pub audit: AuditReport,
    /// Bytes currently buffered (acked, not yet on media).
    pub occupancy: u64,
    /// The admission cap in bytes (0 in write-through mode).
    pub capacity: u64,
    /// True once a power-failure episode froze the buffer.
    pub frozen: bool,
    /// True if the device runs unbuffered (residual window too small).
    pub write_through: bool,
    /// True while the instance acknowledges synchronously because the log
    /// disk is misbehaving (see [`RetryPolicy`]).
    pub degraded: bool,
    /// The backing disk's counters, including queued-request depth
    /// (`outstanding` / `max_outstanding`): the runs in flight in a drain
    /// window deeper than one.
    pub disk: rapilog_simdisk::DiskStats,
    /// Per-tenant views, in shard order. A single-tenant instance has one
    /// entry for [`TenantId::DEFAULT`]; the aggregate fields above are the
    /// sums across these.
    pub tenants: Vec<TenantSnapshot>,
    /// The log shipper's status, when replication is enabled.
    pub replication: Option<replicate::ReplicationReport>,
    /// The batching controller's state: current batch target, window
    /// depth, EWMAs and commit-latency percentiles.
    pub drain: DrainStats,
}

/// The drain controller's point-in-time view: what the batching policy is
/// currently doing and what it has observed. Every buffered instance runs
/// the one drain engine, so every one measures: under [`BatchPolicy::Fixed`]
/// or [`OrderingMode::Strict`] — the default configuration included — the
/// target never moves, but the EWMAs and the commit-latency
/// percentiles (how long an acknowledged byte lives only in RAM) are fed by
/// every retirement all the same.
#[derive(Debug, Clone, Default)]
pub struct DrainStats {
    /// Bytes the next `pop_batch` will aim for.
    pub batch_target: u64,
    /// In-flight window depth (permits the drain may hold), fixed when the
    /// instance is built.
    pub window_depth: u64,
    /// EWMA of per-batch drain service time (dispatch → retirement), ns.
    pub ewma_service_ns: u64,
    /// EWMA of achieved drain bandwidth, bytes per second.
    pub ewma_bytes_per_sec: u64,
    /// Times the controller doubled the batch target.
    pub batch_grows: u64,
    /// Times the controller halved the batch target.
    pub batch_shrinks: u64,
    /// Always 0: there is no hold timer since the drain takes its window
    /// slot before it pops (bytes coalesce while none is free). The field
    /// stays because the benchmark reads it.
    pub hold_fires: u64,
    /// The run-length bound the last pop consolidated under, bytes; 0 means
    /// off (no writer was blocked on the drain, or the policy is Fixed).
    pub run_bound_bytes: u64,
    /// EWMA of per-run device bandwidth (run bytes over the run's own
    /// submit → complete time), bytes per second.
    pub ewma_run_bytes_per_sec: u64,
    /// Median commit latency (admission → contiguous durable prefix), ns.
    pub commit_p50_ns: u64,
    /// 99th-percentile commit latency, ns.
    pub commit_p99_ns: u64,
    /// Extents measured into the commit-latency histogram.
    pub commits_measured: u64,
}

/// One tenant's slice of a [`RapiLogSnapshot`].
#[derive(Debug, Clone)]
pub struct TenantSnapshot {
    /// The tenant (`TenantId` raw value).
    pub tenant: u64,
    /// This shard's buffer counters.
    pub buffer: BufferStats,
    /// Bytes this shard currently buffers.
    pub occupancy: u64,
    /// This shard's admission cap in bytes.
    pub capacity: u64,
}

/// Fluent constructor for [`RapiLog`]; obtained from [`RapiLog::builder`].
///
/// `cell` and `disk` are mandatory; everything else has the defaults of
/// [`RapiLogConfig::default`]. `build` panics if a mandatory part is
/// missing or the cell is untrusted.
///
/// # Examples
///
/// ```
/// use rapilog::prelude::*;
/// use rapilog_microvisor::{Hypervisor, Trust};
/// use rapilog_simcore::Sim;
/// use rapilog_simdisk::{specs, Disk};
///
/// let mut sim = Sim::new(1);
/// let ctx = sim.ctx();
/// let hv = Hypervisor::new(&ctx);
/// let cell = hv.create_cell("rapilog", Trust::Trusted);
/// let disk = Disk::new(&ctx, specs::hdd_7200(1 << 30));
/// let rl = RapiLog::builder(&ctx)
///     .cell(&cell)
///     .disk(disk)
///     .capacity(CapacitySpec::Fixed(8 << 20))
///     .drain_config(DrainConfig::new().max_batch(1 << 20))
///     .build();
/// assert_eq!(rl.capacity(), 8 << 20);
/// ```
#[must_use = "a builder does nothing until build() is called"]
pub struct RapiLogBuilder<'a> {
    ctx: SimCtx,
    cell: Option<&'a Cell>,
    disk: Option<Disk>,
    supply: Option<&'a PowerSupply>,
    cfg: RapiLogConfig,
    tenants: Vec<TenantSpec>,
    repl: Option<replicate::Replicator>,
}

impl<'a> RapiLogBuilder<'a> {
    /// The trusted cell the drain tasks run in (mandatory).
    pub fn cell(mut self, cell: &'a Cell) -> Self {
        self.cell = Some(cell);
        self
    }

    /// The physical disk the buffer drains to (mandatory).
    pub fn disk(mut self, disk: Disk) -> Self {
        self.disk = Some(disk);
        self
    }

    /// The power supply whose residual window sizes the buffer and whose
    /// warning signal arms the emergency drain. Optional: without one,
    /// [`CapacitySpec::FromSupply`] falls back to 16 MiB.
    pub fn supply(mut self, psu: &'a PowerSupply) -> Self {
        self.supply = Some(psu);
        self
    }

    /// Replaces the whole configuration at once.
    pub fn config(mut self, cfg: RapiLogConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Buffer capacity policy (default: [`CapacitySpec::FromSupply`]).
    pub fn capacity(mut self, capacity: CapacitySpec) -> Self {
        self.cfg.capacity = capacity;
        self
    }

    /// Replaces the drain tuning (batching, retries, ordering window) at
    /// once; see [`DrainConfig`].
    pub fn drain_config(mut self, drain: DrainConfig) -> Self {
        self.cfg.drain = drain;
        self
    }

    /// The tenants sharing this instance: the capacity is split evenly
    /// into one shard per spec (rounded down to whole sectors), the drain's
    /// round robin grants every shard the same quantum, and each shard has
    /// its own audit section. No spec at all is one shard for
    /// [`TenantId::DEFAULT`], the same instance as naming that tenant
    /// alone. See [`TenantSpec`].
    ///
    /// Tenants must keep to disjoint sectors of the shared disk. Nothing
    /// orders one shard's write to a sector against another's, and each
    /// shard answers its tenant's reads from what *it* holds for a sector
    /// — acked bytes on their way to the media, and landed ones it still
    /// keeps — so a sector two tenants wrote would read differently through
    /// their two devices.
    pub fn tenants(mut self, specs: &[TenantSpec]) -> Self {
        self.tenants = specs.to_vec();
        self
    }

    /// Ships every admitted write to a standby cell through `repl`; see
    /// [`Replicator`](replicate::Replicator). The builder attaches the
    /// shipper's send/ack loops to this instance's trusted cell and hands
    /// the shipper to the instance's device, which offers every extent the
    /// moment the dependable buffer admits it — the drain never sees it. In
    /// [`Sync`](replicate::ReplicationMode::Sync) mode, guest
    /// acknowledgements additionally wait for the standby's ack (and for
    /// nothing else: local durability is the buffer's promise). A
    /// replicated instance has one tenant: its admitted log is the one
    /// stream the standby applies.
    pub fn replicate(mut self, repl: &replicate::Replicator) -> Self {
        self.repl = Some(repl.clone());
        self
    }

    /// Fixed CPU cost of accepting one write (default: 2 µs).
    pub fn ack_base(mut self, cost: SimDuration) -> Self {
        self.cfg.ack_base = cost;
        self
    }

    /// Additional copy cost per KiB accepted (default: 250 ns).
    pub fn ack_per_kib(mut self, cost: SimDuration) -> Self {
        self.cfg.ack_per_kib = cost;
        self
    }

    /// Assembles the instance: sizes the buffer (falling back to
    /// write-through if the residual window cannot cover even one sector),
    /// builds the guest-facing device and spawns the drain tasks.
    ///
    /// # Panics
    ///
    /// Panics if `cell` or `disk` was not supplied, or if the cell is
    /// untrusted: an unverified buffer would make the early
    /// acknowledgement a lie, which is the whole point of the paper. Also
    /// panics if [`replicate`](Self::replicate) meets two or more tenants
    /// (log shipping is one stream) or a write-through instance (which
    /// admits nothing to ship).
    pub fn build(self) -> RapiLog {
        let ctx = &self.ctx;
        let cell = self.cell.expect("RapiLogBuilder: cell is mandatory");
        let disk = self.disk.expect("RapiLogBuilder: disk is mandatory");
        let supply = self.supply;
        let cfg = self.cfg;
        assert!(
            cell.trust() == Trust::Trusted,
            "RapiLog must live in a trusted (verified) cell"
        );
        // With a supply, admission keeps the emergency drain inside its
        // window; what the window drains in one region is the most the
        // instance can ever hold, whatever its memory cap.
        let rule = supply.map(|psu| (psu.spec().clone(), disk.spec().clone()));
        let window = rule.as_ref().map(|rule| buffer::drainable(rule, 1));
        let capacity = match (cfg.capacity, window) {
            (CapacitySpec::Fixed(b), _) => b,
            (CapacitySpec::FromSupply, Some(w)) => w,
            (CapacitySpec::FromSupply, None) => 16 * 1024 * 1024,
        };
        // One assembly for any number of tenants: no spec is the unnamed
        // single tenant, one shard holding the whole capacity.
        let unnamed = [TenantSpec::new(TenantId::DEFAULT.0)];
        let specs = match &self.tenants[..] {
            [] => &unnamed[..],
            named => named,
        };
        assert!(
            self.repl.is_none() || specs.len() < 2,
            "log shipping is one stream: a replicated instance has one tenant"
        );
        // If the residual window cannot drain even one sector, or some
        // tenant's share of the cap cannot hold one, the whole instance falls
        // back to write-through (no buffers, capacity 0) rather than
        // buffering for some tenants and lying to others: every device
        // forwards each write synchronously and RapiLog adds nothing but
        // also risks nothing. The paper's sizing rule exists exactly so that
        // deployments detect this case up front.
        let sector = rapilog_simdisk::SECTOR_SIZE as u64;
        let buffered = window.is_none_or(|w| w >= sector)
            && shard::split_capacity(capacity, specs.len()) >= sector;
        let shards = ShardedBuffer::new(specs, if buffered { capacity } else { 0 }, rule);
        let audit = audit::Audit::new(ctx);
        // Sections up front, so the report still testifies for a tenant
        // even if it never writes.
        for spec in specs {
            audit.register_tenant(spec.id.0);
        }
        let mode = Rc::<ModeState>::default();
        let drain_ctrl = drain::DrainController::new(ctx, &cfg.drain, &disk);
        let repl = self.repl;
        if buffered {
            if let Some(r) = &repl {
                r.attach(cell);
            }
            for s in shards.shards() {
                s.buf.attach(ctx);
                if disk.spec().rotation_period().is_zero() {
                    s.buf.keep_nothing();
                }
            }
        } else {
            assert!(
                repl.is_none(),
                "log shipping requires a buffered instance; write-through admits nothing to tee"
            );
        }
        let devices: Vec<RapiLogDevice> = shards
            .shards()
            .iter()
            .map(|s| {
                let buf = buffered.then(|| s.buf.clone());
                RapiLogDevice::new(ctx, buf, &disk, cfg, &mode, repl.clone())
            })
            .collect();
        if buffered {
            drain::start(
                ctx,
                cell,
                &shards,
                disk.clone(),
                cfg.drain.retry,
                supply.cloned(),
                audit.clone(),
                Rc::clone(&mode),
                Rc::clone(&drain_ctrl),
            );
        }
        RapiLog {
            shards,
            devices: Rc::new(devices),
            audit,
            mode,
            disk,
            replication: repl,
            drain_ctrl,
        }
    }
}

/// The assembled RapiLog instance.
#[derive(Clone)]
pub struct RapiLog {
    /// The tenants' buffer shards; a single-tenant instance has one.
    shards: ShardedBuffer,
    /// Each shard's guest-facing device, in shard order.
    devices: Rc<Vec<RapiLogDevice>>,
    audit: audit::Audit,
    mode: Rc<ModeState>,
    disk: Disk,
    replication: Option<replicate::Replicator>,
    drain_ctrl: Rc<drain::DrainController>,
}

impl RapiLog {
    /// Starts assembling a RapiLog instance; see [`RapiLogBuilder`].
    pub fn builder<'a>(ctx: &SimCtx) -> RapiLogBuilder<'a> {
        RapiLogBuilder {
            ctx: ctx.clone(),
            cell: None,
            disk: None,
            supply: None,
            cfg: RapiLogConfig::default(),
            tenants: Vec::new(),
            repl: None,
        }
    }

    /// The guest-facing block device for the log partition. On a
    /// multi-tenant instance this is the *first* tenant's device; use
    /// [`device_for`](Self::device_for) to address a specific tenant.
    pub fn device(&self) -> RapiLogDevice {
        self.devices[0].clone()
    }

    /// The guest-facing device for `tenant`, if it shares this instance.
    pub fn device_for(&self, tenant: TenantId) -> Option<RapiLogDevice> {
        let i = self.shards.shards().iter().position(|s| s.id == tenant)?;
        Some(self.devices[i].clone())
    }

    /// Buffer statistics snapshot, summed across shards. With several
    /// shards, `peak_occupancy` is the sum of each shard's own peak: an
    /// upper bound on the instance's peak, not the highest occupancy it
    /// ever had.
    pub fn stats(&self) -> BufferStats {
        self.shards.stats()
    }

    /// One unified snapshot of the instance's observable state: aggregate
    /// buffer counters, audit report, occupancy, capacity and mode flags,
    /// plus one [`TenantSnapshot`] per shard.
    pub fn snapshot(&self) -> RapiLogSnapshot {
        let tenants: Vec<TenantSnapshot> = self
            .shards
            .shards()
            .iter()
            .map(|s| TenantSnapshot {
                tenant: s.id.0,
                buffer: s.buf.stats(),
                occupancy: s.buf.occupancy(),
                capacity: s.buf.capacity(),
            })
            .collect();
        RapiLogSnapshot {
            buffer: self.stats(),
            audit: self.audit.report(),
            occupancy: self.occupancy(),
            capacity: self.capacity(),
            frozen: self.device_frozen(),
            write_through: self.devices[0].is_write_through(),
            degraded: self.mode.get(),
            disk: self.disk.stats(),
            tenants,
            replication: self.replication.as_ref().map(|r| r.report()),
            drain: self.drain_ctrl.stats(),
        }
    }

    /// Bytes currently buffered across all shards (acked, not on media).
    pub fn occupancy(&self) -> u64 {
        self.shards.total_occupancy()
    }

    /// The memory cap in bytes, summed across shards (≤ the total the
    /// split was made from).
    pub fn capacity(&self) -> u64 {
        self.shards.shards().iter().map(|s| s.buf.capacity()).sum()
    }

    /// Waits until every acknowledged byte — from every tenant — is on the
    /// physical disk.
    pub async fn quiesce(&self) {
        self.shards.all_drained().await;
    }

    /// True once the buffer has frozen (a power-failure episode ran); a
    /// frozen instance must be replaced after power returns.
    pub fn device_frozen(&self) -> bool {
        self.shards.is_frozen()
    }

    /// The invariant auditor's report.
    pub fn audit_report(&self) -> AuditReport {
        self.audit.report()
    }
}

#[cfg(test)]
mod builder_tests {
    use super::*;
    use crate::audit::tests::section;
    use rapilog_microvisor::{Hypervisor, Trust};
    use rapilog_simcore::Sim;
    use rapilog_simdisk::{specs, BlockDevice};
    use rapilog_simnet::{Link, LinkSpec};
    use rapilog_simpower::{PowerSupply, SupplySpec};

    fn fixture(seed: u64) -> (Sim, SimCtx, Hypervisor, Disk) {
        let sim = Sim::new(seed);
        let ctx = sim.ctx();
        let hv = Hypervisor::new(&ctx);
        let disk = Disk::new(&ctx, specs::hdd_7200(1 << 30));
        (sim, ctx, hv, disk)
    }

    #[test]
    fn window_depth_zero_clamps_to_one() {
        // Pins the documented clamp: a zero window could never dispatch,
        // so the setter coerces it to the always-safe serial depth of 1.
        let cfg = DrainConfig::new().window_depth(0);
        assert_eq!(cfg.window_depth, 1);
        let cfg = DrainConfig::new().window_depth(1);
        assert_eq!(cfg.window_depth, 1);
        let cfg = DrainConfig::new().window_depth(7);
        assert_eq!(cfg.window_depth, 7);
    }

    #[test]
    fn builder_applies_defaults_and_setters() {
        let (_sim, ctx, hv, disk) = fixture(1);
        let cell = hv.create_cell("rapilog", Trust::Trusted);
        let rl = RapiLog::builder(&ctx)
            .cell(&cell)
            .disk(disk)
            .capacity(CapacitySpec::Fixed(4 << 20))
            .drain_config(DrainConfig::new().max_batch(1 << 20))
            .ack_base(SimDuration::from_micros(5))
            .ack_per_kib(SimDuration::from_nanos(100))
            .build();
        assert_eq!(rl.capacity(), 4 << 20);
        assert!(!rl.device().is_write_through());
        std::mem::forget(cell);
    }

    #[test]
    fn builder_without_supply_defaults_from_supply_to_16_mib() {
        let (_sim, ctx, hv, disk) = fixture(2);
        let cell = hv.create_cell("rapilog", Trust::Trusted);
        let rl = RapiLog::builder(&ctx).cell(&cell).disk(disk).build();
        assert_eq!(rl.capacity(), 16 * 1024 * 1024);
        std::mem::forget(cell);
    }

    #[test]
    fn builder_config_replaces_the_whole_configuration() {
        let (_sim, ctx, hv, disk) = fixture(3);
        let cell = hv.create_cell("rapilog", Trust::Trusted);
        let cfg = RapiLogConfig {
            capacity: CapacitySpec::Fixed(1 << 20),
            ..RapiLogConfig::default()
        };
        let rl = RapiLog::builder(&ctx)
            .cell(&cell)
            .disk(disk)
            .config(cfg)
            .build();
        assert_eq!(rl.capacity(), 1 << 20);
        std::mem::forget(cell);
    }

    #[test]
    #[should_panic(expected = "cell is mandatory")]
    fn builder_panics_without_a_cell() {
        let (_sim, ctx, _hv, disk) = fixture(4);
        let _ = RapiLog::builder(&ctx).disk(disk).build();
    }

    #[test]
    #[should_panic(expected = "disk is mandatory")]
    fn builder_panics_without_a_disk() {
        let (_sim, ctx, hv, _disk) = fixture(5);
        let cell = hv.create_cell("rapilog", Trust::Trusted);
        let _ = RapiLog::builder(&ctx).cell(&cell).build();
    }

    #[test]
    #[should_panic(expected = "trusted")]
    fn builder_rejects_an_untrusted_cell() {
        let (_sim, ctx, hv, disk) = fixture(6);
        let cell = hv.create_cell("sketchy", Trust::Untrusted);
        let _ = RapiLog::builder(&ctx).cell(&cell).disk(disk).build();
    }

    #[test]
    #[should_panic(expected = "one tenant")]
    fn builder_rejects_replicating_two_tenants() {
        let (_sim, ctx, hv, disk) = fixture(6);
        let cell = hv.create_cell("rapilog", Trust::Trusted);
        let ship = Link::new(&ctx, LinkSpec::lan("ship"));
        let acks = Link::new(&ctx, LinkSpec::lan("acks"));
        let repl = replicate::Replicator::new(&ctx, replicate::ReplicationMode::Async, ship, acks);
        let _ = RapiLog::builder(&ctx)
            .cell(&cell)
            .disk(disk)
            .tenants(&[shard::TenantSpec::new(1), shard::TenantSpec::new(2)])
            .replicate(&repl)
            .build();
    }

    /// A supply whose window drains a few kilobytes in one region, under a
    /// memory cap of a megabyte: the instance buffers, and a 64 KiB write
    /// goes in as extents the window can drain, not as one the admission
    /// rule refuses outright.
    #[test]
    fn a_narrow_window_splits_writes_into_extents_it_drains() {
        let (mut sim, ctx, hv, disk) = fixture(9);
        let cell = hv.create_cell("rapilog", Trust::Trusted);
        // 39.7 ms: 34.7 ms of it is two `hdd_7200` positionings.
        let spec = SupplySpec {
            name: "narrow".to_string(),
            residual_joules: 3.97,
            drain_draw_watts: 100.0,
            warning_latency: SimDuration::from_millis(1),
        };
        let (bw, pos) = (
            disk.spec().sequential_bandwidth(),
            disk.spec().positioning_bound(),
        );
        let one = rapilog_simpower::budget::drainable_bytes(&spec, bw, pos, 1);
        assert!((512..64 << 10).contains(&one), "{one} B in one region");
        let psu = PowerSupply::new(&ctx, spec);
        let rl = RapiLog::builder(&ctx)
            .cell(&cell)
            .disk(disk)
            .supply(&psu)
            .capacity(CapacitySpec::Fixed(1 << 20))
            .build();
        assert!(!rl.snapshot().write_through);
        let dev = rl.device();
        let data = vec![0x5a; 64 << 10];
        let done = Rc::new(StdCell::new(false));
        let d2 = Rc::clone(&done);
        sim.spawn(async move {
            dev.write(8, &data, true).await.unwrap();
            let mut back = vec![0; data.len()];
            dev.read(8, &mut back).await.unwrap();
            assert!(back == data);
            d2.set(true);
        });
        sim.run();
        assert!(done.get());
        assert!(rl.stats().accepted_writes > 1);
        std::mem::forget(cell);
    }

    #[test]
    fn hopeless_supply_builds_write_through_with_zero_capacity() {
        let (_sim, ctx, hv, disk) = fixture(7);
        let cell = hv.create_cell("rapilog", Trust::Trusted);
        let psu = PowerSupply::new(
            &ctx,
            SupplySpec {
                name: "brownout".to_string(),
                residual_joules: 1.0,
                drain_draw_watts: 200.0,
                warning_latency: SimDuration::from_millis(1),
            },
        );
        // Whatever the memory cap: the window drains no region at all.
        for capacity in [CapacitySpec::FromSupply, CapacitySpec::Fixed(1 << 20)] {
            let rl = RapiLog::builder(&ctx)
                .cell(&cell)
                .disk(disk.clone())
                .supply(&psu)
                .capacity(capacity)
                .build();
            let snap = rl.snapshot();
            assert!(snap.write_through, "{capacity:?}");
            assert_eq!(snap.capacity, 0);
            assert!(!snap.frozen);
        }
        std::mem::forget(cell);
    }

    #[test]
    fn silent_tenant_still_gets_an_audit_section() {
        let (mut sim, ctx, hv, disk) = fixture(9);
        let cell = hv.create_cell("rapilog", Trust::Trusted);
        // Single-tenant instance with an explicit tenant id: the section
        // must exist (as zero activity) even though the tenant never
        // writes — silence is a fact the report should state, not omit.
        let rl = RapiLog::builder(&ctx)
            .cell(&cell)
            .disk(disk)
            .capacity(CapacitySpec::Fixed(1 << 20))
            .tenants(&[shard::TenantSpec::new(5)])
            .build();
        sim.run_until(rapilog_simcore::SimTime::from_millis(10));
        let report = rl.audit_report();
        let section =
            section(&report, 5).expect("a registered tenant is reported even with zero writes");
        assert_eq!(section.commits, 0);
        assert!(section.guarantee_held());
        assert!(report.guarantee_held());
        std::mem::forget(cell);
    }

    #[test]
    fn a_named_single_tenants_section_hears_of_a_drain_failure() {
        for ordering in [OrderingMode::Strict, OrderingMode::PartiallyConstrained] {
            let (mut sim, ctx, hv, disk) = fixture(11);
            let cell = hv.create_cell("rapilog", Trust::Trusted);
            let retry = RetryPolicy {
                enabled: false,
                ..RetryPolicy::default()
            };
            let rl = RapiLog::builder(&ctx)
                .cell(&cell)
                .disk(disk.clone())
                .capacity(CapacitySpec::Fixed(1 << 20))
                .drain_config(DrainConfig::new().retry(retry).ordering(ordering))
                .tenants(&[shard::TenantSpec::new(5)])
                .build();
            let dev = rl.device();
            sim.spawn(async move {
                disk.set_sick(true);
                // Acked into the buffer; the drain then hits the sick disk.
                let _ = dev
                    .write(0, &vec![9u8; rapilog_simdisk::SECTOR_SIZE], true)
                    .await;
            });
            sim.run_until(rapilog_simcore::SimTime::from_secs(1));
            let report = rl.audit_report();
            assert_eq!(report.bytes_lost_at_failure, 512, "{ordering:?}");
            let section = section(&report, 5).expect("a named tenant has a section");
            assert_eq!(
                section.bytes_lost_at_failure, 512,
                "{ordering:?}: the loss is attributed to the tenant that held it"
            );
            assert!(!section.guarantee_held());
            std::mem::forget(cell);
        }
    }

    #[test]
    fn naming_the_default_tenant_alone_is_the_unnamed_instance() {
        let trace_of = |specs: &[shard::TenantSpec]| {
            let (mut sim, ctx, hv, disk) = fixture(12);
            ctx.tracer().set_enabled(true);
            let cell = hv.create_cell("rapilog", Trust::Trusted);
            let rl = RapiLog::builder(&ctx)
                .cell(&cell)
                .disk(disk)
                .capacity(CapacitySpec::Fixed(1 << 20))
                .tenants(specs)
                .build();
            let (dev, c2) = (rl.device(), ctx.clone());
            sim.spawn(async move {
                for i in 0..16u64 {
                    let data = vec![i as u8; (i % 3 + 1) as usize * rapilog_simdisk::SECTOR_SIZE];
                    dev.write(i * 2, &data, true).await.unwrap();
                    c2.sleep(SimDuration::from_millis(i % 4)).await;
                }
            });
            sim.run_until(rapilog_simcore::SimTime::from_secs(1));
            let report = rl.audit_report();
            assert!(report.tenants[0].commits > 0 && report.guarantee_held());
            std::mem::forget(cell);
            ctx.tracer().snapshot().to_jsonl()
        };
        let unnamed = trace_of(&[]);
        assert!(unnamed.contains("drain_batch"));
        assert_eq!(
            unnamed,
            trace_of(&[shard::TenantSpec::new(TenantId::DEFAULT.0)])
        );
    }

    /// The unnamed single tenant audits through one section, as every
    /// tenant does, and that section still catches a commit out of order
    /// (I3's potency): the section is the check, not a report beside it.
    #[test]
    fn a_one_tenant_instance_audits_through_one_section() {
        let (mut sim, ctx, hv, disk) = fixture(14);
        let cell = hv.create_cell("rapilog", Trust::Trusted);
        let rl = RapiLog::builder(&ctx)
            .cell(&cell)
            .disk(disk)
            .capacity(CapacitySpec::Fixed(1 << 20))
            .build();
        let dev = rl.device();
        sim.spawn(async move {
            for i in 0..4u64 {
                let data = vec![i as u8; rapilog_simdisk::SECTOR_SIZE];
                dev.write(i, &data, true).await.unwrap();
            }
        });
        sim.run_until(rapilog_simcore::SimTime::from_secs(1));
        let report = rl.audit_report();
        assert_eq!(report.tenants.len(), 1, "exactly one section");
        let section = section(&report, TenantId::DEFAULT.0).expect("the unnamed tenant's section");
        assert!(section.commits > 0 && report.guarantee_held());
        // A seeded commit behind the durable prefix flips the verdict.
        let last = section.last_seq.expect("the prefix advanced");
        rl.audit.record_tenant_commit(TenantId::DEFAULT.0, last);
        let report = rl.audit_report();
        assert_eq!(report.tenants.len(), 1, "still one section");
        assert!(report.tenants[0].order_violated);
        assert!(!report.guarantee_held());
        std::mem::forget(cell);
    }

    #[test]
    fn a_default_instance_measures_its_drain() {
        // Stock configuration, Strict + Fixed: the controller decides
        // nothing, and still says how long an acked byte lived only in RAM.
        let (mut sim, ctx, hv, disk) = fixture(13);
        let cell = hv.create_cell("rapilog", Trust::Trusted);
        let rl = RapiLog::builder(&ctx).cell(&cell).disk(disk).build();
        let dev = rl.device();
        sim.spawn(async move {
            dev.write(0, &vec![7u8; rapilog_simdisk::SECTOR_SIZE], true)
                .await
                .unwrap();
        });
        sim.run_until(rapilog_simcore::SimTime::from_secs(1));
        assert_eq!(rl.occupancy(), 0, "the write landed");
        let drain = rl.snapshot().drain;
        assert_eq!(drain.commits_measured, 1);
        assert!(drain.commit_p50_ns > 0 && drain.ewma_service_ns > 0);
        assert_eq!((drain.window_depth, drain.batch_target), (1, 2 << 20));
        std::mem::forget(cell);
    }

    /// What a tenant holds is its device: it writes into that tenant's
    /// shard and shows in that tenant's sections only, a silent tenant
    /// still gets its (empty) sections, and there is no device to hand out
    /// for a tenant the instance was not built with.
    #[test]
    fn device_for_is_the_tenants_capability_to_its_shard() {
        let (mut sim, ctx, hv, disk) = fixture(10);
        let cell = hv.create_cell("rapilog", Trust::Trusted);
        let rl = RapiLog::builder(&ctx)
            .cell(&cell)
            .disk(disk)
            .capacity(CapacitySpec::Fixed(2 << 20))
            .tenants(&[shard::TenantSpec::new(1), shard::TenantSpec::new(2)])
            .build();
        // Only tenant 1 writes; tenant 2 stays silent.
        assert!(rl.device_for(TenantId(99)).is_none(), "unknown tenant");
        let dev = rl.device_for(TenantId(1)).unwrap();
        sim.spawn(async move {
            dev.write(0, &vec![3u8; rapilog_simdisk::SECTOR_SIZE], true)
                .await
                .unwrap();
        });
        sim.run_until(rapilog_simcore::SimTime::from_secs(1));
        let report = rl.audit_report();
        assert!(section(&report, 1).unwrap().commits > 0);
        let silent = section(&report, 2).expect("silent tenant still reported");
        assert_eq!(silent.commits, 0);
        assert!(report.guarantee_held());
        let snap = rl.snapshot();
        let accepted: Vec<(u64, u64)> = snap
            .tenants
            .iter()
            .map(|t| (t.tenant, t.buffer.accepted_writes))
            .collect();
        assert_eq!(accepted, [(1, 1), (2, 0)], "tenant 1's shard only");
        assert_eq!(snap.buffer.accepted_writes, 1);
        std::mem::forget(cell);
    }

    #[test]
    fn snapshot_is_coherent_with_the_individual_surfaces() {
        let (mut sim, ctx, hv, disk) = fixture(8);
        let cell = hv.create_cell("rapilog", Trust::Trusted);
        let rl = RapiLog::builder(&ctx)
            .cell(&cell)
            .disk(disk)
            .capacity(CapacitySpec::Fixed(1 << 20))
            .build();
        let dev = rl.device();
        sim.spawn(async move {
            dev.write(0, &vec![9u8; 1024], true).await.unwrap();
        });
        sim.run_until(rapilog_simcore::SimTime::from_secs(1));
        let snap = rl.snapshot();
        assert_eq!(snap.buffer.accepted_writes, rl.stats().accepted_writes);
        assert_eq!(snap.occupancy, rl.occupancy());
        assert_eq!(snap.capacity, rl.capacity());
        assert_eq!(snap.frozen, rl.device_frozen());
        assert!(!snap.write_through);
        assert!(snap.buffer.accepted_writes > 0);
        assert!(snap.audit.guarantee_held());
        std::mem::forget(cell);
    }
}
