//! The asynchronous drain: trusted tasks that move buffered log data to
//! the physical disk in large batches.
//!
//! Two tasks live in the trusted cell:
//!
//! * the **drain loop** — work-conserving: whenever extents are queued it
//!   coalesces the head of the queue into contiguous sector runs (up to the
//!   configured batch size) and commits them with FUA writes. Large
//!   sequential batches are what let the drain run at media bandwidth while
//!   the database's own synchronous writes would pay a rotation each.
//! * the **power watcher** — on the supply's power-fail warning it freezes
//!   the buffer (no new admissions: the machine is dying anyway) and
//!   records, via the [`audit`](crate::audit), whether the remaining bytes
//!   hit the disk before the residual window expired. With correct sizing
//!   this is guaranteed; the audit exists to prove it run after run.
//!
//! The drain loop comes in two disciplines (see
//! [`OrderingMode`](crate::OrderingMode)):
//!
//! * **Strict** — one run on media at a time, in exact sequence order: the
//!   paper's original serial drain, byte- and trace-identical to previous
//!   releases.
//! * **PartiallyConstrained** — a **drain window**: up to
//!   [`window_depth`](crate::DrainConfig::window_depth) runs in flight at
//!   once across the device's channels. A run must wait for every earlier
//!   in-flight run whose sector range overlaps its own (media order is the
//!   newest-wins tiebreak, so overlapping rewrites must land in order);
//!   disjoint runs carry no edge and retire out of order. Batches retire
//!   whole — space is released the moment a batch's last run lands — but
//!   the audit ledger only advances with the contiguous durable prefix, so
//!   invariant I3 is untouched.

use std::cell::{Cell as StdCell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use rapilog_microvisor::cell::Cell;
use rapilog_simcore::rng::SimRng;
use rapilog_simcore::stats::Histogram;
use rapilog_simcore::sync::{Event, SemPermit, Semaphore};
use rapilog_simcore::trace::{Layer, Payload};
use rapilog_simcore::{SimCtx, SimDuration};
use rapilog_simdisk::{BlockDevice, Disk, IoError, IoReq, IoRun, SECTOR_SIZE};
use rapilog_simpower::PowerSupply;

use crate::audit::Audit;
use crate::buffer::{DependableBuffer, Extent};
use crate::shard::{ShardedBuffer, TenantId};
use crate::{
    AdaptiveBatchConfig, BatchPolicy, DrainConfig, DrainStats, ModeState, OrderingMode,
    RapiLogConfig, RetryPolicy,
};

/// Truncates `run` to its first `keep_sectors` sectors, slicing the
/// boundary segment if the cut falls inside it (an O(1) re-view, not a
/// copy).
fn truncate_run(run: &mut IoRun, keep_sectors: u64) {
    let mut keep_bytes = keep_sectors as usize * SECTOR_SIZE;
    let mut keep_segments = 0;
    while keep_segments < run.segments.len() && keep_bytes > 0 {
        let len = run.segments[keep_segments].len();
        if len <= keep_bytes {
            keep_bytes -= len;
        } else {
            let cut = run.segments[keep_segments].slice(0..keep_bytes);
            run.segments[keep_segments] = cut;
            keep_bytes = 0;
        }
        keep_segments += 1;
    }
    run.segments.truncate(keep_segments);
}

/// Consolidates a batch of extents into scatter-gather runs holding the
/// *newest* bytes per sector.
///
/// This is the drain's key trick: a log stream contains endless rewrites of
/// its tail sector (every group-commit flush re-forces it). Replaying those
/// rewrites verbatim would cost one disk rotation each — exactly the cost
/// RapiLog exists to remove. Because the batch is committed (and
/// acknowledged to [`complete`](crate::buffer::DependableBuffer::complete))
/// only as a whole, writing the per-sector union preserves the durability
/// guarantee while turning the batch into a single sequential stream.
///
/// The builder is a single sort-free pass in sequence order, appending O(1)
/// views of extent memory (no per-sector re-copying):
///
/// * an extent starting exactly at the current run's end extends it;
/// * a *tail rewrite* — an extent overlapping the current run's tail and
///   reaching at least its end — truncates the superseded tail views and
///   extends the run, so the group-commit hot pattern still yields one run;
/// * anything else starts a new run. Runs are written to the device **in
///   order**, so a later run overlapping an earlier one lands newest-last
///   on the media — newest-wins without any per-sector map.
pub(crate) fn consolidate(batch: &[Extent]) -> Vec<IoRun> {
    let mut runs: Vec<IoRun> = Vec::new();
    for e in batch {
        let nsectors = (e.data.len() / SECTOR_SIZE) as u64;
        if let Some(run) = runs.last_mut() {
            let run_end = run.sector + run.sectors();
            if e.sector == run_end {
                run.segments.push(e.data.clone());
                continue;
            }
            if e.sector >= run.sector && e.sector < run_end && e.sector + nsectors >= run_end {
                truncate_run(run, e.sector - run.sector);
                run.segments.push(e.data.clone());
                continue;
            }
        }
        runs.push(IoRun {
            sector: e.sector,
            segments: vec![e.data.clone()],
        });
    }
    runs
}

/// The ordering edges over one consolidated batch: run `j` must wait for
/// every earlier run `i` whose sector range overlaps its own. A later run
/// overlapping an earlier one carries the *newer* bytes for the shared
/// sectors, so media order is the newest-wins tiebreak; disjoint runs
/// carry no edge and may land in any order.
///
/// This is the declarative spec of the constraint the windowed drain
/// enforces online (against every in-flight run, including runs of earlier
/// batches); the permutation property test exercises it directly.
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) fn dep_edges(runs: &[IoRun]) -> Vec<Vec<usize>> {
    let mut edges = vec![Vec::new(); runs.len()];
    for j in 1..runs.len() {
        let (js, je) = (runs[j].sector, runs[j].sector + runs[j].sectors());
        for (i, earlier) in runs.iter().enumerate().take(j) {
            let (is, ie) = (earlier.sector, earlier.sector + earlier.sectors());
            if js < ie && is < je {
                edges[j].push(i);
            }
        }
    }
    edges
}

/// Computes the delay before retry number `attempt` (0-based): capped
/// exponential backoff plus bounded jitter from the drain's forked RNG.
/// Deterministic: the same policy, attempt and RNG state give the same
/// delay on every run.
pub(crate) fn backoff_delay(policy: &RetryPolicy, attempt: u32, rng: &mut SimRng) -> SimDuration {
    let base = policy.backoff_base.as_nanos();
    let mult = 1u64.checked_shl(attempt.min(63)).unwrap_or(u64::MAX);
    let delay = base.saturating_mul(mult).min(policy.backoff_cap.as_nanos());
    let jitter = match policy.jitter.as_nanos() {
        0 => 0,
        j => rng.next_u64() % j,
    };
    SimDuration::from_nanos(delay.saturating_add(jitter))
}

/// Why [`write_run_resilient`] gave up.
enum RunFatal {
    /// The device is unreachable for good (power collapse, or retries
    /// disabled by configuration): freeze and abandon the drain.
    DeviceLost,
}

/// Commits one consolidated run, surviving transient failures (capped
/// exponential backoff) and grown media defects (remap + rewrite). Enters
/// degraded mode once the retry budget is exhausted — but never drops the
/// run: every byte in it was acknowledged, so giving up would turn a slow
/// disk into a broken promise.
///
/// `consecutive_ok` is the degraded-mode hysteresis counter, shared by
/// every concurrent writer under the windowed drain (one disk, one health
/// signal): any writer's failure resets it, any writer's successes count
/// toward the exit threshold.
///
/// With `queued`, each attempt rides the queued device interface
/// ([`BlockDevice::submit`] + [`BlockDevice::wait`]) so the device's
/// outstanding-request accounting sees the drain window; without it, the
/// legacy direct vectored write is used — byte- and trace-identical to the
/// pre-window serial drain, which [`OrderingMode::Strict`] promises.
#[allow(clippy::too_many_arguments)]
async fn write_run_resilient(
    ctx: &SimCtx,
    disk: &Disk,
    run: &IoRun,
    policy: &RetryPolicy,
    rng: &mut SimRng,
    audit: &Audit,
    mode: &ModeState,
    consecutive_ok: &StdCell<u32>,
    queued: bool,
) -> Result<(), RunFatal> {
    let tracer = ctx.tracer();
    let mut attempt: u32 = 0;
    let mut remaps: u32 = 0;
    loop {
        // Vectored zero-copy write either way: the disk views the run's
        // segments until they land on the media store; segment clones are
        // refcount bumps.
        let wrote = if queued {
            let token = disk.submit(IoReq::Write {
                sector: run.sector,
                segments: run.segments.clone(),
                fua: true,
            });
            BlockDevice::wait(disk, token).await.map(|_| ())
        } else {
            disk.write_segments(run.sector, run.segments.clone(), true)
                .await
        };
        match wrote {
            Ok(()) => {
                consecutive_ok.set(consecutive_ok.get().saturating_add(1));
                if mode.is_degraded() && consecutive_ok.get() >= policy.degraded_exit_successes {
                    mode.set_degraded(false);
                    audit.record_degraded_exit();
                    tracer.instant(
                        ctx.now(),
                        Layer::Drain,
                        "degraded_exit",
                        Payload::Mark {
                            value: consecutive_ok.get() as u64,
                        },
                    );
                }
                return Ok(());
            }
            Err(IoError::Transient) if policy.enabled => {
                consecutive_ok.set(0);
                audit.record_retry();
                tracer.instant(
                    ctx.now(),
                    Layer::Drain,
                    "drain_retry",
                    Payload::Mark {
                        value: attempt as u64,
                    },
                );
                if attempt >= policy.max_retries && !mode.is_degraded() {
                    mode.set_degraded(true);
                    audit.record_degraded_entry();
                    tracer.instant(
                        ctx.now(),
                        Layer::Drain,
                        "degraded_entry",
                        Payload::Mark {
                            value: attempt as u64,
                        },
                    );
                }
                ctx.sleep(backoff_delay(policy, attempt, rng)).await;
                attempt = attempt.saturating_add(1);
            }
            Err(IoError::MediaError { sector }) if policy.enabled => {
                consecutive_ok.set(0);
                remaps += 1;
                if remaps > policy.max_remaps {
                    return Err(RunFatal::DeviceLost);
                }
                disk.remap(sector);
                audit.record_remap();
                tracer.instant(
                    ctx.now(),
                    Layer::Drain,
                    "drain_remap",
                    Payload::Fault {
                        kind: "remap",
                        sector,
                    },
                );
                // Rewrite the whole run: the failed write may have torn at
                // the defect, and rewriting is idempotent.
            }
            Err(_) => {
                consecutive_ok.set(0);
                return Err(RunFatal::DeviceLost);
            }
        }
    }
}

/// One run in flight under the windowed drain: its sector range, and the
/// event dependents (later overlapping runs) wait on before touching media.
struct InflightRun {
    id: u64,
    sector: u64,
    sectors: u64,
    done: Rc<Event>,
}

/// One popped batch awaiting retirement under the windowed drain.
struct BatchEntry {
    id: u64,
    /// Sequence range `[lo, hi]` the batch covers.
    lo: u64,
    hi: u64,
    /// Runs still in flight; the batch retires when this reaches zero.
    remaining: u64,
    retired: bool,
    payload: Payload,
    /// Total payload bytes — the controller's bandwidth numerator.
    bytes: u64,
    /// When the batch was popped, for the service-time EWMA.
    dispatched_ns: u64,
    /// Per-extent admission stamps, consumed for commit-latency samples
    /// when the batch reaches the contiguous durable prefix.
    admits: Vec<u64>,
}

/// Retirement accounting: batches are registered in sequence order and may
/// finish out of order, but [`Audit::record_commit`] is fed only the
/// contiguous durable prefix — exactly what invariant I3 promises. Under
/// the sharded drain each tenant has its own ledger (`tenant` set), so each
/// tenant's audit section advances with its own contiguous prefix.
struct BatchLedger {
    batches: VecDeque<BatchEntry>,
    tenant: Option<TenantId>,
}

impl BatchLedger {
    /// Marks one run of batch `id` complete. Returns the trace payloads of
    /// batches newly retired plus the sequence numbers whose durable-prefix
    /// commits should be recorded, and whether this retirement jumped ahead
    /// of an older still-pending batch.
    ///
    /// Retirement is also the controller's sensor: the batch's dispatch →
    /// retirement service time feeds [`DrainController::observe_batch`]
    /// (with `backlog`, the bytes still queued behind it), and every extent
    /// reaching the contiguous durable prefix records its admission →
    /// commit latency.
    fn run_done(
        &mut self,
        id: u64,
        buffer: &DependableBuffer,
        audit: &Audit,
        ctrl: &DrainController,
        now_ns: u64,
        backlog: u64,
    ) -> (Option<Payload>, bool) {
        let idx = self
            .batches
            .iter()
            .position(|b| b.id == id)
            .expect("run retired for an unregistered batch");
        let entry = &mut self.batches[idx];
        entry.remaining -= 1;
        if entry.remaining > 0 {
            return (None, false);
        }
        entry.retired = true;
        let payload = entry.payload;
        ctrl.observe_batch(
            entry.bytes,
            now_ns.saturating_sub(entry.dispatched_ns),
            backlog,
        );
        // Space (and the read overlay) release immediately: the bytes are
        // on media whether or not older batches still fly.
        buffer.complete_seqs(entry.lo, entry.hi);
        let jumped = idx != 0;
        if jumped {
            audit.record_ooo_retirement();
        }
        // The audit ledger advances only with the contiguous prefix.
        while self.batches.front().is_some_and(|b| b.retired) {
            let front = self.batches.pop_front().expect("checked non-empty");
            for &admit_ns in &front.admits {
                if admit_ns > 0 {
                    ctrl.record_commit_latency(now_ns.saturating_sub(admit_ns));
                }
            }
            match self.tenant {
                Some(t) => audit.record_tenant_commit(t.0, front.hi),
                None => audit.record_commit(front.hi),
            }
        }
        (Some(payload), jumped)
    }
}

/// The adaptive group-commit controller: one per instance, shared by the
/// drain loop, every run task, and [`RapiLog::snapshot`](crate::RapiLog).
///
/// The controller owns the in-flight window semaphore and the batch-size
/// target the drain pops with. Under [`BatchPolicy::Fixed`] (or
/// [`OrderingMode::Strict`], which pins batching regardless of policy) it
/// is inert: the target stays at `max_batch`, the window at its configured
/// depth, and `observe_batch` only updates the EWMAs and commit-latency
/// histogram for observability — no decision, no trace event, so Fixed and
/// Strict traces stay bit-identical to previous releases.
///
/// Under [`BatchPolicy::Adaptive`] + `PartiallyConstrained`, each batch
/// retirement updates an integer EWMA (α = ¼) of per-batch service time
/// and achieved bandwidth, then walks the target toward the
/// latency/bandwidth knee (see DESIGN.md §15):
///
/// * **shrink** (halve) when the service-time EWMA exceeds the latency
///   budget — the batch is too big for the device's current behaviour;
/// * **decay** (to `min_batch`) when the queue behind the retiring batch
///   is empty — light load, so the next lone commit rides a small run;
/// * **grow** (double) when the backlog would fill ≥ 4 targets, the
///   service EWMA sits below half the budget, *and* the bandwidth EWMA
///   improved ≥ 2% since the last grow — past the knee, marginal
///   bandwidth gain vanishes and growth stops on its own.
///
/// Window autotuning rides the same signal: with backlog for more than the
/// current depth and latency inside budget, the window widens one permit at
/// a time toward the device's [`Geometry::queue_depth`]; when the budget is
/// exceeded it narrows back toward the configured depth by parking permits
/// (never below — the configured depth is the operator's floor).
pub(crate) struct DrainController {
    ctx: SimCtx,
    adaptive: Option<AdaptiveBatchConfig>,
    max_batch: usize,
    min_batch: usize,
    target: StdCell<usize>,
    base_depth: usize,
    max_depth: usize,
    depth: StdCell<usize>,
    window: Rc<Semaphore>,
    /// Permits withdrawn from the window by narrowing, held until a widen
    /// releases one again.
    parked: RefCell<Vec<SemPermit>>,
    ewma_service_ns: StdCell<u64>,
    ewma_bps: StdCell<u64>,
    /// Bandwidth EWMA captured at the last grow — the marginal-gain
    /// reference; 0 means "no reference, first grow is free".
    grow_ref_bps: StdCell<u64>,
    batch_grows: StdCell<u64>,
    batch_shrinks: StdCell<u64>,
    window_widens: StdCell<u64>,
    window_narrows: StdCell<u64>,
    hold_fires: StdCell<u64>,
    latency: RefCell<Histogram>,
}

/// Integer EWMA with α = ¼: `e + (x − e)/4`, seeding from the first
/// sample. Signed arithmetic so the estimate tracks downward too.
fn ewma_update(e: u64, x: u64) -> u64 {
    if e == 0 {
        x
    } else {
        (e as i64 + ((x as i64 - e as i64) >> 2)).max(0) as u64
    }
}

impl DrainController {
    /// Builds the controller for one instance. `disk` supplies the
    /// geometry cap for window autotuning; the drain config supplies
    /// everything else. Always constructed (a Fixed/Strict/write-through
    /// instance just never moves), so `snapshot().drain` is uniform.
    pub(crate) fn new(ctx: &SimCtx, cfg: &DrainConfig, disk: &Disk) -> Rc<DrainController> {
        let base_depth = match cfg.ordering {
            OrderingMode::Strict => 1,
            OrderingMode::PartiallyConstrained => cfg.window_depth.max(1),
        };
        // Strict pins the batch target fixed: the serial drain's trace is a
        // compatibility promise, and a moving target would break it.
        let adaptive = match (cfg.ordering, cfg.batch) {
            (OrderingMode::PartiallyConstrained, BatchPolicy::Adaptive(a)) => Some(a),
            _ => None,
        };
        let max_depth = match adaptive {
            Some(_) => (disk.geometry().queue_depth as usize).max(base_depth),
            None => base_depth,
        };
        let min_batch = adaptive
            .map(|a| a.min_batch.max(SECTOR_SIZE).min(cfg.max_batch))
            .unwrap_or(cfg.max_batch);
        // Adaptive starts small and earns its way up; Fixed starts (and
        // stays) at max_batch — today's behaviour.
        let target = if adaptive.is_some() {
            min_batch
        } else {
            cfg.max_batch
        };
        Rc::new(DrainController {
            ctx: ctx.clone(),
            adaptive,
            max_batch: cfg.max_batch,
            min_batch,
            target: StdCell::new(target),
            base_depth,
            max_depth,
            depth: StdCell::new(base_depth),
            window: Rc::new(Semaphore::new(base_depth)),
            parked: RefCell::new(Vec::new()),
            ewma_service_ns: StdCell::new(0),
            ewma_bps: StdCell::new(0),
            grow_ref_bps: StdCell::new(0),
            batch_grows: StdCell::new(0),
            batch_shrinks: StdCell::new(0),
            window_widens: StdCell::new(0),
            window_narrows: StdCell::new(0),
            hold_fires: StdCell::new(0),
            latency: RefCell::new(Histogram::new()),
        })
    }

    /// The in-flight window the drain loop acquires permits from. The
    /// controller owns it so narrowing can park permits.
    pub(crate) fn window(&self) -> Rc<Semaphore> {
        Rc::clone(&self.window)
    }

    /// Bytes the next `pop_batch` should aim for.
    pub(crate) fn pop_target(&self) -> usize {
        self.target.get()
    }

    /// The adaptive tuning, when the controller is live (Adaptive policy
    /// under PartiallyConstrained ordering).
    pub(crate) fn adaptive_cfg(&self) -> Option<AdaptiveBatchConfig> {
        self.adaptive
    }

    /// Counts (and traces) one hold-timer expiry in the drain loop.
    pub(crate) fn note_hold_fire(&self) {
        self.hold_fires.set(self.hold_fires.get() + 1);
        self.ctx.tracer().instant(
            self.ctx.now(),
            Layer::Drain,
            "hold_fire",
            Payload::Mark {
                value: self.hold_fires.get(),
            },
        );
    }

    /// Feeds one batch retirement into the EWMAs and, when adaptive, walks
    /// the batch target and window depth (see the type-level doc for the
    /// control law). `service_ns` spans dispatch (pop) to retirement (last
    /// run landed); `backlog` is the bytes still queued at retirement.
    pub(crate) fn observe_batch(&self, bytes: u64, service_ns: u64, backlog: u64) {
        let service_ns = service_ns.max(1);
        let bps = bytes.saturating_mul(1_000_000_000) / service_ns;
        let svc = ewma_update(self.ewma_service_ns.get(), service_ns);
        let ebps = ewma_update(self.ewma_bps.get(), bps);
        self.ewma_service_ns.set(svc);
        self.ewma_bps.set(ebps);
        let Some(a) = self.adaptive else {
            return;
        };
        let budget = a.latency_budget.as_nanos().max(1);
        let tgt = self.target.get();
        if svc > budget && tgt > self.min_batch {
            // Over budget: the batch is too big for what the device is
            // currently delivering. Halve and re-reference marginal gain.
            self.retarget(tgt / 2, false);
        } else if backlog == 0 && tgt > self.min_batch {
            // Light load: nothing waiting behind the batch that just
            // landed. Decay to the floor so the next lone commit rides a
            // small, fast run instead of a saturation-sized one.
            self.retarget(self.min_batch, false);
        } else if tgt < self.max_batch && backlog >= 4 * tgt as u64 && svc <= budget / 2 {
            // Saturation headroom: only grow while the bandwidth EWMA says
            // the last grow actually bought throughput (≥ 2% — the knee).
            let marginal_ok = match self.grow_ref_bps.get() {
                0 => true,
                r => ebps > r + r / 50,
            };
            if marginal_ok {
                self.grow_ref_bps.set(ebps);
                self.retarget((tgt * 2).min(self.max_batch), true);
            }
        }
        // Window autotuning on the same retirement signal.
        let depth = self.depth.get();
        if svc > budget && depth > self.base_depth {
            // Retirement latency degraded: narrow by parking a permit (if
            // one is free right now; otherwise retry on a later batch).
            if let Some(permit) = self.window.try_acquire(1) {
                self.parked.borrow_mut().push(permit);
                self.depth.set(depth - 1);
                self.window_narrows.set(self.window_narrows.get() + 1);
                self.trace_depth("window_narrow");
            }
        } else if depth < self.max_depth
            && svc <= budget
            && backlog >= (tgt as u64).saturating_mul(depth as u64 + 1)
        {
            // Backlog for more than the current depth and latency inside
            // budget: widen toward the device's queue depth.
            match self.parked.borrow_mut().pop() {
                Some(permit) => drop(permit),
                None => self.window.add_permits(1),
            }
            self.depth.set(depth + 1);
            self.window_widens.set(self.window_widens.get() + 1);
            self.trace_depth("window_widen");
        }
    }

    /// Applies a new batch target, counting and tracing the move.
    fn retarget(&self, new_target: usize, grew: bool) {
        self.target.set(new_target);
        if grew {
            self.batch_grows.set(self.batch_grows.get() + 1);
        } else {
            self.batch_shrinks.set(self.batch_shrinks.get() + 1);
            self.grow_ref_bps.set(0);
        }
        self.ctx.tracer().instant(
            self.ctx.now(),
            Layer::Drain,
            "batch_target",
            Payload::Mark {
                value: new_target as u64,
            },
        );
    }

    fn trace_depth(&self, name: &'static str) {
        self.ctx.tracer().instant(
            self.ctx.now(),
            Layer::Drain,
            name,
            Payload::Mark {
                value: self.depth.get() as u64,
            },
        );
    }

    /// Records one extent's admission → durable-prefix-commit latency.
    pub(crate) fn record_commit_latency(&self, ns: u64) {
        self.latency.borrow_mut().record(ns);
    }

    /// Point-in-time view for [`RapiLogSnapshot::drain`](crate::RapiLogSnapshot).
    pub(crate) fn stats(&self) -> DrainStats {
        let lat = self.latency.borrow();
        DrainStats {
            batch_target: self.target.get() as u64,
            window_depth: self.depth.get() as u64,
            window_base: self.base_depth as u64,
            window_max: self.max_depth as u64,
            ewma_service_ns: self.ewma_service_ns.get(),
            ewma_bytes_per_sec: self.ewma_bps.get(),
            batch_grows: self.batch_grows.get(),
            batch_shrinks: self.batch_shrinks.get(),
            window_widens: self.window_widens.get(),
            window_narrows: self.window_narrows.get(),
            hold_fires: self.hold_fires.get(),
            commit_p50_ns: lat.percentile(50.0),
            commit_p99_ns: lat.percentile(99.0),
            commits_measured: lat.count(),
        }
    }
}

/// Spawns the drain loop and (with a supply) the power watcher.
#[allow(clippy::too_many_arguments)]
pub(crate) fn start(
    ctx: &SimCtx,
    cell: &Cell,
    buffer: DependableBuffer,
    disk: Disk,
    cfg: RapiLogConfig,
    supply: Option<PowerSupply>,
    audit: Audit,
    mode: Rc<ModeState>,
    tenant: TenantId,
    ctrl: Rc<DrainController>,
) {
    match cfg.drain.ordering {
        OrderingMode::Strict => start_strict(ctx, cell, &buffer, disk, cfg, &audit, mode, tenant),
        OrderingMode::PartiallyConstrained => {
            start_windowed(ctx, cell, &buffer, disk, cfg, &audit, mode, tenant, ctrl)
        }
    }
    if let Some(psu) = supply {
        start_power_watcher(ctx, cell, buffer, psu, audit);
    }
}

/// The paper's original serial drain: one run on media at a time, in exact
/// sequence order. Kept verbatim — [`OrderingMode::Strict`] must stay
/// trace-identical release over release.
#[allow(clippy::too_many_arguments)]
fn start_strict(
    ctx: &SimCtx,
    cell: &Cell,
    buffer: &DependableBuffer,
    disk: Disk,
    cfg: RapiLogConfig,
    audit: &Audit,
    mode: Rc<ModeState>,
    tenant: TenantId,
) {
    let drain_buffer = buffer.clone();
    let drain_audit = audit.clone();
    let drain_ctx = ctx.clone();
    let tracer = ctx.tracer();
    let mut rng = ctx.fork_rng();
    cell.spawn(async move {
        let policy = cfg.drain.retry;
        let consecutive_ok = StdCell::new(0u32);
        loop {
            drain_buffer.wait_avail().await;
            loop {
                // Extents move out of the queue; the buffer's in-flight
                // ledger keeps occupancy and read-your-writes alive until
                // complete().
                let batch = drain_buffer.pop_batch(cfg.drain.max_batch);
                if batch.is_empty() {
                    break;
                }
                let last_seq = batch.last().expect("non-empty batch").seq;
                let runs = consolidate(&batch);
                let batch_payload = Payload::Batch {
                    extents: batch.len() as u64,
                    runs: runs.len() as u64,
                    bytes: runs.iter().map(|r| r.bytes() as u64).sum(),
                };
                tracer.begin(drain_ctx.now(), Layer::Drain, "drain_batch", batch_payload);
                let mut failed = false;
                for run in runs {
                    if write_run_resilient(
                        &drain_ctx,
                        &disk,
                        &run,
                        &policy,
                        &mut rng,
                        &drain_audit,
                        &mode,
                        &consecutive_ok,
                        false,
                    )
                    .await
                    .is_err()
                    {
                        failed = true;
                        break;
                    }
                }
                if failed {
                    // The disk is gone for good (power collapse, or the
                    // resilience policy is switched off). Whatever remains
                    // buffered is lost with the machine; the audit decides
                    // whether that violated the guarantee (it must not,
                    // if sizing was honest and the warning fired).
                    tracer.end(
                        drain_ctx.now(),
                        Layer::Drain,
                        "drain_batch",
                        Payload::Text {
                            text: "drain_failure",
                        },
                    );
                    tracer.instant(
                        drain_ctx.now(),
                        Layer::Drain,
                        "freeze",
                        Payload::Bytes {
                            bytes: drain_buffer.occupancy(),
                        },
                    );
                    drain_audit.record_drain_failure(drain_buffer.occupancy());
                    drain_buffer.freeze();
                    return;
                }
                tracer.end(drain_ctx.now(), Layer::Drain, "drain_batch", batch_payload);
                if tenant == TenantId::DEFAULT {
                    drain_audit.record_commit(last_seq);
                } else {
                    drain_audit.record_tenant_commit(tenant.0, last_seq);
                }
                drain_buffer.complete(last_seq);
            }
        }
    });
}

/// The windowed drain: pops batches continuously and keeps up to
/// `window_depth` consolidated runs in flight at once. Each run waits for
/// every earlier in-flight run overlapping its sector range (see
/// [`dep_edges`] for the declarative form of the constraint — here it is
/// enforced online, across batch boundaries too) and then commits through
/// [`write_run_resilient`], so the full retry/remap/degraded machinery
/// applies per run. Disjoint runs ride separate device channels and retire
/// out of order; [`BatchLedger`] keeps the audit ledger on the contiguous
/// durable prefix.
///
/// The pop target and the window both belong to the [`DrainController`]:
/// under [`BatchPolicy::Fixed`] they are constants (`max_batch`,
/// `window_depth`) and the loop behaves — and traces — exactly as before;
/// under [`BatchPolicy::Adaptive`] they move with the observed operating
/// point, and a **hold timer** arms when the window is saturated but the
/// backlog would make a fractional batch: the loop waits up to `max_hold`
/// for more bytes to coalesce (free, since no permit is available anyway),
/// then pops whatever arrived. With a free permit the pop is immediate, so
/// a lone commit at idle never waits on the timer.
#[allow(clippy::too_many_arguments)]
fn start_windowed(
    ctx: &SimCtx,
    cell: &Cell,
    buffer: &DependableBuffer,
    disk: Disk,
    cfg: RapiLogConfig,
    audit: &Audit,
    mode: Rc<ModeState>,
    tenant: TenantId,
    ctrl: Rc<DrainController>,
) {
    let drain_buffer = buffer.clone();
    let drain_audit = audit.clone();
    let drain_ctx = ctx.clone();
    let tracer = ctx.tracer();
    cell.spawn(async move {
        let policy = cfg.drain.retry;
        let window = ctrl.window();
        let consecutive_ok = Rc::new(StdCell::new(0u32));
        let failed = Rc::new(StdCell::new(false));
        let inflight: Rc<RefCell<Vec<InflightRun>>> = Rc::new(RefCell::new(Vec::new()));
        let ledger = Rc::new(RefCell::new(BatchLedger {
            batches: VecDeque::new(),
            // A non-default tenant gets its own audit section even on the
            // single-tenant path.
            tenant: (tenant != TenantId::DEFAULT).then_some(tenant),
        }));
        let mut next_run_id = 0u64;
        let mut next_batch_id = 0u64;
        loop {
            drain_buffer.wait_avail().await;
            loop {
                if failed.get() {
                    return;
                }
                // Adaptive hold: the window is saturated (the batch could
                // not dispatch yet anyway) and the queue holds less than
                // one target — wait briefly for the batch to fill out.
                if let Some(a) = ctrl.adaptive_cfg() {
                    if window.available() == 0
                        && drain_buffer.queued_bytes() < ctrl.pop_target() as u64
                        && !drain_buffer.is_frozen()
                    {
                        drain_ctx.sleep(a.max_hold).await;
                        ctrl.note_hold_fire();
                    }
                }
                let batch = drain_buffer.pop_batch(ctrl.pop_target());
                if batch.is_empty() {
                    break;
                }
                let lo = batch.first().expect("non-empty batch").seq;
                let hi = batch.last().expect("non-empty batch").seq;
                let runs = consolidate(&batch);
                let bytes: u64 = runs.iter().map(|r| r.bytes() as u64).sum();
                let batch_payload = Payload::Batch {
                    extents: batch.len() as u64,
                    runs: runs.len() as u64,
                    bytes,
                };
                tracer.begin(drain_ctx.now(), Layer::Drain, "drain_batch", batch_payload);
                let batch_id = next_batch_id;
                next_batch_id += 1;
                ledger.borrow_mut().batches.push_back(BatchEntry {
                    id: batch_id,
                    lo,
                    hi,
                    remaining: runs.len() as u64,
                    retired: false,
                    payload: batch_payload,
                    bytes,
                    dispatched_ns: drain_ctx.now().as_nanos(),
                    admits: batch.iter().map(|e| e.admit_ns).collect(),
                });
                for run in runs {
                    // Backpressure: the window cap bounds runs in flight.
                    let permit = window.acquire(1).await;
                    if failed.get() {
                        return;
                    }
                    let run_id = next_run_id;
                    next_run_id += 1;
                    // Ordering edges: every in-flight run overlapping this
                    // one — including earlier runs of this very batch —
                    // must land first, or newest-wins media order breaks.
                    let (run_lo, run_hi) = (run.sector, run.sector + run.sectors());
                    let deps: Vec<Rc<Event>> = inflight
                        .borrow()
                        .iter()
                        .filter(|f| run_lo < f.sector + f.sectors && f.sector < run_hi)
                        .map(|f| Rc::clone(&f.done))
                        .collect();
                    let done = Rc::new(Event::new());
                    inflight.borrow_mut().push(InflightRun {
                        id: run_id,
                        sector: run.sector,
                        sectors: run.sectors(),
                        done: Rc::clone(&done),
                    });
                    // RNG forked at dispatch, in deterministic order.
                    let mut rng = drain_ctx.fork_rng();
                    let task_ctx = drain_ctx.clone();
                    let task_disk = disk.clone();
                    let task_audit = drain_audit.clone();
                    let task_mode = Rc::clone(&mode);
                    let task_ok = Rc::clone(&consecutive_ok);
                    let task_failed = Rc::clone(&failed);
                    let task_inflight = Rc::clone(&inflight);
                    let task_ledger = Rc::clone(&ledger);
                    let task_buffer = drain_buffer.clone();
                    let task_tracer = Rc::clone(&tracer);
                    let task_ctrl = Rc::clone(&ctrl);
                    drain_ctx.spawn(async move {
                        let _permit = permit;
                        for dep in &deps {
                            dep.wait().await;
                        }
                        // A sibling writer lost the device: the buffer is
                        // frozen, nothing more may touch media coherently.
                        let result = if task_failed.get() {
                            None
                        } else {
                            Some(
                                write_run_resilient(
                                    &task_ctx,
                                    &task_disk,
                                    &run,
                                    &policy,
                                    &mut rng,
                                    &task_audit,
                                    &task_mode,
                                    &task_ok,
                                    true,
                                )
                                .await,
                            )
                        };
                        // Dependents proceed (and observe `failed`) even
                        // when this run went down with the device.
                        done.set();
                        task_inflight.borrow_mut().retain(|f| f.id != run_id);
                        match result {
                            Some(Ok(())) if !task_failed.get() => {
                                let (retired, jumped) = task_ledger.borrow_mut().run_done(
                                    batch_id,
                                    &task_buffer,
                                    &task_audit,
                                    &task_ctrl,
                                    task_ctx.now().as_nanos(),
                                    task_buffer.queued_bytes(),
                                );
                                if let Some(payload) = retired {
                                    task_tracer.end(
                                        task_ctx.now(),
                                        Layer::Drain,
                                        "drain_batch",
                                        payload,
                                    );
                                    if jumped {
                                        task_tracer.instant(
                                            task_ctx.now(),
                                            Layer::Drain,
                                            "ooo_retire",
                                            payload,
                                        );
                                    }
                                }
                            }
                            Some(Err(RunFatal::DeviceLost)) if !task_failed.replace(true) => {
                                task_tracer.end(
                                    task_ctx.now(),
                                    Layer::Drain,
                                    "drain_batch",
                                    Payload::Text {
                                        text: "drain_failure",
                                    },
                                );
                                task_tracer.instant(
                                    task_ctx.now(),
                                    Layer::Drain,
                                    "freeze",
                                    Payload::Bytes {
                                        bytes: task_buffer.occupancy(),
                                    },
                                );
                                task_audit.record_drain_failure(task_buffer.occupancy());
                                task_buffer.freeze();
                            }
                            // Skipped (device already lost) or landed after
                            // the failure: leave the ledger alone — the
                            // occupancy snapshot at failure is the loss.
                            _ => {}
                        }
                    });
                }
            }
        }
    });
}

/// Spawns the multi-tenant fair-share drain and (with a supply) the
/// sharded power watcher.
#[allow(clippy::too_many_arguments)]
pub(crate) fn start_sharded(
    ctx: &SimCtx,
    cell: &Cell,
    sharded: &ShardedBuffer,
    disk: Disk,
    cfg: RapiLogConfig,
    supply: Option<PowerSupply>,
    audit: Audit,
    mode: Rc<ModeState>,
    ctrl: Rc<DrainController>,
) {
    start_fair_share(ctx, cell, sharded, disk, cfg, &audit, mode, ctrl);
    if let Some(psu) = supply {
        start_power_watcher_sharded(ctx, cell, sharded.clone(), psu, audit);
    }
}

/// The fair-share drain: a deficit-round-robin scheduler over tenant
/// shards feeding the windowed out-of-order engine of [`start_windowed`].
///
/// Each scheduling cycle visits every shard once (the start position
/// rotates so no shard gets a standing head-of-line advantage) and grants
/// it one batch of up to `weight × max_batch` bytes — the weighted
/// quantum. The runs of all tenants share one in-flight window and one
/// overlap-dependency set (one disk, one newest-wins media order), but
/// retirement bookkeeping is **per tenant**: each shard has its own
/// [`BatchLedger`], so space release and the audit's contiguous durable
/// prefix advance independently per tenant, and a slow tenant never holds
/// back another tenant's commit ledger.
///
/// [`OrderingMode::Strict`] is honoured by clamping the window to depth 1:
/// runs then land serially in dispatch order, which — because every shard's
/// batches are dispatched in its own sequence order — preserves the strict
/// per-tenant discipline.
///
/// All tenants' ledgers feed the **one shared** [`DrainController`]: there
/// is one disk, so there is one latency/bandwidth operating point, and the
/// adaptive pop target scales every tenant's quantum together (quantum =
/// target × weight, so relative fair shares are untouched). The controller
/// sees the *aggregate* queued backlog across shards. The hold timer is
/// not armed here — with multiple tenants the round-robin cursor already
/// interleaves pops, and delaying one tenant's pop would hold the cursor
/// against the others.
#[allow(clippy::too_many_arguments)]
fn start_fair_share(
    ctx: &SimCtx,
    cell: &Cell,
    sharded: &ShardedBuffer,
    disk: Disk,
    cfg: RapiLogConfig,
    audit: &Audit,
    mode: Rc<ModeState>,
    ctrl: Rc<DrainController>,
) {
    let drain_sharded = sharded.clone();
    let drain_audit = audit.clone();
    let drain_ctx = ctx.clone();
    let tracer = ctx.tracer();
    cell.spawn(async move {
        let policy = cfg.drain.retry;
        let window = ctrl.window();
        let consecutive_ok = Rc::new(StdCell::new(0u32));
        let failed = Rc::new(StdCell::new(false));
        let inflight: Rc<RefCell<Vec<InflightRun>>> = Rc::new(RefCell::new(Vec::new()));
        let shard_info: Vec<(TenantId, u32, DependableBuffer)> = drain_sharded
            .shards()
            .iter()
            .map(|s| (s.id, s.weight, s.buf.clone()))
            .collect();
        let ledgers: Vec<Rc<RefCell<BatchLedger>>> = shard_info
            .iter()
            .map(|(id, _, _)| {
                Rc::new(RefCell::new(BatchLedger {
                    batches: VecDeque::new(),
                    tenant: Some(*id),
                }))
            })
            .collect();
        let n = shard_info.len();
        let mut next_run_id = 0u64;
        let mut next_batch_id = 0u64;
        let mut cursor = 0usize;
        loop {
            drain_sharded.wait_any_avail().await;
            loop {
                if failed.get() {
                    return;
                }
                let mut popped_any = false;
                for off in 0..n {
                    let idx = (cursor + off) % n;
                    let (_, weight, ref shard_buf) = shard_info[idx];
                    let quantum = ctrl.pop_target().saturating_mul(weight as usize);
                    let batch = shard_buf.pop_batch(quantum);
                    if batch.is_empty() {
                        continue;
                    }
                    popped_any = true;
                    let lo = batch.first().expect("non-empty batch").seq;
                    let hi = batch.last().expect("non-empty batch").seq;
                    let runs = consolidate(&batch);
                    let bytes: u64 = runs.iter().map(|r| r.bytes() as u64).sum();
                    let batch_payload = Payload::Batch {
                        extents: batch.len() as u64,
                        runs: runs.len() as u64,
                        bytes,
                    };
                    tracer.begin(drain_ctx.now(), Layer::Drain, "drain_batch", batch_payload);
                    let batch_id = next_batch_id;
                    next_batch_id += 1;
                    ledgers[idx].borrow_mut().batches.push_back(BatchEntry {
                        id: batch_id,
                        lo,
                        hi,
                        remaining: runs.len() as u64,
                        retired: false,
                        payload: batch_payload,
                        bytes,
                        dispatched_ns: drain_ctx.now().as_nanos(),
                        admits: batch.iter().map(|e| e.admit_ns).collect(),
                    });
                    for run in runs {
                        let permit = window.acquire(1).await;
                        if failed.get() {
                            return;
                        }
                        let run_id = next_run_id;
                        next_run_id += 1;
                        // Overlap edges are computed across ALL tenants'
                        // in-flight runs: tenants share the disk, so
                        // newest-wins media order is a global constraint.
                        let (run_lo, run_hi) = (run.sector, run.sector + run.sectors());
                        let deps: Vec<Rc<Event>> = inflight
                            .borrow()
                            .iter()
                            .filter(|f| run_lo < f.sector + f.sectors && f.sector < run_hi)
                            .map(|f| Rc::clone(&f.done))
                            .collect();
                        let done = Rc::new(Event::new());
                        inflight.borrow_mut().push(InflightRun {
                            id: run_id,
                            sector: run.sector,
                            sectors: run.sectors(),
                            done: Rc::clone(&done),
                        });
                        let mut rng = drain_ctx.fork_rng();
                        let task_ctx = drain_ctx.clone();
                        let task_disk = disk.clone();
                        let task_audit = drain_audit.clone();
                        let task_mode = Rc::clone(&mode);
                        let task_ok = Rc::clone(&consecutive_ok);
                        let task_failed = Rc::clone(&failed);
                        let task_inflight = Rc::clone(&inflight);
                        let task_ledger = Rc::clone(&ledgers[idx]);
                        let task_buffer = shard_buf.clone();
                        let task_sharded = drain_sharded.clone();
                        let task_tracer = Rc::clone(&tracer);
                        let task_ctrl = Rc::clone(&ctrl);
                        drain_ctx.spawn(async move {
                            let _permit = permit;
                            for dep in &deps {
                                dep.wait().await;
                            }
                            let result = if task_failed.get() {
                                None
                            } else {
                                Some(
                                    write_run_resilient(
                                        &task_ctx,
                                        &task_disk,
                                        &run,
                                        &policy,
                                        &mut rng,
                                        &task_audit,
                                        &task_mode,
                                        &task_ok,
                                        true,
                                    )
                                    .await,
                                )
                            };
                            done.set();
                            task_inflight.borrow_mut().retain(|f| f.id != run_id);
                            match result {
                                Some(Ok(())) if !task_failed.get() => {
                                    let (retired, jumped) = task_ledger.borrow_mut().run_done(
                                        batch_id,
                                        &task_buffer,
                                        &task_audit,
                                        &task_ctrl,
                                        task_ctx.now().as_nanos(),
                                        task_sharded.total_queued_bytes(),
                                    );
                                    if let Some(payload) = retired {
                                        task_tracer.end(
                                            task_ctx.now(),
                                            Layer::Drain,
                                            "drain_batch",
                                            payload,
                                        );
                                        if jumped {
                                            task_tracer.instant(
                                                task_ctx.now(),
                                                Layer::Drain,
                                                "ooo_retire",
                                                payload,
                                            );
                                        }
                                    }
                                }
                                Some(Err(RunFatal::DeviceLost)) if !task_failed.replace(true) => {
                                    task_tracer.end(
                                        task_ctx.now(),
                                        Layer::Drain,
                                        "drain_batch",
                                        Payload::Text {
                                            text: "drain_failure",
                                        },
                                    );
                                    task_tracer.instant(
                                        task_ctx.now(),
                                        Layer::Drain,
                                        "freeze",
                                        Payload::Bytes {
                                            bytes: task_sharded.total_occupancy(),
                                        },
                                    );
                                    // The aggregate is the global loss; the
                                    // per-shard snapshots attribute it so
                                    // every tenant's section can testify.
                                    task_audit.record_drain_failure(task_sharded.total_occupancy());
                                    for s in task_sharded.shards() {
                                        task_audit.record_tenant_loss(s.id.0, s.buf.occupancy());
                                    }
                                    task_sharded.freeze_all();
                                }
                                _ => {}
                            }
                        });
                    }
                    if failed.get() {
                        return;
                    }
                }
                cursor = (cursor + 1) % n;
                if !popped_any {
                    break;
                }
            }
        }
    });
}

/// The power watcher for a sharded instance: freezes every shard on the
/// supply's warning and audits the *aggregate* emergency drain — the
/// residual-energy window was sized for the sum of the shard capacities,
/// so the deadline applies to the sum of their occupancies.
fn start_power_watcher_sharded(
    ctx: &SimCtx,
    cell: &Cell,
    sharded: ShardedBuffer,
    psu: PowerSupply,
    audit: Audit,
) {
    let watcher_ctx = ctx.clone();
    let tracer = ctx.tracer();
    cell.spawn(async move {
        let warning = psu.warning_event();
        warning.wait().await;
        sharded.freeze_all();
        let remaining = sharded.total_occupancy();
        tracer.instant(
            watcher_ctx.now(),
            Layer::Power,
            "power_warning",
            Payload::Bytes { bytes: remaining },
        );
        let deadline = watcher_ctx.now()
            + psu
                .time_until_death()
                .expect("warning implies residual state");
        audit.record_warning(remaining, deadline);
        tracer.begin(
            watcher_ctx.now(),
            Layer::Drain,
            "emergency_drain",
            Payload::Bytes { bytes: remaining },
        );
        sharded.all_drained().await;
        tracer.end(
            watcher_ctx.now(),
            Layer::Drain,
            "emergency_drain",
            Payload::Bytes { bytes: remaining },
        );
        audit.record_emergency_drained();
    });
}

/// Spawns the power watcher: freezes admissions on the supply's warning
/// and audits whether the drain beat the residual-energy deadline.
fn start_power_watcher(
    ctx: &SimCtx,
    cell: &Cell,
    buffer: DependableBuffer,
    psu: PowerSupply,
    audit: Audit,
) {
    let watcher_ctx = ctx.clone();
    let watch_audit = audit;
    let tracer = ctx.tracer();
    cell.spawn(async move {
        // One power episode per RapiLog instance: after power loss the
        // instance is frozen and must be replaced by the operator (the
        // fault harness rebuilds the device stack on reboot).
        let warning = psu.warning_event();
        warning.wait().await;
        // Power is failing: stop admitting, note the state, and watch
        // the (already eager) drain race the deadline.
        buffer.freeze();
        let remaining = buffer.occupancy();
        tracer.instant(
            watcher_ctx.now(),
            Layer::Power,
            "power_warning",
            Payload::Bytes { bytes: remaining },
        );
        let deadline = watcher_ctx.now()
            + psu
                .time_until_death()
                .expect("warning implies residual state");
        watch_audit.record_warning(remaining, deadline);
        tracer.begin(
            watcher_ctx.now(),
            Layer::Drain,
            "emergency_drain",
            Payload::Bytes { bytes: remaining },
        );
        buffer.drained().await;
        tracer.end(
            watcher_ctx.now(),
            Layer::Drain,
            "emergency_drain",
            Payload::Bytes { bytes: remaining },
        );
        watch_audit.record_emergency_drained();
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Extent;
    use rapilog_simcore::bytes::SectorBuf;
    use rapilog_simdisk::{SectorStore, SECTOR_SIZE};

    fn ext(seq: u64, sector: u64, sectors: usize) -> Extent {
        Extent {
            seq,
            sector,
            admit_ns: 0,
            data: SectorBuf::from_vec(vec![seq as u8; sectors * SECTOR_SIZE]),
        }
    }

    /// Applies runs in order onto a store and reads back `sectors` sectors
    /// from `first` — the media-order ground truth for newest-wins.
    fn apply_and_read(runs: &[IoRun], first: u64, sectors: usize) -> Vec<u8> {
        let mut store = SectorStore::new();
        store.write_runs(runs);
        let mut buf = vec![0u8; sectors * SECTOR_SIZE];
        store.read_run(first, &mut buf);
        buf
    }

    #[test]
    fn consolidate_merges_contiguous_runs() {
        let runs = consolidate(&[ext(0, 0, 2), ext(1, 2, 3), ext(2, 5, 1)]);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].sector, 0);
        assert_eq!(runs[0].bytes(), 6 * SECTOR_SIZE);
        assert_eq!(runs[0].segments.len(), 3, "segments appended, not copied");
    }

    #[test]
    fn consolidate_dedupes_tail_rewrites_keeping_newest() {
        // Extents 1 and 2 both write sector 10; the union must hold the
        // newest bytes (tag 2), and everything becomes ONE ascending run.
        let runs = consolidate(&[ext(0, 9, 1), ext(1, 10, 1), ext(2, 10, 1), ext(3, 11, 1)]);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].sector, 9);
        assert_eq!(runs[0].bytes(), 3 * SECTOR_SIZE);
        let media = apply_and_read(&runs, 9, 3);
        assert_eq!(
            &media[SECTOR_SIZE..2 * SECTOR_SIZE],
            &vec![2u8; SECTOR_SIZE][..],
            "newest bytes win for the rewritten sector"
        );
    }

    #[test]
    fn consolidate_splits_on_gaps() {
        let runs = consolidate(&[ext(0, 0, 1), ext(1, 5, 2)]);
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].sector, 0);
        assert_eq!(runs[1].sector, 5);
        assert_eq!(runs[1].bytes(), 2 * SECTOR_SIZE);
    }

    #[test]
    fn consolidate_empty() {
        assert!(consolidate(&[]).is_empty());
    }

    #[test]
    fn consolidate_whole_run_rewrite_keeps_one_run() {
        // Extent 1 rewrites everything extent 0 covered and extends it.
        let runs = consolidate(&[ext(0, 4, 2), ext(1, 4, 3)]);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].sector, 4);
        assert_eq!(runs[0].bytes(), 3 * SECTOR_SIZE);
        let media = apply_and_read(&runs, 4, 3);
        assert_eq!(media, vec![1u8; 3 * SECTOR_SIZE]);
    }

    #[test]
    fn consolidate_tail_rewrite_slices_the_boundary_segment() {
        // Extent 0 covers sectors 0..4; extent 1 rewrites 2..5. The cut
        // falls inside extent 0's single segment, which must be re-viewed
        // (sliced), not copied.
        let runs = consolidate(&[ext(0, 0, 4), ext(1, 2, 3)]);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].sector, 0);
        assert_eq!(runs[0].bytes(), 5 * SECTOR_SIZE);
        let media = apply_and_read(&runs, 0, 5);
        assert_eq!(&media[..2 * SECTOR_SIZE], &vec![0u8; 2 * SECTOR_SIZE][..]);
        assert_eq!(&media[2 * SECTOR_SIZE..], &vec![1u8; 3 * SECTOR_SIZE][..]);
    }

    #[test]
    fn consolidate_middle_overlap_resolves_newest_by_media_order() {
        // Extent 1 rewrites a sector in the *middle* of extent 0's run;
        // truncating would lose extent 0's tail, so it becomes a separate
        // run written after — media order keeps newest-wins.
        let runs = consolidate(&[ext(0, 0, 4), ext(1, 1, 1)]);
        assert_eq!(runs.len(), 2);
        let media = apply_and_read(&runs, 0, 4);
        assert_eq!(&media[..SECTOR_SIZE], &vec![0u8; SECTOR_SIZE][..]);
        assert_eq!(
            &media[SECTOR_SIZE..2 * SECTOR_SIZE],
            &vec![1u8; SECTOR_SIZE][..]
        );
        assert_eq!(&media[2 * SECTOR_SIZE..], &vec![0u8; 2 * SECTOR_SIZE][..]);
    }

    #[test]
    fn consolidated_runs_share_extent_allocations() {
        // The zero-copy invariant inside the drain: run segments are views
        // of the very allocations the extents carry.
        let e = ext(0, 0, 2);
        let admitted_ptr = e.data.as_ptr();
        let runs = consolidate(&[e, ext(1, 2, 1)]);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].segments[0].as_ptr(), admitted_ptr);
    }

    #[test]
    fn pointer_identity_from_admission_through_buffer_to_run() {
        // The acceptance test for the zero-copy path: bytes admitted into
        // the DependableBuffer surface in the consolidated run at the SAME
        // address — no copy happened between vdisk admission and the media
        // write the run feeds.
        let mut sim = rapilog_simcore::Sim::new(0);
        let buf = DependableBuffer::new(1 << 20);
        let b2 = buf.clone();
        sim.spawn(async move {
            let data = SectorBuf::from_vec(vec![0xED; 2 * SECTOR_SIZE]);
            let admitted_ptr = data.as_ptr();
            b2.push(7, data).await.unwrap();
            b2.push(9, SectorBuf::from_vec(vec![0xEE; SECTOR_SIZE]))
                .await
                .unwrap();
            let batch = b2.pop_batch(usize::MAX);
            let runs = consolidate(&batch);
            assert_eq!(runs.len(), 1, "contiguous extents consolidate");
            assert_eq!(
                runs[0].segments[0].as_ptr(),
                admitted_ptr,
                "run feeds the admitted allocation itself"
            );
            assert!(runs[0].segments[0].same_allocation(&batch[0].data));
        });
        sim.run();
    }
}

#[cfg(test)]
mod backoff_tests {
    use super::*;

    fn policy() -> RetryPolicy {
        RetryPolicy {
            backoff_base: SimDuration::from_micros(100),
            backoff_cap: SimDuration::from_millis(20),
            jitter: SimDuration::from_micros(50),
            ..RetryPolicy::default()
        }
    }

    #[test]
    fn backoff_is_deterministic_for_equal_rng_state() {
        let p = policy();
        let mut a = SimRng::seed_from_u64(99);
        let mut b = SimRng::seed_from_u64(99);
        for attempt in 0..12 {
            assert_eq!(
                backoff_delay(&p, attempt, &mut a),
                backoff_delay(&p, attempt, &mut b),
                "attempt {attempt}"
            );
        }
    }

    #[test]
    fn backoff_doubles_then_caps() {
        let mut p = policy();
        p.jitter = SimDuration::ZERO;
        let mut rng = SimRng::seed_from_u64(1);
        assert_eq!(backoff_delay(&p, 0, &mut rng).as_micros(), 100);
        assert_eq!(backoff_delay(&p, 1, &mut rng).as_micros(), 200);
        assert_eq!(backoff_delay(&p, 4, &mut rng).as_micros(), 1600);
        // 100 µs * 2^8 = 25.6 ms > 20 ms cap.
        assert_eq!(backoff_delay(&p, 8, &mut rng).as_millis(), 20);
        // Huge attempt numbers must not overflow.
        assert_eq!(backoff_delay(&p, u32::MAX, &mut rng).as_millis(), 20);
    }

    #[test]
    fn jitter_is_bounded_and_consumed_from_the_rng() {
        let p = policy();
        let mut rng = SimRng::seed_from_u64(7);
        for attempt in 0..20 {
            let base_only = {
                let mut p0 = p;
                p0.jitter = SimDuration::ZERO;
                let mut dummy = SimRng::seed_from_u64(0);
                backoff_delay(&p0, attempt, &mut dummy)
            };
            let with_jitter = backoff_delay(&p, attempt, &mut rng);
            assert!(with_jitter >= base_only);
            assert!(with_jitter < base_only + p.jitter);
        }
    }
}

#[cfg(test)]
mod resilience_tests {
    use crate::prelude::*;
    use rapilog_microvisor::{Hypervisor, Trust};
    use rapilog_simcore::{Sim, SimDuration, SimTime};
    use rapilog_simdisk::{specs, BlockDevice, Disk, FaultProfile, SECTOR_SIZE};
    use std::cell::Cell as StdCell;
    use std::rc::Rc;

    fn setup(sim: &mut Sim, disk: Disk, retry: RetryPolicy) -> RapiLog {
        let ctx = sim.ctx();
        let hv = Hypervisor::new(&ctx);
        let cell = hv.create_cell("rapilog", Trust::Trusted);
        let rl = RapiLog::builder(&ctx)
            .cell(&cell)
            .disk(disk)
            .capacity(CapacitySpec::Fixed(16 << 20))
            .drain_config(DrainConfig::new().retry(retry))
            .build();
        std::mem::forget(cell);
        rl
    }

    #[test]
    fn drain_retries_through_transient_faults() {
        let mut sim = Sim::new(21);
        let ctx = sim.ctx();
        let spec = specs::instant(1 << 24).with_faults(FaultProfile::transient(4, 0.3));
        let disk = Disk::new(&ctx, spec);
        let rl = setup(&mut sim, disk.clone(), RetryPolicy::default());
        let dev = rl.device();
        sim.spawn(async move {
            for i in 0..200u64 {
                dev.write(i, &vec![i as u8; SECTOR_SIZE], true)
                    .await
                    .unwrap();
            }
        });
        sim.run_until(SimTime::from_secs(30));
        assert_eq!(rl.occupancy(), 0, "everything drained despite faults");
        let report = rl.audit_report();
        assert!(report.guarantee_held());
        assert!(report.drain_retries > 0, "faults forced retries");
        // Spot-check contents made it.
        let mut buf = vec![0u8; SECTOR_SIZE];
        disk.peek_media(150, &mut buf);
        assert_eq!(buf, vec![150u8; SECTOR_SIZE]);
    }

    #[test]
    fn drain_remaps_grown_defects_and_rewrites() {
        let mut sim = Sim::new(22);
        let ctx = sim.ctx();
        let disk = Disk::new(&ctx, specs::instant(1 << 24));
        disk.mark_bad(5);
        let rl = setup(&mut sim, disk.clone(), RetryPolicy::default());
        let dev = rl.device();
        sim.spawn(async move {
            dev.write(4, &vec![0xCD; 3 * SECTOR_SIZE], true)
                .await
                .unwrap();
        });
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(rl.occupancy(), 0);
        let report = rl.audit_report();
        assert!(report.guarantee_held());
        assert_eq!(report.sector_remaps, 1);
        let mut buf = vec![0u8; SECTOR_SIZE];
        for s in 4..7u64 {
            disk.peek_media(s, &mut buf);
            assert_eq!(buf, vec![0xCD; SECTOR_SIZE], "sector {s}");
        }
    }

    #[test]
    fn degraded_mode_enters_on_burst_and_exits_with_hysteresis() {
        let mut sim = Sim::new(23);
        let ctx = sim.ctx();
        let disk = Disk::new(&ctx, specs::instant(1 << 24));
        let retry = RetryPolicy {
            max_retries: 3,
            backoff_base: SimDuration::from_micros(100),
            backoff_cap: SimDuration::from_millis(2),
            degraded_exit_successes: 4,
            ..RetryPolicy::default()
        };
        let rl = setup(&mut sim, disk.clone(), retry);
        let dev = rl.device();
        let entered = Rc::new(StdCell::new(false));
        let e2 = Rc::clone(&entered);
        let rl2 = rl.clone();
        let c2 = ctx.clone();
        sim.spawn(async move {
            for i in 0..400u64 {
                dev.write(i % 64, &vec![i as u8; SECTOR_SIZE], true)
                    .await
                    .unwrap();
                if rl2.is_degraded() {
                    e2.set(true);
                }
                c2.sleep(SimDuration::from_micros(500)).await;
            }
        });
        // A 40 ms sick burst starting at t=20 ms.
        let d2 = disk.clone();
        sim.spawn({
            let ctx = ctx.clone();
            async move {
                ctx.sleep(SimDuration::from_millis(20)).await;
                d2.set_sick(true);
                ctx.sleep(SimDuration::from_millis(40)).await;
                d2.set_sick(false);
            }
        });
        sim.run_until(SimTime::from_secs(10));
        assert!(entered.get(), "burst drove the instance into degraded mode");
        let report = rl.audit_report();
        assert!(report.guarantee_held(), "no acked byte was lost");
        assert!(report.degraded_entries >= 1);
        assert_eq!(
            report.degraded_entries, report.degraded_exits,
            "every entry recovered"
        );
        assert!(!rl.is_degraded(), "healthy again after the burst");
        assert_eq!(rl.occupancy(), 0);
    }

    #[test]
    fn second_burst_after_recovery_reenters_degraded_mode_and_acks_synchronously() {
        let mut sim = Sim::new(25);
        let ctx = sim.ctx();
        let disk = Disk::new(&ctx, specs::instant(1 << 24));
        let retry = RetryPolicy {
            max_retries: 3,
            backoff_base: SimDuration::from_micros(100),
            backoff_cap: SimDuration::from_millis(2),
            degraded_exit_successes: 4,
            ..RetryPolicy::default()
        };
        let rl = setup(&mut sim, disk.clone(), retry);
        let dev = rl.device();
        // Probe state sampled during the second burst: the mode flag and
        // the ack latency of one write issued while the disk is sick again.
        let degraded_in_burst2 = Rc::new(StdCell::new(false));
        let probe_ack_ns = Rc::new(StdCell::new(0u64));
        let rl2 = rl.clone();
        let c2 = ctx.clone();
        {
            let dev = dev.clone();
            sim.spawn(async move {
                for i in 0..400u64 {
                    dev.write(i % 64, &vec![i as u8; SECTOR_SIZE], true)
                        .await
                        .unwrap();
                    c2.sleep(SimDuration::from_micros(500)).await;
                }
            });
        }
        // Two sick bursts separated by a long healthy gap: 20–50 ms and
        // 150–180 ms. The writer stream keeps the drain busy throughout,
        // so hysteresis recovers the mode between the bursts.
        let d2 = disk.clone();
        sim.spawn({
            let ctx = ctx.clone();
            async move {
                ctx.sleep(SimDuration::from_millis(20)).await;
                d2.set_sick(true);
                ctx.sleep(SimDuration::from_millis(30)).await;
                d2.set_sick(false);
                ctx.sleep(SimDuration::from_millis(100)).await;
                d2.set_sick(true);
                ctx.sleep(SimDuration::from_millis(30)).await;
                d2.set_sick(false);
            }
        });
        // The probe: 10 ms into the second burst, one write must be
        // re-acknowledged synchronously (it waits out the rest of the
        // burst for media), proving re-entry is behavioural, not just a
        // counter.
        {
            let dev = dev.clone();
            let ctx = ctx.clone();
            let rl = rl.clone();
            let flag = Rc::clone(&degraded_in_burst2);
            let ack = Rc::clone(&probe_ack_ns);
            sim.spawn(async move {
                ctx.sleep(SimDuration::from_millis(160)).await;
                flag.set(rl.is_degraded());
                let t0 = ctx.now();
                dev.write(500, &vec![0xEE; SECTOR_SIZE], true)
                    .await
                    .unwrap();
                ack.set((ctx.now() - t0).as_nanos());
            });
        }
        sim.run_until(SimTime::from_secs(10));
        let report = rl2.audit_report();
        assert!(report.guarantee_held(), "no acked byte was lost");
        assert!(
            report.degraded_entries >= 2,
            "the second burst re-entered degraded mode (entries = {})",
            report.degraded_entries
        );
        assert_eq!(
            report.degraded_entries, report.degraded_exits,
            "every entry recovered once its burst passed"
        );
        assert!(
            degraded_in_burst2.get(),
            "the instance was degraded while the second burst was active"
        );
        assert!(
            probe_ack_ns.get() > 5_000_000,
            "the probe write re-acked synchronously, waiting out the burst \
             ({} ns)",
            probe_ack_ns.get()
        );
        assert!(!rl2.is_degraded(), "healthy again after the second burst");
        assert_eq!(rl2.occupancy(), 0);
    }

    #[test]
    fn degraded_ack_waits_for_media() {
        let mut sim = Sim::new(24);
        let ctx = sim.ctx();
        // Real mechanics so a media write costs milliseconds.
        let disk = Disk::new(&ctx, specs::hdd_7200(1 << 30));
        let retry = RetryPolicy {
            max_retries: 0,
            backoff_base: SimDuration::from_micros(200),
            backoff_cap: SimDuration::from_millis(1),
            degraded_exit_successes: u32::MAX, // stay degraded
            ..RetryPolicy::default()
        };
        let rl = setup(&mut sim, disk.clone(), retry);
        let dev = rl.device();
        let ack_ns = Rc::new(StdCell::new(0u64));
        let a2 = Rc::clone(&ack_ns);
        let d2 = disk.clone();
        let c2 = ctx.clone();
        sim.spawn(async move {
            // Trip the mode with a short sick window. The device write is
            // acked from the buffer before degradation engages; the *drain*
            // sees the faults and exhausts its (zero) retry budget.
            d2.set_sick(true);
            dev.write(0, &vec![1u8; SECTOR_SIZE], true).await.unwrap();
            c2.sleep(SimDuration::from_millis(5)).await;
            d2.set_sick(false);
            c2.sleep(SimDuration::from_millis(50)).await;
            let t0 = c2.now();
            dev.write(1, &vec![2u8; SECTOR_SIZE], true).await.unwrap();
            a2.set((c2.now() - t0).as_nanos());
        });
        sim.run_until(SimTime::from_secs(5));
        assert!(rl.is_degraded(), "exit threshold unreachable by design");
        assert!(
            ack_ns.get() > 1_000_000,
            "degraded ack paid media time, got {} ns",
            ack_ns.get()
        );
        // The write is on media at ack time — the promise is synchronous.
        let mut buf = vec![0u8; SECTOR_SIZE];
        disk.peek_media(1, &mut buf);
        assert_eq!(buf, vec![2u8; SECTOR_SIZE]);
    }

    #[test]
    fn disabled_retry_turns_first_fault_into_a_drain_failure() {
        let mut sim = Sim::new(25);
        let ctx = sim.ctx();
        let disk = Disk::new(&ctx, specs::instant(1 << 24));
        let retry = RetryPolicy {
            enabled: false,
            ..RetryPolicy::default()
        };
        let rl = setup(&mut sim, disk.clone(), retry);
        let dev = rl.device();
        let d2 = disk.clone();
        sim.spawn(async move {
            d2.set_sick(true);
            // Acked into the buffer; the drain then hits the sick disk.
            let _ = dev.write(0, &vec![9u8; SECTOR_SIZE], true).await;
        });
        sim.run_until(SimTime::from_secs(1));
        let report = rl.audit_report();
        assert!(report.drain_failures > 0, "drain gave up immediately");
        assert!(
            !report.guarantee_held(),
            "acked bytes were lost: the checker must notice"
        );
        assert!(rl.device_frozen());
    }
}

#[cfg(test)]
mod window_tests {
    use super::{consolidate, dep_edges, BatchEntry, BatchLedger, DrainController};
    use crate::audit::Audit;
    use crate::buffer::Extent;
    use crate::prelude::*;
    use rapilog_microvisor::{Hypervisor, Trust};
    use rapilog_simcore::bytes::SectorBuf;
    use rapilog_simcore::rng::SimRng;
    use rapilog_simcore::trace::Payload;
    use rapilog_simcore::{Sim, SimDuration, SimTime};
    use rapilog_simdisk::{specs, BlockDevice, Disk, DiskSpec, SectorStore, SECTOR_SIZE};
    use std::cell::Cell as StdCell;
    use std::collections::VecDeque;
    use std::rc::Rc;

    fn setup(sim: &mut Sim, spec: DiskSpec, drain: DrainConfig) -> (RapiLog, Disk) {
        let ctx = sim.ctx();
        let hv = Hypervisor::new(&ctx);
        let cell = hv.create_cell("rapilog", Trust::Trusted);
        let disk = Disk::new(&ctx, spec);
        let rl = RapiLog::builder(&ctx)
            .cell(&cell)
            .disk(disk.clone())
            .capacity(CapacitySpec::Fixed(64 << 20))
            .drain_config(drain)
            .build();
        std::mem::forget(cell);
        (rl, disk)
    }

    /// Writes `batches` adjacent-but-disjoint 64 KiB extents and returns
    /// the virtual time at which the buffer was fully drained.
    fn drain_time(seed: u64, spec: DiskSpec, drain: DrainConfig) -> (u64, RapiLog, Disk) {
        let mut sim = Sim::new(seed);
        let (rl, disk) = setup(&mut sim, spec, drain);
        let dev = rl.device();
        let rl2 = rl.clone();
        let ctx = sim.ctx();
        let drained_at = Rc::new(StdCell::new(0u64));
        let d2 = Rc::clone(&drained_at);
        sim.spawn(async move {
            let sectors_per = (64 << 10) / SECTOR_SIZE as u64;
            for i in 0..16u64 {
                dev.write(i * sectors_per, &vec![(i + 1) as u8; 64 << 10], true)
                    .await
                    .unwrap();
            }
            rl2.quiesce().await;
            d2.set(ctx.now().as_nanos());
        });
        sim.run_until(SimTime::from_secs(120));
        assert_eq!(rl.occupancy(), 0, "workload must fully drain");
        (drained_at.get(), rl, disk)
    }

    #[test]
    fn windowed_drain_commits_everything_and_audit_holds() {
        let spec = specs::ssd_nvme(1 << 30).with_channels(4);
        let drain = DrainConfig::new()
            .max_batch(64 << 10)
            .window_depth(8)
            .ordering(OrderingMode::PartiallyConstrained);
        let (t, rl, disk) = drain_time(31, spec, drain);
        assert!(t > 0, "drain finished");
        let report = rl.audit_report();
        assert!(report.guarantee_held());
        assert!(report.commits > 0, "durable prefix advanced");
        // Every byte is on media, newest-wins intact.
        let sectors_per = (64 << 10) / SECTOR_SIZE as u64;
        let mut buf = vec![0u8; SECTOR_SIZE];
        for i in 0..16u64 {
            disk.peek_media(i * sectors_per, &mut buf);
            assert_eq!(buf, vec![(i + 1) as u8; SECTOR_SIZE], "extent {i}");
        }
        // The window actually kept several requests in flight.
        let snap = rl.snapshot();
        assert!(
            snap.disk.max_outstanding >= 2,
            "window never overlapped requests: max_outstanding = {}",
            snap.disk.max_outstanding
        );
    }

    #[test]
    fn windowed_drain_outpaces_strict_on_a_multichannel_ssd() {
        let spec = specs::ssd_nvme(1 << 30).with_channels(4);
        let strict = DrainConfig::new().max_batch(64 << 10);
        let windowed = DrainConfig::new()
            .max_batch(64 << 10)
            .window_depth(8)
            .ordering(OrderingMode::PartiallyConstrained);
        let (t_strict, rl_s, _) = drain_time(32, spec.clone(), strict);
        let (t_windowed, rl_w, _) = drain_time(32, spec, windowed);
        assert!(rl_s.audit_report().guarantee_held());
        assert!(rl_w.audit_report().guarantee_held());
        assert!(
            t_windowed < t_strict,
            "4-channel windowed drain ({t_windowed} ns) must beat the serial drain ({t_strict} ns)"
        );
    }

    #[test]
    fn later_batch_may_retire_first_but_the_ledger_stays_ordered() {
        // Batch 1 is a long 256 KiB run; batch 2 a single disjoint sector.
        // On a multi-channel SSD the small run lands first — an ooo
        // retirement — while record_commit still sees ascending sequences
        // (guarantee_held checks exactly that).
        let mut sim = Sim::new(33);
        let spec = specs::ssd_nvme(1 << 30).with_channels(4);
        let drain = DrainConfig::new()
            .max_batch(256 << 10)
            .window_depth(4)
            .ordering(OrderingMode::PartiallyConstrained);
        let (rl, disk) = setup(&mut sim, spec, drain);
        let dev = rl.device();
        let rl2 = rl.clone();
        sim.spawn(async move {
            dev.write(0, &vec![0xAA; 256 << 10], true).await.unwrap();
            dev.write(10_000, &vec![0xBB; SECTOR_SIZE], true)
                .await
                .unwrap();
            rl2.quiesce().await;
        });
        sim.run_until(SimTime::from_secs(60));
        assert_eq!(rl.occupancy(), 0);
        let report = rl.audit_report();
        assert!(report.guarantee_held(), "prefix commits stayed ordered");
        assert!(
            report.ooo_retirements >= 1,
            "the small batch should have jumped the big one"
        );
        let mut buf = vec![0u8; SECTOR_SIZE];
        disk.peek_media(10_000, &mut buf);
        assert_eq!(buf, vec![0xBB; SECTOR_SIZE]);
        disk.peek_media(0, &mut buf);
        assert_eq!(buf, vec![0xAA; SECTOR_SIZE]);
    }

    #[test]
    fn overlapping_rewrites_stay_newest_wins_under_the_window() {
        // The same sector is rewritten in every batch; dependency edges
        // force those runs to land in order even though the window would
        // happily fly them together.
        let mut sim = Sim::new(34);
        let spec = specs::ssd_nvme(1 << 30).with_channels(8);
        let drain = DrainConfig::new()
            .max_batch(SECTOR_SIZE)
            .window_depth(8)
            .ordering(OrderingMode::PartiallyConstrained);
        let (rl, disk) = setup(&mut sim, spec, drain);
        let dev = rl.device();
        let rl2 = rl.clone();
        sim.spawn(async move {
            for round in 1..=32u64 {
                dev.write(7, &vec![round as u8; SECTOR_SIZE], true)
                    .await
                    .unwrap();
            }
            rl2.quiesce().await;
        });
        sim.run_until(SimTime::from_secs(60));
        assert_eq!(rl.occupancy(), 0);
        assert!(rl.audit_report().guarantee_held());
        let mut buf = vec![0u8; SECTOR_SIZE];
        disk.peek_media(7, &mut buf);
        assert_eq!(buf, vec![32u8; SECTOR_SIZE], "newest rewrite wins");
    }

    #[test]
    fn windowed_drain_failure_freezes_and_the_checker_notices() {
        let mut sim = Sim::new(35);
        let spec = specs::instant(1 << 24);
        let drain = DrainConfig::new()
            .window_depth(4)
            .ordering(OrderingMode::PartiallyConstrained)
            .retry(RetryPolicy {
                enabled: false,
                ..RetryPolicy::default()
            });
        let (rl, disk) = setup(&mut sim, spec, drain);
        let dev = rl.device();
        sim.spawn(async move {
            disk.set_sick(true);
            let _ = dev.write(0, &vec![9u8; SECTOR_SIZE], true).await;
        });
        sim.run_until(SimTime::from_secs(1));
        let report = rl.audit_report();
        assert!(report.drain_failures > 0, "drain gave up immediately");
        assert!(!report.guarantee_held(), "acked bytes were lost");
        assert!(rl.device_frozen());
    }

    #[test]
    fn strict_mode_traces_are_bit_identical_across_window_depths() {
        // The sched_differential-style check: window_depth is dead config
        // under Strict — the serial loop must produce the exact same event
        // stream regardless, i.e. today's traces are preserved.
        let run = |depth: usize| {
            let mut sim = Sim::new(36);
            let ctx = sim.ctx();
            ctx.tracer().set_capacity(1 << 16);
            ctx.tracer().set_enabled(true);
            let drain = DrainConfig::new().max_batch(64 << 10).window_depth(depth);
            let (rl, _disk) = setup(&mut sim, specs::ssd_nvme(1 << 30).with_channels(4), drain);
            let dev = rl.device();
            let rl2 = rl.clone();
            sim.spawn(async move {
                for i in 0..24u64 {
                    dev.write(i * 16, &vec![i as u8; 4 * SECTOR_SIZE], true)
                        .await
                        .unwrap();
                }
                rl2.quiesce().await;
            });
            sim.run_until(SimTime::from_secs(60));
            assert!(rl.audit_report().guarantee_held());
            ctx.tracer().snapshot()
        };
        let a = run(1);
        let b = run(8);
        assert_eq!(a.events.len(), b.events.len());
        assert_eq!(a, b, "Strict must stay trace-identical");
    }

    // ---- dependency-permutation property test ----

    /// One random linearization of `edges` (a DAG in index order), chosen
    /// uniformly-ish by repeatedly picking a random ready node.
    fn random_linearization(edges: &[Vec<usize>], rng: &mut SimRng) -> Vec<usize> {
        let n = edges.len();
        let mut missing: Vec<usize> = edges.iter().map(|e| e.len()).collect();
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (j, deps) in edges.iter().enumerate() {
            for &i in deps {
                dependents[i].push(j);
            }
        }
        let mut ready: Vec<usize> = (0..n).filter(|&j| missing[j] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while !ready.is_empty() {
            let pick = (rng.next_u64() as usize) % ready.len();
            let j = ready.swap_remove(pick);
            order.push(j);
            for &d in &dependents[j] {
                missing[d] -= 1;
                if missing[d] == 0 {
                    ready.push(d);
                }
            }
        }
        assert_eq!(order.len(), n, "dep graph must be acyclic");
        order
    }

    #[test]
    fn any_edge_respecting_completion_order_yields_the_same_media_state() {
        // Property: for random batches of log extents, every completion
        // order permitted by dep_edges() recovers to the same committed
        // media state as the serial drain. 16 seeded batches × 8 sampled
        // linearizations each.
        const SECTOR_SPAN: u64 = 48;
        for seed in 0..16u64 {
            let mut rng = SimRng::seed_from_u64(0xD0_0D + seed);
            let n_extents = 4 + (rng.next_u64() % 12) as usize;
            let mut extents = Vec::with_capacity(n_extents);
            for seq in 0..n_extents as u64 {
                let sectors = 1 + (rng.next_u64() % 4) as usize;
                let sector = rng.next_u64() % (SECTOR_SPAN - sectors as u64);
                extents.push(Extent {
                    seq,
                    sector,
                    admit_ns: 0,
                    data: SectorBuf::from_vec(vec![(seq + 1) as u8; sectors * SECTOR_SIZE]),
                });
            }
            let runs = consolidate(&extents);
            let edges = dep_edges(&runs);
            // Ground truth: serial media order.
            let mut serial = SectorStore::new();
            serial.write_runs(&runs);
            let mut expect = vec![0u8; SECTOR_SPAN as usize * SECTOR_SIZE];
            serial.read_run(0, &mut expect);
            for sample in 0..8u64 {
                let mut prng = SimRng::seed_from_u64(seed * 100 + sample);
                let order = random_linearization(&edges, &mut prng);
                let mut store = SectorStore::new();
                for &j in &order {
                    store.write_runs(std::slice::from_ref(&runs[j]));
                }
                let mut got = vec![0u8; SECTOR_SPAN as usize * SECTOR_SIZE];
                store.read_run(0, &mut got);
                assert_eq!(
                    got, expect,
                    "seed {seed} sample {sample} order {order:?} diverged"
                );
            }
        }
    }

    // ---- adaptive-resize ledger property test ----

    #[test]
    fn adaptive_resizing_never_breaks_the_durable_prefix_or_leaks_space() {
        // Property: popping with a batch target that shrinks and grows
        // mid-stream (what the adaptive controller does), then retiring the
        // resulting batches' runs in ANY order, must still (a) feed the
        // audit only a contiguous, monotonic durable prefix — one commit
        // per batch, in sequence order — and (b) release every byte back
        // through `complete_seqs` (occupancy returns to zero, nothing
        // double-released or stranded).
        for seed in 0..12u64 {
            let mut sim = Sim::new(seed);
            let ctx = sim.ctx();
            let disk = Disk::new(&ctx, rapilog_simdisk::specs::hdd_7200(1 << 30));
            let cfg = DrainConfig::new()
                .ordering(OrderingMode::PartiallyConstrained)
                .window_depth(2)
                .batch_policy(BatchPolicy::Adaptive(AdaptiveBatchConfig::default()));
            let ctrl = DrainController::new(&ctx, &cfg, &disk);
            let audit = Audit::new(&ctx);
            let buffer = DependableBuffer::new(64 << 20);
            buffer.set_clock(&ctx);
            let batches_seen = Rc::new(StdCell::new(0u64));
            let done = Rc::new(StdCell::new(false));
            let t_buffer = buffer.clone();
            let t_audit = audit.clone();
            let t_ctrl = Rc::clone(&ctrl);
            let t_batches = Rc::clone(&batches_seen);
            let t_done = Rc::clone(&done);
            let t_ctx = ctx.clone();
            sim.spawn(async move {
                let mut rng = SimRng::seed_from_u64(0xADA7 + seed);
                let mut ledger = BatchLedger {
                    batches: VecDeque::new(),
                    tenant: None,
                };
                // (batch id, runs still to retire) for the random scheduler.
                let mut pending: Vec<(u64, u64)> = Vec::new();
                let mut next_seq_sector = 0u64;
                let mut next_batch_id = 0u64;
                // Several push/pop rounds so resized pops interleave with
                // arrivals, as they do mid-stream in the real drain. The
                // sleep moves the clock off zero so admission stamps are
                // distinguishable from "no clock attached".
                for _round in 0..6 {
                    t_ctx.sleep(SimDuration::from_micros(10)).await;
                    for _ in 0..(8 + rng.next_u64() % 12) {
                        let sectors = 1 + (rng.next_u64() % 3) as usize;
                        let data = SectorBuf::from_vec(vec![7u8; sectors * SECTOR_SIZE]);
                        t_buffer.push(next_seq_sector * 8, data).await.unwrap();
                        next_seq_sector += 1;
                    }
                    loop {
                        // The resizing under test: every pop uses a fresh
                        // random target between 1 and 8 sectors.
                        let target = SECTOR_SIZE * (1 + (rng.next_u64() % 8) as usize);
                        let batch = t_buffer.pop_batch(target);
                        if batch.is_empty() {
                            break;
                        }
                        let runs = consolidate(&batch);
                        ledger.batches.push_back(BatchEntry {
                            id: next_batch_id,
                            lo: batch.first().unwrap().seq,
                            hi: batch.last().unwrap().seq,
                            remaining: runs.len() as u64,
                            retired: false,
                            payload: Payload::Batch {
                                extents: batch.len() as u64,
                                runs: runs.len() as u64,
                                bytes: runs.iter().map(|r| r.bytes() as u64).sum(),
                            },
                            bytes: runs.iter().map(|r| r.bytes() as u64).sum(),
                            dispatched_ns: t_ctx.now().as_nanos(),
                            admits: batch.iter().map(|e| e.admit_ns).collect(),
                        });
                        pending.push((next_batch_id, runs.len() as u64));
                        next_batch_id += 1;
                    }
                    // Retire this round's runs in a random global order.
                    while !pending.is_empty() {
                        let pick = (rng.next_u64() as usize) % pending.len();
                        let (id, left) = pending[pick];
                        if left == 1 {
                            pending.swap_remove(pick);
                        } else {
                            pending[pick].1 -= 1;
                        }
                        let _ = ledger.run_done(
                            id,
                            &t_buffer,
                            &t_audit,
                            &t_ctrl,
                            t_ctx.now().as_nanos(),
                            t_buffer.queued_bytes(),
                        );
                    }
                }
                assert!(ledger.batches.is_empty(), "every batch must retire");
                t_batches.set(next_batch_id);
                t_done.set(true);
            });
            sim.run();
            assert!(done.get(), "seed {seed}: scenario must complete");
            assert_eq!(
                buffer.occupancy(),
                0,
                "seed {seed}: complete_seqs leaked space"
            );
            let report = audit.report();
            assert!(
                !report.order_violated,
                "seed {seed}: durable prefix went non-contiguous"
            );
            assert_eq!(
                report.commits,
                batches_seen.get(),
                "seed {seed}: exactly one prefix commit per batch"
            );
            assert!(
                ctrl.stats().commits_measured > 0,
                "seed {seed}: admission stamps must feed the latency histogram"
            );
        }
    }

    #[test]
    fn dep_edges_order_overlaps_and_free_disjoint_runs() {
        let runs = consolidate(&[
            Extent {
                seq: 0,
                sector: 0,
                admit_ns: 0,
                data: SectorBuf::from_vec(vec![1; 4 * SECTOR_SIZE]),
            },
            Extent {
                seq: 1,
                sector: 1,
                admit_ns: 0,
                data: SectorBuf::from_vec(vec![2; SECTOR_SIZE]),
            },
            Extent {
                seq: 2,
                sector: 100,
                admit_ns: 0,
                data: SectorBuf::from_vec(vec![3; SECTOR_SIZE]),
            },
        ]);
        assert_eq!(runs.len(), 3, "middle overlap + gap split the batch");
        let edges = dep_edges(&runs);
        assert!(edges[0].is_empty());
        assert_eq!(edges[1], vec![0], "the middle rewrite must order");
        assert!(edges[2].is_empty(), "the disjoint run is free to fly");
    }
}
