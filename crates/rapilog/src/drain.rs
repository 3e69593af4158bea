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
//! There is one drain loop (`start`) over one or more tenant shards, and
//! one rule in it: **take a slot in the drain window first, then decide
//! what to write**. The window holds up to
//! [`window_depth`](crate::DrainConfig::window_depth) runs in flight at once
//! across the device's channels. A run must wait for every earlier
//! in-flight run whose sector range overlaps its own (media order is the
//! newest-wins tiebreak, so overlapping rewrites must land in order);
//! disjoint runs carry no edge and retire out of order. Space is released
//! run by run — the extents a run carried stop weighing on the buffer the
//! moment it lands — while the batch stays the unit of the audit: the
//! ledger only advances with the contiguous durable prefix of whole
//! batches, so invariant I3 is untouched.
//!
//! [`OrderingMode`](crate::OrderingMode) is a parameter of that engine, not
//! a second one. `Strict` is a window of one: the loop pops when the
//! previous write has landed, one run is on media at a time and batches go
//! in exact sequence order — the paper's serial drain. A total order is the
//! fully constrained case of the partial one. (A window of one skips only
//! what lets runs overlap: see `DrainController::serial`.)

use std::cell::{Cell as StdCell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::rc::Rc;

use rapilog_microvisor::cell::Cell;
use rapilog_simcore::rng::SimRng;
use rapilog_simcore::stats::Histogram;
use rapilog_simcore::sync::{Event, SemPermit, Semaphore};
use rapilog_simcore::trace::{Layer, Payload};
use rapilog_simcore::{SimCtx, SimDuration};
use rapilog_simdisk::{BlockDevice, Disk, DiskSpec, IoError, IoReq, IoRun, SECTOR_SIZE};
use rapilog_simpower::PowerSupply;

use crate::audit::Audit;
use crate::buffer::{DependableBuffer, Extent};
use crate::shard::{Shard, ShardedBuffer, TenantId};
use crate::{BatchPolicy, DrainConfig, DrainStats, ModeState, OrderingMode, RetryPolicy};

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

/// The extents one run carries: ascending, disjoint, inclusive `(lo, hi)`
/// ranges of sequence numbers.
pub(crate) type SeqRanges = Vec<(u64, u64)>;

/// Consolidates a batch of extents into scatter-gather runs holding the
/// *newest* bytes per sector, and says which extents each run carries.
///
/// This is the drain's key trick: a log stream contains endless rewrites of
/// its tail sector (every group-commit flush re-forces it). Replaying those
/// rewrites verbatim would cost one disk rotation each — exactly the cost
/// RapiLog exists to remove. An extent's space is handed back only when the
/// run carrying it has landed, so writing the per-sector union preserves
/// the durability guarantee while turning each stream in the batch into a
/// single sequential write.
///
/// The builder is a single sort-free pass in sequence order, appending O(1)
/// views of extent memory (no per-sector re-copying). Each extent looks for
/// its run from the newest run backwards:
///
/// * an extent starting exactly at a run's end extends it — unless that
///   would take the run past `run_bound` bytes (see [`run_bound_of`];
///   `usize::MAX` is "no bound");
/// * a *tail rewrite* — an extent overlapping a run's tail and reaching at
///   least its end — truncates the superseded tail views and extends the
///   run, so the group-commit hot pattern still yields one run;
/// * the search stops at the first run whose sectors *overlap* the extent
///   any other way: that run holds older bytes for them, and joining a run
///   before it would land the newer bytes first. The extent opens a new
///   run, as it does when the search runs out.
///
/// Only writes to overlapping sectors are ordered, so interleaved
/// sequential streams regroup freely — each collapses to its own run, and a
/// single stream finds its run at the first probe. Overlapping runs are
/// written to the device **in order**, so a later run lands newest-last on
/// the media: newest-wins without any per-sector map.
///
/// Returns the runs and, index for index, the seqs each carries as
/// ascending inclusive ranges ([`SeqRanges`]): a run gathering one stream
/// out of an interleaved batch carries every n-th seq, a single stream's
/// run one range however many extents it merged.
pub(crate) fn consolidate(batch: &[Extent], run_bound: usize) -> (Vec<IoRun>, Vec<SeqRanges>) {
    let mut runs: Vec<IoRun> = Vec::new();
    let mut seqs: Vec<SeqRanges> = Vec::new();
    // Each run's end sector, kept beside it so a probe costs O(1).
    let mut ends: Vec<u64> = Vec::new();
    for e in batch {
        let end = e.sector + (e.data.len() / SECTOR_SIZE) as u64;
        let mut home = None;
        for i in (0..runs.len()).rev() {
            let (run_start, run_end) = (runs[i].sector, ends[i]);
            if e.sector == run_end {
                let run_bytes = (run_end - run_start) as usize * SECTOR_SIZE;
                if run_bytes.saturating_add(e.data.len()) <= run_bound {
                    home = Some(i);
                }
                break;
            }
            if e.sector >= run_start && e.sector < run_end && end >= run_end {
                truncate_run(&mut runs[i], e.sector - run_start);
                home = Some(i);
                break;
            }
            if e.sector < run_end && run_start < end {
                break;
            }
        }
        match home {
            Some(i) => {
                runs[i].segments.push(e.data.clone());
                match seqs[i].last_mut() {
                    Some(last) if last.1 + 1 == e.seq => last.1 = e.seq,
                    _ => seqs[i].push((e.seq, e.seq)),
                }
                ends[i] = end;
            }
            None => {
                runs.push(IoRun {
                    sector: e.sector,
                    segments: vec![e.data.clone()],
                });
                seqs.push(vec![(e.seq, e.seq)]);
                ends.push(end);
            }
        }
    }
    (runs, seqs)
}

/// Retries tolerated on one run before the instance enters degraded mode:
/// the failure after the eighth retry comes about 25.5 ms of backoff in,
/// longer than a disk's passing hiccup and short against the residual
/// window.
pub(crate) const MAX_RETRIES: u32 = 8;
/// First retry delay; doubles each attempt.
const BACKOFF_BASE: SimDuration = SimDuration::from_micros(100);
/// Ceiling on the exponential backoff.
const BACKOFF_CAP: SimDuration = SimDuration::from_millis(20);
/// Bound on the jitter added to each delay (decorrelates retry storms
/// across instances).
const RETRY_JITTER: SimDuration = SimDuration::from_micros(50);

/// Computes the delay before retry number `attempt` (0-based): capped
/// exponential backoff plus bounded jitter from the drain's forked RNG.
/// Deterministic: the same attempt and RNG state give the same delay on
/// every run.
pub(crate) fn backoff_delay(attempt: u32, rng: &mut SimRng) -> SimDuration {
    let mult = 1u64.checked_shl(attempt.min(63)).unwrap_or(u64::MAX);
    let delay = BACKOFF_BASE
        .as_nanos()
        .saturating_mul(mult)
        .min(BACKOFF_CAP.as_nanos());
    let jitter = rng.next_u64() % RETRY_JITTER.as_nanos();
    SimDuration::from_nanos(delay + jitter)
}

/// Why [`write_run_resilient`] gave up.
enum RunFatal {
    /// The device is unreachable for good (power collapse, or retries
    /// disabled by configuration): freeze and abandon the drain.
    DeviceLost,
}

/// Sector remaps tolerated on one run before the drain declares the device
/// dead (a disk growing defects this fast has failed).
const MAX_REMAPS: u32 = 64;

/// Commits one consolidated run, surviving transient failures (capped
/// exponential backoff) and grown media defects (remap + rewrite). Enters
/// degraded mode once the retry budget is exhausted — but never drops the
/// run: every byte in it was acknowledged, so giving up would turn a slow
/// disk into a broken promise.
///
/// `consecutive_ok` is the degraded-mode hysteresis counter, shared by
/// every concurrent writer in the drain window (one disk, one health
/// signal): any writer's failure resets it, any writer's successes count
/// toward the exit threshold. `rng` is the drain's one jitter stream,
/// shared the same way and borrowed only to draw a delay.
///
/// With `queued`, each attempt rides the queued device interface
/// ([`BlockDevice::submit`] + [`BlockDevice::wait`]) so the device's
/// outstanding-request accounting sees the drain window; without it — a
/// window of one, see [`DrainController::serial`] — the caller's task
/// `exec`s the same request itself.
#[allow(clippy::too_many_arguments)]
async fn write_run_resilient(
    ctx: &SimCtx,
    disk: &Disk,
    run: &IoRun,
    policy: &RetryPolicy,
    rng: &RefCell<SimRng>,
    audit: &Audit,
    mode: &ModeState,
    consecutive_ok: &StdCell<u32>,
    queued: bool,
) -> Result<(), RunFatal> {
    let tracer = ctx.tracer();
    let mut attempt: u32 = 0;
    let mut remaps: u32 = 0;
    loop {
        // One vectored zero-copy write either way: the disk views the run's
        // segments until they land on the media store; segment clones are
        // refcount bumps.
        let req = IoReq::Write {
            sector: run.sector,
            segments: run.segments.clone(),
            fua: true,
        };
        let wrote = if queued {
            let token = disk.submit(req);
            BlockDevice::wait(disk, token).await
        } else {
            disk.exec(req).await
        };
        match wrote {
            Ok(_) => {
                consecutive_ok.set(consecutive_ok.get().saturating_add(1));
                if mode.get() && consecutive_ok.get() >= policy.degraded_exit_successes {
                    mode.set(false);
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
                if attempt >= MAX_RETRIES && !mode.get() {
                    mode.set(true);
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
                // Drawn before the sleep: no borrow is held across it.
                let delay = backoff_delay(attempt, &mut rng.borrow_mut());
                ctx.sleep(delay).await;
                attempt = attempt.saturating_add(1);
            }
            Err(IoError::MediaError { sector }) if policy.enabled => {
                consecutive_ok.set(0);
                remaps += 1;
                if remaps > MAX_REMAPS {
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

/// One run in flight in the drain window: its sector range, and the event
/// dependents (later overlapping runs) wait on before touching media.
struct InflightRun {
    id: u64,
    sector: u64,
    sectors: u64,
    done: Event,
}

/// One popped batch awaiting retirement.
struct BatchEntry {
    id: u64,
    /// Highest sequence number in the batch — what the durable prefix
    /// advances to when the batch reaches it.
    hi: u64,
    /// Runs still in flight; the batch retires when this reaches zero.
    remaining: u64,
    retired: bool,
    payload: Payload,
    /// When the batch was popped, for the service-time EWMA.
    dispatched_ns: u64,
    /// Per-extent admission stamps, consumed for commit-latency samples
    /// when the batch reaches the contiguous durable prefix.
    admits: Vec<u64>,
}

/// Retirement accounting: batches are registered in sequence order and may
/// finish out of order, but [`Audit::record_tenant_commit`] is fed only the
/// contiguous durable prefix — exactly what invariant I3 promises. Each
/// shard has its own ledger, so each tenant's audit section advances with
/// its own contiguous prefix.
struct BatchLedger {
    /// The buffer whose popped batches this ledger tracks.
    buffer: DependableBuffer,
    batches: VecDeque<BatchEntry>,
    tenant: TenantId,
}

impl BatchLedger {
    fn new(buffer: &DependableBuffer, tenant: TenantId) -> Rc<RefCell<BatchLedger>> {
        Rc::new(RefCell::new(BatchLedger {
            buffer: buffer.clone(),
            batches: VecDeque::new(),
            tenant,
        }))
    }

    /// Marks one run of batch `id` landed and releases the extents it
    /// carried (`seqs`): space and the read overlay come back run by run —
    /// the bytes are on media whether or not the rest of the batch, or
    /// older batches, still fly; exactly so unless `exact` is false (the
    /// disk may have corrupted a sector while the run was on its way).
    /// Returns the batch's trace payload if this was its last run, and
    /// whether that retirement jumped ahead of an older still-pending
    /// batch.
    ///
    /// Batch retirement also feeds the controller's statistics: the
    /// batch's dispatch → retirement service time
    /// ([`DrainController::observe_batch`]), and every extent reaching the
    /// contiguous durable prefix records its admission → commit latency.
    fn run_done(
        &mut self,
        id: u64,
        seqs: &[(u64, u64)],
        exact: bool,
        audit: &Audit,
        ctrl: &DrainController,
        now_ns: u64,
    ) -> (Option<Payload>, bool) {
        self.buffer.land(seqs, exact);
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
        ctrl.observe_batch(entry.dispatched_ns, now_ns);
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
            audit.record_tenant_commit(self.tenant.0, front.hi);
        }
        (Some(payload), jumped)
    }
}

/// Floor for the adaptive run bound: a disk whose positioning alone takes
/// [`MAX_HOLD`] or longer (a seek and a rotation on every HDD preset) still
/// gets runs this long.
const MIN_BATCH: usize = 64 * 1024;
/// Longest the adaptive drain may delay bytes in order to coalesce them:
/// no run is built longer than the device retires in this time. Nothing
/// else holds bytes back: a batch is cut the moment a window slot is free
/// to write it, so a lone commit never waits at all.
const MAX_HOLD: SimDuration = SimDuration::from_micros(100);
/// Granularity of the run bound.
const RUN_BOUND_STEP: usize = 8 * SECTOR_SIZE;

/// The adaptive run bound of `spec`: the bytes a run may carry and still
/// retire within [`MAX_HOLD`] — one positioning, then the transfer at the
/// media's sequential bandwidth:
/// `max(MIN_BATCH, (MAX_HOLD − positioning_bound) × sequential_bandwidth)`,
/// rounded down to [`RUN_BOUND_STEP`]. The same two numbers of the spec
/// price the emergency drain in `simpower::budget::drainable_bytes`.
fn run_bound_of(spec: &DiskSpec) -> usize {
    let transfer = MAX_HOLD.saturating_sub(spec.positioning_bound());
    let held = transfer.as_nanos() as u128 * spec.sequential_bandwidth() as u128 / 1_000_000_000;
    let held = usize::try_from(held).unwrap_or(usize::MAX);
    (held - held % RUN_BOUND_STEP).max(MIN_BATCH)
}

/// The drain's batching parameters and measurements: one per instance,
/// shared by the drain loop, every run task, and
/// [`RapiLog::snapshot`](crate::RapiLog).
///
/// It owns the in-flight window semaphore, and it is the one place that
/// reads [`OrderingMode`] and [`BatchPolicy`]: to the drain loop they are a
/// window depth, a pop target and a run bound, all fixed when the instance
/// is built. Every pop aims for [`DrainConfig::max_batch`]. The window holds
/// one run under Strict, [`DrainConfig::window_depth`] under Fixed, and
/// under Adaptive the larger of that and the device's
/// [`Geometry::queue_depth`]. Only [`BatchPolicy::Adaptive`] +
/// `PartiallyConstrained` bounds a run, by [`run_bound_of`] the disk's spec
/// (DESIGN.md §15); nothing the drain observes changes any of it. The
/// service-time EWMA and the commit-latency histogram are statistics.
///
/// [`Geometry::queue_depth`]: rapilog_simdisk::Geometry
pub(crate) struct DrainController {
    max_batch: usize,
    /// Runs the window holds in flight at once.
    depth: usize,
    window: Rc<Semaphore>,
    /// The longest run a batch is consolidated into; `None` under Fixed and
    /// Strict.
    run_bound: Option<usize>,
    ewma_service_ns: StdCell<u64>,
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
    /// Builds the controller for one instance. `disk` supplies the queue
    /// depth and the spec an adaptive drain runs at; the drain config
    /// supplies everything else. Always constructed, so `snapshot().drain`
    /// is uniform.
    pub(crate) fn new(cfg: &DrainConfig, disk: &Disk) -> Rc<DrainController> {
        // Strict is the paper's serial drain: one slot and no run bound,
        // whatever policy was asked for beside it.
        let adaptive = matches!(
            (cfg.ordering, cfg.batch),
            (OrderingMode::PartiallyConstrained, BatchPolicy::Adaptive(_))
        );
        let depth = match cfg.ordering {
            OrderingMode::Strict => 1,
            OrderingMode::PartiallyConstrained => cfg.window_depth.max(1),
        };
        let (run_bound, depth) = if adaptive {
            let queue_depth = disk.geometry().queue_depth as usize;
            (Some(run_bound_of(disk.spec())), queue_depth.max(depth))
        } else {
            (None, depth)
        };
        Rc::new(DrainController {
            max_batch: cfg.max_batch,
            depth,
            window: Rc::new(Semaphore::new(depth)),
            run_bound,
            ewma_service_ns: StdCell::new(0),
            latency: RefCell::new(Histogram::new()),
        })
    }

    /// The in-flight window the drain loop acquires permits from.
    pub(crate) fn window(&self) -> Rc<Semaphore> {
        Rc::clone(&self.window)
    }

    /// Bytes every `pop_batch` aims for.
    pub(crate) fn pop_target(&self) -> usize {
        self.max_batch
    }

    /// True if the window can never hold more than one run. Nothing can
    /// then overlap a run, so what lets runs overlap — a task and a queued
    /// device request for each — buys nothing and costs about 0.9 µs of host
    /// time per media write (+ 25 to 40 % on `pair_failover`'s set-up, bound
    /// 25 %; simulated-time results the same to the last digit, DESIGN.md
    /// §12): the drain loop awaits such a run itself. Everything decided
    /// about a run is the same either way; only who awaits the write differs.
    pub(crate) fn serial(&self) -> bool {
        self.depth == 1
    }

    /// The longest run a batch may be consolidated into ([`consolidate`]'s
    /// `run_bound`; `usize::MAX` is "no bound").
    pub(crate) fn run_bound(&self) -> usize {
        self.run_bound.unwrap_or(usize::MAX)
    }

    /// Feeds one batch's service time, `dispatched_ns` (pop) to `now_ns`
    /// (last run landed), into the service-time EWMA.
    pub(crate) fn observe_batch(&self, dispatched_ns: u64, now_ns: u64) {
        let service_ns = now_ns.saturating_sub(dispatched_ns).max(1);
        self.ewma_service_ns
            .set(ewma_update(self.ewma_service_ns.get(), service_ns));
    }

    /// Records one extent's admission → durable-prefix-commit latency.
    pub(crate) fn record_commit_latency(&self, ns: u64) {
        self.latency.borrow_mut().record(ns);
    }

    /// Point-in-time view for [`RapiLogSnapshot::drain`](crate::RapiLogSnapshot).
    pub(crate) fn stats(&self) -> DrainStats {
        let lat = self.latency.borrow();
        DrainStats {
            batch_target: self.max_batch as u64,
            window_depth: self.depth as u64,
            ewma_service_ns: self.ewma_service_ns.get(),
            batch_grows: 0,
            batch_shrinks: 0,
            hold_fires: 0,
            run_bound_bytes: self.run_bound.unwrap_or(0) as u64,
            commit_p50_ns: lat.percentile(50.0),
            commit_p99_ns: lat.percentile(99.0),
            commits_measured: lat.count(),
        }
    }
}

/// The run engine the drain loop ([`start`]) feeds: it keeps up to
/// `window_depth` consolidated runs in flight at once. Each run waits for
/// every earlier in-flight run overlapping its sector range (the tests'
/// `dep_edges` is the declarative form of the constraint — here it is
/// enforced online, across batch boundaries and tenants too: one disk, one
/// newest-wins media order) and then commits through
/// [`write_run_resilient`], so the full retry/remap/degraded machinery
/// applies per run. Disjoint runs ride separate device channels and retire
/// out of order; a landed run hands its extents' space back at once, and
/// [`BatchLedger`] keeps the audit ledger on the contiguous durable prefix.
struct WindowedDrain {
    ctx: SimCtx,
    disk: Disk,
    policy: RetryPolicy,
    audit: Audit,
    mode: Rc<ModeState>,
    ctrl: Rc<DrainController>,
    /// Everything the drain empties: a fatal device error acts on all of it
    /// at once.
    shards: ShardedBuffer,
    /// The drain's one jitter stream, forked once when the drain starts, so
    /// what the drain does never moves what other tasks draw from the
    /// simulation's stream.
    rng: RefCell<SimRng>,
    /// Degraded-mode hysteresis, shared by every run task (one disk, one
    /// health signal).
    consecutive_ok: StdCell<u32>,
    /// Set by the run task that lost the device; everyone else stands down.
    failed: StdCell<bool>,
    inflight: RefCell<Vec<InflightRun>>,
    next_run_id: StdCell<u64>,
    next_batch_id: StdCell<u64>,
}

impl WindowedDrain {
    /// Consolidates one (non-empty) batch popped from `ledger`'s buffer,
    /// registers it and puts its runs in flight: the first rides `permit`,
    /// the window slot the loop took before it popped, and each later one
    /// waits for its own. A run in flight is a task of its own, unless the
    /// window is [`serial`](DrainController::serial): then the caller (the
    /// drain loop) awaits it here. Returns false once the device is lost.
    async fn dispatch(
        self: &Rc<Self>,
        permit: SemPermit,
        batch: Vec<Extent>,
        ledger: &Rc<RefCell<BatchLedger>>,
    ) -> bool {
        let (runs, seqs) = consolidate(&batch, self.ctrl.run_bound());
        let bytes: u64 = runs.iter().map(|r| r.bytes() as u64).sum();
        let payload = Payload::Batch {
            extents: batch.len() as u64,
            runs: runs.len() as u64,
            bytes,
        };
        self.ctx
            .tracer()
            .begin(self.ctx.now(), Layer::Drain, "drain_batch", payload);
        let batch_id = self.next_batch_id.get();
        self.next_batch_id.set(batch_id + 1);
        ledger.borrow_mut().batches.push_back(BatchEntry {
            id: batch_id,
            hi: batch.last().expect("non-empty batch").seq,
            remaining: runs.len() as u64,
            retired: false,
            payload,
            dispatched_ns: self.ctx.now().as_nanos(),
            // The runs view the bytes now; the stamps take over the
            // batch's allocation.
            admits: batch.into_iter().map(|e| e.admit_ns).collect(),
        });
        let window = self.ctrl.window();
        let mut permit = Some(permit);
        for (run, seqs) in runs.into_iter().zip(seqs) {
            // Backpressure: the window cap bounds runs in flight.
            let permit = match permit.take() {
                Some(first) => first,
                None => window.acquire(1).await,
            };
            if self.failed.get() {
                return false;
            }
            let landing = self.run(permit, run, seqs, batch_id, ledger);
            if self.ctrl.serial() {
                landing.await;
            } else {
                self.ctx.spawn(landing);
            }
        }
        !self.failed.get()
    }

    /// One run, registered in flight now and landed by the future returned:
    /// deps wait → resilient write → wake dependents → release the run's
    /// extents and account the batch → or, if the device went down with
    /// this run, abandon the backlog.
    fn run(
        self: &Rc<Self>,
        permit: SemPermit,
        run: IoRun,
        seqs: SeqRanges,
        batch_id: u64,
        ledger: &Rc<RefCell<BatchLedger>>,
    ) -> impl Future<Output = ()> {
        let run_id = self.next_run_id.get();
        self.next_run_id.set(run_id + 1);
        // Ordering edges: every in-flight run overlapping this one —
        // including earlier runs of this very batch, and other tenants' —
        // must land first, or newest-wins media order breaks.
        let (run_lo, run_hi) = (run.sector, run.sector + run.sectors());
        let deps: Vec<Event> = self
            .inflight
            .borrow()
            .iter()
            .filter(|f| run_lo < f.sector + f.sectors && f.sector < run_hi)
            .map(|f| f.done.clone())
            .collect();
        let done = Event::new();
        self.inflight.borrow_mut().push(InflightRun {
            id: run_id,
            sector: run.sector,
            sectors: run_hi - run_lo,
            done: done.clone(),
        });
        let this = Rc::clone(self);
        let ledger = Rc::clone(ledger);
        async move {
            let _permit = permit;
            let (ctx, tracer) = (&this.ctx, this.ctx.tracer());
            for dep in &deps {
                dep.wait().await;
            }
            // A corruption the disk counts while the run is on its way may
            // be in it: the buffer then keeps the run's acked bytes.
            let corrupt = this.disk.stats().corrupt_sectors;
            // A sibling writer lost the device: the buffers are frozen,
            // nothing more may touch media coherently.
            let result = if this.failed.get() {
                None
            } else {
                Some(
                    write_run_resilient(
                        ctx,
                        &this.disk,
                        &run,
                        &this.policy,
                        &this.rng,
                        &this.audit,
                        &this.mode,
                        &this.consecutive_ok,
                        !this.ctrl.serial(),
                    )
                    .await,
                )
            };
            // Dependents proceed (and observe `failed`) even when this run
            // went down with the device.
            done.set();
            this.inflight.borrow_mut().retain(|f| f.id != run_id);
            match result {
                Some(Ok(())) if !this.failed.get() => {
                    let exact = this.disk.stats().corrupt_sectors == corrupt;
                    let (retired, jumped) = ledger.borrow_mut().run_done(
                        batch_id,
                        &seqs,
                        exact,
                        &this.audit,
                        &this.ctrl,
                        ctx.now().as_nanos(),
                    );
                    if let Some(payload) = retired {
                        tracer.end(ctx.now(), Layer::Drain, "drain_batch", payload);
                        if jumped {
                            tracer.instant(ctx.now(), Layer::Drain, "ooo_retire", payload);
                        }
                    }
                }
                Some(Err(RunFatal::DeviceLost)) if !this.failed.replace(true) => this.abandon(),
                // Skipped (device already lost) or landed after the
                // failure: leave the ledger alone — the occupancy snapshot
                // at failure is the loss.
                _ => {}
            }
        }
    }

    /// The disk is gone for good (power collapse, or the resilience policy
    /// is switched off): closes the open batch span, records what is still
    /// buffered as lost and stops admissions. The audit decides whether
    /// that violated the guarantee (it must not, if sizing was honest and
    /// the warning fired).
    fn abandon(&self) {
        let (now, tracer) = (self.ctx.now(), self.ctx.tracer());
        let failure = Payload::Text {
            text: "drain_failure",
        };
        tracer.end(now, Layer::Drain, "drain_batch", failure);
        let bytes = self.shards.total_occupancy();
        tracer.instant(now, Layer::Drain, "freeze", Payload::Bytes { bytes });
        self.audit.record_drain_failure(bytes);
        // The aggregate is the global loss; the per-shard snapshots
        // attribute it so every tenant's section can testify.
        for s in self.shards.shards() {
            self.audit.record_tenant_loss(s.id.0, s.buf.occupancy());
        }
        self.shards.freeze_all();
    }
}

/// Spawns the drain loop and (with a supply) the power watcher.
///
/// The loop is a round-robin scheduler over the tenant shards — one shard
/// when the instance has one tenant, and then simply "drain the buffer".
/// Each cycle visits every shard once (the start position rotates so no
/// shard gets a standing head-of-line advantage); a shard with bytes queued
/// is granted one batch of up to `max_batch`, the same quantum for every
/// shard. **The loop takes a window slot first and pops
/// second.** With one slot that is the paper's serial drain: the next batch
/// is decided when the previous write has landed, so it holds everything
/// admitted meanwhile, and each shard's batches go in its own sequence
/// order. With several slots a pop is immediate while one is free — a lone
/// commit at idle never waits — and bytes coalesce in the queue for exactly
/// as long as none is: no batch is cut earlier than it could be written.
///
/// The runs of all tenants share one window and one overlap-dependency set
/// (one disk, one newest-wins media order), but retirement bookkeeping is
/// **per tenant**: each shard has its own [`BatchLedger`], so a slow tenant
/// never holds back another tenant's space release or commit ledger. All
/// ledgers share the **one** [`DrainController`] — one disk, one window,
/// one run bound.
#[allow(clippy::too_many_arguments)]
pub(crate) fn start(
    ctx: &SimCtx,
    cell: &Cell,
    shards: &ShardedBuffer,
    disk: Disk,
    policy: RetryPolicy,
    supply: Option<PowerSupply>,
    audit: Audit,
    mode: Rc<ModeState>,
    ctrl: Rc<DrainController>,
) {
    let engine = Rc::new(WindowedDrain {
        ctx: ctx.clone(),
        disk,
        policy,
        audit: audit.clone(),
        mode,
        ctrl,
        shards: shards.clone(),
        rng: RefCell::new(ctx.fork_rng()),
        consecutive_ok: StdCell::new(0),
        failed: StdCell::new(false),
        inflight: RefCell::new(Vec::new()),
        next_run_id: StdCell::new(0),
        next_batch_id: StdCell::new(0),
    });
    cell.spawn(async move {
        let (shards, ctrl) = (&engine.shards, &engine.ctrl);
        let ledgers: Vec<(&Shard, Rc<RefCell<BatchLedger>>)> = shards
            .shards()
            .iter()
            .map(|s| (s, BatchLedger::new(&s.buf, s.id)))
            .collect();
        let window = ctrl.window();
        let n = ledgers.len();
        let mut cursor = 0usize;
        loop {
            shards.wait_any_avail().await;
            loop {
                let mut popped_any = false;
                for off in 0..n {
                    let (shard, ref ledger) = ledgers[(cursor + off) % n];
                    if !shard.buf.has_queued() {
                        continue;
                    }
                    let permit = window.acquire(1).await;
                    if engine.failed.get() {
                        return;
                    }
                    // Extents move out of the queue; the buffer's in-flight
                    // ledger keeps occupancy and read-your-writes alive
                    // until the run carrying them lands.
                    let batch = shard.buf.pop_batch(ctrl.pop_target());
                    popped_any = true;
                    if !engine.dispatch(permit, batch, ledger).await {
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
    if let Some(psu) = supply {
        start_power_watcher(ctx, cell, shards.clone(), psu, audit);
    }
}

/// Spawns the power watcher: freezes admissions on the supply's warning
/// and audits whether the drain beat the residual-energy deadline. That is
/// the *aggregate* emergency drain — every admission kept what all shards
/// hold inside the window, so the deadline applies to the sum of their
/// occupancies.
fn start_power_watcher(
    ctx: &SimCtx,
    cell: &Cell,
    shards: ShardedBuffer,
    psu: PowerSupply,
    audit: Audit,
) {
    let ctx = ctx.clone();
    let tracer = ctx.tracer();
    cell.spawn(async move {
        // One power episode per RapiLog instance: after power loss the
        // instance is frozen and must be replaced by the operator (the
        // fault harness rebuilds the device stack on reboot).
        psu.warning_event().wait().await;
        // Power is failing: stop admitting, note the state, and watch
        // the (already eager) drain race the deadline.
        shards.freeze_all();
        let bytes = shards.total_occupancy();
        let remaining = Payload::Bytes { bytes };
        tracer.instant(ctx.now(), Layer::Power, "power_warning", remaining);
        let deadline = ctx.now()
            + psu
                .time_until_death()
                .expect("warning implies residual state");
        audit.record_warning(bytes, deadline);
        tracer.begin(ctx.now(), Layer::Drain, "emergency_drain", remaining);
        shards.all_drained().await;
        tracer.end(ctx.now(), Layer::Drain, "emergency_drain", remaining);
        audit.record_emergency_drained();
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
        for run in runs {
            store.write_segments(run.sector, &run.segments);
        }
        let mut buf = vec![0u8; sectors * SECTOR_SIZE];
        store.read_run(first, &mut buf);
        buf
    }

    #[test]
    fn consolidate_merges_contiguous_runs() {
        let runs = consolidate(&[ext(0, 0, 2), ext(1, 2, 3), ext(2, 5, 1)], usize::MAX).0;
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].sector, 0);
        assert_eq!(runs[0].bytes(), 6 * SECTOR_SIZE);
        assert_eq!(runs[0].segments.len(), 3, "segments appended, not copied");
    }

    #[test]
    fn consolidate_dedupes_tail_rewrites_keeping_newest() {
        // Extents 1 and 2 both write sector 10; the union must hold the
        // newest bytes (tag 2), and everything becomes ONE ascending run.
        let runs = consolidate(
            &[ext(0, 9, 1), ext(1, 10, 1), ext(2, 10, 1), ext(3, 11, 1)],
            usize::MAX,
        )
        .0;
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
        let runs = consolidate(&[ext(0, 0, 1), ext(1, 5, 2)], usize::MAX).0;
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].sector, 0);
        assert_eq!(runs[1].sector, 5);
        assert_eq!(runs[1].bytes(), 2 * SECTOR_SIZE);
    }

    #[test]
    fn consolidate_empty() {
        assert!(consolidate(&[], usize::MAX).0.is_empty());
    }

    #[test]
    fn consolidate_whole_run_rewrite_keeps_one_run() {
        // Extent 1 rewrites everything extent 0 covered and extends it.
        let runs = consolidate(&[ext(0, 4, 2), ext(1, 4, 3)], usize::MAX).0;
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
        let runs = consolidate(&[ext(0, 0, 4), ext(1, 2, 3)], usize::MAX).0;
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
        let runs = consolidate(&[ext(0, 0, 4), ext(1, 1, 1)], usize::MAX).0;
        assert_eq!(runs.len(), 2);
        let media = apply_and_read(&runs, 0, 4);
        assert_eq!(&media[..SECTOR_SIZE], &vec![0u8; SECTOR_SIZE][..]);
        assert_eq!(
            &media[SECTOR_SIZE..2 * SECTOR_SIZE],
            &vec![1u8; SECTOR_SIZE][..]
        );
        assert_eq!(&media[2 * SECTOR_SIZE..], &vec![0u8; 2 * SECTOR_SIZE][..]);
    }

    /// `consolidate` as it was before it searched past the newest run: an
    /// extent joins the *last* run or opens a new one. The reference the
    /// single-stream identity is checked against.
    fn consolidate_last_run_only(batch: &[Extent]) -> Vec<IoRun> {
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

    #[test]
    fn four_interleaved_sequential_streams_collapse_to_four_runs() {
        // Round-robin arrivals from four writers, each appending to its own
        // region: only overlapping writes are ordered, so each stream
        // regroups into one run carrying every fourth seq.
        let mut batch = Vec::new();
        for round in 0..8u64 {
            for stream in 0..4u64 {
                batch.push(ext(round * 4 + stream, stream * 1000 + round * 2, 2));
            }
        }
        let (runs, seqs) = consolidate(&batch, usize::MAX);
        assert_eq!(runs.len(), 4, "one run per stream");
        for (stream, (run, seqs)) in runs.iter().zip(&seqs).enumerate() {
            assert_eq!(run.sector, stream as u64 * 1000);
            assert_eq!(run.bytes(), 16 * SECTOR_SIZE);
            let expect: SeqRanges = (0..8)
                .map(|round| round * 4 + stream as u64)
                .map(|seq| (seq, seq))
                .collect();
            assert_eq!(seqs, &expect, "ascending, non-contiguous seqs");
        }
        assert_eq!(
            consolidate_last_run_only(&batch).len(),
            32,
            "the last-run-only builder never coalesced them"
        );
    }

    #[test]
    fn an_extent_is_not_merged_past_a_later_run_that_overlaps_it() {
        // Run A (sectors 0..4), then B rewriting 5..7 — part of what will be
        // A's continuation — then the continuation 4..8 itself. It abuts A,
        // but B holds older bytes for 5..7: joining A would land them first
        // and B's stale bytes last.
        let batch = [ext(1, 0, 4), ext(2, 5, 2), ext(3, 4, 4)];
        let (runs, seqs) = consolidate(&batch, usize::MAX);
        assert_eq!(runs.len(), 3, "the continuation opens its own run");
        assert_eq!(seqs, vec![vec![(1, 1)], vec![(2, 2)], vec![(3, 3)]]);
        assert_eq!(
            (runs[1].sector, runs[2].sector),
            (5, 4),
            "B stays before the continuation"
        );
        let media = apply_and_read(&runs, 0, 8);
        assert_eq!(&media[..4 * SECTOR_SIZE], &vec![1u8; 4 * SECTOR_SIZE][..]);
        assert_eq!(&media[4 * SECTOR_SIZE..], &vec![3u8; 4 * SECTOR_SIZE][..]);
        // A disjoint stream in between does not stop the search.
        let batch = [ext(1, 0, 4), ext(2, 100, 2), ext(3, 4, 4)];
        let (runs, seqs) = consolidate(&batch, usize::MAX);
        assert_eq!(runs.len(), 2);
        assert_eq!(seqs, vec![vec![(1, 1), (3, 3)], vec![(2, 2)]]);
    }

    #[test]
    fn a_single_stream_consolidates_exactly_as_before() {
        // WAL-shaped: appends, tail-sector rewrites (every group-commit
        // flush re-forces the tail), a whole-run rewrite, a mid-run rewrite
        // and a gap. Every extent finds its run at the first probe, so the
        // runs are the last-run-only builder's, view for view.
        let batch = [
            ext(0, 10, 2),
            ext(1, 11, 2),
            ext(2, 12, 1),
            ext(3, 13, 3),
            ext(4, 15, 1),
            ext(5, 15, 2),
            ext(6, 12, 1),
            ext(7, 40, 2),
            ext(8, 42, 1),
            ext(9, 40, 4),
        ];
        let (runs, seqs) = consolidate(&batch, usize::MAX);
        let before = consolidate_last_run_only(&batch);
        assert_eq!(runs.len(), before.len());
        for (new, old) in runs.iter().zip(&before) {
            assert_eq!(new.sector, old.sector);
            assert_eq!(new.segments.len(), old.segments.len());
            for (a, b) in new.segments.iter().zip(&old.segments) {
                assert_eq!((a.as_ptr(), a.len()), (b.as_ptr(), b.len()));
            }
        }
        assert_eq!(seqs.concat(), vec![(0, 5), (6, 6), (7, 9)]);
    }

    #[test]
    fn the_run_bound_stops_appends_but_never_tail_rewrites() {
        // 2-sector extents under a 4-sector bound: the stream splits into
        // runs of two extents each.
        let batch: Vec<Extent> = (0..6).map(|i| ext(i, i * 2, 2)).collect();
        let (runs, seqs) = consolidate(&batch, 4 * SECTOR_SIZE);
        assert_eq!(seqs, vec![vec![(0, 1)], vec![(2, 3)], vec![(4, 5)]]);
        assert!(runs.iter().all(|r| r.bytes() == 4 * SECTOR_SIZE));
        // A tail rewrite merges even when it takes the run past the bound:
        // splitting it off would only add a run that must wait for this one.
        let batch = [ext(0, 0, 4), ext(1, 3, 3)];
        let (runs, seqs) = consolidate(&batch, 4 * SECTOR_SIZE);
        assert_eq!(seqs, vec![vec![(0, 1)]]);
        assert_eq!(runs[0].bytes(), 6 * SECTOR_SIZE);
    }

    #[test]
    fn consolidated_runs_share_extent_allocations() {
        // The zero-copy invariant inside the drain: run segments are views
        // of the very allocations the extents carry.
        let e = ext(0, 0, 2);
        let admitted_ptr = e.data.as_ptr();
        let runs = consolidate(&[e, ext(1, 2, 1)], usize::MAX).0;
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
            let runs = consolidate(&batch, usize::MAX).0;
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

    /// The delay before retry `attempt` minus its jitter, checked to lie in
    /// `[0, RETRY_JITTER)` above `base_us`.
    fn jitter_above(delay: SimDuration, base_us: u64) -> u64 {
        let jitter = delay.as_nanos().checked_sub(base_us * 1000);
        let jitter = jitter.unwrap_or_else(|| panic!("{delay:?} is below {base_us} us"));
        assert!(
            jitter < RETRY_JITTER.as_nanos(),
            "{delay:?}: jitter {jitter} ns"
        );
        jitter
    }

    #[test]
    fn backoff_is_deterministic_for_equal_rng_state() {
        let mut a = SimRng::seed_from_u64(99);
        let mut b = SimRng::seed_from_u64(99);
        for attempt in 0..12 {
            assert_eq!(
                backoff_delay(attempt, &mut a),
                backoff_delay(attempt, &mut b),
                "attempt {attempt}"
            );
        }
    }

    #[test]
    fn backoff_doubles_then_caps() {
        let mut rng = SimRng::seed_from_u64(1);
        // 100 µs doubling, each under 50 µs of jitter.
        jitter_above(backoff_delay(0, &mut rng), 100);
        jitter_above(backoff_delay(1, &mut rng), 200);
        jitter_above(backoff_delay(4, &mut rng), 1600);
        // 100 µs * 2^8 = 25.6 ms > 20 ms cap.
        jitter_above(backoff_delay(8, &mut rng), 20_000);
        // Huge attempt numbers must not overflow.
        jitter_above(backoff_delay(u32::MAX, &mut rng), 20_000);
    }

    #[test]
    fn jitter_is_bounded_and_consumed_from_the_rng() {
        let mut rng = SimRng::seed_from_u64(7);
        let jitters: Vec<u64> = (0..20u32)
            .map(|attempt| {
                let base_us = (100u64 << attempt).min(20_000);
                jitter_above(backoff_delay(attempt, &mut rng), base_us)
            })
            .collect();
        // Each delay draws afresh: the 20 jitters are not one value.
        assert!(jitters.iter().any(|&j| j != jitters[0]), "{jitters:?}");
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
        let rl = setup(&mut sim, disk.clone(), RetryPolicy::default());
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
                if rl2.snapshot().degraded {
                    e2.set(true);
                }
                c2.sleep(SimDuration::from_micros(500)).await;
            }
        });
        // A 40 ms sick burst starting at t=20 ms: longer than the ~25.5 ms
        // of backoff the retry budget (8 retries) spends.
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
        assert!(!rl.snapshot().degraded, "healthy again after the burst");
        assert_eq!(rl.occupancy(), 0);
    }

    #[test]
    fn second_burst_after_recovery_reenters_degraded_mode_and_acks_synchronously() {
        let mut sim = Sim::new(25);
        let ctx = sim.ctx();
        let disk = Disk::new(&ctx, specs::instant(1 << 24));
        let rl = setup(&mut sim, disk.clone(), RetryPolicy::default());
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
        // Two sick bursts separated by a long healthy gap: 20–60 ms and
        // 150–190 ms, each longer than the ~25.5 ms of backoff the retry
        // budget spends. The writer stream keeps the drain busy
        // throughout, so hysteresis recovers the mode between the bursts.
        let d2 = disk.clone();
        sim.spawn({
            let ctx = ctx.clone();
            async move {
                ctx.sleep(SimDuration::from_millis(20)).await;
                d2.set_sick(true);
                ctx.sleep(SimDuration::from_millis(40)).await;
                d2.set_sick(false);
                ctx.sleep(SimDuration::from_millis(90)).await;
                d2.set_sick(true);
                ctx.sleep(SimDuration::from_millis(40)).await;
                d2.set_sick(false);
            }
        });
        // The probe: 30 ms into the second burst, after the budget is
        // spent, one write must be re-acknowledged synchronously (it waits
        // out the rest of the burst for media), proving re-entry is
        // behavioural, not just a counter.
        {
            let dev = dev.clone();
            let ctx = ctx.clone();
            let rl = rl.clone();
            let flag = Rc::clone(&degraded_in_burst2);
            let ack = Rc::clone(&probe_ack_ns);
            sim.spawn(async move {
                ctx.sleep(SimDuration::from_millis(180)).await;
                flag.set(rl.snapshot().degraded);
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
        assert!(
            !rl2.snapshot().degraded,
            "healthy again after the second burst"
        );
        assert_eq!(rl2.occupancy(), 0);
    }

    #[test]
    fn degraded_ack_waits_for_media() {
        let mut sim = Sim::new(24);
        let ctx = sim.ctx();
        // Real mechanics so a media write costs milliseconds.
        let disk = Disk::new(&ctx, specs::hdd_7200(1 << 30));
        let retry = RetryPolicy {
            degraded_exit_successes: u32::MAX, // stay degraded
            ..RetryPolicy::default()
        };
        let rl = setup(&mut sim, disk.clone(), retry);
        let dev = rl.device();
        let ack_ns = Rc::new(StdCell::new(0u64));
        let a2 = Rc::clone(&ack_ns);
        let d2 = disk.clone();
        let c2 = ctx.clone();
        let rl2 = rl.clone();
        sim.spawn(async move {
            // Trip the mode with a sick spell. The device write is acked
            // from the buffer before degradation engages; the *drain* sees
            // the faults and exhausts its retry budget.
            d2.set_sick(true);
            dev.write(0, &vec![1u8; SECTOR_SIZE], true).await.unwrap();
            while !rl2.snapshot().degraded {
                c2.sleep(SimDuration::from_millis(1)).await;
            }
            d2.set_sick(false);
            c2.sleep(SimDuration::from_millis(50)).await;
            let t0 = c2.now();
            dev.write(1, &vec![2u8; SECTOR_SIZE], true).await.unwrap();
            a2.set((c2.now() - t0).as_nanos());
        });
        sim.run_until(SimTime::from_secs(5));
        assert!(
            rl.snapshot().degraded,
            "exit threshold unreachable by design"
        );
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
    use super::{consolidate, BatchEntry, BatchLedger, DrainController, SeqRanges};
    use crate::audit::Audit;
    use crate::buffer::Extent;
    use crate::prelude::*;
    use rapilog_microvisor::{Hypervisor, Trust};
    use rapilog_simcore::bytes::SectorBuf;
    use rapilog_simcore::rng::SimRng;
    use rapilog_simcore::trace::Payload;
    use rapilog_simcore::{Sim, SimDuration, SimTime};
    use rapilog_simdisk::IoRun;
    use rapilog_simdisk::{specs, BlockDevice, Disk, DiskSpec, SectorStore, SECTOR_SIZE};
    use std::cell::Cell as StdCell;
    use std::rc::Rc;

    /// The ordering edges over one consolidated batch: run `j` must wait for
    /// every earlier run `i` whose sector range overlaps its own. A later run
    /// overlapping an earlier one carries the *newer* bytes for the shared
    /// sectors, so media order is the newest-wins tiebreak; disjoint runs
    /// carry no edge and may land in any order.
    ///
    /// This is the declarative spec of the constraint the drain enforces online
    /// (against every in-flight run, including runs of earlier batches); the
    /// permutation property test exercises it directly.
    fn dep_edges(runs: &[IoRun]) -> Vec<Vec<usize>> {
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
        assert!(report.tenants[0].commits > 0, "durable prefix advanced");
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

    /// Adaptive's window is as deep as the device queues from the first
    /// pop, whatever narrower depth was configured, and stays there.
    #[test]
    fn an_adaptive_window_runs_at_the_device_queue_depth_from_the_first_pop() {
        let spec = specs::ssd_nvme(1 << 30).with_channels(4);
        let drain = DrainConfig::new()
            .window_depth(2)
            .ordering(OrderingMode::PartiallyConstrained)
            .batch_policy(BatchPolicy::Adaptive(AdaptiveBatchConfig));
        let mut sim = Sim::new(37);
        let (rl, _disk) = setup(&mut sim, spec.clone(), drain);
        let (dev, rl2) = (rl.device(), rl.clone());
        let seen = Rc::new(StdCell::new(None));
        let s2 = Rc::clone(&seen);
        sim.spawn(async move {
            dev.write(0, &vec![1u8; 64 << 10], true).await.unwrap();
            let d = rl2.snapshot().drain;
            s2.set(Some((d.commits_measured, d.window_depth)));
        });
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(seen.get(), Some((0, 4)), "before the first retirement");
        let (_, rl, _) = drain_time(37, spec, drain);
        let snap = rl.snapshot();
        assert!(snap.drain.commits_measured > 0);
        assert_eq!(snap.drain.window_depth, 4, "after a whole stream");
        assert!(
            snap.disk.max_outstanding > 2,
            "the window held {} runs in flight",
            snap.disk.max_outstanding
        );
    }

    #[test]
    fn later_batch_may_retire_first_but_the_ledger_stays_ordered() {
        // Batch 1 is a long 256 KiB run; batch 2 a single disjoint sector.
        // On a multi-channel SSD the small run lands first — an ooo
        // retirement — while record_tenant_commit still sees ascending
        // sequences (guarantee_held checks exactly that).
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
        // And not only for this one pair: in any retirement order at all.
        any_retirement_order_keeps_the_prefix_and_the_space();
    }

    /// Property behind the ledger: batches of 1 to 8 sectors popped from
    /// three interleaved streams, consolidated into multi-run batches, then
    /// retired run by run in ANY order, must (a) hand back exactly the
    /// landed run's extents at each step — occupancy drops by their bytes,
    /// no more, no less, and ends at zero; (b) feed the audit only a
    /// contiguous, monotonic durable prefix — one commit per batch, in
    /// sequence order; and (c) keep `wait_completed` on its oldest-pending
    /// semantics: a waiter on seq s wakes only once every extent up to s
    /// has been released, however the runs interleave.
    fn any_retirement_order_keeps_the_prefix_and_the_space() {
        for seed in 0..12u64 {
            let mut sim = Sim::new(seed);
            let ctx = sim.ctx();
            let disk = Disk::new(&ctx, rapilog_simdisk::specs::hdd_7200(1 << 30));
            let cfg = DrainConfig::new()
                .ordering(OrderingMode::PartiallyConstrained)
                .window_depth(2);
            let ctrl = DrainController::new(&cfg, &disk);
            let audit = Audit::new(&ctx);
            let buffer = DependableBuffer::new(64 << 20);
            buffer.attach(&ctx);
            let batches_seen = Rc::new(StdCell::new(0u64));
            let multi_run_batches = Rc::new(StdCell::new(0u64));
            let done = Rc::new(StdCell::new(false));
            let t_buffer = buffer.clone();
            let t_audit = audit.clone();
            let t_ctrl = Rc::clone(&ctrl);
            let t_batches = Rc::clone(&batches_seen);
            let t_multi = Rc::clone(&multi_run_batches);
            let t_done = Rc::clone(&done);
            let t_ctx = ctx.clone();
            sim.spawn(async move {
                let mut rng = SimRng::seed_from_u64(0xADA7 + seed);
                let ledger = BatchLedger::new(&t_buffer, TenantId::DEFAULT);
                // Bytes per seq, and the seqs not yet released — the model
                // the buffer is checked against.
                let mut len_of: Vec<u64> = Vec::new();
                let mut unreleased: std::collections::BTreeSet<u64> = Default::default();
                // Three interleaved sequential streams, far apart.
                let mut cursor = [0u64; 3];
                let mut next_batch_id = 0u64;
                // Several push/pop rounds so pops interleave with arrivals,
                // as they do mid-stream in the real drain. The sleep moves
                // the clock off zero so admission stamps are
                // distinguishable from "no clock attached".
                for _round in 0..6 {
                    t_ctx.sleep(SimDuration::from_micros(10)).await;
                    for _ in 0..(8 + rng.next_u64() % 12) {
                        let stream = (rng.next_u64() % 3) as usize;
                        let sectors = 1 + rng.next_u64() % 3;
                        let data = SectorBuf::from_vec(vec![7u8; sectors as usize * SECTOR_SIZE]);
                        let sector = stream as u64 * 1_000_000 + cursor[stream];
                        cursor[stream] += sectors;
                        let seq = t_buffer.push(sector, data).await.unwrap();
                        assert_eq!(seq as usize, len_of.len());
                        len_of.push(sectors * SECTOR_SIZE as u64);
                        unreleased.insert(seq);
                    }
                    // (batch id, seqs of one run) for the random scheduler.
                    let mut pending: Vec<(u64, SeqRanges)> = Vec::new();
                    loop {
                        // Batch shapes vary: every pop uses a fresh random
                        // target between 1 and 8 sectors.
                        let target = SECTOR_SIZE * (1 + (rng.next_u64() % 8) as usize);
                        let batch = t_buffer.pop_batch(target);
                        if batch.is_empty() {
                            break;
                        }
                        let (runs, seqs) = consolidate(&batch, usize::MAX);
                        if runs.len() > 1 {
                            t_multi.set(t_multi.get() + 1);
                        }
                        let bytes = runs.iter().map(|r| r.bytes() as u64).sum();
                        ledger.borrow_mut().batches.push_back(BatchEntry {
                            id: next_batch_id,
                            hi: batch.last().unwrap().seq,
                            remaining: runs.len() as u64,
                            retired: false,
                            payload: Payload::Batch {
                                extents: batch.len() as u64,
                                runs: runs.len() as u64,
                                bytes,
                            },
                            dispatched_ns: t_ctx.now().as_nanos(),
                            admits: batch.iter().map(|e| e.admit_ns).collect(),
                        });
                        pending.extend(seqs.into_iter().map(|s| (next_batch_id, s)));
                        next_batch_id += 1;
                    }
                    // A degraded-mode ack waiting on a seq in the middle of
                    // what is in flight.
                    let probe = {
                        let all: Vec<u64> = unreleased.iter().copied().collect();
                        all[all.len() / 2]
                    };
                    let woke = Rc::new(StdCell::new(false));
                    {
                        let (buffer, woke) = (t_buffer.clone(), Rc::clone(&woke));
                        t_ctx.spawn(async move {
                            assert!(buffer.wait_completed(probe).await);
                            woke.set(true);
                        });
                    }
                    // Retire this round's runs in a random global order.
                    while !pending.is_empty() {
                        let pick = (rng.next_u64() as usize) % pending.len();
                        let (id, seqs) = pending.swap_remove(pick);
                        let before = t_buffer.occupancy();
                        let _ = ledger.borrow_mut().run_done(
                            id,
                            &seqs,
                            true,
                            &t_audit,
                            &t_ctrl,
                            t_ctx.now().as_nanos(),
                        );
                        let seqs: Vec<u64> = seqs.iter().flat_map(|&(lo, hi)| lo..=hi).collect();
                        let landed: u64 = seqs.iter().map(|&s| len_of[s as usize]).sum();
                        assert_eq!(
                            before - t_buffer.occupancy(),
                            landed,
                            "seed {seed}: a landed run releases exactly its own extents"
                        );
                        for s in &seqs {
                            assert!(unreleased.remove(s), "seed {seed}: seq {s} released twice");
                        }
                        // Let the waiter observe the release.
                        t_ctx.sleep(SimDuration::from_nanos(1)).await;
                        let prefix_done = unreleased.first().is_none_or(|&s| s > probe);
                        assert_eq!(
                            woke.get(),
                            prefix_done,
                            "seed {seed}: wait_completed({probe}) vs oldest pending {:?}",
                            unreleased.first()
                        );
                    }
                }
                assert!(
                    ledger.borrow().batches.is_empty(),
                    "every batch must retire"
                );
                t_batches.set(next_batch_id);
                t_done.set(true);
            });
            sim.run();
            assert!(done.get(), "seed {seed}: scenario must complete");
            assert!(
                multi_run_batches.get() > 0,
                "seed {seed}: the scenario must produce multi-run batches"
            );
            assert_eq!(
                buffer.occupancy(),
                0,
                "seed {seed}: complete_run leaked space"
            );
            let report = audit.report();
            let section = &report.tenants[0];
            assert!(
                !section.order_violated,
                "seed {seed}: durable prefix went non-contiguous"
            );
            assert_eq!(
                section.commits,
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

    fn tagged(seq: u64, sector: u64, sectors: usize) -> Extent {
        Extent {
            seq,
            sector,
            admit_ns: 0,
            data: SectorBuf::from_vec(vec![(seq + 1) as u8; sectors * SECTOR_SIZE]),
        }
    }

    /// A batch of random extents anywhere in `span` sectors.
    fn scattered_batch(rng: &mut SimRng, span: u64) -> Vec<Extent> {
        let n = 4 + rng.next_u64() % 12;
        (0..n)
            .map(|seq| {
                let sectors = 1 + rng.next_u64() % 4;
                tagged(seq, rng.next_u64() % (span - sectors), sectors as usize)
            })
            .collect()
    }

    /// A batch of three interleaved sequential streams over neighbouring
    /// regions of `span` sectors: each arrival extends a random stream,
    /// half the time re-forcing its tail sector first (the group-commit
    /// pattern), and now and then a stray rewrite lands in the middle of
    /// what another stream wrote — the case the overlap rule exists for.
    fn interleaved_batch(rng: &mut SimRng, span: u64) -> Vec<Extent> {
        let region = span / 3;
        let mut cursor = [0u64; 3];
        let mut batch = Vec::new();
        for seq in 0..(10 + rng.next_u64() % 14) {
            let stream = (rng.next_u64() % 3) as usize;
            let sectors = 1 + rng.next_u64() % 3;
            let extent = if rng.next_u64().is_multiple_of(8) {
                tagged(seq, rng.next_u64() % (span - sectors), sectors as usize)
            } else {
                let rewrite = u64::from(cursor[stream] > 0 && rng.next_u64().is_multiple_of(2));
                let at = cursor[stream] - rewrite;
                if at + sectors > region {
                    continue;
                }
                cursor[stream] = at + sectors;
                tagged(seq, stream as u64 * region + at, sectors as usize)
            };
            batch.push(extent);
        }
        batch
    }

    #[test]
    fn any_edge_respecting_completion_order_yields_the_same_media_state() {
        // Property: for random batches of log extents — scattered, or
        // interleaved sequential streams with tail rewrites, consolidated
        // with and without a run bound — every completion order of the
        // merged runs permitted by dep_edges() leaves the media state of
        // applying the *extents* one by one in seq order. 32 seeded batches
        // × 8 sampled linearizations each.
        const SECTOR_SPAN: u64 = 48;
        let mut merged_across_streams = 0;
        for seed in 0..32u64 {
            let mut rng = SimRng::seed_from_u64(0xD0_0D + seed);
            let extents = if seed % 2 == 0 {
                scattered_batch(&mut rng, SECTOR_SPAN)
            } else {
                interleaved_batch(&mut rng, SECTOR_SPAN)
            };
            let run_bound = match seed % 4 {
                3 => 4 * SECTOR_SIZE,
                _ => usize::MAX,
            };
            let (runs, seqs) = consolidate(&extents, run_bound);
            merged_across_streams += seqs.iter().filter(|ranges| ranges.len() > 1).count();
            let edges = dep_edges(&runs);
            // Ground truth: the extents themselves, in sequence order.
            let mut serial = SectorStore::new();
            for e in &extents {
                serial.write_run(e.sector, &e.data);
            }
            let mut expect = vec![0u8; SECTOR_SPAN as usize * SECTOR_SIZE];
            serial.read_run(0, &mut expect);
            for sample in 0..8u64 {
                let mut prng = SimRng::seed_from_u64(seed * 100 + sample);
                let order = random_linearization(&edges, &mut prng);
                let mut store = SectorStore::new();
                for &j in &order {
                    store.write_segments(runs[j].sector, &runs[j].segments);
                }
                let mut got = vec![0u8; SECTOR_SPAN as usize * SECTOR_SIZE];
                store.read_run(0, &mut got);
                assert_eq!(
                    got, expect,
                    "seed {seed} sample {sample} order {order:?} diverged"
                );
            }
        }
        assert!(
            merged_across_streams >= 16,
            "the batches must exercise the multi-stream merge \
             ({merged_across_streams} runs gathered non-adjacent extents)"
        );
    }

    // ---- the run bound ----

    #[test]
    fn the_run_bound_is_what_transfers_within_max_hold_after_positioning() {
        // ssd_nvme: (100 − 15) µs × 2 GiB/s = 182 536 B, down to 176 KiB.
        // ssd_sata's 70 µs command leaves 7 864 B, and an HDD's seek plus
        // rotation alone outlasts MAX_HOLD: both get the 64 KiB floor.
        let gib = 1 << 30;
        assert_eq!(super::run_bound_of(&specs::ssd_nvme(gib)), 176 << 10);
        for spec in [
            specs::ssd_sata(gib),
            specs::hdd_7200(gib),
            specs::hdd_15k(gib),
        ] {
            assert_eq!(super::run_bound_of(&spec), 64 << 10, "{}", spec.name);
        }
    }

    #[test]
    fn blocked_writers_bound_the_run_to_what_retires_within_max_hold() {
        // Four writers append 32–96 KiB extents to private regions of a
        // 4-channel NVMe through 4 MiB of buffer, as fast as the device
        // acks: ≈ 6 GB/s of demand, so they block on space for the whole
        // run and the drain is the commit path.
        let mut sim = Sim::new(41);
        let ctx = sim.ctx();
        ctx.tracer().set_capacity(1 << 18);
        ctx.tracer().set_enabled(true);
        let spec = specs::ssd_nvme(1 << 30).with_channels(4);
        let (rl, disk) = setup(
            &mut sim,
            spec.clone(),
            DrainConfig::new()
                .ordering(OrderingMode::PartiallyConstrained)
                .batch_policy(BatchPolicy::Adaptive(AdaptiveBatchConfig)),
        );
        for w in 0..4u64 {
            let dev = rl.device();
            let mut rng = SimRng::seed_from_u64(w);
            sim.spawn(async move {
                let mut at = w << 18;
                for i in 0..1500u64 {
                    let sectors = 64 + rng.next_u64() % 129;
                    let data = vec![(i % 251 + 1) as u8; sectors as usize * SECTOR_SIZE];
                    dev.write(at, &data, true).await.unwrap();
                    at += sectors;
                }
            });
        }
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(rl.occupancy(), 0, "everything drained");
        assert!(rl.audit_report().guarantee_held());
        assert!(
            rl.stats().backpressure_events > 1000,
            "writers were blocked"
        );
        let bound = rl.snapshot().drain.run_bound_bytes;
        assert_eq!(bound, super::run_bound_of(&spec) as u64);
        let snap = ctx.tracer().snapshot();
        assert_eq!(snap.dropped, 0, "the ring must hold the whole run");
        // Every run: at most the bound, and retired within MAX_HOLD + 10 %.
        let limit = super::MAX_HOLD + super::MAX_HOLD / 10;
        let mut ops = 0u64;
        for op in snap.media_ops(true) {
            ops += 1;
            assert!(op.sectors * SECTOR_SIZE as u64 <= bound, "{op:?}");
            let service = op.seek + op.rotation + op.transfer;
            assert!(service <= limit, "a run took {service}, over {limit}");
        }
        assert_eq!(ops, disk.stats().media_ops, "every write was traced");
        let bytes_per_op = disk.stats().sectors_written * SECTOR_SIZE as u64 / ops;
        assert!(
            bytes_per_op > 100 << 10,
            "interleaved streams still coalesce under the bound ({bytes_per_op} B/op)"
        );
    }

    #[test]
    fn dep_edges_order_overlaps_and_free_disjoint_runs() {
        let runs = consolidate(
            &[
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
            ],
            usize::MAX,
        )
        .0;
        assert_eq!(runs.len(), 3, "middle overlap + gap split the batch");
        let edges = dep_edges(&runs);
        assert!(edges[0].is_empty());
        assert_eq!(edges[1], vec![0], "the middle rewrite must order");
        assert!(edges[2].is_empty(), "the disjoint run is free to fly");
    }
}

/// A guest reading the log disk holds up nobody blocked on the drain. The
/// drain does not arbitrate the disk (DESIGN.md §12.1): whoever waits on it
/// waits behind at most the read on the media, then the write's own
/// positioning and transfer — what a synchronous disk shared with that
/// reader would cost.
#[cfg(test)]
mod read_yield_tests {
    use crate::prelude::*;
    use rapilog_microvisor::{Hypervisor, Trust};
    use rapilog_simcore::{Sim, SimCtx, SimDuration, SimTime};
    use rapilog_simdisk::{specs, BlockDevice, Disk, SECTOR_SIZE};
    use rapilog_simpower::{supplies, PowerSupply};
    use std::cell::Cell as StdCell;
    use std::rc::Rc;

    /// Far from anything the tests write: a read of it goes to the disk.
    const UNBUFFERED: u64 = 1 << 16;
    /// The most a reader sharing a synchronous disk costs a writer: the
    /// read on the media when the write arrives, then the write's own
    /// positioning and transfer.
    const SHARED_SYNC_DISK: SimDuration = SimDuration::from_millis(25);

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    fn sectors(tag: u8, n: usize) -> Vec<u8> {
        vec![tag; n * SECTOR_SIZE]
    }

    struct Rig {
        sim: Sim,
        ctx: SimCtx,
        rl: RapiLog,
        disk: Disk,
        psu: Option<PowerSupply>,
        /// Cleared to stop the reader.
        reading: Rc<StdCell<bool>>,
        /// Reads the reader has completed.
        reads: Rc<StdCell<u64>>,
    }

    /// An instance over `hdd_7200` with the stock (Strict) drain, and one
    /// landed write by 19 ms.
    fn rig(capacity: u64, tenants: &[TenantSpec], retry: RetryPolicy, psu: bool) -> Rig {
        let mut sim = Sim::new(41);
        let ctx = sim.ctx();
        let hv = Hypervisor::new(&ctx);
        let cell = hv.create_cell("rapilog", Trust::Trusted);
        let disk = Disk::new(&ctx, specs::hdd_7200(1 << 30));
        let mut builder = RapiLog::builder(&ctx)
            .cell(&cell)
            .disk(disk.clone())
            .capacity(CapacitySpec::Fixed(capacity))
            .drain_config(DrainConfig::new().retry(retry))
            .tenants(tenants);
        let psu = psu.then(|| PowerSupply::new(&ctx, supplies::atx_psu()));
        if let Some(psu) = &psu {
            builder = builder.supply(psu);
        }
        let rl = builder.build();
        std::mem::forget(cell);
        let dev = rl.device();
        sim.spawn(async move {
            dev.write(64, &sectors(0xAA, 1), true).await.unwrap();
        });
        sim.run_until(SimTime::ZERO + ms(19));
        assert_eq!(rl.occupancy(), 0, "the priming write landed");
        Rig {
            sim,
            ctx,
            rl,
            disk,
            psu,
            reading: Rc::new(StdCell::new(true)),
            reads: Rc::new(StdCell::new(0)),
        }
    }

    impl Rig {
        /// A guest that keeps reading un-buffered sectors of `dev`, with a
        /// guest's turnaround between one read and the next, from 20 ms on.
        fn spawn_reader(&self, dev: RapiLogDevice) {
            let (ctx, on, reads) = (
                self.ctx.clone(),
                Rc::clone(&self.reading),
                Rc::clone(&self.reads),
            );
            self.ctx.spawn(async move {
                ctx.sleep_until(SimTime::ZERO + ms(20)).await;
                let mut buf = sectors(0, 8);
                while on.get() {
                    // Errors (a dying disk) do not stop a guest retrying.
                    let _ = dev.read(UNBUFFERED, &mut buf).await;
                    reads.set(reads.get() + 1);
                    ctx.sleep(SimDuration::from_micros(10)).await;
                }
            });
        }

        /// Everything landed and nothing acknowledged was lost.
        fn assert_all_landed(&self) {
            assert_eq!(self.rl.occupancy(), 0);
            assert!(self.rl.audit_report().guarantee_held());
        }
    }

    fn ack_cost(bytes: usize) -> SimDuration {
        let cfg = RapiLogConfig::default();
        cfg.ack_base + cfg.ack_per_kib * (bytes as u64).div_ceil(1024)
    }

    /// (a) The buffer (tenant B's shard) fills while a guest (tenant A)
    /// reads, and B's next write blocks: it is acknowledged within what a
    /// reader sharing a synchronous disk costs.
    fn a_blocked_writer_gets_the_disk(tenants: &[TenantSpec]) {
        let shards = tenants.len().max(1);
        let mut r = rig(
            (4 * SECTOR_SIZE * shards) as u64,
            tenants,
            RetryPolicy::default(),
            false,
        );
        let tenants = r.rl.snapshot().tenants;
        let ids: Vec<TenantId> = tenants.iter().map(|t| TenantId(t.tenant)).collect();
        r.spawn_reader(r.rl.device_for(ids[0]).unwrap());
        let writer = r.rl.device_for(*ids.last().unwrap()).unwrap();
        let blocked = Rc::new(StdCell::new((SimTime::ZERO, SimTime::ZERO)));
        let (ctx, b2, on) = (r.ctx.clone(), Rc::clone(&blocked), Rc::clone(&r.reading));
        r.sim.spawn(async move {
            ctx.sleep_until(SimTime::ZERO + ms(21)).await;
            // Fills the shard; acknowledged at once.
            writer.write(0, &sectors(1, 4), true).await.unwrap();
            let called = ctx.now();
            writer.write(4, &sectors(2, 1), true).await.unwrap();
            b2.set((called + ack_cost(SECTOR_SIZE), ctx.now()));
            on.set(false);
        });
        r.sim.run_until(SimTime::from_secs(1));
        let (blocked_at, acked_at) = blocked.get();
        assert!(acked_at > blocked_at, "the second write did block");
        assert!(
            acked_at - blocked_at < SHARED_SYNC_DISK,
            "the reader cost the writer {:?}",
            acked_at - blocked_at
        );
        r.assert_all_landed();
    }

    #[test]
    fn a_blocked_writer_is_not_held_up_by_a_reader() {
        a_blocked_writer_gets_the_disk(&[]);
    }

    #[test]
    fn tenant_a_reading_cannot_delay_tenant_b_once_b_is_blocked() {
        a_blocked_writer_gets_the_disk(&[TenantSpec::new(1), TenantSpec::new(2)]);
    }

    /// (b) Degraded mode: the ack waits for media, so the drain is the
    /// commit path, and the reader costs it no more than (a).
    #[test]
    fn a_degraded_ack_never_waits_behind_a_reader() {
        let stay_degraded = RetryPolicy {
            degraded_exit_successes: u32::MAX,
            ..RetryPolicy::default()
        };
        let mut r = rig(16 << 20, &[], stay_degraded, false);
        // Trip the mode before the reader starts: one write into a sick
        // spell that lasts until the drain has spent its retry budget, and
        // that write landed once the spell is over.
        r.disk.set_sick(true);
        let dev = r.rl.device();
        r.sim.spawn(async move {
            dev.write(0, &sectors(1, 1), true).await.unwrap();
        });
        let step = |r: &mut Rig| {
            let next = r.ctx.now() + ms(1);
            assert!(next < SimTime::from_secs(1), "the spell never ended");
            r.sim.run_until(next);
        };
        while !r.rl.snapshot().degraded {
            step(&mut r);
        }
        r.disk.set_sick(false);
        while r.rl.occupancy() > 0 {
            step(&mut r);
        }
        r.spawn_reader(r.rl.device());
        let acked = Rc::new(StdCell::new((SimTime::ZERO, SimTime::ZERO)));
        let (ctx, a2, on, dev) = (
            r.ctx.clone(),
            Rc::clone(&acked),
            Rc::clone(&r.reading),
            r.rl.device(),
        );
        r.sim.spawn(async move {
            ctx.sleep(ms(20)).await;
            let called = ctx.now();
            dev.write(1, &sectors(2, 1), true).await.unwrap();
            a2.set((called + ack_cost(SECTOR_SIZE), ctx.now()));
            on.set(false);
        });
        r.sim.run_until(SimTime::from_secs(1));
        assert!(
            r.rl.snapshot().degraded,
            "exit threshold unreachable by design"
        );
        let (pending_from, acked_at) = acked.get();
        assert!(
            acked_at - pending_from > SimDuration::from_micros(100),
            "the ack waited for media"
        );
        assert!(
            acked_at - pending_from < SHARED_SYNC_DISK,
            "the reader cost the degraded ack {:?}",
            acked_at - pending_from
        );
        r.assert_all_landed();
    }

    /// (b) `quiesce()`: it returns while the reader is still looping.
    #[test]
    fn quiesce_is_not_held_up_by_a_reader() {
        let mut r = rig(16 << 20, &[], RetryPolicy::default(), false);
        r.spawn_reader(r.rl.device());
        let quiesced = Rc::new(StdCell::new((SimTime::ZERO, SimTime::ZERO, 0)));
        let (ctx, q2, on, reads, rl) = (
            r.ctx.clone(),
            Rc::clone(&quiesced),
            Rc::clone(&r.reading),
            Rc::clone(&r.reads),
            r.rl.clone(),
        );
        r.sim.spawn(async move {
            let dev = rl.device();
            ctx.sleep_until(SimTime::ZERO + ms(21)).await;
            dev.write(0, &sectors(1, 8), true).await.unwrap();
            let called = ctx.now();
            rl.quiesce().await;
            assert_eq!(rl.occupancy(), 0);
            q2.set((called, ctx.now(), reads.get()));
            ctx.sleep(ms(30)).await;
            on.set(false);
        });
        r.sim.run_until(SimTime::from_secs(1));
        let (called, returned, reads_then) = quiesced.get();
        assert!(returned > called, "quiesce had something to wait for");
        assert!(
            returned - called < SHARED_SYNC_DISK,
            "the reader cost quiesce {:?}",
            returned - called
        );
        assert!(
            r.reads.get() > reads_then + 2,
            "the reader was still looping when quiesce returned"
        );
        r.assert_all_landed();
    }

    /// (c) The power warning finds acked bytes in the buffer and a guest
    /// reading: the emergency drain empties it within (a)'s bound.
    #[test]
    fn the_emergency_drain_is_not_held_up_by_a_reader() {
        let mut r = rig(16 << 20, &[], RetryPolicy::default(), true);
        let psu = r.psu.clone().expect("built with a supply");
        let (ctx, dev, on) = (r.ctx.clone(), r.rl.device(), Rc::clone(&r.reading));
        r.spawn_reader(r.rl.device());
        r.sim.spawn(async move {
            ctx.sleep_until(SimTime::ZERO + ms(30)).await;
            dev.write(0, &sectors(1, 8), true).await.unwrap();
            psu.cut_mains();
            ctx.sleep(ms(50)).await;
            on.set(false);
        });
        r.sim.run_until(SimTime::from_secs(1));
        let report = r.rl.audit_report();
        assert_eq!(report.emergencies.len(), 1);
        let emergency = &report.emergencies[0];
        assert!(emergency.occupancy_at_warning > 0, "{emergency:?}");
        assert!(emergency.met(), "{emergency:?}");
        let drained_at = emergency.drained_at.expect("met");
        assert!(
            drained_at - emergency.warned_at < SHARED_SYNC_DISK,
            "the reader cost the emergency drain {:?}",
            drained_at - emergency.warned_at
        );
        r.assert_all_landed();
    }

    /// (d) A guest crash drops a read future while it is on the media: the
    /// drain's write behind it goes once the disk is free, and lands.
    #[test]
    fn a_read_dropped_mid_flight_leaves_the_drain_landing_everything() {
        let mut r = rig(16 << 20, &[], RetryPolicy::default(), false);
        let guest = r.ctx.create_domain();
        let dev = r.rl.device();
        r.ctx.spawn_in(guest, async move {
            // Long enough to be on the media when the guest dies.
            let mut buf = sectors(0, 2048);
            let _ = dev.read(UNBUFFERED, &mut buf).await;
            unreachable!("the guest crashes first");
        });
        let (ctx, dev, rl) = (r.ctx.clone(), r.rl.device(), r.rl.clone());
        let crashed = SimTime::ZERO + ms(21);
        r.sim.spawn(async move {
            ctx.sleep(SimDuration::from_micros(100)).await;
            dev.write(0, &sectors(1, 8), true).await.unwrap();
            ctx.sleep_until(crashed).await;
            assert!(rl.occupancy() > 0, "the write waits behind the read");
            ctx.kill_domain(guest);
        });
        r.sim.run_until(crashed + SHARED_SYNC_DISK);
        r.assert_all_landed();
        let mut media = sectors(0, 1);
        r.disk.peek_media(7, &mut media);
        assert_eq!(media, sectors(1, 1));
    }
}
