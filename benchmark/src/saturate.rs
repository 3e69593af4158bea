//! `saturate_nvme4`: two writers over-drive a hand-built RapiLog instance
//! on a 4-channel NVMe disk until the buffer fills and back-pressure
//! engages — the paper's "degrades to sync" regime.
//!
//! No database and no virtio ring: the only layers at work are
//! `rapilog.vdisk/buffer`, `rapilog.drain` and `simdisk.disk`, so an
//! engine or WAL change must show nothing here.
//!
//! Each writer appends FUA extents of 32–96 KiB (sizes drawn from `--seed`,
//! 64 KiB on average — log forces are not all one size) to a private
//! 32 MiB ring of media, one at a time, through the queued `submit`/`wait`
//! API.

use std::cell::RefCell;
use std::rc::Rc;

use rapilog::prelude::*;
use rapilog_microvisor::{Cell, Hypervisor, Trust};
use rapilog_simcore::trace::Layer;
use rapilog_simcore::{JoinHandle, SectorBuf, Sim, SimCtx, SimDuration, SimRng};
use rapilog_simdisk::{specs, BlockDevice, Disk, IoReq, SECTOR_SIZE};

use crate::drive::{Ledger, Section, Workload};
use crate::machine::buffer_drain_disk_metrics;
use crate::measure::{derive_seed, percentile, Slices, Stopwatch};
use crate::probes::Probe;
use crate::report::Metrics;
use crate::spans::{SpanId, Spans};
use crate::tracefold::TraceFold;
use crate::{alloc, Args};

const WRITERS: u64 = 4;
/// Extent length in sectors: uniform over 32–96 KiB.
const LEN_SECTORS: std::ops::RangeInclusive<u32> = 64..=192;
/// Each writer's private ring of media. A bounded ring, pre-written during
/// set-up, keeps the sparse media store from growing (and the process
/// from page-faulting) inside the timed section.
const RING_SECTORS: u32 = (32 << 20) / SECTOR_SIZE as u32;
const CHANNELS: u32 = 4;
const CAPACITY: u64 = 64 << 20;
/// Extents each writer pushes during set-up: fills the buffer once and
/// lets the adaptive controller find its operating point.
const WARM_EXTENTS: usize = 512;
/// Equal-work slices of the timed section, ~50 ms of host time each.
const SLICES: u64 = 200;
/// Harness step; a slice closes at the first step boundary past its share
/// of the extents (~9 extents per step, 100 x `--seconds` per slice).
const STEP: SimDuration = SimDuration::from_micros(100);

pub struct Spec {
    seed: u64,
    /// Extents each writer pushes in the timed section.
    extents_per_writer: usize,
}

pub fn saturate_nvme4(args: &Args) -> Spec {
    Spec {
        seed: args.seed,
        // ~19 k extents per second of host time on the reference box.
        extents_per_writer: 4_500 * args.seconds as usize,
    }
}

/// One planned extent: where in the writer's ring, and how long.
#[derive(Clone, Copy)]
struct Planned {
    at: u32,
    len: u32,
}

/// A writer's whole run, decided from the seed before anything is timed,
/// and what its ring must hold when the last extent is on media.
struct Plan {
    extents: Vec<Planned>,
    /// Per ring sector, the extent that wrote it last.
    owner: Vec<u32>,
}

fn plan(seed: u64, writer: u64, extents: usize) -> Plan {
    let mut rng = SimRng::seed_from_u64(derive_seed(seed, 3, writer));
    let mut plan = Plan {
        extents: Vec::with_capacity(extents),
        owner: vec![u32::MAX; RING_SECTORS as usize],
    };
    let mut cursor = 0u32;
    for n in 0..extents as u32 {
        let len = rng.gen_range(LEN_SECTORS);
        if cursor + len > RING_SECTORS {
            cursor = 0;
        }
        plan.extents.push(Planned { at: cursor, len });
        plan.owner[cursor as usize..(cursor + len) as usize].fill(n);
        cursor += len;
    }
    plan
}

fn fill_byte(writer: u64, n: u32) -> u8 {
    ((u64::from(n) + writer) % 251 + 1) as u8
}

/// What extent `n` of `writer` carries: its identity in the first 16
/// bytes, then a fill that differs between consecutive extents, so the
/// read-back tells the last write of a sector from any earlier one.
fn pattern(writer: u64, n: u32, len: u32) -> Vec<u8> {
    let mut data = vec![fill_byte(writer, n); len as usize * SECTOR_SIZE];
    data[..8].copy_from_slice(&writer.to_le_bytes());
    data[8..16].copy_from_slice(&u64::from(n).to_le_bytes());
    data
}

fn ring_base(writer: u64) -> u64 {
    writer * u64::from(RING_SECTORS)
}

#[derive(Default)]
struct WriterLog {
    /// Submit → ack of every extent, simulated ns.
    ack_ns: Vec<u64>,
    done: u64,
    errors: u64,
}

/// One writer: depth-1 `submit`/`wait` on the queued device API.
#[allow(clippy::too_many_arguments)]
fn spawn_writer(
    ctx: &SimCtx,
    dev: RapiLogDevice,
    writer: u64,
    plan: Rc<Plan>,
    range: std::ops::Range<usize>,
    log: Rc<RefCell<WriterLog>>,
    spans: Spans,
    parent: Option<SpanId>,
) -> JoinHandle<()> {
    let ctx2 = ctx.clone();
    ctx.spawn(async move {
        let ctx = ctx2;
        for n in range {
            let Planned { at, len } = plan.extents[n];
            let data = SectorBuf::from_vec(pattern(writer, n as u32, len));
            let t0 = ctx.now();
            let span = spans.open("RapiLogDevice::submit", parent, t0);
            let token = dev.submit(IoReq::Write {
                sector: ring_base(writer) + u64::from(at),
                segments: vec![data],
                fua: true,
            });
            spans.close(span, ctx.now());
            let span = spans.open("RapiLogDevice::wait", parent, ctx.now());
            let result = dev.wait(token).await;
            spans.close(span, ctx.now());
            let mut log = log.borrow_mut();
            match result {
                Ok(_) => log.ack_ns.push((ctx.now() - t0).as_nanos()),
                Err(_) => log.errors += 1,
            }
            log.done += 1;
        }
    })
}

pub struct Warm {
    sim: Sim,
    ctx: SimCtx,
    rl: RapiLog,
    disk: Disk,
    _cell: Cell,
    plans: Vec<Rc<Plan>>,
}

impl Workload for Spec {
    type Warm = Warm;
    type Measured = Measured;

    fn warm_up(&self, spans: &Spans, parent: Option<SpanId>) -> (Warm, String) {
        let mut sim = Sim::new(self.seed);
        let ctx = sim.ctx();
        let span = spans.open("setup", parent, ctx.now());
        let hv = Hypervisor::new(&ctx);
        let cell = hv.create_cell("rapilog", Trust::Trusted);
        let disk = Disk::new(&ctx, specs::ssd_nvme(256 << 20).with_channels(CHANNELS));
        let zero = [0u8; SECTOR_SIZE];
        for sector in 0..WRITERS * u64::from(RING_SECTORS) {
            disk.poke_media(sector, &zero);
        }
        let rl = spans.sync("RapiLog::build", Some(span), ctx.now(), || {
            RapiLog::builder(&ctx)
                .cell(&cell)
                .disk(disk.clone())
                .capacity(CapacitySpec::Fixed(CAPACITY))
                .drain_config(
                    DrainConfig::new()
                        .ordering(OrderingMode::PartiallyConstrained)
                        .batch_policy(BatchPolicy::Adaptive(AdaptiveBatchConfig::default())),
                )
                .build()
        });
        let plans: Vec<Rc<Plan>> = (0..WRITERS)
            .map(|w| Rc::new(plan(self.seed, w, WARM_EXTENTS + self.extents_per_writer)))
            .collect();
        let log = Rc::new(RefCell::new(WriterLog::default()));
        let lap = spans.open("warmup", Some(span), ctx.now());
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                spawn_writer(
                    &ctx,
                    rl.device(),
                    w,
                    Rc::clone(&plans[w as usize]),
                    0..WARM_EXTENTS,
                    Rc::clone(&log),
                    spans.clone(),
                    Some(lap),
                )
            })
            .collect();
        let quiesced = {
            let rl = rl.clone();
            ctx.spawn(async move {
                for h in writers {
                    h.await;
                }
                rl.quiesce().await;
            })
        };
        while !quiesced.is_finished() {
            assert!(sim.now().as_secs() < 60, "warm-up did not quiesce");
            let t = sim.now() + STEP;
            sim.run_until(t);
        }
        spans.close(lap, sim.now());
        spans.close(span, sim.now());
        let fingerprint = format!(
            "warm_end_ns={} errors={} buffer={:?} drain={:?}",
            sim.now().as_nanos(),
            log.borrow().errors,
            rl.stats(),
            rl.snapshot().drain,
        );
        let warm = Warm {
            sim,
            ctx,
            rl,
            disk,
            _cell: cell,
            plans,
        };
        (warm, fingerprint)
    }

    fn measure(
        &self,
        mut w: Warm,
        traced: bool,
        spans: &Spans,
        parent: Option<SpanId>,
    ) -> Measured {
        let total = (self.extents_per_writer as u64) * WRITERS;
        let log = Rc::new(RefCell::new(WriterLog::default()));
        log.borrow_mut().ack_ns.reserve(total as usize);
        let before = w.rl.snapshot();
        let mut fold = traced.then(|| TraceFold::start(&w.ctx));
        let start = w.sim.now();
        let writers_span = spans.open("writers", parent, start);
        let writers: Vec<_> = (0..WRITERS)
            .map(|i| {
                spawn_writer(
                    &w.ctx,
                    w.rl.device(),
                    i,
                    Rc::clone(&w.plans[i as usize]),
                    WARM_EXTENTS..WARM_EXTENTS + self.extents_per_writer,
                    Rc::clone(&log),
                    spans.clone(),
                    Some(writers_span),
                )
            })
            .collect();

        let (allocs0, bytes0) = alloc::counters();
        let mut slices = Slices::default();
        let mut polls = 0;
        // A slice's work is the mean of the bytes admitted and the bytes
        // drained in it: the buffer swings by more than a slice's worth, so
        // counting acknowledged extents alone would call slices equal that
        // did very different amounts of drain work.
        let moved = |rl: &RapiLog| {
            let s = rl.stats();
            (s.accepted_bytes + s.drained_bytes) / 2
        };
        let mut sliced = moved(&w.rl);
        let mut watch = Stopwatch::start();
        for k in 1..=SLICES {
            let target = total * k / SLICES;
            while log.borrow().done < target {
                let t = w.sim.now() + STEP;
                polls += w.sim.run_until(t).polls;
                if let Some(f) = fold.as_mut() {
                    f.step();
                }
            }
            let now = moved(&w.rl);
            slices.push(watch.lap(), now - sliced);
            sliced = now;
        }
        slices.rescale(slices.ops as f64 / total as f64, total);
        let (allocs1, bytes1) = alloc::counters();
        assert!(writers.iter().all(JoinHandle::is_finished));
        spans.close(writers_span, w.sim.now());

        // To full quiesce: every acknowledged byte on media.
        let quiesced = {
            let (rl, spans, ctx) = (w.rl.clone(), spans.clone(), w.ctx.clone());
            w.ctx.spawn(async move {
                let span = spans.open("RapiLog::quiesce", parent, ctx.now());
                rl.quiesce().await;
                spans.close(span, ctx.now());
                (ctx.now(), rl.stats())
            })
        };
        while !quiesced.is_finished() {
            let t = w.sim.now() + STEP;
            polls += w.sim.run_until(t).polls;
            if let Some(f) = fold.as_mut() {
                f.step();
            }
        }
        if let Some(f) = fold.as_mut() {
            f.finish();
        }
        let (quiesced_at, drained) = quiesced.try_take().expect("quiesce finished");
        let after = w.rl.snapshot();

        // Output checks: what was acknowledged is what the media holds.
        let mut check_failures = Vec::new();
        if drained.drained_bytes != drained.accepted_bytes {
            check_failures.push(format!(
                "after quiesce drained_bytes {} != accepted_bytes {}",
                drained.drained_bytes, drained.accepted_bytes
            ));
        }
        let mut bad_extents = 0u64;
        let mut media = [0u8; SECTOR_SIZE];
        for (writer, plan) in (0..WRITERS).zip(&w.plans) {
            let mut last_bad = u32::MAX;
            for (sector, &n) in plan.owner.iter().enumerate() {
                // A few sectors at the ring's end may never be written:
                // they keep the zeros of the set-up.
                let mut expected = [0u8; SECTOR_SIZE];
                if n != u32::MAX {
                    expected.fill(fill_byte(writer, n));
                    if sector == plan.extents[n as usize].at as usize {
                        expected.copy_from_slice(&pattern(writer, n, 1));
                    }
                }
                w.disk
                    .peek_media(ring_base(writer) + sector as u64, &mut media);
                if media != expected && last_bad != n {
                    bad_extents += 1;
                    last_bad = n;
                }
            }
        }
        let log = std::mem::take(&mut *log.borrow_mut());
        let guarantee_held = after.audit.guarantee_held();
        Measured {
            slices,
            ack_ns: log.ack_ns,
            extents: total,
            failed: log.errors + bad_extents + u64::from(!guarantee_held),
            bad_extents,
            to_quiesce: quiesced_at - start,
            polls,
            allocs: allocs1 - allocs0,
            alloc_bytes: bytes1 - bytes0,
            fold,
            before,
            after,
            check_failures,
        }
    }

    fn probes(&self) -> &'static [Probe] {
        &[
            Probe::EXECUTOR,
            Probe::BUFFER_PUSH_POP,
            Probe::DRAIN_EXTENT,
            Probe::DISK_SUBMIT,
        ]
    }
}

pub struct Measured {
    slices: Slices,
    ack_ns: Vec<u64>,
    extents: u64,
    failed: u64,
    bad_extents: u64,
    to_quiesce: SimDuration,
    polls: u64,
    allocs: u64,
    alloc_bytes: u64,
    fold: Option<TraceFold>,
    before: RapiLogSnapshot,
    after: RapiLogSnapshot,
    check_failures: Vec<String>,
}

impl Measured {
    fn accepted_mib(&self) -> f64 {
        (self.after.buffer.accepted_bytes - self.before.buffer.accepted_bytes) as f64
            / (1 << 20) as f64
    }
}

impl Section for Measured {
    fn fingerprint(&mut self) -> String {
        format!(
            "extents={} failed={} to_quiesce_ns={} p50={} p999={} buffer={:?} disk={:?} drain={:?} polls={}",
            self.extents,
            self.failed,
            self.to_quiesce.as_nanos(),
            percentile(&mut self.ack_ns, 50.0),
            percentile(&mut self.ack_ns, 99.9),
            self.after.buffer,
            self.after.disk,
            self.after.drain,
            self.polls,
        )
    }

    fn slices(&self) -> &Slices {
        &self.slices
    }

    fn attempted(&self) -> u64 {
        self.extents
    }

    /// Failed = extents the device refused, extents whose read-back
    /// pattern is wrong, and a false `guarantee_held()`.
    fn failed(&self) -> u64 {
        self.failed
    }

    fn check_failures(&self) -> &[String] {
        &self.check_failures
    }

    fn op_ns(&mut self) -> &mut Vec<u64> {
        &mut self.ack_ns
    }

    /// Acknowledged extents per simulated second, to full quiesce (the
    /// same run in MiB/s is `rapilog.drain.log_mib_per_sim_s`).
    fn ops_per_sim_s(&self) -> f64 {
        self.extents as f64 / self.to_quiesce.as_secs_f64()
    }

    fn layer_metrics(&mut self, m: &mut Metrics) {
        m.ratio("simcore.exec.polls_per_op", self.polls, self.extents);
        m.ratio("simcore.exec.allocs_per_op", self.allocs, self.extents);
        m.ratio(
            "simcore.exec.alloc_bytes_per_op",
            self.alloc_bytes,
            self.extents,
        );
        buffer_drain_disk_metrics(m, &self.before, &self.after, self.to_quiesce);
        if let Some(f) = &self.fold {
            m.count("simcore.trace.dropped_events", f.dropped);
            for (name, layer) in [
                ("rapilog.buffer.sim_us_per_op", Layer::Buffer),
                ("rapilog.drain.sim_us_per_op", Layer::Drain),
                ("simdisk.disk.sim_us_per_op", Layer::Disk),
            ] {
                m.set(name, f.us_per_op(layer, self.extents));
            }
        }
    }

    fn ledger(&self, m: &Metrics) -> Option<Ledger> {
        let polls = m.get("simcore.exec.polls_per_op");
        let media_ops =
            (self.after.disk.media_ops - self.before.disk.media_ops) as f64 / self.extents as f64;
        Some(Ledger {
            host_terms: vec![
                (polls, "simcore.exec.probe_ns_per_poll"),
                (1.0, "rapilog.buffer.probe_ns_per_push_pop"),
                (1.0, "rapilog.drain.probe_ns_per_extent"),
                (media_ops, "simdisk.disk.probe_ns_per_submit"),
            ],
            // Only the buffer's ack is on the path that blocks the writer.
            blocking_sim_us: m.get("rapilog.buffer.sim_us_per_op"),
        })
    }

    fn notes(&self) -> Vec<String> {
        vec![format!(
            "{} extents, {:.1} MiB at {:.1} MiB/s to full quiesce ({} simulated); {} extents read back wrong; guarantee_held {}",
            self.extents,
            self.accepted_mib(),
            self.accepted_mib() / self.to_quiesce.as_secs_f64(),
            self.to_quiesce,
            self.bad_extents,
            self.after.audit.guarantee_held(),
        )]
    }
}
