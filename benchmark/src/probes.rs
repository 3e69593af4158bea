//! Isolated probes: a warm loop over one layer's public entry points,
//! timed on the host. A traced run of a workload runs the probes of the
//! layers it exercises; `count per op × probe ns` is what the ledger sets
//! against `simcore.exec.host_ns_per_op`.
//!
//! Every probe runs its loop `BATCHES + 1` times, discards the first and
//! reports the lower quartile of the rest — the same estimator as the
//! workloads' equal-work slices.

use std::cell::Cell as StdCell;
use std::hint::black_box;
use std::rc::Rc;

use rapilog::prelude::*;
use rapilog_dbengine::types::PageId;
use rapilog_dbengine::wal::Record;
use rapilog_dbengine::{Lsn, TableId, TxnId};
use rapilog_faultsim::{Machine, MachineConfig, Setup};
use rapilog_microvisor::{Hypervisor, Trust, VirtCosts, VirtioBlk};
use rapilog_simcore::{SectorBuf, Sim, SimCtx, SimDuration, SimRng, SimTime};
use rapilog_simdisk::{specs, BlockDevice, Disk, IoReq, SECTOR_SIZE};
use rapilog_simnet::{Link, LinkSpec};
use rapilog_workload::micro;
use rapilog_workload::tpcc::{self, TpccScale};

use crate::measure::{quartiles, Stopwatch};
use crate::report::Metrics;
use crate::spans::{SpanId, Spans};

const BATCHES: usize = 8;

/// One probe: its span name and the loop that fills in its metrics.
pub struct Probe {
    name: &'static str,
    run: fn(u64, &mut Metrics),
}

impl Probe {
    /// Executor spawn / sleep / wake.
    pub const EXECUTOR: Probe = Probe {
        name: "probe:executor",
        run: executor,
    };
    /// `tpcc::generate`.
    pub const TPCC_GENERATE: Probe = Probe {
        name: "probe:tpcc::generate",
        run: tpcc_generate,
    };
    /// `Record::encode_into` and `Record::decode`.
    pub const WAL_CODEC: Probe = Probe {
        name: "probe:Record::encode/decode",
        run: wal_codec,
    };
    /// Recovery of a freshly built crash image.
    pub const RECOVERY: Probe = Probe {
        name: "probe:recovery",
        run: recovery,
    };
    /// `VirtioBlk` over an instant disk.
    pub const VIRTIO_RING: Probe = Probe {
        name: "probe:VirtioBlk",
        run: virtio_ring,
    };
    /// `DependableBuffer::push` / `pop_batch` / `complete_seqs`.
    pub const BUFFER_PUSH_POP: Probe = Probe {
        name: "probe:DependableBuffer",
        run: buffer_push_pop,
    };
    /// `RapiLogDevice` `submit` → `quiesce` over an instant disk.
    pub const DRAIN_EXTENT: Probe = Probe {
        name: "probe:RapiLogDevice",
        run: drain_extent,
    };
    /// `Disk::submit` / `wait`.
    pub const DISK_SUBMIT: Probe = Probe {
        name: "probe:Disk::submit",
        run: disk_submit,
    };
    /// `Link::send` / `recv`.
    pub const LINK_SEND: Probe = Probe {
        name: "probe:Link::send",
        run: link_send,
    };

    pub fn run(&self, seed: u64, spans: &Spans, parent: SpanId, m: &mut Metrics) {
        let span = spans.open(self.name, Some(parent), SimTime::ZERO);
        (self.run)(seed, m);
        spans.close(span, SimTime::ZERO);
    }
}

/// Runs `batch` (which returns host ns and operations) `BATCHES + 1`
/// times; lower-quartile ns/op of all but the first.
fn lower_quartile(mut batch: impl FnMut() -> (u64, u64)) -> f64 {
    batch();
    let per_op: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let (host_ns, ops) = batch();
            host_ns as f64 / ops.max(1) as f64
        })
        .collect();
    quartiles(&per_op)[0]
}

/// Host ns of a whole simulation whose single task is `body`, run until
/// idle (no probe leaves a periodic timer behind), and the simulated
/// instant of its last event.
fn timed_sim<F, Fut>(seed: u64, body: F) -> (u64, SimTime)
where
    F: FnOnce(SimCtx) -> Fut,
    Fut: std::future::Future<Output = ()> + 'static,
{
    let mut sim = Sim::new(seed);
    let task = sim.spawn(body(sim.ctx()));
    let watch = Stopwatch::start();
    let report = sim.run();
    let host_ns = watch.ns();
    assert!(task.is_finished(), "probe task did not finish");
    (host_ns, report.now)
}

/// 64 tasks each sleeping 1 000 times: spawn, timer, wake, poll.
fn executor(seed: u64, m: &mut Metrics) {
    let ns = lower_quartile(|| {
        let mut sim = Sim::new(seed);
        let watch = Stopwatch::start();
        for _ in 0..64 {
            let ctx = sim.ctx();
            sim.spawn(async move {
                for i in 0..1_000u64 {
                    ctx.sleep(SimDuration::from_nanos(1 + i % 7)).await;
                }
            });
        }
        let polls = sim.run().polls;
        (watch.ns(), polls)
    });
    m.set("simcore.exec.probe_ns_per_poll", ns);
}

fn tpcc_generate(seed: u64, m: &mut Metrics) {
    const TXNS: u64 = 50_000;
    let scale = TpccScale::medium();
    let mut rng = SimRng::seed_from_u64(seed);
    let ns = lower_quartile(|| {
        let watch = Stopwatch::start();
        for seq in 0..TXNS {
            black_box(tpcc::generate(&mut rng, &scale, 1 + seq % 8, seq));
        }
        (watch.ns(), TXNS)
    });
    m.set("workload.tpcc.probe_ns_per_generate", ns);
}

/// The records of one register-storm transaction: begin, two 8-byte
/// updates, commit.
fn wal_codec(_seed: u64, m: &mut Metrics) {
    const TXNS: u64 = 20_000;
    let txn = TxnId(7);
    let update = |slot: u16| Record::Update {
        txn,
        prev: Lsn(4096),
        table: TableId(0),
        page: PageId(1),
        slot,
        key: u64::from(slot),
        before: vec![1; 8],
        after: vec![2; 8],
    };
    let records = [
        Record::Begin { txn },
        update(0),
        update(1),
        Record::Commit { txn },
    ];
    let mut stream = Vec::new();
    let encode_ns = lower_quartile(|| {
        stream.clear();
        let watch = Stopwatch::start();
        for _ in 0..TXNS {
            for r in &records {
                let lsn = Lsn(stream.len() as u64);
                r.encode_into(lsn, &mut stream);
            }
        }
        (watch.ns(), TXNS * records.len() as u64)
    });
    let decode_ns = lower_quartile(|| {
        let watch = Stopwatch::start();
        let (mut at, mut n) = (0usize, 0u64);
        while at < stream.len() {
            let (rec, len) =
                Record::decode(&stream[at..], Lsn(at as u64)).expect("own encoding decodes");
            black_box(rec);
            at += len;
            n += 1;
        }
        (watch.ns(), n)
    });
    m.set("dbengine.wal.probe_ns_per_encode", encode_ns);
    m.set("dbengine.wal.probe_ns_per_decode", decode_ns);
}

/// A native machine on instant disks takes 5 000 register transactions and
/// a guest crash; the timed part is `reboot_and_recover` alone.
fn recovery(seed: u64, m: &mut Metrics) {
    // Host µs per thousand records is the same number as ns per record.
    let us_per_krecord = lower_quartile(|| {
        let mut sim = Sim::new(seed);
        let ctx = sim.ctx();
        let out = Rc::new(StdCell::new((0u64, 0u64)));
        let out2 = Rc::clone(&out);
        let task = sim.spawn(async move {
            let disks = || specs::instant(64 << 20);
            let machine = Machine::new(&ctx, MachineConfig::new(Setup::Native, disks(), disks()));
            let db = machine
                .install(&micro::table_defs(1))
                .await
                .expect("install");
            let table = micro::registers_table(&db).expect("registers table");
            micro::init_client(&db, table, 0)
                .await
                .expect("init client");
            for seq in 1..=5_000 {
                micro::write_pair(&db, table, 0, seq)
                    .await
                    .expect("write pair");
            }
            machine.crash_guest();
            let watch = Stopwatch::start();
            let (db, report) = machine.reboot_and_recover().await.expect("recover");
            out2.set((watch.ns(), report.scanned_records));
            db.stop();
        });
        sim.run_until(SimTime::from_secs(3600));
        assert!(task.is_finished(), "recovery probe did not finish");
        out.get()
    });
    m.set(
        "dbengine.recovery.probe_host_us_per_krecord",
        us_per_krecord,
    );
}

/// One-sector FUA writes through a `VirtioBlk` onto an instant disk: what
/// is left is the ring itself, in host ns and (its crossing costs) in
/// simulated µs.
fn virtio_ring(seed: u64, m: &mut Metrics) {
    const REQUESTS: u64 = 20_000;
    let mut sim_us = 0.0;
    let ns = lower_quartile(|| {
        let (host_ns, end) = timed_sim(seed, |ctx| async move {
            let hv = Hypervisor::new(&ctx);
            let cell = hv.create_cell("io-drivers", Trust::Trusted);
            let disk: Rc<dyn BlockDevice> = Rc::new(Disk::new(&ctx, specs::instant(16 << 20)));
            let blk = VirtioBlk::new(&ctx, &cell, disk, VirtCosts::default());
            let data = SectorBuf::from_vec(vec![0xA5; SECTOR_SIZE]);
            for i in 0..REQUESTS {
                let token = blk.submit(IoReq::Write {
                    sector: i % 1024,
                    segments: vec![data.clone()],
                    fua: true,
                });
                blk.wait(token).await.expect("virtio write");
            }
        });
        sim_us = end.as_nanos() as f64 / 1e3 / REQUESTS as f64;
        (host_ns, REQUESTS)
    });
    m.set("microvisor.ring.probe_ns_per_request", ns);
    m.set("microvisor.ring.probe_sim_us_per_request", sim_us);
}

/// Admit 16 one-sector extents, pop them as one batch, complete them.
fn buffer_push_pop(seed: u64, m: &mut Metrics) {
    const EXTENTS: u64 = 50_000;
    let ns = lower_quartile(|| {
        let (host_ns, _) = timed_sim(seed, |_ctx| async move {
            let buffer = DependableBuffer::new(1 << 20);
            let data = SectorBuf::from_vec(vec![0x5A; SECTOR_SIZE]);
            for n in (0..EXTENTS).step_by(16) {
                for i in 0..16 {
                    buffer
                        .push((n + i) % 4096, data.clone())
                        .await
                        .expect("push");
                }
                let batch = buffer.pop_batch(1 << 20);
                let (lo, hi) = (batch[0].seq, batch[batch.len() - 1].seq);
                black_box(&batch);
                buffer.complete_seqs(lo, hi);
            }
        });
        (host_ns, EXTENTS)
    });
    m.set("rapilog.buffer.probe_ns_per_push_pop", ns);
}

/// 4 KiB FUA extents through a stock `RapiLogDevice` onto an instant disk,
/// to full quiesce: admission, drain loop, consolidation and retirement in
/// aggregate (`drain.rs` internals are `pub(crate)`).
fn drain_extent(seed: u64, m: &mut Metrics) {
    const EXTENTS: u64 = 20_000;
    let ns = lower_quartile(|| {
        let (host_ns, _) = timed_sim(seed, |ctx| async move {
            let hv = Hypervisor::new(&ctx);
            let cell = hv.create_cell("rapilog", Trust::Trusted);
            let disk = Disk::new(&ctx, specs::instant(64 << 20));
            let rl = RapiLog::builder(&ctx).cell(&cell).disk(disk).build();
            let dev = rl.device();
            let data = SectorBuf::from_vec(vec![0x3C; 4096]);
            for i in 0..EXTENTS {
                let token = dev.submit(IoReq::Write {
                    sector: (i % 4096) * 8,
                    segments: vec![data.clone()],
                    fua: true,
                });
                dev.wait(token).await.expect("rapilog write");
            }
            rl.quiesce().await;
        });
        (host_ns, EXTENTS)
    });
    m.set("rapilog.drain.probe_ns_per_extent", ns);
}

fn disk_submit(seed: u64, m: &mut Metrics) {
    const REQUESTS: u64 = 50_000;
    let ns = lower_quartile(|| {
        let (host_ns, _) = timed_sim(seed, |ctx| async move {
            let disk = Disk::new(&ctx, specs::instant(16 << 20));
            let data = SectorBuf::from_vec(vec![0xC3; 4096]);
            for i in 0..REQUESTS {
                let token = disk.submit(IoReq::Write {
                    sector: (i % 2048) * 8,
                    segments: vec![data.clone()],
                    fua: true,
                });
                disk.wait(token).await.expect("disk write");
            }
        });
        (host_ns, REQUESTS)
    });
    m.set("simdisk.disk.probe_ns_per_submit", ns);
}

fn link_send(seed: u64, m: &mut Metrics) {
    const MESSAGES: u64 = 32 * 1_600;
    let ns = lower_quartile(|| {
        let (host_ns, _) = timed_sim(seed, |ctx| async move {
            let link: Link<u64> = Link::new(&ctx, LinkSpec::lan("probe"));
            for n in (0..MESSAGES).step_by(32) {
                for i in 0..32 {
                    link.send(n + i, 512);
                }
                for _ in 0..32 {
                    black_box(link.recv().await.expect("healthy link delivers"));
                }
            }
        });
        (host_ns, MESSAGES)
    });
    m.set("simnet.link.probe_ns_per_send", ns);
}
