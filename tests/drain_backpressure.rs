//! The drain as the commit path: four writers over-drive a small buffer
//! until every ack waits for the drain's next release — the paper's "if the
//! buffer fills, writes block" regime.
//!
//! The headline invariants of `rapilog::drain` + `rapilog::buffer` under
//! back-pressure, through the public API only: admission never exceeds the
//! capacity the residual-energy window was sized for, everything
//! acknowledged reaches media newest-wins, the interleaved streams coalesce
//! (fewer media ops than extents — the point of draining in batches at all),
//! and the whole run is seed-deterministic.

use std::cell::RefCell;
use std::rc::Rc;

use rapilog_suite::prelude::*;
use rapilog_suite::simcore::SimRng;

const WRITERS: u64 = 4;
const EXTENTS_PER_WRITER: u64 = 600;
/// Each writer's private ring of media; small enough to wrap several times,
/// so later batches rewrite sectors earlier ones still have in flight.
const RING_SECTORS: u64 = 16 << 10;
const CAPACITY: u64 = 8 << 20;

struct Outcome {
    trace: String,
    snapshot: RapiLogSnapshot,
    peak_occupancy_seen: u64,
    /// Per writer, per ring sector: the fill byte of the last write (0 =
    /// never written).
    expected: Vec<Vec<u8>>,
    media: Vec<Vec<u8>>,
}

fn run(seed: u64) -> Outcome {
    let mut sim = Sim::new(seed);
    let ctx = sim.ctx();
    ctx.tracer().set_capacity(1 << 18);
    ctx.tracer().set_enabled(true);
    let hv = Hypervisor::new(&ctx);
    let cell = hv.create_cell("rapilog", Trust::Trusted);
    let disk = Disk::new(&ctx, specs::ssd_nvme(64 << 20).with_channels(4));
    let rl = RapiLog::builder(&ctx)
        .cell(&cell)
        .disk(disk.clone())
        .capacity(CapacitySpec::Fixed(CAPACITY))
        .drain_config(
            DrainConfig::new()
                .ordering(OrderingMode::PartiallyConstrained)
                .batch_policy(BatchPolicy::Adaptive(AdaptiveBatchConfig)),
        )
        .build();
    std::mem::forget(cell);

    let expected = Rc::new(RefCell::new(vec![
        vec![0u8; RING_SECTORS as usize];
        WRITERS as usize
    ]));
    for w in 0..WRITERS {
        let dev = rl.device();
        let expected = Rc::clone(&expected);
        let mut rng = SimRng::seed_from_u64(seed ^ (w + 1));
        sim.spawn(async move {
            let mut at = 0u64;
            for n in 0..EXTENTS_PER_WRITER {
                // 32–96 KiB, as log forces are not all one size.
                let sectors = 64 + rng.next_u64() % 129;
                if at + sectors > RING_SECTORS {
                    at = 0;
                }
                let fill = ((n + w) % 251 + 1) as u8;
                let data = vec![fill; sectors as usize * SECTOR_SIZE];
                dev.write(w * RING_SECTORS + at, &data, true).await.unwrap();
                expected.borrow_mut()[w as usize][at as usize..(at + sectors) as usize].fill(fill);
                at += sectors;
            }
        });
    }
    // Watch admission control while the writers push against it.
    let peak = Rc::new(RefCell::new(0u64));
    {
        let (rl, peak, ctx) = (rl.clone(), Rc::clone(&peak), ctx.clone());
        sim.spawn(async move {
            for _ in 0..2_000 {
                let seen = rl.occupancy().max(*peak.borrow());
                *peak.borrow_mut() = seen;
                ctx.sleep(SimDuration::from_micros(10)).await;
            }
        });
    }
    sim.run_until(SimTime::from_secs(5));
    assert_eq!(rl.occupancy(), 0, "the run must fully drain");

    let mut sector = vec![0u8; SECTOR_SIZE];
    let media = (0..WRITERS)
        .map(|w| {
            (0..RING_SECTORS)
                .map(|s| {
                    disk.peek_media(w * RING_SECTORS + s, &mut sector);
                    assert!(sector.iter().all(|&b| b == sector[0]), "torn sector");
                    sector[0]
                })
                .collect()
        })
        .collect();
    let peak_occupancy_seen = *peak.borrow();
    let expected = expected.borrow().clone();
    Outcome {
        trace: ctx.tracer().snapshot().to_jsonl(),
        snapshot: rl.snapshot(),
        peak_occupancy_seen,
        expected,
        media,
    }
}

#[test]
fn a_full_buffer_drains_every_acked_byte_in_fewer_media_ops_than_extents() {
    let out = run(0xB10C);
    let snap = &out.snapshot;
    // The regime under test: writers really were blocked on the drain.
    let extents = WRITERS * EXTENTS_PER_WRITER;
    assert!(
        snap.buffer.backpressure_events > 100,
        "only {} of {extents} writes waited for space",
        snap.buffer.backpressure_events
    );
    // Admission control: occupancy never exceeds the sized capacity.
    assert!(snap.buffer.peak_occupancy <= CAPACITY);
    assert!(out.peak_occupancy_seen <= CAPACITY);
    assert!(
        out.peak_occupancy_seen > CAPACITY / 2,
        "the buffer really filled"
    );
    // Durability: everything acknowledged is on media, newest-wins.
    assert!(snap.audit.guarantee_held());
    assert_eq!(snap.buffer.drained_bytes, snap.buffer.accepted_bytes);
    for w in 0..WRITERS as usize {
        let wrong = (0..RING_SECTORS as usize)
            .filter(|&s| out.media[w][s] != out.expected[w][s])
            .count();
        assert_eq!(wrong, 0, "writer {w}: sectors not holding their last write");
    }
    // Coalescing: four interleaved streams, yet well under one media op
    // per extent (one op per extent is what raw sync writes would cost).
    let ops_per_extent = snap.disk.media_ops as f64 / extents as f64;
    assert!(
        ops_per_extent < 0.6,
        "{ops_per_extent:.2} media ops per extent: the streams did not coalesce"
    );
    // And the window kept the device's channels busy.
    assert_eq!(snap.disk.max_outstanding, 4);
}

#[test]
fn back_pressure_is_seed_deterministic() {
    let a = run(0xB10C);
    let b = run(0xB10C);
    assert_eq!(a.trace, b.trace, "same seed, same trace");
    assert_eq!(a.media, b.media);
    assert_ne!(a.trace, run(0xB10D).trace, "the seed shapes the run");
}
