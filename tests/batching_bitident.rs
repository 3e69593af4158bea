//! Trace goldens for the drain, at two strengths.
//!
//! **What the disk was asked to do** — every `media_write` event (time,
//! sector, sectors, seek, rotation, transfer) of one scenario under Strict,
//! PartiallyConstrained and the two-tenant fair-share drain. These hashes
//! were computed at the last commit that had three drain loops (PR 19,
//! 194983b) and held, unchanged, across their collapse into one (PR 20):
//! they are the semantic golden, and a drain refactor that moves one has
//! changed what reaches the media, or when.
//!
//! **The full trace**, event for event. Strict's is still the PR 8 golden,
//! captured before the adaptive controller existed: the serial drain is now
//! the one loop at a window of one, and traces exactly as the loop it
//! replaced. The other two were re-baselined once, with that collapse. What
//! moved: batch boundaries — the loop takes a window slot *before* it pops,
//! so a batch holds what arrived while the slot was busy
//! (PartiallyConstrained 39 → 30 `drain_batch` spans, sharded 48 → 39). What
//! did not: the media stream above. If a later change moves a full-trace
//! hash and not its media hash, it moved bookkeeping; say what, and
//! re-baseline that one constant.
//!
//! The sharded scenario's two tenants were weighted 1 and 2 until tenant
//! weights went; they are equal now, and both of its hashes held: its
//! writes of one to three sectors never fill a shard's share of the 16 MiB
//! cap or a pop's quantum, so neither the split nor the quantum reached
//! the trace.

use rapilog_suite::prelude::*;

/// FNV-1a over the JSON-lines trace export: cheap, dependency-free, and
/// stable across platforms (the export is deterministic text).
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// FNV-1a over the `media_write` lines of the trace.
fn media_hash(trace: &str) -> u64 {
    let media: String = trace
        .lines()
        .filter(|l| l.contains("\"name\":\"media_write\""))
        .flat_map(|l| [l, "\n"])
        .collect();
    fnv1a(&media)
}

/// Seed 0x9A12, nvme 4-channel, window_depth 2, max_batch 256 KiB.
struct Golden {
    /// `media_write` events only; computed at 194983b.
    media: u64,
    /// The whole trace.
    full: u64,
}

const PC: Golden = Golden {
    media: 0x8c735a34a1421a4b,
    full: 0xeff345390615a7c1,
};
const STRICT: Golden = Golden {
    media: 0xed38c5e7581ac831,
    full: 0x6ca0b784869290b0,
};
const SHARDED: Golden = Golden {
    media: 0xa2253765e1f9c35e,
    full: 0xc2a5d5947ac8b365,
};

fn run_scenario(seed: u64, ordering: OrderingMode, policy: BatchPolicy, tenants: bool) -> String {
    let mut sim = Sim::new(seed);
    let ctx = sim.ctx();
    ctx.tracer().set_enabled(true);
    let c2 = ctx.clone();
    sim.spawn(async move {
        let hv = Hypervisor::new(&c2);
        let cell = hv.create_cell("rapilog", Trust::Trusted);
        let disk = Disk::new(&c2, specs::ssd_nvme(1 << 30).with_channels(4));
        let mut builder = RapiLog::builder(&c2).cell(&cell).disk(disk).drain_config(
            DrainConfig::new()
                .ordering(ordering)
                .window_depth(2)
                .max_batch(256 * 1024)
                .batch_policy(policy),
        );
        let specs_t = [TenantSpec::new(0), TenantSpec::new(1)];
        if tenants {
            builder = builder.tenants(&specs_t);
        }
        let rl = builder.build();
        if tenants {
            let d0 = rl.device_for(TenantId(0)).unwrap();
            let d1 = rl.device_for(TenantId(1)).unwrap();
            for i in 0..48u64 {
                let data = vec![i as u8; ((i % 3 + 1) as usize) * SECTOR_SIZE];
                let dev = if i % 2 == 0 { &d0 } else { &d1 };
                dev.write(i * 8, &data, true).await.unwrap();
                if i % 5 == 0 {
                    c2.sleep(SimDuration::from_micros(50)).await;
                }
            }
        } else {
            let dev = rl.device();
            for i in 0..48u64 {
                let data = vec![i as u8; ((i % 3 + 1) as usize) * SECTOR_SIZE];
                dev.write(i * 8, &data, true).await.unwrap();
                if i % 5 == 0 {
                    c2.sleep(SimDuration::from_micros(50)).await;
                }
            }
        }
        std::mem::forget(cell);
    });
    sim.run_until(SimTime::from_secs(2));
    let snap = ctx.tracer().snapshot();
    assert!(snap.total > 0, "scenario must trace");
    snap.to_jsonl()
}

/// Media stream first: if it moved, the full-trace diff is a consequence.
fn assert_golden(trace: &str, golden: &Golden, what: &str) {
    assert_eq!(
        media_hash(trace),
        golden.media,
        "{what}: the media_write stream is not the one the three drain loops produced"
    );
    assert_eq!(
        fnv1a(trace),
        golden.full,
        "{what}: same media stream, different trace; see this file's header"
    );
}

#[test]
fn fixed_policy_traces_match_pre_controller_golden() {
    let pc = run_scenario(
        0x9A12,
        OrderingMode::PartiallyConstrained,
        BatchPolicy::Fixed,
        false,
    );
    assert_golden(&pc, &PC, "PartiallyConstrained + Fixed");
}

#[test]
fn strict_traces_match_pre_controller_golden() {
    let strict = run_scenario(0x9A12, OrderingMode::Strict, BatchPolicy::Fixed, false);
    assert_golden(&strict, &STRICT, "Strict + Fixed");
}

#[test]
fn sharded_fixed_traces_match_pre_controller_golden() {
    let sharded = run_scenario(
        0x9A12,
        OrderingMode::PartiallyConstrained,
        BatchPolicy::Fixed,
        true,
    );
    assert_golden(&sharded, &SHARDED, "two-tenant fair share + Fixed");
}

#[test]
fn strict_mode_pins_batch_target_even_under_adaptive() {
    // Strict is a window of one with no run bound whatever policy was
    // asked for (`DrainController::new`), so the trace must equal
    // Strict + Fixed byte for byte.
    let strict_adaptive = run_scenario(
        0x9A12,
        OrderingMode::Strict,
        BatchPolicy::Adaptive(AdaptiveBatchConfig),
        false,
    );
    assert_golden(&strict_adaptive, &STRICT, "Strict + Adaptive");
}

#[test]
fn adaptive_traces_are_deterministic() {
    // The adaptive path may (and does) differ from Fixed, but it must
    // stay seed-deterministic: same seed, same trace.
    let run = || {
        run_scenario(
            0x9A12,
            OrderingMode::PartiallyConstrained,
            BatchPolicy::Adaptive(AdaptiveBatchConfig),
            false,
        )
    };
    assert_eq!(run(), run(), "adaptive trace must be seed-deterministic");
}
