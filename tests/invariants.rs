//! Randomised tests over the suite's core invariants.
//!
//! Each property builds a fresh deterministic simulation per case. Cases are
//! generated from a seeded [`SimRng`], so a failure reproduces exactly by
//! re-running the test — the printed case number pins the whole scenario.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use rapilog_suite::dbengine::types::{Lsn, PageId, TableId, TxnId};
use rapilog_suite::dbengine::util::crc32;
use rapilog_suite::dbengine::wal::Record;
use rapilog_suite::dbengine::{Database, DbConfig, DbError, TableDef};
use rapilog_suite::faultsim::{run_trial, FaultKind, Machine, MachineConfig, Setup, TrialConfig};
use rapilog_suite::simcore::rng::SimRng;
use rapilog_suite::simcore::stats::Histogram;
use rapilog_suite::simcore::{DomainId, Sim, SimDuration, SimTime};
use rapilog_suite::simdisk::{specs, BlockDevice, Disk, SECTOR_SIZE};
use rapilog_suite::simpower::supplies;
use rapilog_suite::workload::micro;

// ---------------------------------------------------------------------------
// WAL record roundtrip
// ---------------------------------------------------------------------------

fn rand_bytes(rng: &mut SimRng, max_len: usize) -> Vec<u8> {
    let n = rng.gen_range(0..max_len);
    (0..n).map(|_| rng.gen_range(0..=255u8)).collect()
}

/// The framed record at `lsn`.
fn encode(rec: &Record, lsn: Lsn) -> Vec<u8> {
    let mut out = Vec::new();
    rec.encode_into(lsn, &mut out);
    out
}

fn arb_record(rng: &mut SimRng) -> Record {
    match rng.gen_range(0..4u32) {
        0 => Record::Begin {
            txn: TxnId(rng.next_u64()),
        },
        1 => Record::Commit {
            txn: TxnId(rng.next_u64()),
        },
        2 => Record::Update {
            txn: TxnId(rng.next_u64()),
            prev: Lsn(rng.next_u64()),
            table: TableId(rng.gen_range(0..=u16::MAX)),
            page: PageId(rng.next_u64()),
            slot: rng.gen_range(0..=u16::MAX),
            key: rng.next_u64(),
            before: rand_bytes(rng, 200),
            after: rand_bytes(rng, 200),
        },
        _ => Record::Insert {
            txn: TxnId(rng.next_u64()),
            prev: Lsn(rng.next_u64()),
            table: TableId(rng.gen_range(0..=u16::MAX)),
            page: PageId(rng.next_u64()),
            slot: rng.gen_range(0..=u16::MAX),
            key: rng.next_u64(),
            after: rand_bytes(rng, 200),
        },
    }
}

#[test]
fn wal_record_roundtrips() {
    let mut rng = SimRng::seed_from_u64(0xA11CE);
    for case in 0..256 {
        let rec = arb_record(&mut rng);
        let lsn = rng.next_u64();
        let encoded = encode(&rec, Lsn(lsn));
        let (back, n) = Record::decode(&encoded, Lsn(lsn)).expect("roundtrip");
        assert_eq!(back, rec, "case {case}");
        assert_eq!(n, encoded.len(), "case {case}");
    }
}

#[test]
fn wal_record_rejects_any_single_bitflip() {
    let mut rng = SimRng::seed_from_u64(0xB17F11);
    for case in 0..256 {
        let rec = arb_record(&mut rng);
        let lsn = rng.gen_range(0..1_000_000u64);
        let mut encoded = encode(&rec, Lsn(lsn));
        let pos = rng.gen_range(0..encoded.len());
        let mask = 1u8 << rng.gen_range(0..8u32);
        encoded[pos] ^= mask;
        // Either the frame is rejected, or the flip hit the length field in
        // a way that still fails (shorter/longer frame cannot re-validate:
        // the CRC covers the LSN's low half, the kind and the payload, and
        // the length shapes the CRC input).
        assert!(
            Record::decode(&encoded, Lsn(lsn)).is_none(),
            "case {case}: bitflip at byte {pos} mask {mask:#04x} survived"
        );
    }
}

/// A whole frame the log wrote `k` laps of its circular region ago, found
/// where the scan expects this lap's frame, is refused for every `k` up to
/// 1 000. The frame does not store its LSN; its CRC is seeded with the LSN's
/// low 32 bits, and two seeds that differ give CRCs that differ (DESIGN
/// "WAL record layout"). The regions are those of the 128 MiB and 32 MiB log
/// devices and of the 384 KiB wrapped-log trial, each device less the
/// sector before its region.
#[test]
fn a_frame_from_an_earlier_lap_is_refused() {
    let mut rng = SimRng::seed_from_u64(0x1A95);
    for device in [128u64 << 20, 32 << 20, 384 << 10] {
        let region = device - SECTOR_SIZE as u64;
        for case in 0..8 {
            let rec = arb_record(&mut rng);
            let then = rng.gen_range(0..region);
            let frame = encode(&rec, Lsn(then));
            assert!(Record::decode(&frame, Lsn(then)).is_some());
            for k in 1..=1_000u64 {
                assert!(
                    Record::decode(&frame, Lsn(then + k * region)).is_none(),
                    "case {case}: a frame {k} laps of {region} bytes old was accepted"
                );
            }
        }
    }
}

/// `v` as the log's LEB128 varint.
fn put_var(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// A frame's body, its kind and payload: what follows its length and CRC.
fn body(frame: &[u8]) -> &[u8] {
    let width = 1 + frame.iter().take_while(|&&b| b >= 0x80).count();
    &frame[width + 4..]
}

/// Frames `body` at `lsn` with the length and CRC that match it, so that the
/// payload parser itself sees whatever was done to the body.
fn seal(lsn: Lsn, body: &[u8]) -> Vec<u8> {
    let mut crc_input = (lsn.0 as u32).to_le_bytes().to_vec();
    crc_input.extend_from_slice(body);
    let mut frame = Vec::new();
    put_var(&mut frame, body.len() as u64);
    frame.extend_from_slice(&crc32(&crc_input).to_le_bytes());
    frame.extend_from_slice(body);
    frame
}

/// A row update's two images: of unequal lengths, one or both empty,
/// identical, sharing no byte, or one an edit of the other (a prefix and a
/// suffix kept, the middle replaced), in either order.
fn arb_update_images(rng: &mut SimRng) -> (Vec<u8>, Vec<u8>) {
    let old = rand_bytes(rng, 40);
    let new = match rng.gen_range(0..5u32) {
        0 => rand_bytes(rng, 40),
        1 => Vec::new(),
        2 => old.clone(),
        3 => old.iter().map(|b| !b).collect(),
        _ => {
            let cut = rng.gen_range(0..=old.len());
            let end = rng.gen_range(cut..=old.len());
            let mut edit = old[..cut].to_vec();
            edit.extend(rand_bytes(rng, 8));
            edit.extend_from_slice(&old[end..]);
            edit
        }
    };
    if rng.gen_range(0..2u32) == 0 {
        (old, new)
    } else {
        (new, old)
    }
}

/// A row change with small fields: with `update`, an update of `before` to
/// `after`, else a delete of `before`.
fn row_change(update: bool, before: &[u8], after: &[u8]) -> Record {
    let (txn, prev, table, page, slot, key) = (TxnId(9), Lsn(4000), TableId(1), PageId(3), 4, 5);
    let before = before.to_vec();
    if update {
        let after = after.to_vec();
        Record::Update {
            txn,
            prev,
            table,
            page,
            slot,
            key,
            before,
            after,
        }
    } else {
        Record::Delete {
            txn,
            prev,
            table,
            page,
            slot,
            key,
            before,
        }
    }
}

/// An update logs its after-image as a delta from its before-image, and
/// every pair round-trips through `encode_into` / `decode`. Its payload is
/// at most one byte longer than the same record with the after-image
/// logged whole behind its length. Every single-bit flip and every cut of
/// its frame is refused; sealed again with a matching length and CRC, each
/// reaches the payload parser, which answers `None` or a record, never a
/// panic.
#[test]
fn an_update_logs_a_delta_that_round_trips_and_never_panics_the_decoder() {
    let mut rng = SimRng::seed_from_u64(0xDE17A);
    let lsn = Lsn(8192);
    for case in 0..512 {
        let (before, after) = arb_update_images(&mut rng);
        let rec = row_change(true, &before, &after);
        let frame = encode(&rec, lsn);
        assert_eq!(
            Record::decode(&frame, lsn),
            Some((rec, frame.len())),
            "case {case}"
        );
        let mut whole = body(&encode(&row_change(false, &before, &[]), lsn)).to_vec();
        put_var(&mut whole, after.len() as u64);
        whole.extend_from_slice(&after);
        let delta = body(&frame).len();
        assert!(
            delta <= whole.len() + 1,
            "case {case}: {delta} > {} + 1",
            whole.len()
        );
        let head = frame.len() - delta;
        for bit in 0..frame.len() * 8 {
            let mut damaged = frame.clone();
            damaged[bit / 8] ^= 1 << (bit % 8);
            assert_eq!(
                Record::decode(&damaged, lsn),
                None,
                "case {case}: bit {bit}"
            );
            if bit >= head * 8 {
                let _ = Record::decode(&seal(lsn, &damaged[head..]), lsn);
            }
        }
        for cut in 0..frame.len() {
            assert_eq!(
                Record::decode(&frame[..cut], lsn),
                None,
                "case {case}: cut {cut}"
            );
            if cut > head {
                let _ = Record::decode(&seal(lsn, &frame[head..cut]), lsn);
            }
        }
    }
}

/// A forged delta decodes exactly when the prefix and suffix it claims to
/// share fit inside the before-image, and then rebuilds the after-image
/// from them and the middle; every longer pair is refused.
#[test]
fn a_delta_whose_prefix_and_suffix_overrun_the_before_image_is_refused() {
    let lsn = Lsn(8192);
    let middle = [0xEE; 3];
    for n in 0..12usize {
        let before: Vec<u8> = (0..n as u8).collect();
        // The delete's body is the update's up to its delta, bar the kind.
        let mut head = body(&encode(&row_change(false, &before, &[]), lsn)).to_vec();
        head[0] = 4;
        for prefix in 0..=n + 2 {
            for suffix in 0..=n + 2 {
                let mut forged = head.clone();
                put_var(&mut forged, prefix as u64);
                put_var(&mut forged, suffix as u64);
                forged.extend_from_slice(&middle);
                let decoded = Record::decode(&seal(lsn, &forged), lsn).map(|(rec, _)| rec);
                let expected = (prefix + suffix <= n).then(|| {
                    let after = [&before[..prefix], &middle, &before[n - suffix..]].concat();
                    row_change(true, &before, &after)
                });
                assert_eq!(
                    decoded, expected,
                    "{n} bytes, prefix {prefix}, suffix {suffix}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Histogram percentile bounds
// ---------------------------------------------------------------------------

#[test]
fn histogram_percentiles_bounded_and_monotone() {
    let mut rng = SimRng::seed_from_u64(0x4157);
    for case in 0..64 {
        let n = rng.gen_range(1..500usize);
        let mut values: Vec<u64> = (0..n).map(|_| rng.gen_range(0..u64::MAX / 2)).collect();
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        assert_eq!(h.min(), values[0], "case {case}");
        assert_eq!(h.max(), *values.last().unwrap(), "case {case}");
        let mut last = 0u64;
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let q = h.percentile(p);
            assert!(q >= last, "case {case}: percentiles must be monotone");
            assert!(q >= h.min() && q <= h.max(), "case {case}");
            last = q;
        }
    }
}

// ---------------------------------------------------------------------------
// Model-based engine + crash-recovery check
// ---------------------------------------------------------------------------

/// One step of the random transaction workload.
#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u8),
    Update(u64, u8),
    Delete(u64),
}

fn arb_txn(rng: &mut SimRng) -> (Vec<Op>, bool) {
    let n = rng.gen_range(1..6usize);
    let ops = (0..n)
        .map(|_| match rng.gen_range(0..3u32) {
            0 => Op::Insert(rng.gen_range(0..30u64), rng.gen_range(0..=255u8)),
            1 => Op::Update(rng.gen_range(0..30u64), rng.gen_range(0..=255u8)),
            _ => Op::Delete(rng.gen_range(0..30u64)),
        })
        .collect();
    (ops, rng.gen_range(0..2u32) == 0)
}

/// Applies random transactions (some committed, some aborted), crashes
/// abruptly, recovers, and compares the database against a model map that
/// only saw the committed transactions.
#[test]
fn recovery_matches_committed_model() {
    let mut case_rng = SimRng::seed_from_u64(0x5EED);
    for case in 0..32 {
        let txns: Vec<(Vec<Op>, bool)> = {
            let n = case_rng.gen_range(1..25usize);
            (0..n).map(|_| arb_txn(&mut case_rng)).collect()
        };
        let seed = case_rng.gen_range(0..10_000u64);
        let mut sim = Sim::new(seed);
        let ctx = sim.ctx();
        let ok = Rc::new(RefCell::new(false));
        let ok2 = Rc::clone(&ok);
        let c2 = ctx.clone();
        sim.spawn(async move {
            let data: Rc<dyn BlockDevice> = Rc::new(Disk::new(&c2, specs::instant(64 << 20)));
            let log: Rc<dyn BlockDevice> = Rc::new(Disk::new(&c2, specs::instant(64 << 20)));
            let defs = [TableDef {
                name: "t".to_string(),
                slot_size: 16,
                max_rows: 64,
            }];
            let db = Database::create(
                &c2,
                DbConfig::default(),
                &defs,
                Rc::clone(&data),
                Rc::clone(&log),
                DomainId::ROOT,
            )
            .await
            .unwrap();
            let t = db.table("t").unwrap();
            let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
            for (ops, commit) in txns {
                let txn = db.begin().await.unwrap();
                let mut staged = model.clone();
                let mut poisoned = false;
                for op in ops {
                    let r = match op {
                        Op::Insert(k, v) => db.insert(txn, t, k, &[v]).await.map(|()| {
                            staged.insert(k, vec![v]);
                        }),
                        Op::Update(k, v) => db.update(txn, t, k, &[v]).await.map(|()| {
                            staged.insert(k, vec![v]);
                        }),
                        Op::Delete(k) => db.delete(txn, t, k).await.map(|()| {
                            staged.remove(&k);
                        }),
                    };
                    // Constraint errors (duplicate/missing keys) are fine:
                    // the op simply did not happen. Anything else poisons.
                    if let Err(e) = r {
                        use rapilog_suite::dbengine::DbError::*;
                        match e {
                            Duplicate(..) | NotFound(..) | TableFull(..) => {}
                            other => {
                                eprintln!("unexpected engine error: {other}");
                                poisoned = true;
                                break;
                            }
                        }
                    }
                }
                assert!(!poisoned, "engine misbehaved");
                if commit {
                    db.commit(txn).await.unwrap();
                    model = staged;
                } else {
                    db.abort(txn).await.unwrap();
                }
            }
            // Crash without any orderly flush and recover.
            db.stop();
            let (db2, _report) =
                Database::open(&c2, DbConfig::default(), data, log, DomainId::ROOT)
                    .await
                    .expect("recovery");
            for k in 0..30u64 {
                let got = db2.get(t, k).await.unwrap();
                assert_eq!(
                    got.as_deref(),
                    model.get(&k).map(|v| v.as_slice()),
                    "key {k} diverged from the committed model"
                );
            }
            assert_eq!(db2.row_count(t), model.len() as u64);
            db2.stop();
            *ok2.borrow_mut() = true;
        });
        sim.run_until(SimTime::from_secs(60));
        assert!(
            *ok.borrow(),
            "case {case} (sim seed {seed}): scenario did not complete"
        );
    }
}

/// A crash image: the data device's sectors and the log's, and where the
/// log ends. Random transactions over 30 keys, the last three left open
/// when the engine stops dead.
fn crash_image() -> (Vec<u8>, Vec<u8>, u64) {
    let mut sim = Sim::new(0x1A6E);
    let ctx = sim.ctx();
    let (data, log) = (
        Disk::new(&ctx, specs::instant(1 << 20)),
        Disk::new(&ctx, specs::instant(1 << 20)),
    );
    let (d, l) = (Rc::new(data.clone()), Rc::new(log.clone()));
    let end = Rc::new(RefCell::new(0));
    let e2 = Rc::clone(&end);
    sim.spawn(async move {
        let defs = [TableDef {
            name: "t".to_string(),
            slot_size: 16,
            max_rows: 64,
        }];
        let db = Database::create(&ctx, DbConfig::default(), &defs, d, l, DomainId::ROOT)
            .await
            .unwrap();
        let t = db.table("t").unwrap();
        let mut rng = SimRng::seed_from_u64(0x1A6E);
        for i in 0..203 {
            let txn = db.begin().await.unwrap();
            let (ops, commit) = arb_txn(&mut rng);
            for op in ops {
                let _ = match op {
                    Op::Insert(k, v) => db.insert(txn, t, k, &[v; 9]).await,
                    Op::Update(k, v) => db.update(txn, t, k, &[v; 12]).await,
                    Op::Delete(k) => db.delete(txn, t, k).await,
                };
            }
            match (i < 200, commit) {
                (true, true) => db.commit(txn).await.unwrap(),
                (true, false) => db.abort(txn).await.unwrap(),
                _ => {}
            }
            ctx.sleep(SimDuration::from_micros(300)).await;
        }
        db.wal().kick();
        ctx.sleep(SimDuration::from_millis(1)).await;
        *e2.borrow_mut() = db.wal().end().0;
        db.stop();
    });
    sim.run_until(SimTime::from_secs(10));
    let end = *end.borrow();
    let image = |disk: &Disk, sectors: u64| {
        let mut bytes = vec![0; sectors as usize * SECTOR_SIZE];
        disk.peek_media(0, &mut bytes);
        bytes
    };
    let log_sectors = 1 + end.div_ceil(SECTOR_SIZE as u64);
    (
        image(&data, data.geometry().sectors),
        image(&log, log_sectors),
        end,
    )
}

/// `Database::open` of a crash image's data device over a log device that
/// holds `log_bytes` from its first sector on: the recovered log's end, the
/// error, or `None` if the open did not return within 2 simulated seconds.
fn open_over(data_image: &[u8], log_bytes: &[u8], seed: u64) -> Option<Result<u64, DbError>> {
    let mut sim = Sim::new(seed);
    let ctx = sim.ctx();
    let (data, log) = (
        Disk::new(&ctx, specs::instant(1 << 20)),
        Disk::new(&ctx, specs::instant(1 << 20)),
    );
    data.poke_media(0, data_image);
    log.poke_media(0, log_bytes);
    let outcome = Rc::new(RefCell::new(None));
    let o2 = Rc::clone(&outcome);
    sim.spawn(async move {
        let (d, l) = (Rc::new(data), Rc::new(log));
        let opened = Database::open(&ctx, DbConfig::default(), d, l, DomainId::ROOT).await;
        *o2.borrow_mut() = Some(opened.map(|(db, report)| {
            db.stop();
            report.log_end.0
        }));
    });
    sim.run_until(SimTime::from_secs(2));
    let outcome = outcome.borrow_mut().take();
    outcome
}

/// `Database::open` on a whole damaged log: 64 copies of a crash image's
/// log with one bit flipped anywhere in it, and 64 cut short at a random
/// byte (zeros from there on). Each open returns a database or a `DbError`,
/// never a panic, within 2 simulated seconds, and no recovered log reaches
/// past the crashed one's end.
#[test]
fn recovery_of_a_bit_flipped_or_truncated_log_returns_or_errs() {
    let (data_image, log_image, end) = crash_image();
    assert!(end > 8 * SECTOR_SIZE as u64, "a log of {end} bytes");
    let mut rng = SimRng::seed_from_u64(0x0DD5);
    for case in 0..128 {
        let mut log_bytes = log_image.clone();
        let at = SECTOR_SIZE + rng.gen_range(0..end as usize);
        if case % 2 == 0 {
            log_bytes[at] ^= 1 << rng.gen_range(0..8u32);
        } else {
            log_bytes[at..].fill(0);
        }
        match open_over(&data_image, &log_bytes, case) {
            Some(Ok(log_end)) => assert!(log_end <= end, "case {case}: {log_end} of {end}"),
            Some(Err(_)) => {}
            None => panic!("case {case}: open of a log damaged at byte {at} did not return"),
        }
    }
}

/// `Database::open` on random whole log images: 32 log regions of random
/// bytes, and 32 crash-image logs whose bytes from a random point on are
/// random. Each open returns a database or a `DbError`, never a panic,
/// within 2 simulated seconds, and no recovered log reaches past the point
/// where the random bytes begin.
#[test]
fn recovery_of_a_random_or_spliced_log_returns_or_errs() {
    let (data_image, log_image, end) = crash_image();
    let mut rng = SimRng::seed_from_u64(0x5911CE);
    for case in 0..64 {
        let at = SECTOR_SIZE
            + if case % 2 == 0 {
                0
            } else {
                rng.gen_range(0..end as usize)
            };
        let mut log_bytes = log_image[..at].to_vec();
        log_bytes.extend((at..1 << 20).map(|_| rng.next_u64() as u8));
        let valid = (at - SECTOR_SIZE) as u64;
        match open_over(&data_image, &log_bytes, case) {
            Some(Ok(log_end)) => assert!(log_end <= valid, "case {case}: {log_end} of {valid}"),
            Some(Err(_)) => {}
            None => panic!("case {case}: open of a log random from byte {at} did not return"),
        }
    }
}

/// The data and log images a faultsim machine leaves when its power is cut
/// mid-load: RapiLog over an `hdd_7200` log disk on an ATX supply, two
/// register writers committing until the machine dies. The disks are sized
/// as [`open_over`]'s.
fn power_cut_image() -> (Vec<u8>, Vec<u8>) {
    let mut sim = Sim::new(0x9C07);
    let ctx = sim.ctx();
    let mut cfg = MachineConfig::new(
        Setup::RapiLog,
        specs::instant(1 << 20),
        specs::hdd_7200(1 << 20),
    );
    cfg.supply = Some(supplies::atx_psu());
    let machine = Machine::new(&ctx, cfg);
    let m2 = machine.clone();
    sim.spawn(async move {
        let db = m2.install(&micro::table_defs(2)).await.unwrap();
        let table = micro::registers_table(&db).unwrap();
        for client in 0..2 {
            micro::init_client(&db, table, client).await.unwrap();
        }
        for client in 0..2 {
            let (db, c) = (db.clone(), ctx.clone());
            ctx.spawn(async move {
                for seq in 1.. {
                    if micro::write_pair(&db, table, client, seq).await.is_err() {
                        break;
                    }
                    c.sleep(SimDuration::from_micros(300)).await;
                }
            });
        }
        ctx.sleep(SimDuration::from_millis(150)).await;
        m2.cut_power();
        m2.psu().unwrap().death_event().wait().await;
    });
    sim.run_until(SimTime::from_secs(10));
    let image = |disk: &Disk| {
        let mut bytes = vec![0; 1 << 20];
        disk.peek_media(0, &mut bytes);
        bytes
    };
    (image(machine.data_disk()), image(machine.log_disk()))
}

/// `Database::open` on the log a faultsim trial's power cut leaves,
/// damaged: 32 copies with one bit flipped and 32 cut short at a random
/// byte. Each open returns within 2 simulated seconds, never panics, and
/// gives a database whose log ends within the crashed log's, or a
/// `DbError`.
#[test]
fn recovery_of_a_damaged_power_cut_log_returns_or_errs() {
    let (data_image, log_image) = power_cut_image();
    let end = match open_over(&data_image, &log_image, 0) {
        Some(Ok(end)) => end,
        other => panic!("the undamaged image opens: {other:?}"),
    };
    assert!(end > 8 * SECTOR_SIZE as u64, "a log of {end} bytes");
    let mut rng = SimRng::seed_from_u64(0xC07);
    for case in 0..64 {
        let mut log_bytes = log_image.clone();
        let at = SECTOR_SIZE + rng.gen_range(0..end as usize);
        if case % 2 == 0 {
            log_bytes[at] ^= 1 << rng.gen_range(0..8u32);
        } else {
            log_bytes[at..].fill(0);
        }
        match open_over(&data_image, &log_bytes, case) {
            Some(Ok(log_end)) => assert!(log_end <= end, "case {case}: {log_end} of {end}"),
            Some(Err(_)) => {}
            None => panic!("case {case}: open of a log damaged at byte {at} did not return"),
        }
    }
}

/// Two overlapping transactions: T1 deletes row 1, T2 inserts row 2 and
/// commits, then T1 rolls back, by `abort` or, left open at a crash, by
/// recovery's undo. Both rows read back either way, before the crash and
/// after it: T1's delete keeps its slot until it commits, so T2's insert
/// cannot take the slot T1's rollback restores row 1 into.
#[test]
fn a_rolled_back_delete_keeps_a_row_committed_meanwhile() {
    for abort in [true, false] {
        let mut sim = Sim::new(3);
        let ctx = sim.ctx();
        let ok = Rc::new(RefCell::new(false));
        let ok2 = Rc::clone(&ok);
        sim.spawn(async move {
            let data: Rc<dyn BlockDevice> = Rc::new(Disk::new(&ctx, specs::instant(64 << 20)));
            let log: Rc<dyn BlockDevice> = Rc::new(Disk::new(&ctx, specs::instant(64 << 20)));
            let defs = [TableDef {
                name: "t".to_string(),
                slot_size: 16,
                max_rows: 64,
            }];
            let (d, l) = (Rc::clone(&data), Rc::clone(&log));
            let db = Database::create(&ctx, DbConfig::default(), &defs, d, l, DomainId::ROOT)
                .await
                .unwrap();
            let t = db.table("t").unwrap();
            let setup = db.begin().await.unwrap();
            db.insert(setup, t, 1, b"one").await.unwrap();
            db.commit(setup).await.unwrap();
            let t1 = db.begin().await.unwrap();
            db.delete(t1, t, 1).await.unwrap();
            let t2 = db.begin().await.unwrap();
            db.insert(t2, t, 2, b"two").await.unwrap();
            db.commit(t2).await.unwrap();
            let both = [(1, Some(b"one".to_vec())), (2, Some(b"two".to_vec()))];
            if abort {
                db.abort(t1).await.unwrap();
                for (k, want) in &both {
                    assert_eq!(&db.get(t, *k).await.unwrap(), want, "key {k} after abort");
                }
            }
            db.stop();
            let (db2, _) = Database::open(&ctx, DbConfig::default(), data, log, DomainId::ROOT)
                .await
                .expect("recovery");
            for (k, want) in &both {
                assert_eq!(
                    &db2.get(t, *k).await.unwrap(),
                    want,
                    "key {k} after recovery"
                );
            }
            assert_eq!(db2.row_count(t), 2);
            db2.stop();
            *ok2.borrow_mut() = true;
        });
        sim.run_until(SimTime::from_secs(10));
        assert!(*ok.borrow(), "abort={abort}: scenario did not complete");
    }
}

// ---------------------------------------------------------------------------
// Durability across arbitrary fault instants (mini fuzzed Table 2)
// ---------------------------------------------------------------------------

#[test]
fn rapilog_durable_at_any_fault_instant() {
    let mut rng = SimRng::seed_from_u64(0xD007);
    for case in 0..12 {
        let seed = rng.gen_range(0..100_000u64);
        let fault_ms = rng.gen_range(50..600u64);
        let power = rng.gen_range(0..2u32) == 0;
        let mut machine = MachineConfig::new(
            Setup::RapiLog,
            specs::instant(128 << 20),
            specs::hdd_7200(128 << 20),
        );
        machine.supply = Some(supplies::atx_psu());
        let r = run_trial(
            seed,
            TrialConfig {
                machine,
                fault: if power {
                    FaultKind::PowerCut
                } else {
                    FaultKind::GuestCrash
                },
                clients: 3,
                fault_after: SimDuration::from_millis(fault_ms),
                think_time: SimDuration::from_micros(300),
            },
        );
        assert!(
            r.ok,
            "case {case} (seed {seed}, fault at {fault_ms} ms, power={power}): {:?}",
            r.violations
        );
    }
}

/// No acknowledged commit may be lost when the log disk throws a burst of
/// transient errors before the crash: the drain must retry/degrade through
/// the burst, and recovery must still see every acked write. Burst length,
/// crash instant and a background media-fault rate are all randomised.
#[test]
fn rapilog_durable_under_disk_error_bursts() {
    use rapilog_suite::simdisk::FaultProfile;

    let mut rng = SimRng::seed_from_u64(0xD15C);
    for case in 0..8 {
        let seed = rng.gen_range(0..100_000u64);
        let fault_ms = rng.gen_range(80..450u64);
        let burst_ms = rng.gen_range(10..80u64);
        let transient_rate = rng.gen_range(0..30u64) as f64 / 1000.0;
        let mut machine = MachineConfig::new(
            Setup::RapiLog,
            specs::instant(128 << 20),
            specs::hdd_7200(128 << 20)
                .with_faults(FaultProfile::transient(seed ^ 0xFA07, transient_rate)),
        );
        machine.supply = Some(supplies::atx_psu());
        let r = run_trial(
            seed,
            TrialConfig {
                machine,
                fault: FaultKind::DiskErrorBurst {
                    burst: SimDuration::from_millis(burst_ms),
                    slack: SimDuration::from_millis(60),
                },
                clients: 3,
                fault_after: SimDuration::from_millis(fault_ms),
                think_time: SimDuration::from_micros(300),
            },
        );
        assert!(
            r.ok,
            "case {case} (seed {seed}, burst {burst_ms} ms at {fault_ms} ms, \
             bg rate {transient_rate}): {:?}",
            r.violations
        );
    }
}
