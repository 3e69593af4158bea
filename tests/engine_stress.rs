//! Stress-shaped integration tests: checkpoints under load, circular-log
//! wraparound, and hot-row contention — each followed by a crash and a
//! full recovery audit.

use std::cell::RefCell;
use std::rc::Rc;

use rapilog_suite::dbengine::{Database, DbConfig, DbError};
use rapilog_suite::simcore::{DomainId, Sim, SimDuration, SimTime};
use rapilog_suite::simdisk::{specs, BlockDevice, Disk};
use rapilog_suite::workload::micro;
use rapilog_suite::workload::tpcc::{self, TpccScale};

/// Commits pairs under a fast checkpointer, crashes, recovers, audits.
#[test]
fn checkpoints_under_load_then_crash() {
    let mut sim = Sim::new(301);
    let ctx = sim.ctx();
    let done = Rc::new(RefCell::new(false));
    let d2 = Rc::clone(&done);
    let c2 = ctx.clone();
    sim.spawn(async move {
        let data: Rc<dyn BlockDevice> = Rc::new(Disk::new(&c2, specs::instant(128 << 20)));
        let log: Rc<dyn BlockDevice> = Rc::new(Disk::new(&c2, specs::instant(128 << 20)));
        let cfg = DbConfig {
            checkpoint_interval: SimDuration::from_millis(50),
            ..DbConfig::default()
        };
        let db = Database::create(
            &c2,
            cfg.clone(),
            &micro::table_defs(4),
            Rc::clone(&data),
            Rc::clone(&log),
            DomainId::ROOT,
        )
        .await
        .unwrap();
        let table = micro::registers_table(&db).unwrap();
        for c in 0..4 {
            micro::init_client(&db, table, c).await.unwrap();
        }
        // ~400 ms of writes with checkpoints firing every 50 ms.
        let mut last = [0u64; 4];
        for seq in 1..=100u64 {
            for c in 0..4u64 {
                micro::write_pair(&db, table, c, seq).await.unwrap();
                last[c as usize] = seq;
            }
            c2.sleep(SimDuration::from_millis(4)).await;
        }
        db.stop();
        let (db2, report) = Database::open(&c2, cfg, data, log, DomainId::ROOT)
            .await
            .expect("recovery across many checkpoints");
        // The scan starts at the last checkpoint: far fewer records than
        // the total written.
        assert!(
            report.scanned_records < 4 * 100 * 6,
            "checkpoints bounded the redo range: {}",
            report.scanned_records
        );
        for c in 0..4u64 {
            let (a, b) = micro::read_pair(&db2, table, c).await.unwrap();
            assert_eq!((a, b), (last[c as usize], last[c as usize]));
        }
        db2.stop();
        *d2.borrow_mut() = true;
    });
    sim.run_until(SimTime::from_secs(60));
    assert!(*done.borrow());
}

/// A deliberately tiny log region forces the circular log to wrap many
/// times; every wrap must leave committed data recoverable.
#[test]
fn circular_log_wraps_and_recovers() {
    let mut sim = Sim::new(302);
    let ctx = sim.ctx();
    let done = Rc::new(RefCell::new(false));
    let d2 = Rc::clone(&done);
    let c2 = ctx.clone();
    sim.spawn(async move {
        let data: Rc<dyn BlockDevice> = Rc::new(Disk::new(&c2, specs::instant(128 << 20)));
        // A ~512 KiB log region: register transactions plus one full-page
        // image per checkpoint period wrap it during the run.
        let log_disk = Disk::new(&c2, specs::instant(512 << 10));
        let log: Rc<dyn BlockDevice> = Rc::new(log_disk);
        let cfg = DbConfig {
            checkpoint_interval: SimDuration::from_millis(20),
            ..DbConfig::default()
        };
        let db = Database::create(
            &c2,
            cfg.clone(),
            &micro::table_defs(2),
            Rc::clone(&data),
            Rc::clone(&log),
            DomainId::ROOT,
        )
        .await
        .unwrap();
        let table = micro::registers_table(&db).unwrap();
        for c in 0..2 {
            micro::init_client(&db, table, c).await.unwrap();
        }
        let mut last = 0u64;
        for seq in 1..=1200u64 {
            micro::write_pair(&db, table, 0, seq).await.unwrap();
            last = seq;
            c2.sleep(SimDuration::from_millis(1)).await;
        }
        let wal_end = db.wal().end();
        assert!(
            wal_end.0 > (512 << 10),
            "the stream wrapped the region at least once: end {wal_end:?}"
        );
        db.stop();
        let (db2, _report) = Database::open(&c2, cfg, data, log, DomainId::ROOT)
            .await
            .expect("recovery on a wrapped log");
        let (a, b) = micro::read_pair(&db2, table, 0).await.unwrap();
        assert_eq!((a, b), (last, last));
        db2.stop();
        *d2.borrow_mut() = true;
    });
    sim.run_until(SimTime::from_secs(120));
    assert!(*done.borrow());
}

/// Sixteen clients fighting over two districts: progress must continue
/// (lock timeouts break any deadlock) and a crash must recover cleanly.
#[test]
fn hot_row_contention_with_timeouts_then_crash() {
    let mut sim = Sim::new(303);
    let ctx = sim.ctx();
    let done = Rc::new(RefCell::new(false));
    let d2 = Rc::clone(&done);
    let c2 = ctx.clone();
    sim.spawn(async move {
        let scale = TpccScale::tiny(); // 2 districts: maximum contention
        let data: Rc<dyn BlockDevice> = Rc::new(Disk::new(&c2, specs::instant(512 << 20)));
        let log: Rc<dyn BlockDevice> = Rc::new(Disk::new(&c2, specs::instant(128 << 20)));
        let cfg = DbConfig::default();
        let db = Database::create(
            &c2,
            cfg.clone(),
            &tpcc::table_defs(&scale),
            Rc::clone(&data),
            Rc::clone(&log),
            DomainId::ROOT,
        )
        .await
        .unwrap();
        let mut rng = c2.fork_rng();
        let tables = tpcc::load(&db, &scale, &mut rng).await.unwrap();
        let committed = Rc::new(RefCell::new(0u64));
        let timeouts = Rc::new(RefCell::new(0u64));
        let mut handles = Vec::new();
        for client in 0..16u64 {
            let db = db.clone();
            let c3 = c2.clone();
            let committed = Rc::clone(&committed);
            let timeouts = Rc::clone(&timeouts);
            handles.push(c2.spawn(async move {
                let mut rng = c3.fork_rng();
                for seq in 0..40u64 {
                    let params = tpcc::generate(&mut rng, &scale, client + 1, seq);
                    match tpcc::execute(&db, &tables, &params).await {
                        Ok(()) => *committed.borrow_mut() += 1,
                        Err(DbError::LockTimeout(_)) => *timeouts.borrow_mut() += 1,
                        Err(DbError::Stopped) => break,
                        Err(e) => panic!("unexpected engine error: {e}"),
                    }
                }
            }));
        }
        for h in handles {
            let _ = h.await;
        }
        let n_committed = *committed.borrow();
        assert!(
            n_committed > 300,
            "most transactions went through despite contention: {n_committed}"
        );
        db.stop();
        let (db2, report) = Database::open(&c2, cfg, data, log, DomainId::ROOT)
            .await
            .expect("recovery after the contention storm");
        assert!(report.committed_seen > 0);
        // Conservation check: district order counters equal orders present.
        let t = tables;
        for d in 1..=scale.districts {
            let drow = tpcc::DistrictRow::decode(
                &db2.get(t.district, tpcc::dist_key(1, d))
                    .await
                    .unwrap()
                    .expect("district row"),
            )
            .unwrap();
            for o in 1..drow.next_o_id as u64 {
                assert!(
                    db2.get(t.orders, tpcc::order_key(1, d, o))
                        .await
                        .unwrap()
                        .is_some(),
                    "order {o} of district {d} allocated but missing"
                );
            }
        }
        db2.stop();
        *d2.borrow_mut() = true;
    });
    sim.run_until(SimTime::from_secs(120));
    assert!(*done.borrow());
}
