//! Cross-crate integration tests: the whole stack, end to end, through the
//! public APIs only.

use std::cell::RefCell;
use std::rc::Rc;

use rapilog_suite::dbengine::{DbError, EngineProfile};
use rapilog_suite::faultsim::{run_trial, FaultKind, Machine, MachineConfig, Setup, TrialConfig};
use rapilog_suite::simcore::{Sim, SimDuration, SimTime};
use rapilog_suite::simdisk::specs;
use rapilog_suite::simpower::supplies;
use rapilog_suite::workload::client::{self, RunConfig, TpccSource};
use rapilog_suite::workload::tpcc::{self, TpccScale};

fn machine_cfg(setup: Setup) -> MachineConfig {
    let mut mc = MachineConfig::new(setup, specs::instant(512 << 20), specs::hdd_7200(256 << 20));
    mc.supply = Some(supplies::atx_psu());
    mc
}

/// Runs TPC-C on a setup and returns (tps, lock timeouts).
fn tpcc_tps(setup: Setup, clients: usize, seed: u64) -> (f64, u64) {
    let mut sim = Sim::new(seed);
    let ctx = sim.ctx();
    let out = Rc::new(RefCell::new((0.0f64, 0u64)));
    let out2 = Rc::clone(&out);
    let c2 = ctx.clone();
    sim.spawn(async move {
        let machine = Machine::new(&c2, machine_cfg(setup));
        let scale = TpccScale::tiny();
        let db = machine.install(&tpcc::table_defs(&scale)).await.unwrap();
        let mut rng = c2.fork_rng();
        let tables = tpcc::load(&db, &scale, &mut rng).await.unwrap();
        let server = machine.server();
        let stats = client::run(
            &c2,
            &server,
            Rc::new(TpccSource { tables, scale }),
            RunConfig {
                clients,
                warmup: SimDuration::from_millis(500),
                measure: SimDuration::from_secs(3),
                think_time: None,
            },
        )
        .await;
        machine.assert_trusted_intact();
        if let Some(held) = machine.rapilog_guarantee_held() {
            assert!(held);
        }
        db.stop();
        *out2.borrow_mut() = (stats.tps(), stats.lock_timeouts);
    });
    sim.run_until(SimTime::from_secs(120));
    let v = *out.borrow();
    v
}

#[test]
fn rapilog_beats_sync_logging_on_hdd_tpcc() {
    let (sync_tps, _) = tpcc_tps(Setup::Virtualized, 8, 61);
    let (rapi_tps, _) = tpcc_tps(Setup::RapiLog, 8, 61);
    assert!(
        rapi_tps > 1.5 * sync_tps,
        "expected a clear win on HDD: rapilog {rapi_tps:.0} vs sync {sync_tps:.0}"
    );
}

#[test]
fn virtualisation_overhead_is_modest() {
    let (native, _) = tpcc_tps(Setup::Native, 8, 62);
    let (virt, _) = tpcc_tps(Setup::Virtualized, 8, 62);
    let overhead = (native - virt) / native;
    assert!(
        overhead < 0.25,
        "virtualisation cost should be modest, got {:.0}% ({native:.0} -> {virt:.0})",
        overhead * 100.0
    );
}

#[test]
fn durability_trials_across_random_instants() {
    // A mini Table 2: both fault kinds, several fault instants each.
    for (i, fault) in [FaultKind::GuestCrash, FaultKind::PowerCut]
        .into_iter()
        .enumerate()
    {
        for k in 0..3u64 {
            let seed = 700 + i as u64 * 10 + k;
            let r = run_trial(
                seed,
                TrialConfig {
                    machine: machine_cfg(Setup::RapiLog),
                    fault,
                    clients: 4,
                    fault_after: SimDuration::from_millis(120 + 170 * k),
                    think_time: SimDuration::from_micros(250),
                },
            );
            assert!(r.ok, "seed {seed} {fault:?}: violations {:?}", r.violations);
            assert!(r.total_acked > 0, "seed {seed}: load ran");
            assert_eq!(r.rapilog_guarantee, Some(true));
        }
    }
}

#[test]
fn repeated_crashes_and_recoveries_accumulate_no_damage() {
    // Crash the same machine three times in a row; all committed data must
    // persist across every generation.
    let mut sim = Sim::new(77);
    let ctx = sim.ctx();
    let done = Rc::new(RefCell::new(false));
    let d2 = Rc::clone(&done);
    let c2 = ctx.clone();
    sim.spawn(async move {
        let machine = Machine::new(&c2, machine_cfg(Setup::RapiLog));
        let defs = rapilog_suite::workload::micro::table_defs(2);
        let db = machine.install(&defs).await.unwrap();
        let table = rapilog_suite::workload::micro::registers_table(&db).unwrap();
        for c in 0..2 {
            rapilog_suite::workload::micro::init_client(&db, table, c)
                .await
                .unwrap();
        }
        let mut expected = 0u64;
        let mut db = db;
        for round in 1..=3u64 {
            for step in 0..10u64 {
                let seq = expected + step + 1;
                rapilog_suite::workload::micro::write_pair(&db, table, 0, seq)
                    .await
                    .unwrap();
            }
            expected += 10;
            machine.crash_guest();
            c2.sleep(SimDuration::from_millis(50)).await;
            let (db2, report) = machine.reboot_and_recover().await.unwrap();
            assert!(
                report.committed_seen > 0 || round > 1,
                "recovery saw the committed work"
            );
            let (a, b) = rapilog_suite::workload::micro::read_pair(&db2, table, 0)
                .await
                .unwrap();
            assert_eq!((a, b), (expected, expected), "round {round}");
            db = db2;
        }
        db.stop();
        *d2.borrow_mut() = true;
    });
    sim.run_until(SimTime::from_secs(120));
    assert!(*done.borrow());
}

#[test]
fn a_power_death_during_recovery_stops_it_and_a_second_recovery_restores_every_ack() {
    // A native machine: recovery reads the log straight off the rotating
    // disk. The guest crashes 1 ms before the supply's residual window ends,
    // so the death lands inside the reboot's recovery.
    let mut sim = Sim::new(78);
    let ctx = sim.ctx();
    let c2 = ctx.clone();
    let task = sim.spawn(async move {
        let machine = Machine::new(&c2, machine_cfg(Setup::Native));
        let defs = rapilog_suite::workload::micro::table_defs(1);
        let db = machine.install(&defs).await.unwrap();
        let table = rapilog_suite::workload::micro::registers_table(&db).unwrap();
        rapilog_suite::workload::micro::init_client(&db, table, 0)
            .await
            .unwrap();
        for seq in 1..=20u64 {
            rapilog_suite::workload::micro::write_pair(&db, table, 0, seq)
                .await
                .unwrap();
        }
        machine.cut_power();
        let psu = machine.psu().unwrap();
        let left = psu.time_until_death().unwrap();
        c2.sleep(left - SimDuration::from_millis(1)).await;
        machine.crash_guest();
        let began = c2.now();
        let first = machine.reboot_and_recover().await;
        assert_eq!(
            first.err(),
            Some(DbError::Stopped),
            "the death ended recovery"
        );
        assert!(
            c2.now() - began < SimDuration::from_millis(2),
            "and at once"
        );
        c2.sleep(SimDuration::from_millis(100)).await;
        machine.restore_power();
        let (db, _) = machine.reboot_and_recover().await.unwrap();
        let pair = rapilog_suite::workload::micro::read_pair(&db, table, 0)
            .await
            .unwrap();
        db.stop();
        pair
    });
    sim.run_until(SimTime::from_secs(60));
    assert_eq!(
        task.try_take(),
        Some((20, 20)),
        "every acked commit recovered"
    );
}

#[test]
fn async_commit_negative_control_detected() {
    let mut lost = false;
    for seed in 900..908 {
        let mut cfg = TrialConfig {
            machine: machine_cfg(Setup::Native),
            fault: FaultKind::GuestCrash,
            clients: 4,
            fault_after: SimDuration::from_millis(300),
            think_time: SimDuration::from_micros(100),
        };
        cfg.machine.db.profile = EngineProfile::async_unsafe();
        let r = run_trial(seed, cfg);
        if !r.ok {
            lost = true;
            break;
        }
    }
    assert!(lost, "the unsafe configuration must lose data on some seed");
}
