//! Microbenchmarks for the suite's hot paths (plain harness, no external
//! bench framework so the workspace builds offline).
//!
//! These are not paper figures; they keep the simulation substrate honest:
//! the DES executor, WAL codec, histogram, tracing fast path and TPC-C
//! generator all sit on the critical path of every experiment, so
//! regressions here inflate every wall-clock run.
//!
//! Each case runs a warmup batch and then reports wall-clock nanoseconds
//! per operation over a fixed iteration count. The `tracer_disabled` case
//! doubles as the enforcement of the tracing cost contract: after a million
//! events against a disabled tracer the ring must still be empty.
//!
//! Machine-readable artifacts of a run:
//!
//! * every case's ns/op is written to `BENCH_hotpaths.json`;
//! * `layer/*` rows: the host cost of moving one extent's bytes through the
//!   dependable buffer (push → pop_batch → complete_run) and onto a `Disk`'s
//!   media, at 128 sectors and at one;
//! * per device stack, host ns and allocations per request in the two
//!   calling forms — `exec` inline, and `submit` + `wait` (a task of its
//!   own per request) — under `request_forms`: what a task per request
//!   costs, as a standing number;
//! * a commit-storm run over the full RapiLog stack is measured with the
//!   counting global allocator, and **allocations per committed
//!   transaction** are asserted against a hard budget — the regression
//!   tripwire for the zero-copy data path (one stray `to_vec` in the log
//!   path blows straight through it).
//! * one untraced crash trial and one sync failover trial are measured the
//!   same way, and the **bytes a trial allocates** are asserted against a
//!   budget each: a trial that keeps trace events nobody reads (up to
//!   5 MiB of ring) blows through it.
//!
//! Set `BENCH_CHECK=1` to run shortened iteration counts (CI smoke mode);
//! assertions still run at full strength.

use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use rapilog::replicate::ReplicationMode;
use rapilog::{CapacitySpec, DependableBuffer, RapiLog};
use rapilog_bench::alloc::{snapshot, CountingAlloc};
use rapilog_bench::{run_perf, Json, PerfConfig, WorkloadSpec};
use rapilog_dbengine::retry::RetryingDevice;
use rapilog_dbengine::types::{Lsn, PageId, TableId, TxnId};
use rapilog_dbengine::wal::Record;
use rapilog_faultsim::{
    run_failover_trial, run_trial, ExplorerConfig, FailoverExplorerConfig, FailoverKind,
    FailoverPoint, FaultKind, MachineConfig, Setup,
};
use rapilog_microvisor::{Hypervisor, Trust, VirtCosts, VirtioBlk};
use rapilog_simcore::rng::SimRng;
use rapilog_simcore::stats::Histogram;
use rapilog_simcore::sync::Notify;
use rapilog_simcore::trace::{Layer, Payload, Tracer};
use rapilog_simcore::{SectorBuf, Sim, SimCtx, SimDuration, SimTime};
use rapilog_simdisk::{specs, BlockDevice, Disk, IoReq, SECTOR_SIZE};
use rapilog_simpower::{supplies, PowerSupply, SupplySpec};
use rapilog_workload::client::RunConfig;
use rapilog_workload::tpcc::{self, TpccScale};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocation budget per committed storm transaction over the full RapiLog
/// stack (client → engine → WAL → virtio → buffer → drain → media).
///
/// The zero-copy path measures 27.7 allocations per commit (check mode)
/// at one log write per commit, since the engine stopped cloning table
/// metadata per row access and before-images per update and `timeout`
/// stopped boxing its future (35.2 before; 43.9 while the WAL also wrote
/// what nobody waited for, 1.35 device writes per commit); the
/// pre-zero-copy baseline measured ~106 on the same workload. The budget
/// is the measurement + 15 % for batching variance: one more allocation
/// on the log path per write, or a second write per commit, blows through
/// it.
const STORM_ALLOCS_PER_COMMIT_BUDGET: f64 = 32.0;

/// Log-device writes per storm commit: one, the commit's own. The WAL
/// writes what a committer waits for, not every record appended while the
/// device was busy; the margin is the install's and checkpoints' writes.
const STORM_DEVICE_WRITES_PER_COMMIT_BUDGET: f64 = 1.05;

/// Bytes one untraced crash trial allocates (`ExplorerConfig::rapilog_default`,
/// guest crash at 270 ms): 12 844 944 measured + 10 %. The same trial
/// keeping its trace events, as `run_trial_traced` does, allocates
/// 17.1 MB (the ring's growth and the snapshot of it).
const CRASH_TRIAL_ALLOC_BYTES_BUDGET: u64 = 14_130_000;

/// Bytes one sync guest-crash failover trial allocates: 539 423 measured +
/// 10 %. The trial does not trace at all.
const FAILOVER_TRIAL_ALLOC_BYTES_BUDGET: u64 = 593_400;

struct Runner {
    /// `BENCH_CHECK=1`: shortened iteration counts for CI smoke runs.
    check: bool,
    results: Vec<(String, f64, u64)>,
}

impl Runner {
    fn new() -> Runner {
        Runner {
            check: std::env::var("BENCH_CHECK").is_ok_and(|v| v == "1"),
            results: Vec::new(),
        }
    }

    fn iters(&self, full: u64) -> u64 {
        if self.check {
            (full / 20).max(10)
        } else {
            full
        }
    }

    fn bench(&mut self, name: &str, full_iters: u64, mut f: impl FnMut()) {
        let iters = self.iters(full_iters);
        for _ in 0..iters / 10 {
            f();
        }
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed();
        let ns_per_op = elapsed.as_nanos() as f64 / iters as f64;
        println!("{name:<28} {ns_per_op:>12.1} ns/op   ({iters} iters, {elapsed:?} total)");
        self.results.push((name.to_string(), ns_per_op, iters));
    }

    /// Records a case measured externally (one timed region covering `ops`
    /// operations) in the same table and JSON format as [`Runner::bench`].
    fn report(&mut self, name: &str, elapsed: std::time::Duration, ops: u64) {
        let ns_per_op = elapsed.as_nanos() as f64 / ops as f64;
        println!("{name:<28} {ns_per_op:>12.1} ns/op   ({ops} ops, {elapsed:?} total)");
        self.results.push((name.to_string(), ns_per_op, ops));
    }
}

fn bench_histogram(r: &mut Runner) {
    let mut h = Histogram::new();
    let mut x = 12345u64;
    r.bench("histogram/record", 1_000_000, || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        h.record(x >> 33);
    });
    let mut h = Histogram::new();
    for i in 0..100_000u64 {
        h.record(i * 37 % 1_000_000);
    }
    r.bench("histogram/percentile", 100_000, || {
        black_box(h.percentile(99.0));
    });
}

fn bench_wal_codec(r: &mut Runner) {
    let rec = Record::Update {
        txn: TxnId(42),
        prev: Lsn(1000),
        table: TableId(3),
        page: PageId(77),
        slot: 5,
        key: 123456,
        before: vec![0xAA; 128],
        after: vec![0xBB; 128],
    };
    let encode = || {
        let mut out = Vec::new();
        rec.encode_into(Lsn(9000), &mut out);
        out
    };
    let encoded = encode();
    r.bench("wal/encode_update", 200_000, || {
        black_box(encode());
    });
    // The staging path: append into a reused buffer, no allocation per
    // record once the buffer has grown.
    let mut staging = Vec::with_capacity(64 << 10);
    r.bench("wal/encode_into_staged", 200_000, || {
        if staging.len() > 32 << 10 {
            staging.clear();
        }
        black_box(rec.encode_into(Lsn(9000), &mut staging));
    });
    r.bench("wal/decode_update", 200_000, || {
        black_box(Record::decode(&encoded, Lsn(9000)).expect("decodes"));
    });
}

fn bench_executor(r: &mut Runner) {
    r.bench("simcore/spawn_sleep_1000", 200, || {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        for i in 0..1000u64 {
            let ctx = ctx.clone();
            sim.spawn(async move {
                ctx.sleep(SimDuration::from_nanos(i % 997)).await;
            });
        }
        black_box(sim.run());
    });
}

/// Executor-kernel rows: isolates the scheduling core's three primitive
/// costs — spawning a task into the slab arena, waking a task through the
/// ready ring, and firing a timer out of the heap — plus an overall
/// poll-throughput (events/sec) figure for the timer-heavy run.
fn bench_exec_kernel(r: &mut Runner) {
    // ns per spawn: enqueue cost only (slab insert + ready-ring push);
    // the tasks are trivial so the trailing run() is not measured.
    let spawns = r.iters(300_000);
    let mut sim = Sim::new(2);
    let start = Instant::now();
    for _ in 0..spawns {
        sim.spawn(async {});
    }
    r.report("exec/spawn", start.elapsed(), spawns);
    sim.run();

    // ns per wake: two tasks ping-pong through a pair of Notify cells, so
    // every round trip is two wake()s plus the two polls they schedule.
    let rounds = r.iters(200_000);
    let mut sim = Sim::new(3);
    let ctx = sim.ctx();
    let ping = Rc::new(Notify::new());
    let pong = Rc::new(Notify::new());
    {
        let (ping, pong) = (Rc::clone(&ping), Rc::clone(&pong));
        sim.spawn(async move {
            for _ in 0..rounds {
                ping.notified().await;
                pong.notify_one();
            }
        });
    }
    {
        let (ping, pong) = (Rc::clone(&ping), Rc::clone(&pong));
        let ctx = ctx.clone();
        sim.spawn(async move {
            // One sim-time tick so the partner registers first.
            ctx.sleep(SimDuration::from_nanos(1)).await;
            for _ in 0..rounds {
                ping.notify_one();
                pong.notified().await;
            }
        });
    }
    let start = Instant::now();
    sim.run();
    r.report("exec/wake", start.elapsed(), rounds * 2);

    // ns per timer fire: 64 tasks each sleeping through a ladder of
    // distinct deadlines — heap push, pop and fire per await.
    let per_task = r.iters(4_000);
    let tasks = 64u64;
    let mut sim = Sim::new(4);
    let ctx = sim.ctx();
    for t in 0..tasks {
        let ctx = ctx.clone();
        sim.spawn(async move {
            for i in 0..per_task {
                ctx.sleep(SimDuration::from_nanos(1 + (t * 31 + i * 17) % 4093))
                    .await;
            }
        });
    }
    let start = Instant::now();
    let report = sim.run();
    let elapsed = start.elapsed();
    r.report("exec/timer_fire", elapsed, tasks * per_task);
    let events_per_sec = report.polls as f64 / elapsed.as_secs_f64();
    println!(
        "exec/poll_throughput        {events_per_sec:>12.0} events/sec ({} polls)",
        report.polls
    );
    r.results.push((
        "exec/poll_throughput_events_per_sec".to_string(),
        events_per_sec,
        report.polls,
    ));
}

fn bench_tpcc_generate(r: &mut Runner) {
    let mut rng = SimRng::seed_from_u64(7);
    let scale = TpccScale::small();
    let mut seq = 0u64;
    r.bench("tpcc/generate", 500_000, || {
        seq += 1;
        black_box(tpcc::generate(&mut rng, &scale, 1, seq));
    });
}

fn bench_tracer(r: &mut Runner) {
    // The disabled path must be a pure no-op: no allocation, no ring write.
    let tracer = Tracer::new();
    let mut i = 0u64;
    r.bench("trace/disabled_instant", 1_000_000, || {
        i += 1;
        tracer.instant(
            SimTime::from_nanos(i),
            Layer::Disk,
            "io",
            Payload::Bytes { bytes: i },
        );
    });
    let snap = tracer.snapshot();
    assert_eq!(snap.total, 0, "disabled tracer must not record");
    assert_eq!(snap.dropped, 0, "disabled tracer must not evict");
    assert!(
        snap.events.is_empty(),
        "disabled tracer ring must stay empty"
    );

    tracer.set_enabled(true);
    let mut i = 0u64;
    r.bench("trace/enabled_span", 500_000, || {
        i += 1;
        tracer.begin(SimTime::from_nanos(i), Layer::Wal, "gc", Payload::None);
        tracer.end(
            SimTime::from_nanos(i + 1),
            Layer::Wal,
            "gc",
            Payload::Bytes { bytes: i },
        );
    });
    assert!(tracer.snapshot().total > 0);
}

/// Layer rows: one extent of `sectors` sectors through the dependable
/// buffer — admitted, popped by the drain, landed — and one media write of
/// that size on a `Disk` that takes no simulated time. Bytes are kept a run
/// at a time in both (the buffer's dirty runs, the store's 4 KiB chunks),
/// so the 128-sector rows cost far less than 128 one-sector ones; the
/// one-sector buffer row is what a run map costs where a hash map of
/// sectors cost less. The buffer is built as `DependableBuffer::new` builds
/// it, keeping landed sectors, as over a rotating disk.
fn bench_layers(r: &mut Runner) {
    for sectors in [128u64, 1] {
        let extents = r.iters(if sectors == 1 { 400_000 } else { 40_000 });
        let mut sim = Sim::new(6);
        sim.spawn(async move {
            let buffer = DependableBuffer::new(64 << 20);
            let data = SectorBuf::from_vec(vec![0x5A; sectors as usize * SECTOR_SIZE]);
            for i in 0..extents {
                let sector = (i * sectors) % (1 << 17);
                let seq = buffer.push(sector, data.clone()).await.expect("push");
                black_box(buffer.pop_batch(usize::MAX));
                buffer.complete_run(&[(seq, seq)]);
            }
        });
        let start = Instant::now();
        sim.run();
        r.report(
            &format!("layer/buffer_extent_{sectors}"),
            start.elapsed(),
            extents,
        );
    }
    let writes = r.iters(40_000);
    let mut sim = Sim::new(7);
    let disk = Disk::new(&sim.ctx(), specs::instant(64 << 20));
    sim.spawn(async move {
        let data = SectorBuf::from_vec(vec![0xC3; 128 * SECTOR_SIZE]);
        for i in 0..writes {
            let req = IoReq::Write {
                sector: (i % 1024) * 128,
                segments: vec![data.clone()],
                fua: true,
            };
            disk.exec(req).await.expect("media write");
        }
    });
    let start = Instant::now();
    sim.run();
    r.report("layer/disk_write_128", start.elapsed(), writes);
}

/// The device stacks the suite builds, over a disk that takes no simulated
/// time: what is left is the host cost of the layers themselves.
const REQUEST_STACKS: [&str; 6] = [
    "disk",
    "virtio_disk",
    "retry_virtio_disk",
    "rapilog",
    "rapilog_write_through",
    "retry_virtio_rapilog",
];

fn request_stack(name: &str, ctx: &SimCtx) -> Rc<dyn BlockDevice> {
    let hv = Hypervisor::new(ctx);
    let trusted = hv.create_cell("trusted", Trust::Trusted);
    let disk = Disk::new(ctx, specs::instant(64 << 20));
    let backend: Rc<dyn BlockDevice> = if name.ends_with("write_through") {
        // A residual window that closes as its warning arrives: nothing
        // drains in it, however fast the disk (this one has no positioning
        // cost and no bandwidth limit).
        let brownout = SupplySpec {
            name: "brownout".to_string(),
            residual_joules: 1.0,
            drain_draw_watts: 200.0,
            warning_latency: SimDuration::from_millis(5),
        };
        let psu = PowerSupply::new(ctx, brownout);
        let rl = RapiLog::builder(ctx)
            .cell(&trusted)
            .disk(disk)
            .supply(&psu)
            .capacity(CapacitySpec::FromSupply)
            .build();
        assert!(rl.device().is_write_through());
        std::mem::forget(psu);
        Rc::new(rl.device())
    } else if name.ends_with("rapilog") {
        let rl = RapiLog::builder(ctx)
            .cell(&trusted)
            .disk(disk)
            .capacity(CapacitySpec::Fixed(1 << 20))
            .build();
        Rc::new(rl.device())
    } else {
        Rc::new(disk)
    };
    let dev: Rc<dyn BlockDevice> = if name.contains("virtio") {
        Rc::new(VirtioBlk::new(ctx, &trusted, backend, VirtCosts::default()))
    } else {
        backend
    };
    // Trusted cells never die; the simulation owns their tasks.
    std::mem::forget(trusted);
    if name.starts_with("retry") {
        Rc::new(RetryingDevice::new(
            ctx,
            dev,
            8,
            SimDuration::from_millis(2),
        ))
    } else {
        dev
    }
}

/// One-sector FUA writes, one at a time, through each stack in each calling
/// form: `exec` carries the request in the caller's task, `submit` + `wait`
/// gives it a task of its own. The difference is what the queued form costs
/// per request (ROADMAP, *Measured and rejected*: why the commit path and
/// the wrappers' inner hops are inline).
fn bench_request_forms(r: &mut Runner) -> Json {
    let requests = r.iters(40_000);
    let mut rows = Vec::new();
    for stack in REQUEST_STACKS {
        for (form, queued) in [("exec", false), ("submit_wait", true)] {
            let mut sim = Sim::new(5);
            let dev = request_stack(stack, &sim.ctx());
            sim.spawn(async move {
                let data = SectorBuf::from_vec(vec![0x5A; SECTOR_SIZE]);
                for i in 0..requests {
                    let req = IoReq::Write {
                        sector: i % 1024,
                        segments: vec![data.clone()],
                        fua: true,
                    };
                    let done = if queued {
                        let token = dev.submit(req);
                        dev.wait(token).await
                    } else {
                        dev.exec(req).await
                    };
                    done.expect("write");
                }
            });
            let before = snapshot();
            let start = Instant::now();
            sim.run();
            let elapsed = start.elapsed();
            let allocs = snapshot().since(before).calls as f64 / requests as f64;
            let name = format!("request/{stack}/{form}");
            r.report(&name, elapsed, requests);
            println!("{name:<40} {allocs:>12.1} allocs/request");
            rows.push(Json::obj([
                ("stack", Json::str(stack)),
                ("form", Json::str(form)),
                (
                    "ns_per_request",
                    Json::Num(elapsed.as_nanos() as f64 / requests as f64),
                ),
                ("allocs_per_request", Json::Num(allocs)),
            ]));
        }
    }
    Json::Arr(rows)
}

/// Runs the commit storm through the full RapiLog machine and measures
/// allocator traffic per committed transaction. This is the end-to-end
/// guard on the zero-copy log data path.
///
/// Two flavours share the budget: the plain storm, and a **timer-heavy**
/// storm (`timer_heavy = true`) with 8× the clients on 1/10th the think
/// time, so each committed transaction drags an order of magnitude more
/// sleep registrations, timer fires and waker traffic through the
/// executor. Under the original core every re-poll of `Sleep` cloned a
/// fresh waker into the heap, so this case is the tripwire for timer-path
/// allocation regressions specifically.
fn bench_storm_allocations(check: bool, timer_heavy: bool) -> Json {
    let mut machine = MachineConfig::new(
        Setup::RapiLog,
        specs::instant(256 << 20),
        specs::hdd_7200(256 << 20),
    );
    machine.supply = Some(supplies::atx_psu());
    let measure = if check {
        SimDuration::from_secs(2)
    } else {
        SimDuration::from_secs(5)
    };
    let (clients, think) = if timer_heavy {
        // 32 clients at 20 µs think time fill the 256 MiB log region
        // before the default 5 s checkpoint frees any of it: checkpoint
        // often enough that the full-mode run never wraps onto live log.
        machine.db.checkpoint_interval = SimDuration::from_millis(250);
        (32, SimDuration::from_micros(20))
    } else {
        (4, SimDuration::from_micros(200))
    };
    let cfg = PerfConfig {
        seed: 11,
        machine,
        workload: WorkloadSpec::Storm { clients },
        run: RunConfig {
            clients: clients as usize,
            warmup: SimDuration::from_millis(500),
            measure,
            think_time: Some(think),
        },
        trace: false,
    };
    let wall_start = Instant::now();
    let before = snapshot();
    let outcome = run_perf(cfg);
    let after = snapshot();
    let wall = wall_start.elapsed();
    let delta = after.since(before);
    let committed = outcome.stats.committed;
    assert!(committed > 1000, "storm run too small: {committed} commits");
    let per_commit = delta.calls as f64 / committed as f64;
    let bytes_per_commit = delta.bytes as f64 / committed as f64;
    let (label, writes_label) = if timer_heavy {
        ("storm_timer/allocs_commit", "storm_timer/writes_commit")
    } else {
        ("storm/allocs_per_commit", "storm/writes_per_commit")
    };
    println!(
        "{label:<28} {per_commit:>12.1} allocs  \
         ({committed} commits, {:.0} B/commit, budget {STORM_ALLOCS_PER_COMMIT_BUDGET})",
        bytes_per_commit
    );
    assert!(
        per_commit <= STORM_ALLOCS_PER_COMMIT_BUDGET,
        "allocation budget blown ({label}): {per_commit:.1} allocs per committed \
         storm transaction (budget {STORM_ALLOCS_PER_COMMIT_BUDGET}) — \
         a copy has crept back into the log data path or the timer path"
    );
    let writes_per_commit = outcome.wal.flushes as f64 / outcome.wal.commits as f64;
    println!(
        "{writes_label:<28} {writes_per_commit:>12.3} writes  \
         (budget {STORM_DEVICE_WRITES_PER_COMMIT_BUDGET})"
    );
    assert!(
        writes_per_commit <= STORM_DEVICE_WRITES_PER_COMMIT_BUDGET,
        "{writes_per_commit:.3} log-device writes per storm commit ({writes_label}): \
         the WAL is writing what nobody waits for"
    );
    Json::obj([
        ("timer_heavy", Json::Bool(timer_heavy)),
        ("committed", Json::int(committed)),
        ("device_writes_per_commit", Json::Num(writes_per_commit)),
        ("alloc_calls", Json::int(delta.calls)),
        ("alloc_bytes", Json::int(delta.bytes)),
        ("allocs_per_commit", Json::Num(per_commit)),
        ("bytes_per_commit", Json::Num(bytes_per_commit)),
        ("budget", Json::Num(STORM_ALLOCS_PER_COMMIT_BUDGET)),
        ("wall_ms", Json::int(wall.as_millis() as u64)),
    ])
}

/// Bytes allocated by the second of two identical runs of `trial` (the first
/// warms whatever a process allocates once).
fn trial_alloc_bytes(trial: impl Fn()) -> u64 {
    trial();
    let before = snapshot();
    trial();
    snapshot().since(before).bytes
}

/// The per-trial allocation budgets: what a crash trial and a failover trial
/// allocate, each against its budget.
fn bench_trial_allocations() -> Json {
    let explorer = ExplorerConfig::rapilog_default();
    let seed = explorer.seeds[0];
    let crash = trial_alloc_bytes(|| {
        let cfg = explorer.trial(seed, FaultKind::GuestCrash, SimDuration::from_millis(270));
        assert!(run_trial(seed, cfg).ok, "crash trial failed its audit");
    });
    let pair = FailoverExplorerConfig::rapilog_default();
    let point = FailoverPoint {
        seed: pair.seeds[0],
        mode: ReplicationMode::Sync,
        kind: FailoverKind::GuestCrash,
    };
    let failover = trial_alloc_bytes(|| {
        let r = run_failover_trial(point.seed, pair.trial(&point));
        assert!(r.ok, "failover trial failed its audit");
    });
    let mut rows = Vec::new();
    for (name, bytes, budget) in [
        (
            "trial/crash_alloc_bytes",
            crash,
            CRASH_TRIAL_ALLOC_BYTES_BUDGET,
        ),
        (
            "trial/failover_alloc_bytes",
            failover,
            FAILOVER_TRIAL_ALLOC_BYTES_BUDGET,
        ),
    ] {
        println!("{name:<28} {bytes:>12} bytes  (budget {budget})");
        assert!(
            bytes <= budget,
            "allocation budget blown ({name}): {bytes} bytes per trial (budget {budget}) \
             — does a trial keep trace events nobody reads again?"
        );
        rows.push(Json::obj([
            ("name", Json::str(name)),
            ("alloc_bytes", Json::int(bytes)),
            ("budget", Json::int(budget)),
        ]));
    }
    Json::Arr(rows)
}

fn main() {
    let mut r = Runner::new();
    let wall_start = Instant::now();
    bench_histogram(&mut r);
    bench_wal_codec(&mut r);
    bench_executor(&mut r);
    bench_exec_kernel(&mut r);
    bench_tpcc_generate(&mut r);
    bench_tracer(&mut r);
    bench_layers(&mut r);
    let request_forms = bench_request_forms(&mut r);
    let storm = bench_storm_allocations(r.check, false);
    let storm_timer = bench_storm_allocations(r.check, true);
    let trials = bench_trial_allocations();
    let doc = Json::obj([
        ("bench", Json::str("hotpaths")),
        ("check_mode", Json::Bool(r.check)),
        (
            "wall_ms",
            Json::int(wall_start.elapsed().as_millis() as u64),
        ),
        (
            "cases",
            Json::Arr(
                r.results
                    .iter()
                    .map(|(name, ns, iters)| {
                        Json::obj([
                            ("name", Json::str(name.clone())),
                            ("ns_per_op", Json::Num(*ns)),
                            ("iters", Json::int(*iters)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("request_forms", request_forms),
        ("storm", storm),
        ("storm_timer", storm_timer),
        ("trials", trials),
    ]);
    std::fs::write("BENCH_hotpaths.json", doc.render() + "\n").expect("write BENCH_hotpaths.json");
    println!("hotpaths: all assertions passed (BENCH_hotpaths.json written)");
}
