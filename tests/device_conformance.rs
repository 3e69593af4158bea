//! Every device answers every request the same way, whichever way it is
//! asked.
//!
//! A device implements a request once, in `BlockDevice::exec`; the queued
//! form (`submit` + `wait`) and the one-at-a-time methods (`read`, `write`,
//! `flush`) are derived from it. This table drives each stack the suite
//! builds through each kind of request — good, malformed, out of range,
//! against a dead disk, through a burst of transient faults — once per
//! form, in a fresh simulation each time, and requires the three forms to
//! agree on everything observable: each request's result, the simulated
//! instant it completed at, the bytes on the media afterwards and what the
//! disk counted (faults drawn, media operations, busy time). Each row also
//! pins what the answer *is*, so the forms cannot agree on a wrong one.

use std::cell::RefCell;
use std::rc::Rc;

use rapilog_suite::dbengine::retry::RetryingDevice;
use rapilog_suite::microvisor::{VirtCosts, VirtioBlk};
use rapilog_suite::prelude::*;
use rapilog_suite::simcore::SectorBuf;
use rapilog_suite::simdisk::{DiskStats, IoError, IoReq};

#[derive(Debug, Clone, Copy, PartialEq)]
enum Stack {
    Disk,
    VirtioDisk,
    RetryVirtioDisk,
    RapiLog,
    RapiLogWriteThrough,
    /// The benchmark's log-device stack.
    RetryVirtioRapiLog,
}

const STACKS: [Stack; 6] = [
    Stack::Disk,
    Stack::VirtioDisk,
    Stack::RetryVirtioDisk,
    Stack::RapiLog,
    Stack::RapiLogWriteThrough,
    Stack::RetryVirtioRapiLog,
];

impl Stack {
    fn retries(self) -> bool {
        matches!(self, Stack::RetryVirtioDisk | Stack::RetryVirtioRapiLog)
    }

    /// Acknowledges from the dependable buffer rather than from the disk.
    fn buffered(self) -> bool {
        matches!(self, Stack::RapiLog | Stack::RetryVirtioRapiLog)
    }
}

#[derive(Debug, Clone, Copy)]
enum Form {
    /// `exec(req)`, in the caller's task.
    Exec,
    /// `submit(req)` + `wait(token)`.
    Queued,
    /// `read` / `write` / `flush` where the request has one (a trim, a
    /// scatter list and a read too big to hold a buffer for do not).
    Convenience,
}

/// 64 MiB of rotating disk: a request's time depends on when it starts.
const DISK_BYTES: u64 = 64 << 20;
const SECTORS: u64 = DISK_BYTES / SECTOR_SIZE as u64;
/// The media window every row stays inside (and is compared over).
const WINDOW: usize = 48;
const RETRIES: u32 = 8;

struct Rig {
    dev: Rc<dyn BlockDevice>,
    disk: Disk,
    /// The instance and its supply live as long as the run.
    _rapilog: Option<(RapiLog, Option<PowerSupply>)>,
}

fn build(stack: Stack, ctx: &SimCtx) -> Rig {
    let hv = Hypervisor::new(ctx);
    let trusted = hv.create_cell("trusted", Trust::Trusted);
    let disk = Disk::new(ctx, specs::hdd_7200(DISK_BYTES));
    let rapilog = match stack {
        Stack::Disk | Stack::VirtioDisk | Stack::RetryVirtioDisk => None,
        Stack::RapiLog | Stack::RetryVirtioRapiLog => {
            let rl = RapiLog::builder(ctx)
                .cell(&trusted)
                .disk(disk.clone())
                .capacity(CapacitySpec::Fixed(1 << 20))
                .build();
            Some((rl, None))
        }
        Stack::RapiLogWriteThrough => {
            // A residual window too short to drain anything in.
            let brownout = SupplySpec {
                name: "brownout".to_string(),
                residual_joules: 1.0,
                drain_draw_watts: 200.0,
                warning_latency: SimDuration::from_millis(1),
            };
            let psu = PowerSupply::new(ctx, brownout);
            let rl = RapiLog::builder(ctx)
                .cell(&trusted)
                .disk(disk.clone())
                .supply(&psu)
                .capacity(CapacitySpec::FromSupply)
                .build();
            assert!(rl.device().is_write_through());
            Some((rl, Some(psu)))
        }
    };
    let backend: Rc<dyn BlockDevice> = match &rapilog {
        Some((rl, _)) => Rc::new(rl.device()),
        None => Rc::new(disk.clone()),
    };
    let ring = || {
        Rc::new(VirtioBlk::new(
            ctx,
            &trusted,
            backend.clone(),
            VirtCosts::default(),
        ))
    };
    let retry_delay = SimDuration::from_millis(2);
    let dev: Rc<dyn BlockDevice> = match stack {
        Stack::Disk | Stack::RapiLog | Stack::RapiLogWriteThrough => backend.clone(),
        Stack::VirtioDisk => ring(),
        Stack::RetryVirtioDisk | Stack::RetryVirtioRapiLog => {
            Rc::new(RetryingDevice::new(ctx, ring(), RETRIES, retry_delay))
        }
    };
    // Trusted cells never die; the simulation owns their tasks.
    std::mem::forget(trusted);
    Rig {
        dev,
        disk,
        _rapilog: rapilog,
    }
}

#[derive(Debug, Clone)]
enum Step {
    /// Issued in the form under test; its result and completion instant
    /// are recorded.
    Req(IoReq),
    Sleep(SimDuration),
    /// Plants `byte` in one media sector, behind every device's back.
    Poke(u64, u8),
    PowerCut,
    /// The disk fails every command from now until this much later.
    Sick(SimDuration),
}

/// Sector data that prints as `2x77 510x00 ..`, not as a page of numbers.
#[derive(PartialEq, Clone)]
struct Bytes(Vec<u8>);

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let runs: Vec<&[u8]> = self.0.chunk_by(|a, b| a == b).collect();
        write!(f, "{} bytes:", self.0.len())?;
        for run in runs.iter().take(12) {
            write!(f, " {}x{:02x}", run.len(), run[0])?;
        }
        if runs.len() > 12 {
            write!(f, " .. ({} runs)", runs.len())?;
        }
        Ok(())
    }
}

type Answer = Result<Option<Bytes>, IoError>;

#[derive(Debug, PartialEq)]
struct Outcome {
    answers: Vec<(Answer, SimTime)>,
    media: Bytes,
    disk: DiskStats,
}

impl Outcome {
    fn answer(&self, i: usize) -> &Answer {
        &self.answers[i].0
    }

    fn media(&self, sector: usize, sectors: usize) -> Bytes {
        Bytes(self.media.0[sector * SECTOR_SIZE..(sector + sectors) * SECTOR_SIZE].to_vec())
    }
}

async fn issue(dev: &Rc<dyn BlockDevice>, form: Form, req: IoReq) -> Answer {
    let data = match (form, req) {
        (Form::Queued, req) => {
            let token = dev.submit(req);
            dev.wait(token).await?
        }
        (Form::Convenience, IoReq::Read { sector, sectors }) if sectors <= WINDOW as u64 => {
            let mut buf = vec![0u8; sectors as usize * SECTOR_SIZE];
            dev.read(sector, &mut buf).await?;
            return Ok(Some(Bytes(buf)));
        }
        (
            Form::Convenience,
            IoReq::Write {
                sector,
                segments,
                fua,
            },
        ) if segments.len() == 1 => {
            dev.write(sector, segments[0].as_slice(), fua).await?;
            None
        }
        (Form::Convenience, IoReq::Flush) => {
            dev.flush().await?;
            None
        }
        (_, req) => dev.exec(req).await?,
    };
    Ok(data.map(|d| Bytes(d.as_slice().to_vec())))
}

fn run(stack: Stack, form: Form, steps: Vec<Step>) -> Outcome {
    let mut sim = Sim::new(42);
    let ctx = sim.ctx();
    let rig = build(stack, &ctx);
    let asked = steps.iter().filter(|s| matches!(s, Step::Req(_))).count();
    let answers = Rc::new(RefCell::new(Vec::new()));
    let (dev, disk, log) = (rig.dev.clone(), rig.disk.clone(), answers.clone());
    sim.spawn(async move {
        for step in steps {
            match step {
                Step::Req(req) => {
                    let answer = issue(&dev, form, req).await;
                    log.borrow_mut().push((answer, ctx.now()));
                }
                Step::Sleep(d) => ctx.sleep(d).await,
                Step::Poke(sector, byte) => disk.poke_media(sector, &[byte; SECTOR_SIZE]),
                Step::PowerCut => disk.power_cut(),
                Step::Sick(d) => {
                    disk.set_sick(true);
                    let (ctx, disk) = (ctx.clone(), disk.clone());
                    ctx.clone().spawn(async move {
                        ctx.sleep(d).await;
                        disk.set_sick(false);
                    });
                }
            }
        }
    });
    // Long enough for a drain to land everything it was given.
    sim.run_until(SimTime::from_secs(2));
    let answers = answers.take();
    assert_eq!(answers.len(), asked, "{stack:?} {form:?}: script finished");
    let mut media = vec![0u8; WINDOW * SECTOR_SIZE];
    rig.disk.peek_media(0, &mut media);
    // How a request reached the disk is the one thing the forms may differ
    // in: only what was *submitted to the disk* is metered by its queue.
    let disk = DiskStats {
        queued_requests: 0,
        outstanding: 0,
        max_outstanding: 0,
        ..rig.disk.stats()
    };
    Outcome {
        answers,
        media: Bytes(media),
        disk,
    }
}

fn bytes(sectors: usize, tag: u8) -> Bytes {
    Bytes(
        (0..sectors * SECTOR_SIZE)
            .map(|i| tag ^ (i % 251) as u8)
            .collect(),
    )
}

/// One byte value per sector.
fn sectors_of(fill: &[u8]) -> Bytes {
    Bytes(fill.iter().flat_map(|b| [*b; SECTOR_SIZE]).collect())
}

fn write(sector: u64, segments: &[&[u8]]) -> Step {
    Step::Req(IoReq::Write {
        sector,
        segments: segments.iter().map(|s| SectorBuf::copy_from(s)).collect(),
        fua: true,
    })
}

fn read(sector: u64, sectors: u64) -> Step {
    Step::Req(IoReq::Read { sector, sectors })
}

struct Row {
    name: &'static str,
    steps: fn() -> Vec<Step>,
    /// What the answers must be, given the stack (checked on `Form::Exec`;
    /// the other forms must equal it).
    check: fn(Stack, &Outcome),
}

const MISALIGNED_0: Answer = Err(IoError::Misaligned { len: 0 });
const POWER_LOSS: Answer = Err(IoError::PowerLoss);
const TRANSIENT: Answer = Err(IoError::Transient);

const ROWS: &[Row] = &[
    Row {
        // What `disk::tests::default_shims_work_over_submission` checked of
        // one test device, of every device.
        name: "write, flush, read back",
        steps: || {
            vec![
                write(3, &[&bytes(2, 0x77).0]),
                Step::Req(IoReq::Flush),
                read(3, 2),
            ]
        },
        check: |_, o| {
            assert_eq!(o.answer(0), &Ok(None));
            assert_eq!(o.answer(1), &Ok(None));
            assert_eq!(o.answer(2), &Ok(Some(bytes(2, 0x77))));
            assert_eq!(o.media(3, 2), bytes(2, 0x77));
        },
    },
    Row {
        name: "a scatter list lands back to back",
        steps: || {
            vec![
                write(8, &[&bytes(1, 0x10).0, &bytes(2, 0x20).0]),
                read(8, 3),
            ]
        },
        check: |_, o| {
            let laid = Bytes([bytes(1, 0x10).0, bytes(2, 0x20).0].concat());
            assert_eq!(o.answer(1), &Ok(Some(laid.clone())));
            assert_eq!(o.media(8, 3), laid);
        },
    },
    Row {
        name: "misaligned write",
        steps: || {
            vec![
                write(0, &[&[0u8; 100]]),
                write(0, &[&bytes(1, 1).0, &[0u8; 100]]),
            ]
        },
        check: |_, o| {
            assert_eq!(o.answer(0), &Err(IoError::Misaligned { len: 100 }));
            assert!(matches!(o.answer(1), Err(IoError::Misaligned { .. })));
            assert_eq!(o.disk.writes, 0);
        },
    },
    Row {
        name: "a request for nothing",
        steps: || vec![write(0, &[]), write(0, &[&[]]), read(0, 0)],
        check: |_, o| {
            for i in 0..3 {
                assert_eq!(o.answer(i), &MISALIGNED_0, "request {i}");
            }
            assert_eq!((o.disk.reads, o.disk.writes), (0, 0));
        },
    },
    Row {
        name: "out of range",
        steps: || {
            vec![
                write(SECTORS - 1, &[&bytes(2, 3).0]),
                read(SECTORS, 1),
                read(u64::MAX, 2),
            ]
        },
        check: |_, o| {
            let refused = |sector, count| Err(IoError::OutOfRange { sector, count });
            assert_eq!(o.answer(0), &refused(SECTORS - 1, 2));
            assert_eq!(o.answer(1), &refused(SECTORS, 1));
            assert_eq!(o.answer(2), &refused(u64::MAX, 2));
            assert_eq!(o.disk.media_ops, 0);
        },
    },
    Row {
        // The guest names the size: it is judged before anything is sized
        // from it. (Before `exec`, three devices allocated first.)
        name: "a read of u64::MAX sectors",
        steps: || {
            vec![
                read(0, u64::MAX),
                read(1, u64::MAX / SECTOR_SIZE as u64 + 1),
            ]
        },
        check: |_, o| {
            let refused = |sector, count| Err(IoError::OutOfRange { sector, count });
            assert_eq!(o.answer(0), &refused(0, u64::MAX));
            assert_eq!(o.answer(1), &refused(1, u64::MAX / SECTOR_SIZE as u64 + 1));
        },
    },
    Row {
        // Through a ring and a retry layer a trim still reaches the
        // instance behind them: that is the only way these sectors read as
        // zeros there.
        name: "trim",
        steps: || {
            let trim = |sector, sectors| Step::Req(IoReq::Trim { sector, sectors });
            vec![
                Step::Poke(16, 0xEE),
                Step::Poke(17, 0xEE),
                Step::Poke(18, 0xEE),
                Step::Poke(19, 0xEE),
                trim(16, 4),
                write(18, &[&[0x22; SECTOR_SIZE]]),
                read(16, 4),
                trim(SECTORS - 1, 2),
            ]
        },
        check: |stack, o| {
            assert_eq!(o.answer(0), &Ok(None));
            let read = if stack.buffered() {
                sectors_of(&[0, 0, 0x22, 0])
            } else {
                sectors_of(&[0xEE, 0xEE, 0x22, 0xEE])
            };
            assert_eq!(o.answer(2), &Ok(Some(read)));
            // The disk was told nothing either way.
            assert_eq!(o.media(16, 4), sectors_of(&[0xEE, 0xEE, 0x22, 0xEE]));
            // Advisory at a disk, a range like any other at the instance.
            match stack {
                Stack::Disk | Stack::VirtioDisk | Stack::RetryVirtioDisk => {
                    assert_eq!(o.answer(3), &Ok(None))
                }
                _ => assert!(matches!(o.answer(3), Err(IoError::OutOfRange { .. }))),
            }
        },
    },
    Row {
        name: "powered-off disk",
        steps: || {
            vec![
                write(3, &[&bytes(1, 5).0]),
                Step::Sleep(SimDuration::from_millis(100)),
                Step::PowerCut,
                write(4, &[&bytes(1, 6).0]),
                // The drain finds out in the instant of the ack; whether a
                // request issued in that same instant sees the buffer it
                // then freezes is the scheduler's business, not a device's.
                Step::Sleep(SimDuration::from_millis(1)),
                read(40, 1),
                Step::Req(IoReq::Flush),
            ]
        },
        check: |stack, o| {
            assert_eq!(o.media(3, 1), bytes(1, 5), "landed before the cut");
            // The buffer takes a write whatever state the disk is in, until
            // its drain has failed; everything else asks the disk.
            let acked = if stack.buffered() {
                Ok(None)
            } else {
                POWER_LOSS
            };
            assert_eq!(o.answer(1), &acked);
            assert_eq!(o.answer(2), &POWER_LOSS, "nobody holds sector 40");
            assert_eq!(o.answer(3), &POWER_LOSS);
            assert_eq!(o.media(4, 1), sectors_of(&[0]), "never landed");
        },
    },
    Row {
        // 5 ms of a disk that fails every command: inside the retry
        // layer's 8 x 2 ms, and either form draws the same faults.
        name: "transient burst",
        steps: || {
            vec![
                Step::Poke(24, 0x77),
                Step::Sick(SimDuration::from_millis(5)),
                read(24, 1),
                write(25, &[&bytes(1, 9).0]),
            ]
        },
        check: |stack, o| {
            if stack.retries() {
                assert_eq!(o.answer(0), &Ok(Some(sectors_of(&[0x77]))));
                assert_eq!(o.answer(1), &Ok(None));
                assert!(o.disk.transient_errors > 0, "the burst was ridden out");
                assert_eq!(o.media(25, 1), bytes(1, 9));
            } else {
                assert_eq!(o.answer(0), &TRANSIENT);
            }
        },
    },
    Row {
        name: "a fault that outlasts the retry budget",
        steps: || {
            vec![
                Step::Poke(24, 0x77),
                Step::Sick(SimDuration::from_secs(10)),
                read(24, 1),
                Step::Req(IoReq::Flush),
            ]
        },
        check: |stack, o| {
            assert_eq!(o.answer(0), &TRANSIENT);
            match stack {
                Stack::RetryVirtioDisk => {
                    assert_eq!(o.answer(1), &TRANSIENT);
                    let tries = 1 + RETRIES as u64;
                    assert_eq!(o.disk.transient_errors, 2 * tries, "two spent budgets");
                }
                Stack::RetryVirtioRapiLog => {
                    assert_eq!(o.answer(1), &Ok(None), "nothing to flush");
                    assert_eq!(o.disk.transient_errors, 1 + RETRIES as u64);
                }
                _ => assert_eq!(
                    o.disk.transient_errors,
                    if stack.buffered() { 1 } else { 2 }
                ),
            }
        },
    },
];

#[test]
fn every_stack_answers_every_request_the_same_in_every_form() {
    for row in ROWS {
        for stack in STACKS {
            let inline = run(stack, Form::Exec, (row.steps)());
            (row.check)(stack, &inline);
            for form in [Form::Queued, Form::Convenience] {
                let other = run(stack, form, (row.steps)());
                assert_eq!(
                    inline, other,
                    "row {:?}, {stack:?}: exec vs {form:?}",
                    row.name
                );
            }
        }
    }
}
