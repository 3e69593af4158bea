//! Model-based randomised test for the dependable buffer.
//!
//! A reference model (plain maps) shadows every `push`/`complete`/`trim` the
//! real buffer sees; after each step occupancy and queue length must agree
//! exactly, and every sector must read as the model says: the newest acked
//! bytes while they are dirty, and once they have landed either nothing or
//! exactly what the media holds — the kept set may forget, it may never
//! lie. A read fills its buffer from the model's media first, as the
//! device does from the disk's store, and the buffer leaves kept sectors as
//! filled, so a kept range over the wrong sectors shows as wrong bytes. A
//! sector trimmed since its last write reads as that write while it is
//! dirty and as zeros from then on, never as nothing and never as what
//! landed; a write ends the trim for its sectors. Capacities are a few
//! extents, so admissions evict kept sectors all the time, and extents
//! complete by prefix and by out-of-order `complete_run` range lists alike,
//! a newer extent often landing before an older one it overlaps. Extents
//! are up to eight sectors long, so a push often lands inside an older
//! dirty one and splits its run in two. After every step the kept bytes
//! fit the room the dirty ones leave, and the index that evicts kept runs
//! holds one entry per kept run — no more, however runs were carved. The
//! ledger's count of dirty regions (maximal stretches of dirty sectors, one
//! positioning each for the emergency drain) matches the model's dirty
//! sectors, and its bytes match the buffer's. While
//! every landing so far has kept the drain's overlap rule, the dirty runs
//! number at most twice the extents accounted for after every step, the
//! overlay's memory bound (a landing that breaks the rule can leave more,
//! and the bound is not checked in the rest of that case). Operation
//! sequences come from a seeded [`SimRng`], so any divergence reproduces
//! exactly by case number.
//!
//! Potency: with `st.punch(..)` in `DependableBuffer::push` commented out
//! (a rewrite that does not end a trim: acknowledged bytes read back as
//! zeros once they land) the test fails at case 2, "sector 12 answered as
//! zeros, model: on the media, tag 7". Each of these fails it at case 0:
//! dropping the right-hand remnant in `BufSt::carve` ("kept_bytes says
//! 1536, 1024 bytes read back as kept"), releasing runs a newer extent owns
//! (no `seq` check in `BufSt::release`: "sector 14 answered with tag 3,
//! model: dirty, tag 4"), leaving a kept run's entry in the eviction index
//! when a carve removes the run ("2 kept runs, 3 in the eviction index"),
//! and not evicting on admission ("kept 1536 exceeds the room occupancy
//! 10752 leaves of capacity 11264"). So does miscounting dirty regions:
//! `BufSt::joins` blind to a dirty run starting right at a push's end ("4
//! dirty regions counted, 3 dirty") or `BufSt::release` blind to the one
//! right behind a landed run (the count underflows).

use std::collections::{BTreeMap, BTreeSet};

use rapilog::DependableBuffer;
use rapilog_simcore::rng::SimRng;
use rapilog_simcore::Sim;
use rapilog_simdisk::SECTOR_SIZE;

/// Sectors the operations touch: pushes start below 17 and are at most
/// eight sectors long.
const SECTORS: u64 = 24;

#[derive(Debug, Clone)]
enum Op {
    /// Push `sectors` sectors at `sector` (tag makes contents unique).
    Push { sector: u64, sectors: usize },
    /// Hand the head of the queue to the drain, up to `sectors` sectors.
    Pop { sectors: usize },
    /// Complete through the `frac`-quantile of issued sequence numbers.
    Complete { frac: u8 },
    /// Land one run: the issued sequence numbers whose bit in `picks` is
    /// set (by issue order, modulo 64), as `complete_run` range lists —
    /// whether or not an older extent outside the run still overlaps one,
    /// which the drain never lands first (DESIGN §12's overlap rule).
    CompleteRun { picks: u64 },
    /// The guest no longer needs `sectors` sectors from `sector` on.
    Trim { sector: u64, sectors: u64 },
}

fn arb_ops(rng: &mut SimRng) -> Vec<Op> {
    let n = rng.gen_range(1..60usize);
    (0..n)
        .map(|_| match rng.gen_range(0..9u32) {
            // Pushes outweigh completions, mirroring real drain behaviour.
            0..=4 => Op::Push {
                sector: rng.gen_range(0..17u64),
                sectors: rng.gen_range(1..=8usize),
            },
            5 => Op::Pop {
                sectors: rng.gen_range(1..16usize),
            },
            6 => Op::Complete {
                frac: rng.gen_range(0..=100u8),
            },
            7 => Op::CompleteRun {
                picks: rng.next_u64() & rng.next_u64(),
            },
            _ => Op::Trim {
                sector: rng.gen_range(0..22u64),
                sectors: rng.gen_range(1..8u64),
            },
        })
        .collect()
}

/// Ascending, disjoint, inclusive ranges covering exactly `seqs`.
fn ranges(seqs: &BTreeSet<u64>) -> Vec<(u64, u64)> {
    let mut out: Vec<(u64, u64)> = Vec::new();
    for &seq in seqs {
        match out.last_mut() {
            Some((_, hi)) if *hi + 1 == seq => *hi = seq,
            _ => out.push((seq, seq)),
        }
    }
    out
}

/// What the model expects a sector to read as.
enum Expect {
    /// Acked and not landed: exactly these bytes.
    Dirty(Vec<u8>),
    /// The newest write has landed: these bytes are on the media, and the
    /// buffer returns them or nothing.
    Media(Vec<u8>),
    /// Never written.
    Nothing,
}

impl std::fmt::Debug for Expect {
    /// A push's bytes all equal its tag: the first one names them.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Expect::Dirty(bytes) => write!(f, "dirty, tag {}", bytes[0]),
            Expect::Media(bytes) => write!(f, "on the media, tag {}", bytes[0]),
            Expect::Nothing => write!(f, "never written"),
        }
    }
}

/// Reference model of the buffer's externally visible state.
#[derive(Default)]
struct Model {
    /// All extents ever pushed: seq → (first sector, data).
    extents: BTreeMap<u64, (u64, Vec<u8>)>,
    /// Sequence numbers committed to media.
    completed: BTreeSet<u64>,
    /// Sectors trimmed and not written since.
    trimmed: BTreeSet<u64>,
}

impl Model {
    fn live(&self) -> impl Iterator<Item = (&u64, &(u64, Vec<u8>))> {
        self.extents
            .iter()
            .filter(|(seq, _)| !self.completed.contains(seq))
    }

    fn occupancy(&self) -> u64 {
        self.live().map(|(_, (_, d))| d.len() as u64).sum()
    }

    fn queued(&self) -> usize {
        self.live().count()
    }

    fn complete(&mut self, seqs: impl IntoIterator<Item = u64>) {
        let known = seqs.into_iter().filter(|s| self.extents.contains_key(s));
        self.completed.extend(known);
    }

    /// The sectors extent `seq` wrote.
    fn sectors(&self, seq: u64) -> std::ops::Range<u64> {
        let (first, data) = &self.extents[&seq];
        *first..first + (data.len() / SECTOR_SIZE) as u64
    }

    /// True if `run` may land as one under the overlap rule: an extent
    /// lands only after every older one it overlaps, or with it.
    fn in_overlap_order(&self, run: &BTreeSet<u64>) -> bool {
        run.iter().all(|&seq| {
            let mine = self.sectors(seq);
            !self.live().any(|(&older, _)| {
                let theirs = self.sectors(older);
                older < seq
                    && !run.contains(&older)
                    && theirs.start < mine.end
                    && mine.start < theirs.end
            })
        })
    }

    /// The latest extent ever to write `sector`.
    fn newest(&self, sector: u64) -> Option<(&u64, &(u64, Vec<u8>))> {
        self.extents
            .iter()
            .rev()
            .find(|(&seq, _)| self.sectors(seq).contains(&sector))
    }

    /// The bytes of `sector` on the media: the latest *landed* extent's to
    /// write it (the drain orders overlapping writes), if any.
    fn media(&self, sector: u64) -> Option<&[u8]> {
        let (_, (first, data)) = self.extents.iter().rev().find(|(&seq, _)| {
            self.completed.contains(&seq) && self.sectors(seq).contains(&sector)
        })?;
        let off = ((sector - first) as usize) * SECTOR_SIZE;
        Some(&data[off..off + SECTOR_SIZE])
    }

    /// The latest extent ever to write `sector`, if it has not landed.
    fn dirty_owner(&self, sector: u64) -> Option<u64> {
        self.newest(sector)
            .map(|(&seq, _)| seq)
            .filter(|seq| !self.completed.contains(seq))
    }

    /// The *latest* extent ever to write `sector` decides: its bytes are
    /// the newest acked ones, dirty until it completes and the media's
    /// from then on (the drain orders overlapping writes, so the newest
    /// completed write is what the media holds).
    fn expect(&self, sector: u64) -> Expect {
        let Some((seq, (first, data))) = self.newest(sector) else {
            return Expect::Nothing;
        };
        let off = ((sector - first) as usize) * SECTOR_SIZE;
        let bytes = data[off..off + SECTOR_SIZE].to_vec();
        if self.completed.contains(seq) {
            Expect::Media(bytes)
        } else {
            Expect::Dirty(bytes)
        }
    }
}

/// Compares the full visible state, and while every landing has kept the
/// overlap rule (`ordered`) the overlay's memory bound; `Err` names the
/// first divergence.
fn compare(buf: &DependableBuffer, model: &Model, ordered: bool) -> Result<(), String> {
    if buf.occupancy() != model.occupancy() {
        return Err(format!(
            "occupancy: real {} vs model {}",
            buf.occupancy(),
            model.occupancy()
        ));
    }
    if buf.queued() != model.queued() {
        return Err(format!(
            "queued: real {} vs model {}",
            buf.queued(),
            model.queued()
        ));
    }
    let mut kept = 0;
    for sector in 0..SECTORS {
        // A guest read is answered without the disk with what the buffer
        // holds, or for a kept sector with what the read found on the
        // media (a push's tag, never 0), else with zeros exactly where the
        // model says trimmed.
        let mut answer = [0xEE; SECTOR_SIZE];
        if let Some(media) = model.media(sector) {
            answer.copy_from_slice(media);
        }
        let answered = buf.read_held(sector, &mut answer).is_none();
        let held = answered && answer[0] != 0;
        let want = model.expect(sector);
        let trimmed = model.trimmed.contains(&sector);
        let agrees = match (held, &want) {
            (true, Expect::Dirty(bytes)) => answer[..] == bytes[..],
            (true, Expect::Media(bytes)) => {
                kept += SECTOR_SIZE as u64;
                answer[..] == bytes[..] && !trimmed
            }
            (false, Expect::Media(_) | Expect::Nothing) => {
                answered == trimmed && (!answered || answer == [0; SECTOR_SIZE])
            }
            _ => false,
        };
        if !agrees {
            let answer = match (answered, answer[0]) {
                (false, _) => "left to the disk".to_string(),
                (true, 0) => "answered as zeros".to_string(),
                (true, tag) => format!("answered with tag {tag}"),
            };
            return Err(format!(
                "sector {sector} {answer}, model: {want:?}, trimmed: {trimmed}"
            ));
        }
    }
    let stats = buf.stats();
    if stats.kept_bytes != kept {
        return Err(format!(
            "kept_bytes says {}, {kept} bytes read back as kept",
            stats.kept_bytes
        ));
    }
    if kept > buf.capacity() - buf.occupancy() {
        return Err(format!(
            "kept {kept} exceeds the room occupancy {} leaves of capacity {}",
            buf.occupancy(),
            buf.capacity()
        ));
    }
    // Each maximal stretch of dirty sectors is one region the emergency
    // drain positions for; the instance's ledger counts them as the buffer
    // goes, and its bytes, the sum over the shards, are this one shard's.
    let dirty = |s: u64| matches!(model.expect(s), Expect::Dirty(_));
    let regions = (0..SECTORS)
        .filter(|&s| dirty(s) && (s == 0 || !dirty(s - 1)))
        .count() as u64;
    let (bytes, counted) = buf.regions();
    if counted != regions || bytes != buf.occupancy() {
        return Err(format!(
            "{counted} dirty regions counted, {regions} dirty; ledger holds {bytes} B"
        ));
    }
    let (runs, indexed) = buf.kept_runs();
    if runs != indexed {
        return Err(format!("{runs} kept runs, {indexed} in the eviction index"));
    }
    if ordered && buf.dirty_runs() > 2 * buf.queued() {
        return Err(format!(
            "{} dirty runs for {} extents",
            buf.dirty_runs(),
            buf.queued()
        ));
    }
    Ok(())
}

/// What the cases exercised, summed.
#[derive(Default)]
struct Tally {
    /// Kept bytes, summed over every step.
    kept: u64,
    /// Pushes that needed room the kept set was using.
    evicting: u64,
    /// Pushes that landed inside one older dirty extent, splitting its run.
    splits: u64,
    /// Landings that broke the overlap rule.
    newer_first: u64,
    /// Steps after which the memory bound was checked.
    bounded: u64,
}

#[test]
fn buffer_matches_reference_model() {
    let mut case_rng = SimRng::seed_from_u64(0xB0FF);
    let mut total = Tally::default();
    for case in 0..1024 {
        let ops = arb_ops(&mut case_rng);
        // Eight sectors hold any one push; a few dozen are soon full.
        let capacity = case_rng.gen_range(8..=32u64) * SECTOR_SIZE as u64;
        let mut sim = Sim::new(1);
        let buf = DependableBuffer::new(capacity);
        let b2 = buf.clone();
        let outcome = std::rc::Rc::new(std::cell::RefCell::new(None::<Result<Tally, String>>));
        let o2 = std::rc::Rc::clone(&outcome);
        sim.spawn(async move {
            let mut model = Model::default();
            let mut tag = 0u8;
            let mut seqs: Vec<u64> = Vec::new();
            let mut tally = Tally::default();
            let mut ordered = true;
            for op in ops {
                match op {
                    Op::Push { sector, sectors } => {
                        tag = tag.wrapping_add(1);
                        let data = vec![tag; sectors * SECTOR_SIZE];
                        if model.occupancy() + data.len() as u64 > capacity {
                            // No room among the dirty bytes: the drain
                            // catches up first. The push below must then
                            // get in without waiting on kept ones.
                            b2.complete_seqs(0, u64::MAX);
                            model.complete(seqs.iter().copied());
                        }
                        let kept = b2.stats().kept_bytes;
                        let idle = capacity - model.occupancy() - data.len() as u64;
                        tally.evicting += u64::from(kept > idle);
                        let end = sector + sectors as u64;
                        let left = sector.checked_sub(1).and_then(|s| model.dirty_owner(s));
                        tally.splits += u64::from(left.is_some() && left == model.dirty_owner(end));
                        let seq = b2
                            .push(sector, data.clone().into())
                            .await
                            .expect("not frozen");
                        for s in sector..end {
                            model.trimmed.remove(&s);
                        }
                        model.extents.insert(seq, (sector, data));
                        seqs.push(seq);
                    }
                    Op::Pop { sectors } => {
                        b2.pop_batch(sectors * SECTOR_SIZE);
                    }
                    Op::Complete { frac } => {
                        if seqs.is_empty() {
                            continue;
                        }
                        let idx = (frac as usize * (seqs.len() - 1)) / 100;
                        b2.complete_seqs(0, seqs[idx]);
                        model.complete(seqs[..=idx].iter().copied());
                    }
                    Op::CompleteRun { picks } => {
                        let run: BTreeSet<u64> = seqs
                            .iter()
                            .enumerate()
                            .filter(|(i, _)| picks >> (i % 64) & 1 == 1)
                            .map(|(_, seq)| *seq)
                            .collect();
                        let in_order = model.in_overlap_order(&run);
                        tally.newer_first += u64::from(!in_order);
                        ordered &= in_order;
                        b2.complete_run(&ranges(&run));
                        model.complete(run);
                    }
                    Op::Trim { sector, sectors } => {
                        b2.trim(sector, sectors);
                        model.trimmed.extend(sector..sector + sectors);
                    }
                }
                if let Err(divergence) = compare(&b2, &model, ordered) {
                    *o2.borrow_mut() = Some(Err(divergence));
                    return;
                }
                tally.kept += b2.stats().kept_bytes;
                tally.bounded += u64::from(ordered);
            }
            *o2.borrow_mut() = Some(Ok(tally));
        });
        sim.run();
        let outcome = outcome.borrow_mut().take();
        match outcome.expect("a push slept although its bytes fitted the capacity") {
            Ok(tally) => {
                total.kept += tally.kept;
                total.evicting += tally.evicting;
                total.splits += tally.splits;
                total.newer_first += tally.newer_first;
                total.bounded += tally.bounded;
            }
            Err(divergence) => panic!("case {case}: model divergence: {divergence}"),
        }
        assert_eq!(buf.stats().backpressure_events, 0, "case {case}");
    }
    // The cases did exercise what they are for.
    assert!(total.kept > 0, "nothing was ever kept");
    assert!(
        total.evicting > 1000,
        "only {} pushes needed room the kept set was using",
        total.evicting
    );
    assert!(
        total.splits > 500,
        "only {} pushes split an older dirty run",
        total.splits
    );
    assert!(
        total.newer_first > 200,
        "only {} landings broke the overlap rule",
        total.newer_first
    );
    assert!(
        total.bounded > 20_000,
        "the memory bound was checked after only {} steps",
        total.bounded
    );
}
