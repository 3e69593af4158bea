//! The audited guest writer: a task writing tagged, sequenced sectors, the
//! journal of what it was told, and the media audit of an image against it.
//!
//! Sequence `seq` (from 1) goes to sector `base + (seq − 1) mod slots`, as
//! the sequence (8 bytes, little-endian), the writer's tag and a fill byte
//! derived from the tag: an image names the writer and write behind each
//! sector it holds.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use rapilog::RapiLogDevice;
use rapilog_simcore::stats::Histogram;
use rapilog_simcore::{DomainId, JoinHandle, SimCtx, SimDuration};
use rapilog_simdisk::{BlockDevice, Disk, SECTOR_SIZE};

/// First log-disk sector of the co-tenant rings: far above anything the
/// database WAL touches on the 128 MiB+ log disks the trials use, which
/// every multi-tenant trial checks once it has recovered.
pub(crate) const TENANT_BASE: u64 = 200_000;

/// The bytes a writer tagged `tag` puts down for sequence `seq`.
pub(crate) fn payload(tag: u64, seq: u64) -> Vec<u8> {
    let mut data = vec![0xA0u8.wrapping_add(tag as u8); SECTOR_SIZE];
    data[..8].copy_from_slice(&seq.to_le_bytes());
    data[8] = tag as u8;
    data
}

/// One audited writer's acknowledgement journal: per slot, the highest
/// sequence acknowledged and the highest submitted.
#[derive(Debug, Clone, Default)]
pub struct WriterJournal {
    /// The writer's tag: a co-tenant's id (1-based; tenant 0 is the
    /// database WAL), a failover client's index.
    pub tenant: u64,
    /// First sector of the writer's slots.
    pub(crate) base: u64,
    /// Per-slot highest sequence whose write was acknowledged.
    pub(crate) acked: Vec<u64>,
    /// Per-slot highest sequence ever submitted.
    pub(crate) attempted: Vec<u64>,
    /// Count of acknowledged writes (across slots).
    pub acked_writes: u64,
    /// The write that ended the writer came back as an error.
    pub(crate) failed: bool,
}

impl WriterJournal {
    /// Co-tenant `t`'s: a ring of 64 sectors, lapped until the trial stops.
    pub(crate) fn co_tenant(t: u64) -> WriterJournal {
        Self::at(t, TENANT_BASE + (t - 1) * 64, 64)
    }

    /// Failover client `c`'s: a sector of its own for each of its `writes`,
    /// inside the 256 it reserves.
    pub(crate) fn client(c: u64, writes: u64) -> WriterJournal {
        assert!(writes <= 256, "a client reserves 256 sectors");
        Self::at(c, 1024 + c * 256, writes as usize)
    }

    fn at(tag: u64, base: u64, slots: usize) -> WriterJournal {
        WriterJournal {
            tenant: tag,
            base,
            acked: vec![0; slots],
            attempted: vec![0; slots],
            ..WriterJournal::default()
        }
    }

    /// Writes submitted: sequences are dense from 1.
    pub(crate) fn attempted_writes(&self) -> u64 {
        self.attempted.iter().copied().max().unwrap_or(0)
    }
}

/// Audited writers in one domain, each of up to `writes` writes `think`
/// apart on average, with what they share: the stop flag a trial raises
/// after its fault, and their ack latencies (µs).
pub(crate) struct Guest {
    pub(crate) domain: DomainId,
    writes: u64,
    think: SimDuration,
    pub(crate) stop: Rc<Cell<bool>>,
    pub(crate) latency: Rc<RefCell<Histogram>>,
    journals: Vec<Rc<RefCell<WriterJournal>>>,
    handles: Vec<JoinHandle<()>>,
}

impl Guest {
    pub(crate) fn new(domain: DomainId, writes: u64, think: SimDuration) -> Guest {
        Guest {
            domain,
            writes,
            think,
            stop: Rc::new(Cell::new(false)),
            latency: Rc::new(RefCell::new(Histogram::new())),
            journals: Vec::new(),
            handles: Vec::new(),
        }
    }

    /// Spawns the writer of `journal` on `dev`: one FUA write at a time, a
    /// think (one RNG fork) after each acknowledged one, until its writes
    /// are done, the stop flag is up or a write fails.
    pub(crate) fn spawn(&mut self, ctx: &SimCtx, dev: &RapiLogDevice, journal: WriterJournal) {
        let (tag, base, slots) = (journal.tenant, journal.base, journal.acked.len() as u64);
        let (writes, think) = (self.writes, self.think);
        let j = Rc::new(RefCell::new(journal));
        self.journals.push(Rc::clone(&j));
        let (dev, ctx2) = (dev.clone(), ctx.clone());
        let (stop, lat) = (Rc::clone(&self.stop), Rc::clone(&self.latency));
        self.handles.push(ctx.spawn_in(self.domain, async move {
            let mut seq = 0u64;
            while seq < writes && !stop.get() {
                seq += 1;
                let slot = ((seq - 1) % slots) as usize;
                j.borrow_mut().attempted[slot] = seq;
                let t0 = ctx2.now();
                match dev
                    .write(base + slot as u64, &payload(tag, seq), true)
                    .await
                {
                    Ok(()) => {
                        let mut j = j.borrow_mut();
                        j.acked[slot] = seq;
                        j.acked_writes += 1;
                        lat.borrow_mut()
                            .record(ctx2.now().duration_since(t0).as_micros());
                    }
                    // Frozen buffer, halted shipper or dead disk: the
                    // machine is dying, this writer is done.
                    Err(_) => {
                        j.borrow_mut().failed = true;
                        break;
                    }
                }
                if !think.is_zero() {
                    let ns = rapilog_simcore::rng::exponential(
                        &mut ctx2.fork_rng(),
                        think.as_nanos() as f64,
                    );
                    ctx2.sleep(SimDuration::from_nanos(ns as u64)).await;
                }
            }
        }));
    }

    /// Waits for every writer to end.
    pub(crate) async fn finish(&mut self) {
        for h in self.handles.drain(..) {
            let _ = h.await;
        }
    }

    /// The writers' journals as they stand, in spawn order.
    pub(crate) fn journals(&self) -> Vec<WriterJournal> {
        self.journals.iter().map(|j| j.borrow().clone()).collect()
    }
}

/// Each of `j`'s slots on `disk`'s media: `Ok(seq)` for the writer's own
/// bytes (0: never written), else `Err` with bytes 8 and 9 (tag, fill).
pub(crate) fn media_seqs(disk: &Disk, j: &WriterJournal) -> Vec<Result<u64, (u8, u8)>> {
    // One sector at a time through one buffer: an image of every slot
    // would be a fresh 32 KiB per journal and disk in every trial.
    let (own, mut s) = (payload(j.tenant, 0), [0u8; SECTOR_SIZE]);
    (j.base..j.base + j.acked.len() as u64)
        .map(|sector| {
            disk.peek_media(sector, &mut s);
            if s[8..] == own[8..] || s == [0u8; SECTOR_SIZE] {
                Ok(u64::from_le_bytes(s[..8].try_into().expect("8 bytes")))
            } else {
                Err((s[8], s[9]))
            }
        })
        .collect()
}

/// The media audit: every slot of `j` on `disk` holds the writer's own
/// bytes, or nothing, at a sequence in `acked..=attempted`. Violations name
/// the writer `who` (`tenant`, `client`); returns [`media_seqs`].
pub(crate) fn audit(
    disk: &Disk,
    j: &WriterJournal,
    who: &str,
    violations: &mut Vec<String>,
) -> Vec<Result<u64, (u8, u8)>> {
    let (t, seqs) = (j.tenant, media_seqs(disk, j));
    for (slot, &media) in seqs.iter().enumerate() {
        let (acked, attempted) = (j.acked[slot], j.attempted[slot]);
        violations.push(match media {
            Ok(0) if acked > 0 => {
                format!("{who} {t}: slot {slot} lost acked seq {acked} (media empty)")
            }
            Err((tag, fill)) => {
                format!("{who} {t}: foreign data in slot {slot} (tag {tag}, fill {fill:#04x})")
            }
            Ok(seq) if seq < acked || seq > attempted => format!(
                "{who} {t}: slot {slot} media seq {seq} outside \
                 acked..attempted [{acked}, {attempted}]"
            ),
            _ => continue,
        });
    }
    seqs
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapilog_simcore::Sim;
    use rapilog_simdisk::specs;

    /// Tenant 1's ring after 66 writes, the last two unacknowledged: slot 0
    /// holds seq 65 (acked), slot 1 seq 66 (attempted only), slots 2..63
    /// their first lap (acked). Returns the disk, its clean image, and the
    /// journal.
    fn ring() -> (Sim, Disk, WriterJournal) {
        let sim = Sim::new(1);
        let disk = Disk::new(&sim.ctx(), specs::instant(256 << 20));
        let mut j = WriterJournal::co_tenant(1);
        for seq in 1..=66u64 {
            let slot = ((seq - 1) % 64) as usize;
            j.attempted[slot] = seq;
            if seq <= 65 {
                j.acked[slot] = seq;
                j.acked_writes += 1;
            }
            disk.poke_media(j.base + slot as u64, &payload(1, seq));
        }
        (sim, disk, j)
    }

    fn violations(disk: &Disk, j: &WriterJournal) -> Vec<String> {
        let mut v = Vec::new();
        audit(disk, j, "tenant", &mut v);
        v
    }

    #[test]
    fn a_clean_image_passes_and_reports_its_seqs() {
        let (_sim, disk, j) = ring();
        let mut v = Vec::new();
        let seqs = audit(&disk, &j, "tenant", &mut v);
        assert!(v.is_empty(), "{v:?}");
        assert_eq!(seqs[0], Ok(65));
        assert_eq!(seqs[1], Ok(66));
        assert_eq!(seqs[2], Ok(3));
        assert_eq!(j.attempted_writes(), 66);
    }

    #[test]
    fn each_violation_class_fires_once_with_its_message() {
        let (_sim, disk, j) = ring();
        let base = j.base;
        let cases: [(u64, Vec<u8>, &str); 4] = [
            (
                2,
                vec![0; SECTOR_SIZE],
                "tenant 1: slot 2 lost acked seq 3 (media empty)",
            ),
            (
                3,
                payload(2, 4),
                "tenant 1: foreign data in slot 3 (tag 2, fill 0xa2)",
            ),
            (
                0,
                payload(1, 1),
                "tenant 1: slot 0 media seq 1 outside acked..attempted [65, 65]",
            ),
            (
                1,
                payload(1, 67),
                "tenant 1: slot 1 media seq 67 outside acked..attempted [2, 66]",
            ),
        ];
        for (slot, bytes, want) in cases {
            let mut clean = vec![0u8; SECTOR_SIZE];
            disk.peek_media(base + slot, &mut clean);
            disk.poke_media(base + slot, &bytes);
            assert_eq!(violations(&disk, &j), vec![want.to_string()]);
            disk.poke_media(base + slot, &clean);
        }
        // Byte-exact: the right tag and fill with one byte flipped inside.
        let mut torn = payload(1, 6);
        torn[300] ^= 1;
        disk.poke_media(base + 5, &torn);
        assert_eq!(
            violations(&disk, &j),
            vec!["tenant 1: foreign data in slot 5 (tag 1, fill 0xa1)".to_string()]
        );
    }
}
