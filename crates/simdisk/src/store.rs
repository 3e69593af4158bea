//! Sparse in-memory sector storage.
//!
//! Holds the *media contents* of a simulated device: only chunks that were
//! ever written occupy memory; unwritten sectors read back as zeros, like a
//! freshly TRIMmed drive. This is the ground truth that crash-recovery
//! experiments audit against.
//!
//! Bytes are stored a run at a time, not a sector at a time: the media is
//! cut into 4 KiB chunks of `CHUNK_SECTORS` sectors, a chunk gets a slot
//! the first time any of its sectors is written, and slots live in 64 KiB
//! segments zero-allocated `SEG_CHUNKS` at a time. A run of `n` sectors
//! costs one map lookup and one copy per chunk it touches instead of one
//! allocation and one lookup per sector. The unwritten sectors of a touched
//! chunk are zeros, exactly what an unwritten sector reads as.

use std::ops::Range;

use rapilog_simcore::bytes::SectorBuf;
use rapilog_simcore::hash::FastMap;

use crate::SECTOR_SIZE;

/// Sectors per chunk: the unit the store allocates and looks up.
const CHUNK_SECTORS: u64 = 8;
const CHUNK_BYTES: usize = CHUNK_SECTORS as usize * SECTOR_SIZE;

/// Chunks per segment. Chosen by the benchmark's `peak_rss_mib` (seed 1):
/// a chunk boxed on its own fragments `crash_recover`'s heap (18.5–21.2
/// MiB from run to run, against 18.4 with a box per sector); 256 KiB
/// segments sit mostly empty on `pair_failover`'s small disks (5.2–5.3
/// MiB against 4.85); 64 KiB segments hold 18.7 and 4.8.
const SEG_CHUNKS: usize = 16;

/// Sparse media image: written chunks in segments, behind a chunk → slot map.
pub struct SectorStore {
    /// Chunk (`sector / CHUNK_SECTORS`) → slot.
    slots: FastMap<u64, usize>,
    /// Slot `n` is chunk `n % SEG_CHUNKS` of segment `n / SEG_CHUNKS`.
    segs: Vec<Box<[u8]>>,
}

impl SectorStore {
    /// Creates an empty (all-zero) store.
    pub fn new() -> Self {
        SectorStore {
            slots: FastMap::default(),
            segs: Vec::new(),
        }
    }

    /// Writes a contiguous run of sectors from `data`.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not a positive multiple of the sector size.
    pub fn write_run(&mut self, first_sector: u64, data: &[u8]) {
        assert!(
            !data.is_empty() && data.len().is_multiple_of(SECTOR_SIZE),
            "write_run: bad length {}",
            data.len()
        );
        for part in chunk_parts(first_sector, data.len()) {
            let next = self.slots.len();
            let slot = *self.slots.entry(part.chunk).or_insert(next);
            if slot == next && next.is_multiple_of(SEG_CHUNKS) {
                self.segs.push(vec![0; SEG_CHUNKS * CHUNK_BYTES].into());
            }
            let chunk = &mut self.segs[slot / SEG_CHUNKS][(slot % SEG_CHUNKS) * CHUNK_BYTES..];
            let src = &data[part.bytes];
            chunk[part.at * SECTOR_SIZE..][..src.len()].copy_from_slice(src);
        }
    }

    /// Reads a contiguous run of sectors into `buf`.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is not a positive multiple of the sector size.
    pub fn read_run(&self, first_sector: u64, buf: &mut [u8]) {
        assert!(
            !buf.is_empty() && buf.len().is_multiple_of(SECTOR_SIZE),
            "read_run: bad length {}",
            buf.len()
        );
        for part in chunk_parts(first_sector, buf.len()) {
            let out = &mut buf[part.bytes];
            match self.slots.get(&part.chunk) {
                Some(&slot) => {
                    let chunk = &self.segs[slot / SEG_CHUNKS][(slot % SEG_CHUNKS) * CHUNK_BYTES..];
                    out.copy_from_slice(&chunk[part.at * SECTOR_SIZE..][..out.len()]);
                }
                None => out.fill(0),
            }
        }
    }

    /// Vectored write: lays `segments` down back to back starting at
    /// `first_sector`. This is the media boundary of the zero-copy log data
    /// path — the one place where acknowledged bytes are actually copied,
    /// like a DMA engine pulling scatter-gather descriptors.
    ///
    /// Returns the number of sectors written.
    ///
    /// # Panics
    ///
    /// Panics if any segment is not a positive multiple of the sector size.
    pub fn write_segments(&mut self, first_sector: u64, segments: &[SectorBuf]) -> u64 {
        let mut cursor = first_sector;
        for seg in segments {
            self.write_run(cursor, seg.as_slice());
            cursor += (seg.len() / SECTOR_SIZE) as u64;
        }
        cursor - first_sector
    }
}

impl Default for SectorStore {
    fn default() -> Self {
        SectorStore::new()
    }
}

/// One chunk's share of a run: the chunk, the first of its sectors the run
/// covers, and which bytes of the run's buffer go there.
struct ChunkPart {
    chunk: u64,
    at: usize,
    bytes: Range<usize>,
}

/// Splits a run of `len` bytes from `first_sector` on at chunk boundaries.
fn chunk_parts(first_sector: u64, len: usize) -> impl Iterator<Item = ChunkPart> {
    let sectors = (len / SECTOR_SIZE) as u64;
    let mut done = 0;
    std::iter::from_fn(move || {
        let sector = first_sector + done;
        let n = (CHUNK_SECTORS - sector % CHUNK_SECTORS).min(sectors - done);
        let part = ChunkPart {
            chunk: sector / CHUNK_SECTORS,
            at: (sector % CHUNK_SECTORS) as usize,
            bytes: done as usize * SECTOR_SIZE..(done + n) as usize * SECTOR_SIZE,
        };
        done += n;
        (n > 0).then_some(part)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapilog_simcore::rng::SimRng;
    use std::collections::BTreeMap;

    #[test]
    fn unwritten_sectors_read_zero() {
        let store = SectorStore::new();
        let mut buf = [0xFFu8; SECTOR_SIZE];
        store.read_run(7, &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn runs_span_sectors() {
        let mut store = SectorStore::new();
        let mut data = vec![0u8; 3 * SECTOR_SIZE];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        store.write_run(10, &data);
        let mut buf = vec![0u8; 3 * SECTOR_SIZE];
        store.read_run(10, &mut buf);
        assert_eq!(buf, data);
        // Middle sector individually.
        let mut one = vec![0u8; SECTOR_SIZE];
        store.read_run(11, &mut one);
        assert_eq!(&one[..], &data[SECTOR_SIZE..2 * SECTOR_SIZE]);
    }

    #[test]
    #[should_panic(expected = "bad length")]
    fn write_run_rejects_partial_sector() {
        let mut store = SectorStore::new();
        store.write_run(0, &[0u8; 100]);
    }

    /// Random runs of 1–200 sectors at unaligned, chunk-straddling sectors
    /// and single-sector writes, against a per-sector reference: every read
    /// matches, and the unwritten sectors of a touched chunk read as zeros.
    #[test]
    fn runs_match_a_per_sector_reference() {
        let mut rng = SimRng::seed_from_u64(0x5709E);
        let mut straddled = 0;
        for case in 0..32u64 {
            let mut store = SectorStore::new();
            let mut model: BTreeMap<u64, [u8; SECTOR_SIZE]> = BTreeMap::new();
            // A span a few segments wide, so runs overlap and chunks fill
            // partly.
            let span = rng.gen_range(16..2_000u64);
            for step in 0..100u64 {
                let sector = rng.gen_range(0..span);
                match rng.gen_range(0..3u32) {
                    0 | 1 => {
                        let n = rng.gen_range(1..=200u64);
                        let mut data = vec![0; n as usize * SECTOR_SIZE];
                        for (i, bytes) in data.chunks_exact_mut(SECTOR_SIZE).enumerate() {
                            bytes.fill((i as u64 ^ (step * 131) ^ case) as u8);
                        }
                        straddled += u64::from(sector % 8 + n > 8);
                        store.write_run(sector, &data);
                        for (s, bytes) in (sector..).zip(data.chunks_exact(SECTOR_SIZE)) {
                            model.insert(s, bytes.try_into().expect("one sector"));
                        }
                    }
                    _ => {
                        let bytes = [step as u8 ^ 0x3C; SECTOR_SIZE];
                        store.write_run(sector, &bytes);
                        model.insert(sector, bytes);
                    }
                }
                let first = rng.gen_range(0..span + 16);
                let n = rng.gen_range(1..=200usize);
                let mut got = vec![0xEE; n * SECTOR_SIZE];
                store.read_run(first, &mut got);
                for (s, bytes) in (first..).zip(got.chunks_exact(SECTOR_SIZE)) {
                    let want = model.get(&s).copied().unwrap_or([0; SECTOR_SIZE]);
                    assert!(bytes == want, "case {case} step {step}: sector {s} differs");
                }
            }
        }
        assert!(straddled > 1_000, "only {straddled} runs crossed a chunk");
        // Memory is taken a chunk and a segment at a time.
        let mut store = SectorStore::new();
        store.write_run(5, &[1; 4 * SECTOR_SIZE]);
        assert_eq!((store.slots.len(), store.segs.len()), (2, 1));
        store.write_run(16 * 8 * 3, &[1; SECTOR_SIZE]);
        assert_eq!((store.slots.len(), store.segs.len()), (3, 1));
    }
}
