//! Fixed-slot page format.
//!
//! Tables in this engine are fixed-record files (ISAM-style): each table
//! owns a contiguous range of 8 KiB pages, and each page holds a fixed
//! number of slots of the table's `slot_size`. A slot stores its key, so
//! the in-memory key→slot index is derived state, rebuilt by scanning at
//! open — nothing about the index needs logging.
//!
//! Pages carry an LSN (for ARIES redo idempotence: apply a record only if
//! `record.lsn > page.lsn`) and a CRC (torn-page detection; a corrupt page
//! found during recovery is zeroed and rebuilt from the full-page image
//! that the WAL rule guarantees precedes any post-checkpoint delta).

use crate::types::{Key, Lsn, TableId};
use crate::util::crc32;

/// Page size in bytes (16 sectors).
pub const PAGE_SIZE: usize = 8192;
/// Sectors per page.
pub const PAGE_SECTORS: u64 = (PAGE_SIZE / 512) as u64;
/// Header: magic(4) crc(4) lsn(8) table(2) slot_size(2) reserved(12).
pub const PAGE_HEADER: usize = 32;
/// Per-slot overhead: used(1) key(8) len(2).
pub const SLOT_OVERHEAD: usize = 11;

const PAGE_MAGIC: u32 = 0x5047_4C52; // "PGLR"

/// Slots that fit on a page for a given slot size.
pub fn slots_per_page(slot_size: usize) -> usize {
    (PAGE_SIZE - PAGE_HEADER) / (SLOT_OVERHEAD + slot_size)
}

/// Result of interpreting raw page bytes.
pub enum PageLoad {
    /// All zeroes — never written.
    Fresh,
    /// Valid page.
    Valid(Page),
    /// Non-blank but failed magic/CRC: torn or corrupt.
    Corrupt,
}

/// An in-memory page.
#[derive(Clone)]
pub struct Page {
    bytes: Vec<u8>,
}

impl Page {
    /// Creates a zero-filled page owned by `table` with the given slot
    /// layout.
    pub fn new(table: TableId, slot_size: u16) -> Page {
        let mut bytes = vec![0u8; PAGE_SIZE];
        bytes[0..4].copy_from_slice(&PAGE_MAGIC.to_le_bytes());
        bytes[16..18].copy_from_slice(&table.0.to_le_bytes());
        bytes[18..20].copy_from_slice(&slot_size.to_le_bytes());
        Page { bytes }
    }

    /// Interprets raw device bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not exactly one page long.
    pub fn load(bytes: &[u8]) -> PageLoad {
        assert_eq!(bytes.len(), PAGE_SIZE, "Page::load: wrong length");
        if bytes.iter().all(|&b| b == 0) {
            return PageLoad::Fresh;
        }
        let magic = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        if magic != PAGE_MAGIC {
            return PageLoad::Corrupt;
        }
        let stored = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        let mut copy = bytes.to_vec();
        copy[4..8].fill(0);
        if crc32(&copy) != stored {
            return PageLoad::Corrupt;
        }
        PageLoad::Valid(Page { bytes: copy })
    }

    /// The page LSN.
    pub fn lsn(&self) -> Lsn {
        Lsn(u64::from_le_bytes(
            self.bytes[8..16].try_into().expect("header slice"),
        ))
    }

    /// Sets the page LSN (after applying a logged change).
    pub fn set_lsn(&mut self, lsn: Lsn) {
        self.bytes[8..16].copy_from_slice(&lsn.0.to_le_bytes());
    }

    /// The slot size recorded in the header.
    fn slot_size(&self) -> u16 {
        u16::from_le_bytes(self.bytes[18..20].try_into().expect("header slice"))
    }

    fn slot_offset(&self, idx: u16) -> usize {
        let ss = self.slot_size() as usize;
        let off = PAGE_HEADER + idx as usize * (SLOT_OVERHEAD + ss);
        assert!(
            off + SLOT_OVERHEAD + ss <= PAGE_SIZE,
            "slot {idx} out of range for slot_size {ss}"
        );
        off
    }

    /// Slot `idx`'s offset and key; `None` if unoccupied.
    fn slot_key(&self, idx: u16) -> Option<(usize, Key)> {
        let off = self.slot_offset(idx);
        let key = u64::from_le_bytes(self.bytes[off + 1..off + 9].try_into().expect("key"));
        (self.bytes[off] != 0).then_some((off, key))
    }

    /// Reads slot `idx`; `None` if unoccupied.
    pub fn read_slot(&self, idx: u16) -> Option<(Key, Vec<u8>)> {
        let (off, key) = self.slot_key(idx)?;
        let len =
            u16::from_le_bytes(self.bytes[off + 9..off + 11].try_into().expect("len")) as usize;
        Some((key, self.bytes[off + 11..off + 11 + len].to_vec()))
    }

    /// Writes slot `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `row` exceeds the slot size.
    pub fn write_slot(&mut self, idx: u16, key: Key, row: &[u8]) {
        let ss = self.slot_size() as usize;
        assert!(row.len() <= ss, "row {} > slot {}", row.len(), ss);
        let off = self.slot_offset(idx);
        self.bytes[off] = 1;
        self.bytes[off + 1..off + 9].copy_from_slice(&key.to_le_bytes());
        self.bytes[off + 9..off + 11].copy_from_slice(&(row.len() as u16).to_le_bytes());
        self.bytes[off + 11..off + 11 + row.len()].copy_from_slice(row);
        // Zero the slack so page images are deterministic.
        self.bytes[off + 11 + row.len()..off + 11 + ss].fill(0);
    }

    /// Clears slot `idx`.
    pub fn clear_slot(&mut self, idx: u16) {
        let ss = self.slot_size() as usize;
        let off = self.slot_offset(idx);
        self.bytes[off..off + SLOT_OVERHEAD + ss].fill(0);
    }

    /// Lists occupied slots as `(slot, key)` — no row-byte copies, since
    /// the index-rebuild scan that calls this only needs the keys.
    pub fn occupied(&self) -> Vec<(u16, Key)> {
        let n = slots_per_page(self.slot_size() as usize) as u16;
        (0..n)
            .filter_map(|i| Some((i, self.slot_key(i)?.1)))
            .collect()
    }

    /// Serialises for the device, computing the CRC.
    pub fn to_disk_bytes(&self) -> Vec<u8> {
        let mut out = self.bytes.clone();
        out[4..8].fill(0);
        let crc = crc32(&out);
        out[4..8].copy_from_slice(&crc.to_le_bytes());
        out
    }

    /// Raw in-memory image (CRC field zeroed), used for full-page records.
    pub fn image(&self) -> &[u8] {
        &self.bytes
    }

    /// Replaces the whole page from a full-page image.
    ///
    /// # Panics
    ///
    /// Panics if the image is not page sized.
    pub fn restore_image(&mut self, image: &[u8]) {
        assert_eq!(image.len(), PAGE_SIZE, "bad full-page image");
        self.bytes.copy_from_slice(image);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Page {
        /// The owning table recorded in the header.
        fn table(&self) -> TableId {
            TableId(u16::from_le_bytes(
                self.bytes[16..18].try_into().expect("header slice"),
            ))
        }
    }

    #[test]
    fn slots_per_page_math() {
        // (8192-32) / (11+100) = 73.
        assert_eq!(slots_per_page(100), 73);
        assert_eq!(slots_per_page(500), 15);
        // A giant slot still fits at least once.
        assert!(slots_per_page(8000) >= 1);
    }

    #[test]
    fn slot_write_read_clear() {
        let mut p = Page::new(TableId(3), 64);
        assert_eq!(p.read_slot(0), None);
        p.write_slot(0, 42, b"hello");
        p.write_slot(5, 99, b"");
        assert_eq!(p.read_slot(0), Some((42, b"hello".to_vec())));
        assert_eq!(p.read_slot(5), Some((99, Vec::new())));
        assert_eq!(p.occupied().len(), 2);
        p.clear_slot(0);
        assert_eq!(p.read_slot(0), None);
        assert_eq!(p.occupied().len(), 1);
    }

    #[test]
    #[should_panic(expected = "row 65 > slot 64")]
    fn oversize_row_panics() {
        let mut p = Page::new(TableId(3), 64);
        p.write_slot(0, 1, &[0u8; 65]);
    }

    #[test]
    fn disk_roundtrip_preserves_everything() {
        let mut p = Page::new(TableId(7), 32);
        p.set_lsn(Lsn(123456));
        p.write_slot(2, 1000, b"row-data");
        let bytes = p.to_disk_bytes();
        match Page::load(&bytes) {
            PageLoad::Valid(q) => {
                assert_eq!(q.lsn(), Lsn(123456));
                assert_eq!(q.table(), TableId(7));
                assert_eq!(q.slot_size(), 32);
                assert_eq!(q.read_slot(2), Some((1000, b"row-data".to_vec())));
            }
            _ => panic!("expected valid page"),
        }
    }

    #[test]
    fn load_detects_fresh_and_corrupt() {
        assert!(matches!(Page::load(&vec![0u8; PAGE_SIZE]), PageLoad::Fresh));
        let p = Page::new(TableId(1), 16);
        let mut bytes = p.to_disk_bytes();
        bytes[100] ^= 0xFF; // flip a data bit: CRC now wrong
        assert!(matches!(Page::load(&bytes), PageLoad::Corrupt));
        let mut bad_magic = p.to_disk_bytes();
        bad_magic[0] = 0;
        assert!(matches!(Page::load(&bad_magic), PageLoad::Corrupt));
    }

    #[test]
    fn restore_image_roundtrip() {
        let mut a = Page::new(TableId(1), 16);
        a.write_slot(0, 5, b"abc");
        a.set_lsn(Lsn(9));
        let mut b = Page::new(TableId(1), 16);
        b.restore_image(a.image());
        assert_eq!(b.read_slot(0), Some((5, b"abc".to_vec())));
        assert_eq!(b.lsn(), Lsn(9));
    }

    #[test]
    fn write_slot_zeroes_slack() {
        let mut p = Page::new(TableId(1), 16);
        p.write_slot(0, 1, &[0xFF; 16]);
        p.write_slot(0, 1, b"ab");
        // Re-reading returns only the new bytes.
        assert_eq!(p.read_slot(0), Some((1, b"ab".to_vec())));
        // And the image is deterministic: a fresh page with the same write
        // produces identical bytes.
        let mut q = Page::new(TableId(1), 16);
        q.write_slot(0, 1, b"ab");
        assert_eq!(p.image(), q.image());
    }
}
