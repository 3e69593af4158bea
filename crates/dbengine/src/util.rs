//! Small utilities: CRC-32 and byte-codec helpers.
//!
//! The CRC is used by both the WAL record format and the page format;
//! implementing it here (slice-by-8, compile-time tables) avoids pulling
//! in a dependency for something that is part of the on-disk format under
//! study. Every WAL record is checksummed on append *and* on every
//! recovery scan, so this sits squarely on the commit and recovery hot
//! paths — the table-driven form processes eight bytes per step instead
//! of one bit.

/// Eight lookup tables for slice-by-8: `CRC_TABLES[0]` is the classic
/// byte-at-a-time table; `CRC_TABLES[j][b]` is the CRC of byte `b`
/// followed by `j` zero bytes, letting eight input bytes fold in
/// parallel.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            let mask = (c & 1).wrapping_neg();
            c = (c >> 1) ^ (0xEDB8_8320 & mask);
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[j - 1][i];
            t[j][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    t
}

/// CRC-32 (IEEE 802.3 polynomial, reflected), as used by zlib.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// CRC-32 of `seed`'s four little-endian bytes followed by `data`; the
/// seed's bytes fold in as one slice-by-4 step.
pub(crate) fn crc32_seeded(seed: u32, data: &[u8]) -> u32 {
    let (x, t) = ((!seed).to_le_bytes().map(usize::from), &CRC_TABLES);
    crc32_update(t[3][x[0]] ^ t[2][x[1]] ^ t[1][x[2]] ^ t[0][x[3]], data) ^ 0xFFFF_FFFF
}

/// Incremental form: feed `state` from a previous call (start with
/// `0xFFFF_FFFF`, finish by XORing with `0xFFFF_FFFF`).
fn crc32_update(mut state: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ state;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        state = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        state = (state >> 8) ^ CRC_TABLES[0][((state ^ b as u32) & 0xFF) as usize];
    }
    state
}

/// Appends a `u32` little-endian.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` little-endian.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v` as a LEB128 varint: 7 bits a byte, low first; a set top bit means "more".
pub(crate) fn put_var(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Appends a length-prefixed byte string (varint length).
pub fn put_bytes(buf: &mut Vec<u8>, v: &[u8]) {
    put_var(buf, v.len() as u64);
    buf.extend_from_slice(v);
}

/// Appends `after` as its delta from `before`: the lengths of the prefix
/// and of the suffix the two share, as varints, then the differing middle,
/// which runs to the end of the data (it carries no length).
pub(crate) fn put_delta(buf: &mut Vec<u8>, before: &[u8], after: &[u8]) {
    let same = |&(b, a): &(&u8, &u8)| b == a;
    let prefix = before.iter().zip(after).take_while(same).count();
    let (b, a) = (before[prefix..].iter().rev(), after[prefix..].iter().rev());
    let suffix = b.zip(a).take_while(same).count();
    put_var(buf, prefix as u64);
    put_var(buf, suffix as u64);
    buf.extend_from_slice(&after[prefix..after.len() - suffix]);
}

/// Cursor for decoding the formats written by the `put_*` helpers.
pub struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Wraps a byte slice.
    pub fn new(data: &'a [u8]) -> Self {
        Cursor { data, pos: 0 }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.remaining() < n {
            return None;
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Some(s)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Option<u16> {
        self.take(2).map(|s| u16::from_le_bytes([s[0], s[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]))
    }

    /// Reads a [`put_var`] varint into the integer type it must fit: `None`
    /// past the type, past 64 bits or past ten bytes.
    pub(crate) fn var<T: TryFrom<u64>>(&mut self) -> Option<T> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = u64::from(self.u8()?);
            v |= (b & 0x7F) << shift;
            if b < 0x80 && (shift < 63 || b < 2) {
                return T::try_from(v).ok();
            }
        }
        None
    }

    /// Reads a length-prefixed byte string; unless `keep`, steps over it
    /// and returns it empty, allocating nothing.
    pub fn bytes(&mut self, keep: bool) -> Option<Vec<u8>> {
        let len = self.var()?;
        self.take(len)
            .map(|s| (if keep { s } else { &[] }).to_vec())
    }

    /// Reads a length-prefixed before-image and, as [`put_delta`] wrote it,
    /// the after-image rebuilt from it; unless `keep`, steps over both and
    /// returns them empty, allocating nothing. `None` if the shared prefix
    /// and suffix overrun the before-image.
    pub(crate) fn delta(&mut self, keep: bool) -> Option<(Vec<u8>, Vec<u8>)> {
        let len = self.var()?;
        let (before, prefix, suffix) = (self.take(len)?, self.var()?, self.var()?);
        let kept = before.len().checked_sub(suffix).filter(|&k| prefix <= k)?;
        let middle = self.take(self.remaining())?;
        let after = [&before[..prefix], middle, &before[kept..]];
        let images = keep.then(|| (before.to_vec(), after.concat()));
        Some(images.unwrap_or_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard zlib test vectors.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"hello world"), 0x0D4A_1185);
    }

    #[test]
    fn crc32_incremental_matches_oneshot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let whole = crc32(data);
        let mut st = 0xFFFF_FFFFu32;
        st = crc32_update(st, &data[..10]);
        st = crc32_update(st, &data[10..]);
        assert_eq!(st ^ 0xFFFF_FFFF, whole);
        for cut in 0..=data.len() - 4 {
            let seed = u32::from_le_bytes(data[cut..cut + 4].try_into().unwrap());
            assert_eq!(crc32_seeded(seed, &data[cut + 4..]), crc32(&data[cut..]));
        }
    }

    #[test]
    fn codec_roundtrip() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&0xABCDu16.to_le_bytes());
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, 0x0123_4567_89AB_CDEF);
        put_bytes(&mut buf, b"payload");
        buf.push(9);
        let mut c = Cursor::new(&buf);
        assert_eq!(c.u16(), Some(0xABCD));
        assert_eq!(c.u32(), Some(0xDEAD_BEEF));
        assert_eq!(c.u64(), Some(0x0123_4567_89AB_CDEF));
        assert_eq!(c.bytes(true).as_deref(), Some(&b"payload"[..]));
        assert_eq!(c.u8(), Some(9));
        assert_eq!(c.u8(), None, "exhausted");
    }

    #[test]
    fn varints_take_a_byte_per_seven_bits_and_refuse_what_does_not_fit() {
        for v in [
            0,
            1,
            127,
            128,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX >> 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_var(&mut buf, v);
            let width = (64 - v.leading_zeros()).max(1).div_ceil(7) as usize;
            assert_eq!(buf.len(), width, "{v}");
            let mut c = Cursor::new(&buf);
            assert_eq!(c.var::<u64>(), Some(v));
            assert_eq!(c.remaining(), 0);
            assert_eq!(Cursor::new(&buf[..width - 1]).var::<u64>(), None, "cut");
        }
        let mut eleven = vec![0x80; 10];
        eleven.push(0);
        assert_eq!(Cursor::new(&eleven).var::<u64>(), None, "eleven bytes");
        let mut wide = vec![0xFF; 9];
        wide.push(0x02);
        assert_eq!(Cursor::new(&wide).var::<u64>(), None, "a 65th bit");
        let mut buf = Vec::new();
        put_var(&mut buf, 1 << 16);
        assert_eq!(Cursor::new(&buf).var::<u16>(), None, "past the type");
    }

    #[test]
    fn cursor_rejects_truncated_reads() {
        let mut buf = Vec::new();
        put_var(&mut buf, 100); // claims 100 bytes follow
        buf.extend_from_slice(b"short");
        let mut c = Cursor::new(&buf);
        assert_eq!(c.bytes(true), None);
    }
}
