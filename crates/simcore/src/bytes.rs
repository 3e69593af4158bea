//! Cheaply sliceable, reference-counted byte buffers for the log data path.
//!
//! The RapiLog stack moves acknowledged log bytes through many layers: the
//! guest WAL, the virtio transport, the virtual log disk, the dependable
//! buffer's queue *and* its read-your-writes overlay, the drain's
//! consolidated runs, and finally the media model. Naively each hand-off is
//! a `Vec<u8>` copy, which makes the simulator's hot path slower than the
//! design it models. [`SectorBuf`] fixes that: it is an `Rc`-backed view
//! into an immutable byte allocation with O(1) clone and O(1) sub-slicing,
//! so every layer can hold *the same bytes* and the single real copy happens
//! at the media boundary — exactly where DMA would put it on real hardware.
//!
//! A [`SectorPool`] recycles the backing allocations so steady-state log
//! flushing allocates nothing at all.

use std::cell::RefCell;
use std::fmt;
use std::ops::{Deref, Range};
use std::rc::Rc;

/// An immutable, reference-counted byte slice with cheap sub-slicing.
///
/// Internally this is `Rc<Vec<u8>>` plus a `(start, len)` window, *not*
/// `Rc<[u8]>`: converting a `Vec` into `Rc<[u8]>` memcpys the contents,
/// which would defeat the purpose. Freezing a `Vec` into a `SectorBuf` is
/// copy-free, and [`slice`](SectorBuf::slice) just bumps the refcount.
#[derive(Clone)]
pub struct SectorBuf {
    data: Rc<Vec<u8>>,
    start: usize,
    len: usize,
}

impl SectorBuf {
    /// Freezes `v` into a buffer without copying.
    pub fn from_vec(v: Vec<u8>) -> SectorBuf {
        let len = v.len();
        SectorBuf {
            data: Rc::new(v),
            start: 0,
            len,
        }
    }

    /// Builds a buffer by copying `bytes` (the compatibility entry point for
    /// callers that only have a borrowed slice).
    pub fn copy_from(bytes: &[u8]) -> SectorBuf {
        SectorBuf::from_vec(bytes.to_vec())
    }

    /// Length of the view in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The viewed bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.start + self.len]
    }

    /// O(1) sub-view of `range` (relative to this view). Panics if the range
    /// is out of bounds, like slice indexing.
    pub fn slice(&self, range: Range<usize>) -> SectorBuf {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "slice {range:?} out of bounds for SectorBuf of len {}",
            self.len
        );
        SectorBuf {
            data: Rc::clone(&self.data),
            start: self.start + range.start,
            len: range.end - range.start,
        }
    }

    /// Address of the first viewed byte. Two views into the same backing
    /// allocation at the same offset compare equal — the hook used by the
    /// zero-copy pointer-identity tests.
    pub fn as_ptr(&self) -> *const u8 {
        self.as_slice().as_ptr()
    }

    /// Whether `self` and `other` share the same backing allocation (they
    /// may still view different windows of it).
    pub fn same_allocation(&self, other: &SectorBuf) -> bool {
        Rc::ptr_eq(&self.data, &other.data)
    }

    /// Recovers the backing `Vec` if this is the sole view over the whole
    /// allocation; otherwise returns `None`. Used to recycle buffers into a
    /// [`SectorPool`] once downstream consumers have dropped their views.
    fn into_vec(self) -> Option<Vec<u8>> {
        if self.start != 0 {
            return None;
        }
        let len = self.len;
        match Rc::try_unwrap(self.data) {
            Ok(v) if v.len() == len => Some(v),
            _ => None,
        }
    }
}

impl Deref for SectorBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for SectorBuf {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl fmt::Debug for SectorBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SectorBuf({} bytes @{:p})", self.len, self.as_ptr())
    }
}

impl PartialEq for SectorBuf {
    fn eq(&self, other: &SectorBuf) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for SectorBuf {}

impl From<Vec<u8>> for SectorBuf {
    fn from(v: Vec<u8>) -> SectorBuf {
        SectorBuf::from_vec(v)
    }
}

/// A free-list of byte vectors for building [`SectorBuf`]s without steady
/// state allocation.
///
/// Producers [`take`](SectorPool::take) a cleared `Vec`, fill it, freeze it
/// with [`SectorBuf::from_vec`], and later [`recycle`](SectorPool::recycle)
/// the buffer once every downstream view has been dropped (recycling is a
/// no-op while other views are alive, so it is always safe to attempt).
#[derive(Clone, Default)]
pub struct SectorPool {
    free: Rc<RefCell<Vec<Vec<u8>>>>,
}

impl SectorPool {
    /// Creates an empty pool.
    pub fn new() -> SectorPool {
        SectorPool::default()
    }

    /// Pops a cleared vector from the free list, or allocates a fresh one
    /// with `capacity_hint` reserved bytes.
    pub fn take(&self, capacity_hint: usize) -> Vec<u8> {
        match self.free.borrow_mut().pop() {
            Some(mut v) => {
                v.clear();
                v
            }
            None => Vec::with_capacity(capacity_hint),
        }
    }

    /// Attempts to reclaim `buf`'s backing allocation. Succeeds only when
    /// `buf` is the last view over its whole allocation; otherwise the bytes
    /// stay alive for the remaining views and nothing happens.
    pub fn recycle(&self, buf: SectorBuf) {
        if let Some(v) = buf.into_vec() {
            self.free.borrow_mut().push(v);
        }
    }

    /// Number of vectors currently in the free list.
    pub fn idle(&self) -> usize {
        self.free.borrow().len()
    }
}

impl fmt::Debug for SectorPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SectorPool(idle={})", self.idle())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freeze_is_copy_free_and_slices_share_the_allocation() {
        let v = vec![7u8; 1024];
        let base = v.as_ptr();
        let buf = SectorBuf::from_vec(v);
        assert_eq!(buf.as_ptr(), base, "from_vec must not copy");
        let tail = buf.slice(512..1024);
        assert_eq!(tail.len(), 512);
        assert_eq!(tail.as_ptr(), unsafe { base.add(512) });
        assert!(tail.same_allocation(&buf));
        let nested = tail.slice(0..256);
        assert_eq!(nested.as_ptr(), unsafe { base.add(512) });
        assert_eq!(&nested[..], &[7u8; 256][..]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        let buf = SectorBuf::from_vec(vec![0u8; 8]);
        let _ = buf.slice(4..9);
    }

    #[test]
    fn into_vec_only_succeeds_for_the_sole_full_view() {
        let buf = SectorBuf::from_vec(vec![1u8; 64]);
        let view = buf.slice(0..32);
        assert!(view.into_vec().is_none(), "partial view cannot reclaim");
        let other = buf.clone();
        assert!(other.into_vec().is_none(), "shared view cannot reclaim");
        let v = buf.into_vec().expect("sole full view reclaims");
        assert_eq!(v.len(), 64);
    }

    #[test]
    fn pool_recycles_sole_owners_and_ignores_shared_buffers() {
        let pool = SectorPool::new();
        let mut v = pool.take(512);
        let cap = v.capacity();
        v.extend_from_slice(&[9u8; 512]);
        let buf = SectorBuf::from_vec(v);
        let held = buf.clone();
        pool.recycle(buf);
        assert_eq!(pool.idle(), 0, "shared buffer must not be reclaimed");
        drop(held.clone());
        pool.recycle(held);
        assert_eq!(pool.idle(), 1);
        let reused = pool.take(0);
        assert!(reused.is_empty());
        assert_eq!(reused.capacity(), cap, "allocation was reused");
    }

    #[test]
    fn equality_compares_bytes_not_identity() {
        let a = SectorBuf::from_vec(vec![5u8; 16]);
        let b = SectorBuf::copy_from(&[5u8; 16]);
        assert_eq!(a, b);
        assert!(!a.same_allocation(&b));
    }
}
