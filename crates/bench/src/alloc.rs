//! A counting global allocator for allocation-budget assertions.
//!
//! The zero-copy data path is easy to regress silently: one stray
//! `to_vec()` in a hot loop costs nothing in a unit test and everything at
//! scale. [`CountingAlloc`] wraps the system allocator and counts every
//! allocation, so the microbenchmarks can assert a hard budget — e.g.
//! "allocations per committed storm transaction stay under N" — and fail
//! the build when a copy sneaks back in.
//!
//! Install it in a `harness = false` bench binary:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: rapilog_bench::alloc::CountingAlloc = rapilog_bench::alloc::CountingAlloc;
//! ```
//!
//! then measure regions with [`snapshot`] deltas, or hunt leaks with
//! [`live_bytes`] deltas. Counters are atomic, so the measurement itself
//! allocates nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

/// System allocator wrapper that counts allocations and allocated bytes.
/// Reallocation that grows counts as one allocation (the copy it implies is
/// the cost being tracked); `dealloc` is free in those two counters and
/// only lowers [`live_bytes`].
pub struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counters are lock-free atomics
// and touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add((new_size - layout.size()) as u64, Ordering::Relaxed);
        }
        // Wrapping: a shrink adds the two's complement of what it freed.
        LIVE_BYTES.fetch_add(
            (new_size as u64).wrapping_sub(layout.size() as u64),
            Ordering::Relaxed,
        );
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// A point-in-time reading of the allocation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Cumulative allocation calls (including growing reallocs).
    pub calls: u64,
    /// Cumulative bytes requested.
    pub bytes: u64,
}

impl AllocSnapshot {
    /// Counters accumulated since `earlier`.
    pub fn since(&self, earlier: AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            calls: self.calls - earlier.calls,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// Reads the counters. Meaningful only when [`CountingAlloc`] is installed
/// as the global allocator; otherwise both counters stay zero.
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        calls: ALLOC_CALLS.load(Ordering::Relaxed),
        bytes: ALLOC_BYTES.load(Ordering::Relaxed),
    }
}

/// Bytes currently allocated and not yet freed. A region that frees
/// everything it allocated leaves this where it found it; the delta across
/// a dropped simulation is what that simulation leaked. Meaningful only
/// when [`CountingAlloc`] is the global allocator.
pub fn live_bytes() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_delta_is_monotonic() {
        let a = snapshot();
        let b = snapshot();
        let d = b.since(a);
        assert!(d.calls <= b.calls);
    }
}
