//! Benchmark-owned counting allocator: `simcore.exec.allocs_per_op` and
//! `alloc_bytes_per_op` are before/after deltas of these counters.
//!
//! It wraps the system allocator in every run, traced or not, so the two
//! kinds of run pay the same (two relaxed atomic adds per allocation).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

pub struct CountingAlloc;

// SAFETY: every method defers to `System` with the arguments it was given;
// the counters are atomics and touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            CALLS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add((new_size - layout.size()) as u64, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` through this wrapper.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Cumulative `(allocation calls, bytes requested)`.
pub fn counters() -> (u64, u64) {
    (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
}
