//! What crash recovery holds: the log bytes it read back, not a decoded
//! copy of them.
//!
//! A counting global allocator tracks live heap bytes and their high-water
//! mark. A native machine on instant disks commits enough register writes
//! to leave over 20 000 records behind the last checkpoint, crashes
//! its guest, and recovers; the peak live heap recovery adds over what was
//! live before it must stay under [`PEAK_PER_SCANNED_BYTE`] times the log
//! bytes it scanned. A recovery that kept every record decoded (a heap
//! allocation per row image) and indexed by LSN needs a third more.
//!
//! One test only: the counters are global, and another test running in a
//! second thread would show up in them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use rapilog_suite::dbengine::wal::{Superblock, SUPERBLOCK_SECTOR};
use rapilog_suite::faultsim::{Machine, MachineConfig, Setup};
use rapilog_suite::simcore::{Sim, SimTime};
use rapilog_suite::simdisk::{specs, SECTOR_SIZE};
use rapilog_suite::workload::micro;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting live bytes and their high-water mark.
struct PeakAlloc;

fn grew(by: u64) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: defers entirely to `System`; the counters are lock-free atomics
// and touch no allocator state.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size() as u64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted as the moment both blocks may be live: a realloc that
        // moves holds the old and the new one at once.
        grew(new_size as u64);
        let out = unsafe { System.realloc(ptr, layout, new_size) };
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        out
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Peak live heap that recovery may add, per log byte it scanned. The scan
/// keeps the bytes in a growing `Vec` (up to twice their length once it has
/// doubled, and old and new block at once while it does); analysis keeps 16
/// bytes per page-touching record, redo 8 per record in its chains; the
/// rest (the read-ahead chunks in flight, the pages redo touches, the
/// closing checkpoint) does not grow with the log. Measured at 20 606
/// records, 1 059 026 bytes scanned: 3.85 live bytes per scanned byte when
/// recovery keeps the bytes, 5.08 when it held every record decoded
/// (`Vec<(Lsn, Record)>`) and indexed by LSN.
const PEAK_PER_SCANNED_BYTE: f64 = 4.5;

#[test]
fn recovery_holds_the_log_bytes_not_a_decoded_copy() {
    let mut sim = Sim::new(1);
    let ctx = sim.ctx();
    let out = Rc::new(Cell::new(None));
    let out2 = Rc::clone(&out);
    sim.spawn(async move {
        let disks = || specs::instant(64 << 20);
        let machine = Machine::new(&ctx, MachineConfig::new(Setup::Native, disks(), disks()));
        let db = machine.install(&micro::table_defs(1)).await.unwrap();
        let table = micro::registers_table(&db).unwrap();
        micro::init_client(&db, table, 0).await.unwrap();
        for seq in 1..=5_150 {
            micro::write_pair(&db, table, 0, seq).await.unwrap();
        }
        machine.crash_guest();
        let mut sector = vec![0u8; SECTOR_SIZE];
        machine
            .data_disk()
            .peek_media(SUPERBLOCK_SECTOR, &mut sector);
        let from = Superblock::decode(&sector).expect("superblock").checkpoint;
        let before = LIVE.load(Ordering::Relaxed);
        PEAK.store(before, Ordering::Relaxed);
        let (db, report) = machine.reboot_and_recover().await.unwrap();
        let added = PEAK.load(Ordering::Relaxed) - before;
        out2.set(Some((
            added,
            report.log_end.0 - from.0,
            report.scanned_records,
        )));
        db.stop();
    });
    sim.run_until(SimTime::from_secs(3600));
    let (added, scanned_bytes, records) = out.get().expect("recovery finished");
    let per_byte = added as f64 / scanned_bytes as f64;
    eprintln!(
        "{records} records, {scanned_bytes} bytes scanned, peak live heap +{added} bytes \
         ({per_byte:.2} per scanned byte)"
    );
    assert!(records >= 20_000, "only {records} records scanned");
    assert!(
        per_byte < PEAK_PER_SCANNED_BYTE,
        "recovery added {added} live bytes at its peak for {scanned_bytes} scanned log bytes \
         ({per_byte:.2} per byte, bound {PEAK_PER_SCANNED_BYTE}): it keeps more than the bytes"
    );
}
