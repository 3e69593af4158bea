//! The buffer-sizing rule, in time.
//!
//! RapiLog may acknowledge a log write the moment it is buffered only if the
//! buffer is guaranteed to reach the disk under *any* failure. For a power
//! cut, the budget is the usable residual window; the emergency drain must
//! fit in it. The drain pays the transfer of every byte, one positioning (a
//! seek and a rotation on a disk, a write command on flash) for every
//! region of contiguous sectors it holds, and one more for the operation
//! the disk has in flight when the warning comes:
//!
//! ```text
//! bytes / bandwidth + (regions + 1) × positioning ≤ usable_window × (1 − margin)
//! ```
//!
//! Solved for `bytes`, this is the one rule: the dependable buffer admits a
//! write while what it then holds fits, and a buffer sized from the supply
//! holds what fits in one region. A safety margin absorbs model error (and
//! in the real system, measurement error of the hold-up time).

use rapilog_simcore::SimDuration;

use crate::supply::SupplySpec;

/// Fraction of the usable window reserved as safety margin.
pub const SAFETY_MARGIN: f64 = 0.10;

/// Most bytes an emergency drain lands within `spec`'s usable window when
/// they lie in `regions` regions of contiguous sectors, at `bandwidth`
/// bytes/s and `positioning` per region and for the operation in flight at
/// the warning. 0 when the positionings alone fill the window: with one
/// region, RapiLog must then run in write-through mode.
pub fn drainable_bytes(
    spec: &SupplySpec,
    bandwidth: u64,
    positioning: SimDuration,
    regions: u64,
) -> u64 {
    let deadline = spec.usable_window().mul_f64(1.0 - SAFETY_MARGIN);
    let transfer = deadline.saturating_sub(positioning * (regions + 1));
    (transfer.as_secs_f64() * bandwidth as f64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supply::supplies;
    use rapilog_simcore::SimTime;
    use rapilog_simdisk::timing::TimingModel;
    use rapilog_simdisk::{specs, SECTOR_SIZE};

    #[test]
    fn atx_psu_admits_megabytes_in_one_region_on_a_hdd() {
        let disk = specs::hdd_7200(1 << 30);
        let (bw, pos) = (disk.sequential_bandwidth(), disk.positioning_bound());
        // (198 ms usable × 0.9 − 2 × 17.3 ms) × 108.7 MB/s ≈ 15.6 MB.
        let max = drainable_bytes(&supplies::atx_psu(), bw, pos, 1);
        assert!(
            (10_000_000..30_000_000).contains(&max),
            "unexpected cap: {max}"
        );
        let ups = drainable_bytes(&supplies::small_ups(), bw, pos, 1);
        assert!(ups > 20 * max, "ups {ups} vs psu {max}");
    }

    #[test]
    fn tiny_window_forces_write_through() {
        let spec = SupplySpec {
            name: "brownout".to_string(),
            residual_joules: 1.0,
            drain_draw_watts: 200.0, // 5 ms window < one positioning
            warning_latency: SimDuration::from_millis(1),
        };
        let disk = specs::hdd_7200(1 << 30);
        let (bw, pos) = (disk.sequential_bandwidth(), disk.positioning_bound());
        assert_eq!(drainable_bytes(&spec, bw, pos, 1), 0);
    }

    /// The rule against the disk model itself: what it admits, laid out
    /// as `regions` equal regions that alternate between the two ends of the
    /// disk and written one run per region, behind a one-sector operation
    /// in flight at the far end when the warning comes, lands within the
    /// usable window less the margin — for every preset supply, disk and
    /// region count. Where the positionings alone fill the window, nothing
    /// is admitted.
    #[test]
    fn the_inequality_is_actually_safe() {
        for spec in [
            supplies::atx_psu(),
            supplies::atx_psu_loaded(),
            supplies::server_psu(),
            supplies::small_ups(),
        ] {
            let deadline = spec.usable_window().mul_f64(1.0 - SAFETY_MARGIN);
            for disk in [specs::hdd_7200, specs::hdd_15k, specs::ssd_sata] {
                let disk = disk(16 << 30);
                let (bw, pos) = (disk.sequential_bandwidth(), disk.positioning_bound());
                for regions in [1, 4, 16] {
                    let at = format!("{} on {} in {regions} regions", spec.name, disk.name);
                    let bytes = drainable_bytes(&spec, bw, pos, regions);
                    if bytes == 0 {
                        assert!(pos * (regions + 1) >= deadline, "{at}");
                        continue;
                    }
                    let mut model = TimingModel::from_spec(&disk.timing, disk.sectors);
                    let mut now = SimTime::ZERO;
                    let mut op = |sector, sectors| {
                        let parts = model.service(now, sector, sectors, true);
                        now += parts.total();
                        parts.transfer
                    };
                    // Its positioning is the one the rule adds; its sector,
                    // a drain run's, would be among those held.
                    let in_flight = op(disk.sectors - 1, 1);
                    let sectors = bytes / SECTOR_SIZE as u64 / regions;
                    for region in 0..regions {
                        match region % 2 {
                            0 => op(region * sectors, sectors),
                            _ => op(disk.sectors - (region + 1) * sectors, sectors),
                        };
                    }
                    let drain = now - SimTime::ZERO - in_flight;
                    assert!(drain <= deadline, "{at}: {bytes} B drain in {drain}");
                }
            }
        }
    }
}
