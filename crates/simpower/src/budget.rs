//! The buffer-sizing inequality.
//!
//! RapiLog may acknowledge a log write the moment it is buffered only if the
//! buffer is guaranteed to reach the disk under *any* failure. For a power
//! cut, the budget is the usable residual window; the drain must fit in it:
//!
//! ```text
//! buffer_bytes / drain_bandwidth + drain_startup ≤ usable_window − margin
//! ```
//!
//! Solving for `buffer_bytes` gives the admission cap the dependable buffer
//! enforces. A safety margin absorbs model error (and in the real system,
//! measurement error of the hold-up time).

use rapilog_simcore::SimDuration;

use crate::supply::SupplySpec;

/// Fixed cost of switching the drain to emergency mode: one in-flight media
/// operation may need to complete plus a worst-case rotation miss on the
/// first emergency batch (~2 rotations of a 7200 rpm disk).
pub const DRAIN_STARTUP: SimDuration = SimDuration::from_millis(17);

/// Fraction of the usable window reserved as safety margin.
pub const SAFETY_MARGIN: f64 = 0.10;

/// Largest buffer (bytes) that can always be drained within the supply's
/// usable residual window at `drain_bandwidth` bytes/s. Returns 0 when the
/// window cannot even cover the drain startup cost — in that configuration
/// RapiLog must run in write-through mode.
pub fn max_buffer_bytes(spec: &SupplySpec, drain_bandwidth: u64) -> u64 {
    let usable = spec.usable_window();
    let budget = usable
        .mul_f64(1.0 - SAFETY_MARGIN)
        .saturating_sub(DRAIN_STARTUP);
    (budget.as_secs_f64() * drain_bandwidth as f64) as u64
}

/// Time to drain `bytes` at `drain_bandwidth`, including startup — the
/// quantity audited against the window by invariant I4.
pub fn drain_time(bytes: u64, drain_bandwidth: u64) -> SimDuration {
    assert!(drain_bandwidth > 0, "drain_time: zero bandwidth");
    DRAIN_STARTUP + SimDuration::from_secs_f64(bytes as f64 / drain_bandwidth as f64)
}

/// Does a buffer of `shard_bytes` fit the supply's window? The emergency
/// drain empties every shard through the *one* physical disk, so the
/// inequality must hold for the **sum** of the shard capacities, not for each shard in isolation. This
/// is the sizing obligation a sharded RapiLog instance asserts at build
/// time.
pub fn aggregate_fits(spec: &SupplySpec, drain_bandwidth: u64, shard_bytes: &[u64]) -> bool {
    let total: u64 = shard_bytes
        .iter()
        .fold(0u64, |acc, &b| acc.saturating_add(b));
    total <= max_buffer_bytes(spec, drain_bandwidth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supply::supplies;

    #[test]
    fn atx_psu_admits_megabytes_on_a_hdd() {
        let spec = supplies::atx_psu();
        // 198 ms usable * 0.9 − 17 ms ≈ 161 ms at ~116 MB/s ≈ 18.7 MB.
        let max = max_buffer_bytes(&spec, 116_000_000);
        assert!(
            (10_000_000..30_000_000).contains(&max),
            "unexpected cap: {max}"
        );
    }

    #[test]
    fn ups_admits_much_more_than_psu() {
        let psu = max_buffer_bytes(&supplies::atx_psu(), 116_000_000);
        let ups = max_buffer_bytes(&supplies::small_ups(), 116_000_000);
        assert!(ups > 20 * psu, "ups {ups} vs psu {psu}");
    }

    #[test]
    fn tiny_window_forces_write_through() {
        let spec = SupplySpec {
            name: "brownout".to_string(),
            residual_joules: 1.0,
            drain_draw_watts: 200.0, // 5 ms window < startup cost
            warning_latency: SimDuration::from_millis(1),
        };
        assert_eq!(max_buffer_bytes(&spec, 116_000_000), 0);
    }

    #[test]
    fn drain_time_is_linear_plus_startup() {
        let t0 = drain_time(0, 100_000_000);
        assert_eq!(t0, DRAIN_STARTUP);
        let t = drain_time(100_000_000, 100_000_000);
        assert_eq!(t, DRAIN_STARTUP + SimDuration::from_secs(1));
    }

    #[test]
    fn aggregate_fits_bounds_the_sum_not_the_parts() {
        let spec = supplies::atx_psu();
        let cap = max_buffer_bytes(&spec, 116_000_000);
        // Four shards each individually tiny but summing past the cap must
        // be rejected; splitting exactly the cap must pass.
        let quarter = cap / 4;
        assert!(aggregate_fits(
            &spec,
            116_000_000,
            &[quarter, quarter, quarter, quarter]
        ));
        assert!(!aggregate_fits(
            &spec,
            116_000_000,
            &[quarter + 1, quarter, quarter, quarter + 1]
        ));
        // Saturating sum: absurd shard sizes must not wrap into "fits".
        assert!(!aggregate_fits(&spec, 116_000_000, &[u64::MAX, u64::MAX]));
    }

    #[test]
    fn the_inequality_is_actually_safe() {
        // For every preset supply and a range of bandwidths: draining the
        // admitted cap must fit inside the usable window.
        for spec in [
            supplies::atx_psu(),
            supplies::atx_psu_loaded(),
            supplies::server_psu(),
            supplies::small_ups(),
        ] {
            for bw in [50_000_000u64, 116_000_000, 250_000_000] {
                let cap = max_buffer_bytes(&spec, bw);
                if cap == 0 {
                    continue;
                }
                let t = drain_time(cap, bw);
                assert!(
                    t <= spec.usable_window(),
                    "{}: drain {} exceeds window {}",
                    spec.name,
                    t,
                    spec.usable_window()
                );
            }
        }
    }
}
