//! Service-time models.
//!
//! The HDD model is the load-bearing piece of the whole reproduction: it
//! tracks the platter's angular position as a continuous function of virtual
//! time, so the cost of a small synchronous write *depends on when it is
//! issued*. A database that prepares the next log record while the platter
//! spins past the target sector pays a near-full rotation; a drain that
//! issues large back-to-back sequential writes pays the miss once per batch.

use rapilog_simcore::{SimDuration, SimTime};

use crate::spec::TimingSpec;
use crate::SECTOR_SIZE;

/// Breakdown of one access's service time into mechanical components.
///
/// For an HDD, `seek` is the positioning phase (seek overlapped with
/// controller overhead), `rotation` is the wait for the target sector to
/// pass under the head, and `transfer` is the media transfer including
/// track-boundary skew. For an SSD, `seek` carries the command latency and
/// `rotation` is always zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceParts {
    /// Positioning: seek overlapped with command overhead (HDD), or command
    /// latency (SSD).
    pub seek: SimDuration,
    /// Rotational wait (HDD only).
    pub rotation: SimDuration,
    /// Media/bus transfer.
    pub transfer: SimDuration,
}

impl ServiceParts {
    /// The whole service time.
    pub fn total(&self) -> SimDuration {
        self.seek + self.rotation + self.transfer
    }
}

/// Mutable timing state for one device.
pub enum TimingModel {
    /// Rotating disk; remembers the head's cylinder.
    Hdd {
        /// One platter rotation in nanoseconds.
        rotation_ns: u64,
        /// Sectors per track.
        sectors_per_track: u64,
        /// Track-to-track seek time.
        seek_min: SimDuration,
        /// Full-stroke seek time.
        seek_max: SimDuration,
        /// Per-command controller overhead.
        overhead: SimDuration,
        /// Total cylinders on the device.
        cylinders: u64,
        /// Cylinder the head currently sits on.
        current_cylinder: u64,
        /// End sector of the most recent access: a new access starting
        /// exactly here is a sequential continuation and may be absorbed
        /// by the drive's buffering; anything else pays real rotation.
        last_end_sector: Option<u64>,
        /// Angular offset (in sectors) between logical sector 0 of adjacent
        /// tracks. Real drives skew tracks so that after a track-to-track
        /// seek the head lands just ahead of the next logical sector;
        /// without it, every track boundary in a sequential stream would
        /// cost a full rotation.
        track_skew: u64,
    },
    /// Flash device; stateless.
    Ssd {
        /// Pre-transfer latency of a read command.
        read_latency: SimDuration,
        /// Pre-transfer latency of a write command.
        write_latency: SimDuration,
        /// FLUSH (FTL sync) cost.
        flush_latency: SimDuration,
        /// Interface bandwidth in bytes per second.
        bus_bytes_per_sec: u64,
    },
}

impl TimingModel {
    /// Builds the model from a spec for a device with `total_sectors`.
    pub fn from_spec(spec: &TimingSpec, total_sectors: u64) -> Self {
        match spec {
            TimingSpec::Hdd {
                rpm,
                sectors_per_track,
                seek_min,
                seek_max,
                overhead,
            } => TimingModel::Hdd {
                rotation_ns: 60_000_000_000 / *rpm as u64,
                sectors_per_track: *sectors_per_track,
                seek_min: *seek_min,
                seek_max: *seek_max,
                overhead: *overhead,
                cylinders: (total_sectors / sectors_per_track).max(1),
                current_cylinder: 0,
                last_end_sector: None,
                track_skew: spec.track_skew(),
            },
            TimingSpec::Ssd {
                read_latency,
                write_latency,
                flush_latency,
                bus_bytes_per_sec,
                ..
            } => TimingModel::Ssd {
                read_latency: *read_latency,
                write_latency: *write_latency,
                flush_latency: *flush_latency,
                bus_bytes_per_sec: *bus_bytes_per_sec,
            },
        }
    }

    /// Computes the service time of an access to `nsectors` starting at
    /// `sector`, issued at instant `now`, and updates head state; returns
    /// the seek/rotation/transfer breakdown for trace attribution.
    ///
    /// # Panics
    ///
    /// Panics if `nsectors` is zero.
    pub fn service(
        &mut self,
        now: SimTime,
        sector: u64,
        nsectors: u64,
        _is_write: bool,
    ) -> ServiceParts {
        assert!(nsectors > 0, "service_time: empty access");
        match self {
            TimingModel::Hdd {
                rotation_ns,
                sectors_per_track,
                seek_min,
                seek_max,
                overhead,
                cylinders,
                current_cylinder,
                last_end_sector,
                track_skew,
            } => {
                let spt = *sectors_per_track;
                let target_cyl = sector / spt;
                let distance = target_cyl.abs_diff(*current_cylinder);
                let seek = if distance == 0 {
                    SimDuration::ZERO
                } else {
                    let span = seek_max.saturating_sub(*seek_min);
                    *seek_min + span.mul_f64(distance as f64 / (*cylinders).max(1) as f64)
                };
                // Head is over the platter continuously; find its angular
                // position (in ns within the rotation) once the seek lands.
                // Controller processing and the seek overlap; the transfer
                // cannot start before both are done *and* the head reaches
                // the target angle.
                let earliest_start = now + seek.max(*overhead);
                let head_ns = (earliest_start.as_nanos() as u128 % *rotation_ns as u128) as u64;
                // Physical angle of a logical sector includes the per-track
                // skew offset.
                let angle_sectors = ((sector % spt) + ((sector / spt) % spt) * *track_skew) % spt;
                let target_ns = (angle_sectors as u128 * *rotation_ns as u128 / spt as u128) as u64;
                let mut rot_wait_ns = (target_ns + *rotation_ns - head_ns) % *rotation_ns;
                // Sequential-stream absorption: when this access starts
                // exactly where the previous one ended AND the head has
                // only just passed the target (within the command-overhead
                // window), the drive's segment buffer keeps the stream
                // going without a rotation — this is how back-to-back
                // sequential transfers reach media bandwidth. A *rewrite*
                // of an already-passed sector (e.g. re-forcing the WAL's
                // tail sector) is NOT a continuation and pays the full
                // rotation, which is precisely the cost that makes
                // synchronous commits slow on rotating disks.
                let sector_period = *rotation_ns / spt;
                let absorb_ns = 2 * overhead.as_nanos() + 4 * sector_period;
                let continuation = *last_end_sector == Some(sector);
                if continuation && rot_wait_ns >= rotation_ns.saturating_sub(absorb_ns) {
                    rot_wait_ns = 0;
                }
                // A multi-track transfer pays the skew once per boundary
                // (head switch + waiting out the skew gap).
                let boundaries = (sector + nsectors - 1) / spt - sector / spt;
                let transfer_sectors = nsectors as u128 + boundaries as u128 * *track_skew as u128;
                let transfer_ns = (transfer_sectors * *rotation_ns as u128 / spt as u128) as u64;
                *current_cylinder = (sector + nsectors - 1) / spt;
                *last_end_sector = Some(sector + nsectors);
                ServiceParts {
                    seek: seek.max(*overhead),
                    rotation: SimDuration::from_nanos(rot_wait_ns),
                    transfer: SimDuration::from_nanos(transfer_ns),
                }
            }
            TimingModel::Ssd {
                read_latency,
                write_latency,
                bus_bytes_per_sec,
                ..
            } => {
                let latency = if _is_write {
                    *write_latency
                } else {
                    *read_latency
                };
                let bytes = nsectors * SECTOR_SIZE as u64;
                let transfer_ns = if *bus_bytes_per_sec == u64::MAX {
                    0
                } else {
                    (bytes as u128 * 1_000_000_000u128 / *bus_bytes_per_sec as u128) as u64
                };
                ServiceParts {
                    seek: latency,
                    rotation: SimDuration::ZERO,
                    transfer: SimDuration::from_nanos(transfer_ns),
                }
            }
        }
    }

    /// Cost of a FLUSH command: the disk caches nothing, so only the
    /// command itself.
    pub fn flush_time(&self) -> SimDuration {
        match self {
            TimingModel::Hdd { overhead, .. } => *overhead,
            TimingModel::Ssd { flush_latency, .. } => *flush_latency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::specs;

    fn hdd_model() -> TimingModel {
        let spec = specs::hdd_7200(8 << 30);
        TimingModel::from_spec(&spec.timing, spec.sectors)
    }

    fn time(m: &mut TimingModel, now: SimTime, sector: u64, n: u64, write: bool) -> SimDuration {
        m.service(now, sector, n, write).total()
    }

    #[test]
    fn small_sync_writes_with_gaps_cost_about_a_rotation() {
        let mut m = hdd_model();
        let rotation = 8_333_333u64; // ns at 7200 rpm
        let mut now = SimTime::ZERO;
        let mut sector = 0u64;
        let mut total = SimDuration::ZERO;
        // Ten sequential 8-sector writes with a 500 µs "think" gap between
        // them, as a database commit stream would produce.
        for _ in 0..10 {
            let d = time(&mut m, now, sector, 8, true);
            now += d + SimDuration::from_micros(500);
            sector += 8;
            total += d;
        }
        let avg = total.as_nanos() / 10;
        assert!(
            avg > rotation / 2 && avg < rotation + rotation / 4,
            "avg {avg} ns vs rotation {rotation} ns"
        );
    }

    #[test]
    fn back_to_back_sequential_writes_stream() {
        let mut m = hdd_model();
        let mut now = SimTime::ZERO;
        let mut sector = 0u64;
        // Warm up: position the head.
        now += time(&mut m, now, sector, 8, true);
        sector += 8;
        // 1 MiB batches issued the instant the previous completes.
        let batch = 2048u64;
        let mut total = SimDuration::ZERO;
        for _ in 0..16 {
            let d = time(&mut m, now, sector, batch, true);
            now += d;
            sector += batch;
            total += d;
        }
        let bytes = 16 * batch * SECTOR_SIZE as u64;
        let bw = bytes as f64 / total.as_secs_f64();
        // ~116 MB/s media rate; the per-op overhead costs a few percent.
        assert!(
            bw > 80e6,
            "streaming bandwidth {bw:.0} B/s is far below media rate"
        );
    }

    #[test]
    fn seek_scales_with_distance() {
        let mut m = hdd_model();
        // Move from cylinder 0 to a nearby cylinder vs. a far one.
        let near = time(&mut m, SimTime::ZERO, 1900, 1, false);
        let mut m2 = hdd_model();
        let far_sector = 1900 * 5000;
        let far = time(&mut m2, SimTime::ZERO, far_sector, 1, false);
        // Rotational components are bounded by one rotation; a 5000-cylinder
        // seek must dominate a 1-cylinder seek on average. Compare the seek
        // floor instead of the total to keep the test deterministic: strip
        // the worst-case rotation from the far op and require it still
        // exceeds the near op's minimum.
        assert!(
            far.as_nanos() + 8_333_333 > near.as_nanos(),
            "sanity: far {far} vs near {near}"
        );
        // And directly: the far seek alone exceeds seek_min substantially.
        assert!(far > SimDuration::from_micros(600));
    }

    #[test]
    fn same_cylinder_access_has_no_seek() {
        let mut m = hdd_model();
        let d1 = time(&mut m, SimTime::ZERO, 0, 1, false);
        // Second access on the same track, right after: no seek component,
        // bounded by one rotation + transfer + overhead.
        let now = SimTime::ZERO + d1;
        let d2 = time(&mut m, now, 4, 1, false);
        assert!(d2 < SimDuration::from_nanos(8_333_333 + 200_000));
    }

    #[test]
    fn ssd_time_is_latency_plus_transfer() {
        let spec = specs::ssd_sata(1 << 30);
        let mut m = TimingModel::from_spec(&spec.timing, spec.sectors);
        let one = time(&mut m, SimTime::ZERO, 0, 1, true);
        // 70 µs + 512 B / 250 MiB/s ≈ 70 µs + 2 µs.
        assert!(one >= SimDuration::from_micros(70) && one < SimDuration::from_micros(80));
        let big = time(&mut m, SimTime::ZERO, 0, 2048, true);
        // 1 MiB at 250 MiB/s = 4 ms transfer.
        assert!(big > SimDuration::from_millis(3) && big < SimDuration::from_millis(6));
        // Position-independent: same cost anywhere.
        let other = time(&mut m, SimTime::from_secs(9), 999_999, 1, true);
        assert_eq!(one, other);
    }

    #[test]
    fn ssd_reads_cheaper_than_writes() {
        let spec = specs::ssd_sata(1 << 30);
        let mut m = TimingModel::from_spec(&spec.timing, spec.sectors);
        let r = time(&mut m, SimTime::ZERO, 0, 1, false);
        let w = time(&mut m, SimTime::ZERO, 0, 1, true);
        assert!(r < w);
    }

    #[test]
    fn flush_times() {
        let spec = specs::ssd_sata(1 << 30);
        let m = TimingModel::from_spec(&spec.timing, spec.sectors);
        assert_eq!(m.flush_time(), SimDuration::from_millis(2));
        let h = hdd_model();
        assert!(h.flush_time() < SimDuration::from_millis(1));
    }

    #[test]
    #[should_panic(expected = "empty access")]
    fn zero_sector_access_rejected() {
        let mut m = hdd_model();
        let _ = time(&mut m, SimTime::ZERO, 0, 0, false);
    }

    #[test]
    fn parts_sum_to_service_time() {
        let mut a = hdd_model();
        let mut b = hdd_model();
        let mut now = SimTime::ZERO;
        let mut sector = 0u64;
        for i in 0..20u64 {
            let parts = a.service(now, sector, 8, true);
            let total = time(&mut b, now, sector, 8, true);
            assert_eq!(parts.total(), total, "step {i}");
            now += total + SimDuration::from_micros(137);
            sector = (sector + 8 + i * 991) % (8 << 30 >> 9);
        }
    }

    #[test]
    fn hdd_parts_decompose_sensibly() {
        let mut m = hdd_model();
        // Far seek from cylinder 0: seek dominates and rotation is bounded
        // by one revolution.
        let parts = m.service(SimTime::ZERO, 1900 * 5000, 1, false);
        assert!(parts.seek > SimDuration::from_micros(600));
        assert!(parts.rotation <= SimDuration::from_nanos(8_333_333));
        assert!(parts.transfer > SimDuration::ZERO);
    }

    #[test]
    fn ssd_parts_have_no_rotation() {
        let spec = specs::ssd_sata(1 << 30);
        let mut m = TimingModel::from_spec(&spec.timing, spec.sectors);
        let parts = m.service(SimTime::ZERO, 0, 2048, true);
        assert_eq!(parts.rotation, SimDuration::ZERO);
        assert!(parts.transfer > SimDuration::ZERO);
        assert_eq!(parts.total(), parts.seek + parts.transfer);
    }
}
