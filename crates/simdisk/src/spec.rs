//! Device specifications and factory presets.

use rapilog_simcore::SimDuration;

use crate::SECTOR_SIZE;

/// Timing model selection for a device.
#[derive(Debug, Clone)]
pub enum TimingSpec {
    /// Rotating disk: the model tracks head cylinder and platter angle.
    Hdd {
        /// Spindle speed in revolutions per minute.
        rpm: u32,
        /// Sectors per track; determines sequential bandwidth
        /// (`spt * sector_size * rpm / 60` bytes/s).
        sectors_per_track: u64,
        /// Track-to-track seek time.
        seek_min: SimDuration,
        /// Full-stroke seek time.
        seek_max: SimDuration,
        /// Fixed per-request controller/command overhead.
        overhead: SimDuration,
    },
    /// Flash device: fixed per-op latencies plus bus-limited transfer.
    Ssd {
        /// Latency of a read command before data transfer.
        read_latency: SimDuration,
        /// Latency of a write command before data transfer.
        write_latency: SimDuration,
        /// Cost of a FLUSH (FTL metadata sync).
        flush_latency: SimDuration,
        /// Interface bandwidth in bytes per second.
        bus_bytes_per_sec: u64,
        /// Independent flash channels: how many media operations the device
        /// services concurrently. Each channel has the full per-op latency
        /// and bus share; the queued [`BlockDevice`](crate::BlockDevice)
        /// interface is what lets callers actually keep them busy.
        channels: u32,
    },
}

impl TimingSpec {
    /// Whether a multi-sector write in flight at a power cut commits only
    /// the sector prefix the head had completed (sectors themselves are
    /// atomic): true for a rotating disk. Flash is power-loss protected:
    /// the whole in-flight command completes from stored energy.
    pub fn torn_writes(&self) -> bool {
        matches!(self, TimingSpec::Hdd { .. })
    }

    /// Sectors of angular offset between adjacent tracks, which a transfer
    /// waits out at every track boundary: enough to cover a track-to-track
    /// seek, plus margin. Zero on flash.
    pub fn track_skew(&self) -> u64 {
        let TimingSpec::Hdd {
            rpm,
            sectors_per_track: spt,
            seek_min,
            ..
        } = self
        else {
            return 0;
        };
        (seek_min.as_nanos() / (60_000_000_000 / *rpm as u64 / spt).max(1) + 3) % spt
    }
}

/// Media-fault model parameters.
///
/// Real stable storage fails in more ways than losing power: commands fail
/// transiently, sectors grow unrecoverable defects, firmware stalls a
/// request for tens of milliseconds while it retries internally, and —
/// rarest and nastiest — a write lands wrong without any error (the IRON
/// taxonomy of Prabhakaran et al., SOSP'05). All of it is driven by a
/// dedicated [`SimRng`](rapilog_simcore::rng::SimRng) stream seeded from
/// `seed`, so a fault schedule replays exactly under the same seed
/// regardless of request timing upstream.
///
/// Rates are per *media operation*. All rates default to zero;
/// [`FaultProfile::default`] is a healthy disk.
#[derive(Debug, Clone)]
pub struct FaultProfile {
    /// Seed of the fault RNG stream.
    pub seed: u64,
    /// Probability that a media op fails with
    /// [`IoError::Transient`](crate::IoError::Transient).
    pub transient_rate: f64,
    /// Probability that a media *write* grows a persistent defect on one of
    /// its sectors, failing with
    /// [`IoError::MediaError`](crate::IoError::MediaError) until the sector
    /// is remapped.
    pub grown_defect_rate: f64,
    /// Probability that a media op stalls for [`stall`](Self::stall) before
    /// being serviced (drive-internal retries / thermal recalibration).
    pub stall_rate: f64,
    /// Duration of one write/read stall.
    pub stall: SimDuration,
    /// Probability that a media write silently corrupts one of its sectors
    /// — no error is returned; only a later read-back notices.
    pub corruption_rate: f64,
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile {
            seed: 0,
            transient_rate: 0.0,
            grown_defect_rate: 0.0,
            stall_rate: 0.0,
            stall: SimDuration::from_millis(30),
            corruption_rate: 0.0,
        }
    }
}

impl FaultProfile {
    /// A profile of only transient command failures at the given rate.
    pub fn transient(seed: u64, rate: f64) -> FaultProfile {
        FaultProfile {
            seed,
            transient_rate: rate,
            ..FaultProfile::default()
        }
    }

    /// A profile of only grown media defects at the given rate.
    pub fn grown_defects(seed: u64, rate: f64) -> FaultProfile {
        FaultProfile {
            seed,
            grown_defect_rate: rate,
            ..FaultProfile::default()
        }
    }
}

/// Full description of a simulated device.
#[derive(Debug, Clone)]
pub struct DiskSpec {
    /// Human-readable model name (appears in reports).
    pub name: String,
    /// Total addressable sectors.
    pub sectors: u64,
    /// Service-time model.
    pub timing: TimingSpec,
    /// Media-fault model; `None` is a fault-free device (every preset's
    /// default). Set via [`DiskSpec::with_faults`].
    pub fault: Option<FaultProfile>,
}

impl DiskSpec {
    /// Sequential media bandwidth in bytes per second: the rate the RapiLog
    /// drain sustains with large batches, on a disk less the track skew
    /// waited out at every track boundary.
    pub fn sequential_bandwidth(&self) -> u64 {
        match &self.timing {
            TimingSpec::Hdd {
                rpm,
                sectors_per_track: spt,
                ..
            } => {
                let skewed = spt + self.timing.track_skew();
                spt * SECTOR_SIZE as u64 * *rpm as u64 / 60 * spt / skewed
            }
            TimingSpec::Ssd {
                bus_bytes_per_sec, ..
            } => *bus_bytes_per_sec,
        }
    }

    /// Returns the spec with the given fault profile installed.
    pub fn with_faults(mut self, profile: FaultProfile) -> DiskSpec {
        self.fault = Some(profile);
        self
    }

    /// Returns the spec with `n` independent flash channels (SSD specs
    /// only; ignored for rotating disks, which have a single actuator).
    pub fn with_channels(mut self, n: u32) -> DiskSpec {
        if let TimingSpec::Ssd { channels, .. } = &mut self.timing {
            *channels = n.max(1);
        }
        self
    }

    /// How many media operations the device can service concurrently: the
    /// channel count for flash, 1 for a rotating disk.
    pub fn queue_depth(&self) -> u32 {
        match &self.timing {
            TimingSpec::Hdd { .. } => 1,
            TimingSpec::Ssd { channels, .. } => (*channels).max(1),
        }
    }

    /// Time for one platter rotation; zero for SSDs.
    pub fn rotation_period(&self) -> SimDuration {
        match &self.timing {
            TimingSpec::Hdd { rpm, .. } => SimDuration::from_nanos(60_000_000_000 / *rpm as u64),
            TimingSpec::Ssd { .. } => SimDuration::ZERO,
        }
    }

    /// The most a write waits before its first sector moves, as the model
    /// charges it: a full-stroke seek (or the command overhead, if longer)
    /// plus one rotation on a disk, the write command's latency on flash —
    /// whole, since a drain may keep one command in flight.
    pub fn positioning_bound(&self) -> SimDuration {
        match &self.timing {
            TimingSpec::Hdd {
                seek_max, overhead, ..
            } => (*seek_max).max(*overhead) + self.rotation_period(),
            TimingSpec::Ssd { write_latency, .. } => *write_latency,
        }
    }
}

/// Factory presets modelled on common 2013-era hardware (the paper's
/// evaluation ran on SATA disks of that generation).
pub mod specs {
    use super::*;

    /// A fault-free device of `capacity_bytes`, rounded up to sectors.
    fn preset(name: &str, capacity_bytes: u64, timing: TimingSpec) -> DiskSpec {
        DiskSpec {
            name: name.to_string(),
            sectors: capacity_bytes.div_ceil(SECTOR_SIZE as u64),
            timing,
            fault: None,
        }
    }

    /// 7200 rpm SATA disk: 8.33 ms rotation, ~117 MB/s off a track (~109
    /// MB/s sequential, track skew included), 0.6–9 ms seeks.
    pub fn hdd_7200(capacity_bytes: u64) -> DiskSpec {
        let timing = TimingSpec::Hdd {
            rpm: 7200,
            sectors_per_track: 1900,
            seek_min: SimDuration::from_micros(600),
            seek_max: SimDuration::from_millis(9),
            overhead: SimDuration::from_micros(60),
        };
        preset("hdd-7200", capacity_bytes, timing)
    }

    /// 15 krpm enterprise disk: 4 ms rotation, ~190 MB/s sequential.
    pub fn hdd_15k(capacity_bytes: u64) -> DiskSpec {
        let timing = TimingSpec::Hdd {
            rpm: 15000,
            sectors_per_track: 1500,
            seek_min: SimDuration::from_micros(300),
            seek_max: SimDuration::from_millis(4),
            overhead: SimDuration::from_micros(60),
        };
        preset("hdd-15k", capacity_bytes, timing)
    }

    /// SATA-era SSD: ~70 µs writes, ~2 ms flush, 250 MB/s bus.
    pub fn ssd_sata(capacity_bytes: u64) -> DiskSpec {
        let timing = TimingSpec::Ssd {
            read_latency: SimDuration::from_micros(50),
            write_latency: SimDuration::from_micros(70),
            flush_latency: SimDuration::from_millis(2),
            bus_bytes_per_sec: 250 * 1024 * 1024,
            channels: 1,
        };
        preset("ssd-sata", capacity_bytes, timing)
    }

    /// Fast NVMe-class flash: ~15 µs writes, 2 GB/s.
    pub fn ssd_nvme(capacity_bytes: u64) -> DiskSpec {
        let timing = TimingSpec::Ssd {
            read_latency: SimDuration::from_micros(10),
            write_latency: SimDuration::from_micros(15),
            flush_latency: SimDuration::from_micros(400),
            bus_bytes_per_sec: 2 * 1024 * 1024 * 1024,
            channels: 1,
        };
        preset("ssd-nvme", capacity_bytes, timing)
    }

    /// Zero-latency device for unit tests that only care about contents.
    pub fn instant(capacity_bytes: u64) -> DiskSpec {
        let timing = TimingSpec::Ssd {
            read_latency: SimDuration::ZERO,
            write_latency: SimDuration::ZERO,
            flush_latency: SimDuration::ZERO,
            bus_bytes_per_sec: u64::MAX,
            channels: 1,
        };
        preset("instant", capacity_bytes, timing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hdd_bandwidth_and_rotation() {
        let spec = specs::hdd_7200(1 << 30);
        // 1900 sectors * 512 B * 120 rot/s = ~116.7 MB/s, less a skew of
        // 139 sectors (600 µs over a 4.386 µs sector period, plus 3) at
        // each track boundary: ~108.7 MB/s.
        assert_eq!(spec.timing.track_skew(), 139);
        let bw = spec.sequential_bandwidth();
        assert_eq!(bw, 116_736_000 * 1900 / 2039, "bw {bw}");
        assert_eq!(spec.rotation_period().as_micros(), 8_333);
    }

    #[test]
    fn ssd_bandwidth_is_bus_limited() {
        let spec = specs::ssd_sata(1 << 30);
        assert_eq!(spec.sequential_bandwidth(), 250 * 1024 * 1024);
        assert!(spec.rotation_period().is_zero());
    }

    #[test]
    fn positioning_bound_is_a_seek_and_a_rotation_or_a_write_command() {
        let hdd = specs::hdd_7200(1 << 30).positioning_bound();
        assert_eq!(
            hdd,
            SimDuration::from_millis(9) + SimDuration::from_nanos(8_333_333)
        );
        let hdd = specs::hdd_15k(1 << 30).positioning_bound();
        assert_eq!(hdd, SimDuration::from_millis(8));
        let flash = |spec: fn(u64) -> DiskSpec| spec(1 << 30).positioning_bound();
        assert_eq!(flash(specs::ssd_sata), SimDuration::from_micros(70));
        assert_eq!(flash(specs::ssd_nvme), SimDuration::from_micros(15));
        assert!(flash(specs::instant).is_zero());
    }

    #[test]
    fn capacity_rounds_up_to_sectors() {
        let spec = specs::instant(1000);
        assert_eq!(spec.sectors, 2);
    }

    #[test]
    fn channels_default_to_one_and_are_configurable() {
        assert_eq!(specs::ssd_nvme(1 << 30).queue_depth(), 1);
        assert_eq!(specs::ssd_nvme(1 << 30).with_channels(4).queue_depth(), 4);
        assert_eq!(specs::ssd_nvme(1 << 30).with_channels(0).queue_depth(), 1);
        // Rotating disks have a single actuator no matter what, and only
        // they tear a write at a power cut.
        assert_eq!(specs::hdd_7200(1 << 30).with_channels(4).queue_depth(), 1);
        for (spec, tears) in [
            (specs::hdd_7200(1 << 30), true),
            (specs::hdd_15k(1 << 30), true),
            (specs::ssd_sata(1 << 30), false),
            (specs::ssd_nvme(1 << 30), false),
            (specs::instant(1 << 30), false),
        ] {
            assert_eq!(spec.timing.torn_writes(), tears, "{}", spec.name);
        }
    }
}
