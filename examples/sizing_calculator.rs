//! Buffer sizing calculator: the paper's safety rule, in time, as a tool.
//!
//! Given a supply's residual energy, the drain power draw, and the log
//! disk's sequential bandwidth and positioning cost (a full seek plus one
//! rotation on a disk, a write command on flash), prints the residual
//! window and the most a dependable buffer may hold in one, four and
//! sixteen regions of contiguous sectors: the emergency drain pays one
//! positioning per region, and one for the operation in flight at the
//! warning, on top of the bytes' transfer.
//!
//! ```sh
//! cargo run --example sizing_calculator                        # catalogue
//! cargo run --example sizing_calculator 30 150 108780000 17333 # J, W, B/s, µs
//! ```

use rapilog_suite::simcore::SimDuration;
use rapilog_suite::simdisk::{specs, DiskSpec};
use rapilog_suite::simpower::{budget, supplies, SupplySpec};

fn describe(spec: &SupplySpec, disk: &str, bandwidth: u64, positioning: SimDuration) {
    println!(
        "supply {:<16} window {:>8}  usable {:>8}  on {disk} ({:.0} MB/s, {positioning} a region)",
        spec.name,
        spec.window(),
        spec.usable_window(),
        bandwidth as f64 / 1e6,
    );
    if budget::drainable_bytes(spec, bandwidth, positioning, 1) == 0 {
        println!("  -> window below one positioning: run write-through, no buffering");
        return;
    }
    for regions in [1, 4, 16] {
        match budget::drainable_bytes(spec, bandwidth, positioning, regions) {
            0 => println!("  -> {regions:>2} regions: their positioning alone overruns the window"),
            cap => println!(
                "  -> max dependable buffer in {regions:>2} regions: {:.1} MiB",
                cap as f64 / (1024.0 * 1024.0)
            ),
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() == 4 {
        let joules: f64 = args[0].parse().expect("joules (f64)");
        let watts: f64 = args[1].parse().expect("watts (f64)");
        let bandwidth: u64 = args[2].parse().expect("bandwidth bytes/s (u64)");
        let positioning: u64 = args[3].parse().expect("positioning µs (u64)");
        let spec = SupplySpec {
            name: "custom".to_string(),
            residual_joules: joules,
            drain_draw_watts: watts,
            warning_latency: SimDuration::from_millis(2),
        };
        describe(
            &spec,
            "custom",
            bandwidth,
            SimDuration::from_micros(positioning),
        );
        return;
    }
    println!(
        "RapiLog buffer sizing (pass: <joules> <watts> <bandwidth B/s> <positioning µs> for a custom supply and disk)\n"
    );
    let disks: [fn(u64) -> DiskSpec; 3] = [specs::hdd_7200, specs::hdd_15k, specs::ssd_sata];
    for spec in [
        supplies::atx_psu(),
        supplies::atx_psu_loaded(),
        supplies::server_psu(),
        supplies::small_ups(),
    ] {
        for disk in disks.map(|d| d(1 << 30)) {
            describe(
                &spec,
                &disk.name,
                disk.sequential_bandwidth(),
                disk.positioning_bound(),
            );
        }
        println!();
    }
}
