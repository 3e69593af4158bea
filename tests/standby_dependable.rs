//! The standby's ack is only as good as the standby's guarantee.
//!
//! A standby that applies into a second RapiLog instance acknowledges at
//! admission to that instance's dependable buffer, so a replicated commit
//! costs one network round trip and no media write. These trials turn the
//! fault harness on the *standby's* box, through the public trial function
//! only: what it acknowledged must be on its media after its power dies,
//! the check must be able to fail, and a standby that cannot keep up must
//! slow the primary's sync writers down rather than fail them.

use rapilog_suite::faultsim::{run_standby_trial, StandbyTrialConfig};
use rapilog_suite::prelude::*;
use rapilog_suite::simdisk::IoError;

#[test]
fn standby_power_cut_keeps_every_frame_it_acknowledged() {
    let r = run_standby_trial(0x57B1, StandbyTrialConfig::power_cut());
    assert!(r.ok, "violations: {:?}", r.violations);
    let acknowledged = r.durable_hi.expect("the load ran") + 1;
    assert!(
        acknowledged > 50,
        "a real prefix was acknowledged ({acknowledged})"
    );
    assert!(
        r.acked_writes < r.attempted_writes,
        "the cut fell mid-load: sync writers were left waiting on the standby"
    );
    assert_eq!(r.write_errors, 0, "waiting, not failing");
    assert!(
        r.occupancy_at_warning > 0,
        "the emergency drain had acknowledged bytes to land (potency)"
    );
    assert_eq!(
        r.lost_acked_frames, 0,
        "byte-exact on the standby's media, every one"
    );
    assert!(r.standby_guarantee);
    // Its buffer froze at the warning and turned the next frame away: the
    // acks stopped, the image stayed a valid prefix.
    assert_eq!(
        r.standby_stopped,
        Some(ApplyStop::Refused(IoError::PowerLoss))
    );
}

#[test]
fn without_the_emergency_drain_acknowledged_frames_are_lost() {
    // The potency control: the same trial, but the standby's disk goes
    // dark with the mains instead of riding out the residual window.
    let r = run_standby_trial(
        0x57B1,
        StandbyTrialConfig {
            emergency_drain: false,
            ..StandbyTrialConfig::power_cut()
        },
    );
    assert!(!r.ok, "the audit must be able to fail");
    assert!(
        r.lost_acked_frames > 0,
        "frames acknowledged from the buffer never reached media"
    );
    assert!(
        !r.standby_guarantee,
        "and the standby's own auditor says so"
    );
    assert!(r.lost_acked_frames <= r.durable_hi.unwrap() + 1);
}

#[test]
fn tiny_standby_buffer_on_a_rotating_disk_is_back_pressure_not_errors() {
    // Four sectors of buffer over the paper's log disk: an apply admits
    // only as fast as the standby's drain frees space, one rotation at a
    // time.
    let r = run_standby_trial(
        0x57B2,
        StandbyTrialConfig {
            standby_disk: specs::hdd_7200(1 << 30),
            standby_capacity: CapacitySpec::Fixed(4 * SECTOR_SIZE as u64),
            cut_standby_after: None,
            ..StandbyTrialConfig::power_cut()
        },
    );
    assert!(r.ok, "violations: {:?}", r.violations);
    assert_eq!(r.write_errors, 0);
    assert_eq!(r.acked_writes, 800, "every write was acknowledged");
    assert_eq!(r.durable_hi, Some(799));
    assert_eq!(r.lost_acked_frames, 0, "nothing is lost");
    assert!(r.standby_guarantee);
    assert_eq!(r.standby_stopped, None);
    assert!(
        r.standby_backpressure_events > 0,
        "applies waited for buffer space"
    );
    // Acks fell to drain speed: a commit now costs milliseconds of platter
    // time, not the 120 us round trip — and the primary's writers paid it
    // as latency.
    assert!(
        r.commit_latency.mean() > 1_000.0,
        "mean sync commit {:.0} us",
        r.commit_latency.mean()
    );
}
