//! An untraced trial keeps no trace events, only their running fold: its
//! attribution must be exactly what folding the traced form's kept trace
//! through the trial's `verdict` instant gives, and nothing else about the
//! trial may differ.

use rapilog_faultsim::{run_trial, run_trial_traced, ExplorerConfig, FaultKind, TrialResult};
use rapilog_simcore::trace::{LatencyAttribution, Layer, TraceSnapshot};
use rapilog_simcore::{SchedulerKind, SimDuration};

/// Every field but the attribution, as printed, plus the commit-latency
/// histogram's shape beyond what its `Debug` prints.
fn observables(r: &TrialResult) -> String {
    let h = &r.commit_latency;
    format!(
        "ok={} violations={:?} journals={:?} recovered={:?} acked={} recovery={:?} \
         guarantee={:?} faults={:?} tenants={:?} latency={:?} sum={} p50={} p90={} p999={}",
        r.ok,
        r.violations,
        r.journals,
        r.recovered,
        r.total_acked,
        r.recovery,
        r.rapilog_guarantee,
        r.fault_stats,
        r.tenant_journals,
        h,
        h.sum(),
        h.percentile(50.0),
        h.percentile(90.0),
        h.percentile(99.9),
    )
}

#[test]
fn untraced_attribution_is_the_traced_trace_folded() {
    let single = ExplorerConfig::rapilog_default();
    let multi = ExplorerConfig::multi_tenant();
    let burst = FaultKind::all()[2];
    assert!(matches!(burst, FaultKind::DiskErrorBurst { .. }));
    let cells = [
        (&single, FaultKind::GuestCrash, "rapilog_default"),
        (&single, FaultKind::PowerCut, "rapilog_default"),
        (&multi, burst, "multi_tenant"),
    ];
    let fault_after = SimDuration::from_millis(120);
    for (explorer, kind, label) in cells {
        assert!(explorer.seeds.len() >= 4);
        for &seed in &explorer.seeds {
            let at = format!("{label} {} seed {seed:#x}", kind.label());
            let untraced = run_trial(seed, explorer.trial(seed, kind, fault_after));
            let (traced, _, trace) = run_trial_traced(
                seed,
                explorer.trial(seed, kind, fault_after),
                SchedulerKind::TimerWheel,
            );
            assert_eq!(trace.dropped, 0, "{at}: the traced ring evicted");
            let verdict = trace
                .events
                .iter()
                .position(|ev| ev.layer == Layer::Fault && ev.name == "verdict")
                .expect("the trial's verdict instant");
            let folded = TraceSnapshot {
                events: trace.events[..=verdict].to_vec(),
                ..trace
            };
            assert!(
                !untraced.attribution.layers.is_empty(),
                "{at}: nothing folded"
            );
            assert_eq!(
                untraced.attribution,
                LatencyAttribution::from_snapshot(&folded, untraced.total_acked),
                "{at}: running fold vs the kept trace folded"
            );
            assert_eq!(untraced.attribution, traced.attribution, "{at}");
            assert_eq!(observables(&untraced), observables(&traced), "{at}");
        }
    }
}
