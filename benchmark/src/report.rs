//! The metric tables (the names `BENCHMARK.json` declares) and the result a
//! run prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `(name, unit)` of every end-to-end metric, in `BENCHMARK.json` order.
/// Every workload reports every one of them from its untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("op_mean_us", "sim_us"),
    ("op_p90_us", "sim_us"),
    ("op_tail_us", "sim_us"),
    ("ops_per_sim_s", "1/sim_s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// `(name, unit)` of every per-layer metric, `<crate>.<module>.<metric>`.
/// Every workload reports every one of them from its traced run; a layer
/// the workload does not exercise (or whose figure the public API does not
/// expose there) reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("bench.fail_share", "ratio"),
    ("bench.samples", "count"),
    ("simcore.exec.host_ns_per_op", "ns"),
    ("simcore.exec.polls_per_op", "count"),
    ("simcore.exec.allocs_per_op", "count"),
    ("simcore.exec.alloc_bytes_per_op", "B"),
    ("simcore.exec.probe_ns_per_poll", "ns"),
    ("simcore.trace.overhead_pct", "%"),
    ("simcore.trace.dropped_events", "count"),
    ("workload.client.attempted", "count"),
    ("workload.client.aborted", "count"),
    ("workload.client.lock_timeouts", "count"),
    ("workload.client.connection_lost", "count"),
    ("workload.client.commit_p50_us", "sim_us"),
    ("workload.client.commit_p99_us", "sim_us"),
    ("workload.client.commit_p999_us", "sim_us"),
    ("workload.tpcc.probe_ns_per_generate", "ns"),
    ("dbengine.engine.sim_us_per_op", "sim_us"),
    ("dbengine.wal.sim_us_per_op", "sim_us"),
    ("dbengine.wal.records_per_commit", "count"),
    ("dbengine.wal.bytes_per_commit", "B"),
    ("dbengine.wal.commits_per_flush", "count"),
    ("dbengine.wal.probe_ns_per_encode", "ns"),
    ("dbengine.wal.probe_ns_per_decode", "ns"),
    ("dbengine.buffer.hit_ratio", "ratio"),
    ("dbengine.buffer.misses_per_commit", "count"),
    ("dbengine.buffer.writebacks_per_commit", "count"),
    ("dbengine.recovery.recovery_ms_p50", "sim_ms"),
    ("dbengine.recovery.recovery_ms_p90", "sim_ms"),
    ("dbengine.recovery.scan_ms_p50", "sim_ms"),
    ("dbengine.recovery.redo_ms_p50", "sim_ms"),
    ("dbengine.recovery.undo_ms_p50", "sim_ms"),
    ("dbengine.recovery.scanned_records", "count"),
    ("dbengine.recovery.redo_applied", "count"),
    ("dbengine.recovery.redo_skipped_clean", "count"),
    ("dbengine.recovery.losers_undone", "count"),
    ("dbengine.recovery.probe_host_us_per_krecord", "us"),
    ("microvisor.ring.probe_sim_us_per_request", "sim_us"),
    ("microvisor.ring.probe_ns_per_request", "ns"),
    ("rapilog.buffer.sim_us_per_op", "sim_us"),
    ("rapilog.buffer.accepted_bytes", "B"),
    ("rapilog.buffer.backpressure_events", "count"),
    ("rapilog.buffer.peak_occupancy_bytes", "B"),
    ("rapilog.buffer.probe_ns_per_push_pop", "ns"),
    ("rapilog.drain.sim_us_per_op", "sim_us"),
    ("rapilog.drain.log_mib_per_sim_s", "MiB/sim_s"),
    ("rapilog.drain.durable_p50_us", "sim_us"),
    ("rapilog.drain.durable_p99_us", "sim_us"),
    ("rapilog.drain.batch_target_bytes", "B"),
    ("rapilog.drain.window_depth", "count"),
    ("rapilog.drain.batch_grows", "count"),
    ("rapilog.drain.batch_shrinks", "count"),
    ("rapilog.drain.hold_fires", "count"),
    ("rapilog.drain.ewma_service_us", "sim_us"),
    ("rapilog.drain.ooo_retirements", "count"),
    ("rapilog.drain.bytes_per_media_op", "B"),
    ("rapilog.drain.probe_ns_per_extent", "ns"),
    ("rapilog.shard.tenant_acked_min_max", "ratio"),
    ("rapilog.replicate.sync_commit_p50_us", "sim_us"),
    ("rapilog.replicate.sync_commit_p99_us", "sim_us"),
    ("rapilog.replicate.failover_ms_p50", "sim_ms"),
    ("rapilog.replicate.failover_ms_p90", "sim_ms"),
    ("rapilog.replicate.retransmits_per_trial", "count"),
    ("rapilog.replicate.async_lag_writes", "count"),
    ("rapilog.replicate.zombie_refused", "count"),
    ("rapilog.replicate.chaos_retransmits_per_trial", "count"),
    ("rapilog.audit.guarantee_violations", "count"),
    ("rapilog.audit.drain_retries", "count"),
    ("rapilog.audit.degraded_entries", "count"),
    ("simdisk.disk.sim_us_per_op", "sim_us"),
    ("simdisk.disk.log_writes", "count"),
    ("simdisk.disk.log_flushes", "count"),
    ("simdisk.disk.log_media_ops", "count"),
    ("simdisk.disk.media_bytes_per_accepted_byte", "ratio"),
    ("simdisk.disk.log_busy_share", "ratio"),
    ("simdisk.disk.log_max_outstanding", "count"),
    ("simdisk.disk.data_reads", "count"),
    ("simdisk.disk.data_writes", "count"),
    ("simdisk.disk.probe_ns_per_submit", "ns"),
    ("simnet.link.ship_dropped", "count"),
    ("simnet.link.chaos_dropped", "count"),
    ("simnet.link.chaos_duplicated", "count"),
    ("simnet.link.chaos_reordered", "count"),
    ("simnet.link.probe_ns_per_send", "ns"),
    ("simpower.supply.power_cut_trials", "count"),
    ("simpower.supply.emergency_unmet", "count"),
    ("faultsim.machine.build_host_us", "us"),
    ("faultsim.machine.install_host_us", "us"),
    ("faultsim.machine.load_host_us", "us"),
    ("faultsim.trial.commit_p50_us", "sim_us"),
    ("faultsim.trial.commit_p99_us", "sim_us"),
    ("faultsim.findings.trials", "count"),
    ("faultsim.findings.audit_failed", "count"),
    ("ledger.sim_unattributed_us", "sim_us"),
    ("ledger.host_unattributed_pct", "%"),
];

/// Metric values keyed by name; `set` refuses names outside `table`, so a
/// typo is a harness error, not a silently missing metric.
pub struct Metrics {
    table: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    pub fn end_to_end() -> Metrics {
        Metrics {
            table: END_TO_END,
            values: BTreeMap::new(),
        }
    }

    /// Per-layer metrics start at 0: "this layer did nothing here".
    pub fn per_layer() -> Metrics {
        Metrics {
            table: PER_LAYER,
            values: PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.table.iter().any(|&(n, _)| n == name),
            "metric {name} is not declared"
        );
        assert!(value.is_finite(), "metric {name} is not a finite number");
        self.values.insert(name, value);
    }

    /// A whole-number metric (an exact count or a delta of one).
    pub fn count(&mut self, name: &'static str, value: u64) {
        self.set(name, value as f64);
    }

    /// `num ÷ den`, 0 when there is nothing to divide by.
    pub fn ratio(&mut self, name: &'static str, num: u64, den: u64) {
        self.set(
            name,
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            },
        );
    }

    pub fn get(&self, name: &str) -> f64 {
        *self
            .values
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"))
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` in table order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, &(name, unit)) in self.table.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                self.get(name)
            );
        }
        out.push('}');
        out
    }
}

/// What one run of one workload found.
pub struct Outcome {
    /// Operations attempted / failed (see the README for each workload's
    /// definition of a failed operation).
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold; any entry makes the run incorrect.
    pub check_failures: Vec<String>,
    pub metrics: Metrics,
}

impl Outcome {
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.check_failures.is_empty(),
            self.attempted,
            self.failed,
            self.metrics.to_json()
        )
    }
}

/// Pulls `"<name>": {"value": <number>` out of a result line this program
/// printed. Only used by the agreement modes on their own children's
/// output, so a scanner over the fixed format above is enough.
pub fn scan_value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// Pulls a top-level `"<key>": <token>` (number or bool) out of a result line.
pub fn scan_top(line: &str, key: &str) -> Option<String> {
    let k = format!("\"{key}\": ");
    let rest = &line[line.find(&k)? + k.len()..];
    Some(rest[..rest.find([',', '}'])?].to_string())
}
