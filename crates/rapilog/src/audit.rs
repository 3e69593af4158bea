//! Runtime invariant auditor.
//!
//! The paper's guarantee is a theorem about the implementation; this module
//! is the executable check of that theorem's premises in every run:
//!
//! * **I3 (order)** — each tenant's media commits are observed in strictly
//!   increasing order of its own sequence numbers, checked in that
//!   tenant's section of the report (an instance with one tenant has one
//!   section);
//! * **I4 (bounded drain)** — when power fails, the occupancy snapshot at
//!   the warning fits the drain budget, and the drain in fact finishes
//!   before the residual deadline;
//! * drain failures (device died with bytes still buffered) are fatal to
//!   the guarantee and flagged.
//!
//! The fault-injection harness asserts [`AuditReport::guarantee_held`]
//! after every campaign.

use std::cell::RefCell;
use std::rc::Rc;

use rapilog_simcore::{SimCtx, SimTime};

/// Outcome of one power-failure episode.
#[derive(Debug, Clone, Copy)]
pub struct EmergencyOutcome {
    /// When the warning reached the watcher.
    pub warned_at: SimTime,
    /// Bytes buffered at that instant.
    pub occupancy_at_warning: u64,
    /// When output was due to collapse.
    pub deadline: SimTime,
    /// When the drain emptied the buffer; `None` if it never did.
    pub drained_at: Option<SimTime>,
}

impl EmergencyOutcome {
    /// True if every buffered byte reached media before the deadline.
    pub fn met(&self) -> bool {
        self.drained_at.is_some_and(|t| t <= self.deadline)
    }
}

/// Per-tenant section of the audit report, one for every shard of the
/// instance. Each tenant shard has its own sequence space, so ordering (I3)
/// is checked against a per-tenant contiguous durable prefix, and lost
/// bytes are attributed to the shard that held them when the drain died.
#[derive(Debug, Clone, Default)]
pub struct TenantAudit {
    /// The tenant this section describes (`TenantId` raw value).
    pub tenant: u64,
    /// Media commits observed for this tenant.
    pub commits: u64,
    /// True if this tenant's commits arrived out of sequence order.
    pub order_violated: bool,
    /// Bytes of this tenant still buffered when the drain failed.
    pub bytes_lost_at_failure: u64,
    /// Last committed sequence, for the per-tenant ordering check.
    pub(crate) last_seq: Option<u64>,
}

impl TenantAudit {
    /// The per-tenant verdict: ordering held and no acked byte was lost.
    pub fn guarantee_held(&self) -> bool {
        !self.order_violated && self.bytes_lost_at_failure == 0
    }
}

/// The auditor's cumulative findings.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Power-failure episodes and their outcomes.
    pub emergencies: Vec<EmergencyOutcome>,
    /// Times the drain lost the device with bytes still buffered.
    pub drain_failures: u64,
    /// Bytes that were still buffered at those failures.
    pub bytes_lost_at_failure: u64,
    /// Transient device failures the drain retried through.
    pub drain_retries: u64,
    /// Defective sectors the drain remapped and rewrote.
    pub sector_remaps: u64,
    /// Times the instance entered degraded (synchronous-ack) mode.
    pub degraded_entries: u64,
    /// Times the instance recovered back to early acknowledgement.
    pub degraded_exits: u64,
    /// Batches that retired before an older batch under the windowed drain
    /// (out-of-order media completion). Informational, not a violation:
    /// I3 tracks the contiguous durable *prefix*, which the drain reports
    /// only as it advances.
    pub ooo_retirements: u64,
    /// One section per tenant shard, in shard order: the commits and the
    /// ordering check (I3) live here, and the losses above are attributed.
    pub tenants: Vec<TenantAudit>,
}

impl AuditReport {
    /// The headline verdict: every tenant section held (ordering, no loss),
    /// and every power-failure episode drained in time. A drain failure is
    /// only acceptable if it happened *after* the buffer had already emptied
    /// (then `bytes_lost_at_failure` is zero).
    pub fn guarantee_held(&self) -> bool {
        self.bytes_lost_at_failure == 0
            && self.emergencies.iter().all(|e| e.met())
            && self.tenants.iter().all(|t| t.guarantee_held())
    }
}

struct AuditSt {
    report: AuditReport,
    pending_emergency: Option<usize>,
}

impl AuditSt {
    /// Index of `tenant`'s section, creating it on first use. Sections are
    /// few (one per cell) — a linear scan beats a side map.
    fn tenant_idx(&mut self, tenant: u64) -> usize {
        if let Some(i) = self.report.tenants.iter().position(|t| t.tenant == tenant) {
            return i;
        }
        self.report.tenants.push(TenantAudit {
            tenant,
            ..TenantAudit::default()
        });
        self.report.tenants.len() - 1
    }
}

/// Cloneable auditor handle.
#[derive(Clone)]
pub struct Audit {
    ctx: SimCtx,
    st: Rc<RefCell<AuditSt>>,
}

impl Audit {
    /// Creates an auditor. It holds no handle to the power supply (the
    /// watcher hands it the deadline with the warning): every part of the
    /// instance shares this auditor, and the supply's death hook may own
    /// such a part, so a handle back would be a reference cycle.
    pub fn new(ctx: &SimCtx) -> Audit {
        Audit {
            ctx: ctx.clone(),
            st: Rc::new(RefCell::new(AuditSt {
                report: AuditReport::default(),
                pending_emergency: None,
            })),
        }
    }

    /// Registers a tenant section up front so reports list every tenant
    /// even if it never commits.
    pub fn register_tenant(&self, tenant: u64) {
        self.st.borrow_mut().tenant_idx(tenant);
    }

    /// Records a media commit of every extent of `tenant` up to `seq`.
    /// Ordering is checked against the tenant's own sequence space.
    pub fn record_tenant_commit(&self, tenant: u64, seq: u64) {
        let mut st = self.st.borrow_mut();
        let idx = st.tenant_idx(tenant);
        let section = &mut st.report.tenants[idx];
        if let Some(last) = section.last_seq {
            if seq <= last {
                section.order_violated = true;
            }
        }
        section.last_seq = Some(seq);
        section.commits += 1;
    }

    /// Attributes bytes lost at a drain failure to `tenant`'s shard. The
    /// aggregate is recorded separately via
    /// [`record_drain_failure`](Self::record_drain_failure).
    pub fn record_tenant_loss(&self, tenant: u64, bytes: u64) {
        let mut st = self.st.borrow_mut();
        let idx = st.tenant_idx(tenant);
        st.report.tenants[idx].bytes_lost_at_failure += bytes;
    }

    /// Records the power-fail warning with the occupancy snapshot.
    pub fn record_warning(&self, occupancy: u64, deadline: SimTime) {
        let now = self.ctx.now();
        let mut st = self.st.borrow_mut();
        st.report.emergencies.push(EmergencyOutcome {
            warned_at: now,
            occupancy_at_warning: occupancy,
            deadline,
            drained_at: None,
        });
        let idx = st.report.emergencies.len() - 1;
        st.pending_emergency = Some(idx);
    }

    /// Records the emergency drain reaching empty.
    pub fn record_emergency_drained(&self) {
        let now = self.ctx.now();
        let mut st = self.st.borrow_mut();
        if let Some(idx) = st.pending_emergency.take() {
            st.report.emergencies[idx].drained_at = Some(now);
        }
    }

    /// Records the device dying under the drain with bytes still queued.
    pub fn record_drain_failure(&self, occupancy: u64) {
        let mut st = self.st.borrow_mut();
        st.report.drain_failures += 1;
        st.report.bytes_lost_at_failure += occupancy;
    }

    /// Records one transient failure retried by the drain.
    pub fn record_retry(&self) {
        self.st.borrow_mut().report.drain_retries += 1;
    }

    /// Records one sector remap + rewrite by the drain.
    pub fn record_remap(&self) {
        self.st.borrow_mut().report.sector_remaps += 1;
    }

    /// Records one batch retiring ahead of an older pending batch.
    pub fn record_ooo_retirement(&self) {
        self.st.borrow_mut().report.ooo_retirements += 1;
    }

    /// Records entry into degraded (synchronous-ack) mode.
    pub fn record_degraded_entry(&self) {
        self.st.borrow_mut().report.degraded_entries += 1;
    }

    /// Records recovery back to early acknowledgement.
    pub fn record_degraded_exit(&self) {
        self.st.borrow_mut().report.degraded_exits += 1;
    }

    /// Snapshot of the findings.
    pub fn report(&self) -> AuditReport {
        self.st.borrow().report.clone()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rapilog_simcore::Sim;

    /// The section for `tenant`, if registered.
    pub(crate) fn section(r: &AuditReport, tenant: u64) -> Option<&TenantAudit> {
        r.tenants.iter().find(|t| t.tenant == tenant)
    }

    #[test]
    fn ordering_violation_detected() {
        let sim = Sim::new(0);
        let audit = Audit::new(&sim.ctx());
        audit.register_tenant(0);
        audit.record_tenant_commit(0, 1);
        audit.record_tenant_commit(0, 2);
        assert!(audit.report().guarantee_held());
        audit.record_tenant_commit(0, 2);
        assert!(audit.report().tenants[0].order_violated);
        assert!(!audit.report().guarantee_held());
    }

    #[test]
    fn emergency_met_iff_drained_before_deadline() {
        let mut sim = Sim::new(0);
        let ctx = sim.ctx();
        let audit = Audit::new(&ctx);
        let a2 = audit.clone();
        sim.spawn({
            let ctx = ctx.clone();
            async move {
                a2.record_warning(
                    1024,
                    ctx.now() + rapilog_simcore::SimDuration::from_millis(100),
                );
                ctx.sleep(rapilog_simcore::SimDuration::from_millis(50))
                    .await;
                a2.record_emergency_drained();
            }
        });
        sim.run();
        let r = audit.report();
        assert_eq!(r.emergencies.len(), 1);
        assert!(r.emergencies[0].met());
        assert!(r.guarantee_held());
    }

    #[test]
    fn late_drain_fails_the_guarantee() {
        let mut sim = Sim::new(0);
        let ctx = sim.ctx();
        let audit = Audit::new(&ctx);
        let a2 = audit.clone();
        sim.spawn({
            let ctx = ctx.clone();
            async move {
                a2.record_warning(
                    1024,
                    ctx.now() + rapilog_simcore::SimDuration::from_millis(10),
                );
                ctx.sleep(rapilog_simcore::SimDuration::from_millis(50))
                    .await;
                a2.record_emergency_drained();
            }
        });
        sim.run();
        assert!(!audit.report().guarantee_held());
    }

    #[test]
    fn unfinished_emergency_fails() {
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let audit = Audit::new(&ctx);
        audit.record_warning(10, SimTime::from_millis(5));
        assert!(!audit.report().guarantee_held());
    }

    #[test]
    fn drain_failure_with_zero_bytes_is_tolerated() {
        let sim = Sim::new(0);
        let audit = Audit::new(&sim.ctx());
        audit.record_drain_failure(0);
        assert!(audit.report().guarantee_held(), "nothing was lost");
        audit.record_drain_failure(512);
        assert!(!audit.report().guarantee_held());
    }

    #[test]
    fn tenant_sections_check_ordering_per_tenant() {
        let sim = Sim::new(0);
        let audit = Audit::new(&sim.ctx());
        audit.register_tenant(0);
        audit.register_tenant(1);
        // Interleaved commits from independent sequence spaces: each
        // tenant's own order holds even though the merged stream does not.
        audit.record_tenant_commit(0, 5);
        audit.record_tenant_commit(1, 2);
        audit.record_tenant_commit(0, 6);
        audit.record_tenant_commit(1, 3);
        let r = audit.report();
        assert_eq!(r.tenants.len(), 2);
        assert!(r.guarantee_held());
        assert_eq!(section(&r, 0).unwrap().commits, 2);
        // A regression within ONE tenant's space flips only that section
        // — and with it the headline verdict.
        audit.record_tenant_commit(1, 3);
        let r = audit.report();
        assert!(section(&r, 1).unwrap().order_violated);
        assert!(!section(&r, 1).unwrap().guarantee_held());
        assert!(!section(&r, 0).unwrap().order_violated);
        assert!(!r.guarantee_held());
    }

    #[test]
    fn tenant_loss_fails_only_that_section_and_the_headline() {
        let sim = Sim::new(0);
        let audit = Audit::new(&sim.ctx());
        audit.record_tenant_commit(7, 1);
        audit.record_tenant_loss(7, 4096);
        let r = audit.report();
        assert_eq!(section(&r, 7).unwrap().bytes_lost_at_failure, 4096);
        assert!(!r.guarantee_held());
        assert!(section(&r, 7).is_some() && section(&r, 8).is_none());
    }
}
